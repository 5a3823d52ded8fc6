"""Metamorphic laws of the checker: relations between verdicts that need no
oracle, so they reach games the brute-force reference cannot.

Outside the acceptance gate.  Horizon monotonicity is criterion 8 of
``test_acceptance.py``; the laws here are declaration order and coalition
monotonicity.
"""

import random

import pytest

from upatl.checker import Verdict, check_state
from upatl.formula import Strat, parse_formula, render_formula
from upatl.model import build_game, game_names
from upatl.oracle import GeneratorParams, formula_templates, generate_random_game

from helpers import load_game_file

HORIZONS = range(4)


def permuted(game, rnd: random.Random):
    """``game`` declared in another order and rebuilt with ``build_game``:
    the agents (with every joint action), the names in each row, the rows of
    every keyed section and the states, each shuffled by ``rnd``."""
    names = game_names(game)
    order = list(range(len(names["agents"])))
    rnd.shuffle(order)

    def shuffled(items):
        items = list(items)
        rnd.shuffle(items)
        return items

    def rows(section):
        return {key: shuffled(row) for key, row in shuffled(names[section].items())}

    return build_game(
        name=game.name,
        agents=[names["agents"][i] for i in order],
        capacities=rows("capacities"),
        actions=rows("actions"),
        states=shuffled(names["states"]),
        labels=rows("labels"),
        protocol=rows("protocol"),
        transitions={
            (q, tuple(joint[i] for i in order)): target
            for (q, joint), target in shuffled(names["transitions"].items())
        },
        init=names["init"],
    )


def law_games():
    yield pytest.param(load_game_file("hand"), id="hand")
    yield pytest.param(load_game_file("hand_mix"), id="hand_mix")
    for seed in range(12):
        params = GeneratorParams(
            seed=seed,
            states=1 + seed % 5,
            agents=1 + seed % 3,
            capacities_per_agent=1 + seed % 2,
            actions_per_capacity=1 + seed // 2 % 2,
        )
        yield pytest.param(generate_random_game(params), id=f"gen{seed}")


@pytest.mark.parametrize("game", law_games())
def test_declaration_order_does_not_change_verdicts(request, game):
    """Every template's verdict at every state and horizon, matched by
    name, is the same in the game and in a reordered copy."""
    other = permuted(game, random.Random(request.node.callspec.id))
    for formula in formula_templates(game):
        text = render_formula(formula, game)
        again = parse_formula(text, other)
        for q, state in enumerate(game.state_names):
            q2 = other.state_names.index(state)
            for k in HORIZONS:
                got = check_state(other, q2, again, k)
                assert got == check_state(game, q, formula, k), (text, state, k)


def monotonicity_games():
    yield pytest.param(load_game_file("hand"), id="hand")
    yield pytest.param(load_game_file("hand_mix"), id="hand_mix")
    for seed in range(20):
        params = GeneratorParams(seed=seed, states=2 + seed % 4, agents=2 + seed % 2)
        yield pytest.param(generate_random_game(params), id=f"gen{seed}")


ORDER = {Verdict.FALSE: 0, Verdict.UNKNOWN: 1, Verdict.TRUE: 2}


@pytest.mark.parametrize("game", monotonicity_games())
def test_a_larger_coalition_never_does_worse(game):
    """If ``<<A>> g`` is TRUE, so is ``<<A ∪ {b}>> g``; if the latter is
    FALSE, so is the former.  Together: the verdict never falls, in the
    order FALSE < UNKNOWN < TRUE, when an agent joins the coalition.

    Proof.  Take an A-tree T and one of its outcomes π.  Let the tree T'
    of ``A ∪ {b}`` prescribe T's actions to A everywhere, and to b the
    action of π at every history π passes through (any action of b's
    protocol elsewhere).  b's moves are only narrowed, so T''s outcomes are
    among T's, and π is one of them: it agrees with T on A and with itself
    on b.  The goal's verdict on an outcome depends on the outcome alone.

    TRUE: let T win, so its outcomes are nonempty and all TRUE; take any
    one as π.  T''s outcomes are nonempty, since π is one, and all TRUE,
    since they are T's, so T' wins.

    FALSE: suppose ``<<A>> g`` is not FALSE, so some A-tree T escapes
    falsification: it has an outcome π that is not FALSE, and no FALSE
    outcome whose compatible capacities meet the unprunable ones of every
    agent.  T' keeps π.  A FALSE outcome of T' unprunable for ``A ∪ {b}``
    is a FALSE outcome of T, and unprunable for A too: for b every capacity
    counts as unprunable while b is outside the coalition, and the other
    agents' unprunable capacities do not change.  T has none, so T' escapes
    falsification too, and ``<<A ∪ {b}>> g`` is not FALSE.
    """
    compared = 0
    for f in formula_templates(game):
        if not isinstance(f, Strat):
            continue
        for b in sorted(set(game.agents) - f.coalition):
            larger = Strat(f.coalition | {b}, f.goal)
            for q in game.states:
                for k in HORIZONS:
                    small = check_state(game, q, f, k)
                    large = check_state(game, q, larger, k)
                    assert ORDER[small] <= ORDER[large], (f, b, q, k, small, large)
                    compared += 1
    assert compared > 100

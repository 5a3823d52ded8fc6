"""Metamorphic laws of the checker: relations between verdicts that need no
oracle, so they reach games the brute-force reference cannot.

Outside the acceptance gate.  Horizon monotonicity is criterion 8 of
``test_acceptance.py``; the law here is declaration order.
"""

import random

import pytest

from upatl.checker import check_state
from upatl.formula import parse_formula, render_formula
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

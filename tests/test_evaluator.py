"""The abstract-state evaluator against path-based references, at depth.

The checker evaluates over abstract prefix states (last state, compatible
capacities, belief sets) with forward goal progression and memoized
searches.  ``helpers`` keeps the path-based definitions it replaced: the
indistinguishability-class knowledge, the backward temporal unrolling, and
a tree-by-tree strategic verdict.  Every evaluation here is compared with
them on every short path, at every index.
"""

import json
import random
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from upatl import checker, cli
from upatl.checker import (
    EvalContext,
    Evaluator,
    Verdict,
    canonical_assignment,
    check_state,
    eval_knowledge,
    eval_path_formula,
    eval_temporal,
    find_winning_strategy,
)
from upatl.model import build_game
from upatl.formula import (
    And,
    Atom,
    CapAnd,
    CapNot,
    HasCap,
    Know,
    Next,
    Not,
    Release,
    Strat,
    Until,
    parse_formula,
)
from upatl.oracle import GeneratorParams, generate_random_game

from helpers import (
    GAMES_DIR,
    all_paths,
    first_winning_tree,
    load_game_file,
    random_formula,
    reference_knowledge,
    reference_path_formula,
    reference_temporal,
)

MAX_STATES = 3  # paths of one to three states


def games():
    out = [load_game_file("hand"), load_game_file("hand_mix")]
    out += [generate_random_game(GeneratorParams(seed=s, agents=2)) for s in (0, 1)]
    out += [generate_random_game(GeneratorParams(seed=s, agents=3)) for s in (0, 1)]
    return out


def short_paths(game):
    return [
        path
        for q in game.states
        for steps in range(MAX_STATES)
        for path in all_paths(game, q, steps)
    ]


def nested_formulas(game, rng):
    """``K`` under ``<<...>>``, ``<<...>>`` under temporal goals, and random
    formulas of depth four."""
    first, last = 0, game.agent_count - 1
    prop = Atom(rng.randrange(len(game.prop_names)))
    true = Atom(game.true_prop)
    know = Know(first, HasCap(last, min(game.agent_capacities[last])))
    doubt = Know(last, CapNot(HasCap(first, max(game.agent_capacities[first]))))
    everyone = frozenset(game.agents)
    always = Strat(frozenset({first}), Release(Not(true), prop))  # G prop
    eventually = Strat(frozenset({last}), Until(true, prop))  # F prop
    return [
        Strat(frozenset({last}), Until(true, know)),
        Strat(frozenset({first}), Release(Not(know), prop)),
        Strat(frozenset({last}), Next(Strat(frozenset({first}), Next(know)))),
        Strat(frozenset(), Until(Not(doubt), Strat(everyone, Next(prop)))),
        Not(And(know, Strat(frozenset({first}), Release(prop, doubt)))),
        # An UNKNOWN left operand (G prop, where prop holds) before a TRUE
        # right one, and its dual.
        Strat(frozenset({last}), Until(always, Not(prop))),
        Strat(frozenset({first}), Release(eventually, Not(prop))),
    ] + [random_formula(game, rng, 4) for _ in range(4)]


def ctx_at(game, path, index, horizon):
    return EvalContext(game, path, index, canonical_assignment(game), horizon)


@pytest.mark.parametrize("n", range(6))
def test_knowledge_matches_the_class_reference(n):
    game = games()[n]
    bodies = [
        HasCap(a, c) for a in game.agents for c in sorted(game.agent_capacities[a])
    ]
    bodies += [CapNot(CapAnd(bodies[0], CapNot(bodies[-1])))]
    compared = 0
    for path in short_paths(game):
        for index in range(1, len(path.states) + 1):
            for agent in game.agents:
                for body in bodies:
                    assert eval_knowledge(game, path, index, agent, body) == (
                        reference_knowledge(game, path, index, agent, body)
                    ), (path, index, agent, body)
                    compared += 1
    assert compared > 100


@pytest.mark.parametrize("n", range(6))
def test_temporal_and_path_formulas_match_the_references(n):
    game = games()[n]
    rng = random.Random(7 + n)
    formulas = nested_formulas(game, rng)
    goals = [f.goal for f in formulas if isinstance(f, Strat)]
    compared = decided = 0
    for path in short_paths(game):
        for index in range(1, len(path.states) + 1):
            # The path itself is the outcome, read from ``index`` to its end.
            horizon = len(path.states) - index
            ctx = ctx_at(game, path, index, horizon)
            for goal in goals:
                got = eval_temporal(ctx, goal, path)
                assert got is reference_temporal(ctx, goal, path), (path, index, goal)
                compared += 1
            ctx = ctx_at(game, path, index, 1)
            for f in formulas:
                got = eval_path_formula(ctx, f)
                assert got is reference_path_formula(ctx, f), (path, index, f)
                compared += 1
                decided += got is not Verdict.UNKNOWN
    assert decided > 0 and compared > 100


def test_fixture_formulas_match_the_reference_at_horizon_two(g_hand, g_mix):
    rng = random.Random(3)
    for game in (g_hand, g_mix):
        for f in nested_formulas(game, rng):
            for q in game.states:
                ctx = ctx_at(game, all_paths(game, q, 0)[0], 1, 2)
                assert eval_path_formula(ctx, f) is reference_path_formula(ctx, f), f


DEEP_ROWS = [
    "K[obs](opp=lefty)",
    "<<opp>> F leftHit",
    "<<opp>> N rightHit",
    "<<opp>> F <<opp>> N rightHit",
    "<<opp>> G start",
    "<<obs>> N K[obs](opp=righty)",
    "<<opp>> F K[obs](opp=lefty)",
    "<<opp>> (!K[obs](opp=lefty)) U rightHit",
    "<<obs,opp>> F (leftHit & K[obs](opp=lefty))",
    "<<obs>> G (start | K[obs](opp=lefty) | K[obs](opp=righty))",
    "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))",
]


@pytest.mark.parametrize("text", DEEP_ROWS)
def test_decided_verdicts_never_flip_up_to_horizon_twelve(g_mix, text):
    f = parse_formula(text, g_mix)
    decided = None
    for k in range(13):
        got = check_state(g_mix, 0, f, k)
        if decided is not None:
            assert got is decided, (k, got, decided)
        elif got is not Verdict.UNKNOWN:
            decided = got


@pytest.mark.parametrize(
    "text, k",
    [
        ("<<opp>> N rightHit", 14),
        ("<<opp>> F leftHit", 10),
        ("<<opp>> F <<opp>> N rightHit", 5),
        ("<<opp>> F K[obs](opp=lefty)", 8),
    ],
)
def test_witness_walk_reuses_the_verdicts_ranks(g_mix, text, k):
    f = parse_formula(text, g_mix)
    evaluator = Evaluator(g_mix, k, f)
    ctx = EvalContext(
        g_mix, all_paths(g_mix, 0, 0)[0], 1, canonical_assignment(g_mix), k, evaluator
    )
    assert eval_path_formula(ctx, f) is Verdict.TRUE
    ranks = evaluator.ranks[f.coalition, id(f.goal)]
    known = len(ranks)
    shared = find_winning_strategy(ctx, f.coalition, f.goal)
    assert len(ranks) == known  # every rank the walk read was the verdict's
    fresh = find_winning_strategy(
        EvalContext(g_mix, ctx.path, 1, ctx.assignment, k), f.coalition, f.goal
    )
    assert shared.decisions == fresh.decisions


@pytest.mark.parametrize(
    "text, k",
    [
        ("<<opp>> G start", 8),  # UNKNOWN: both leaf rules, several depths
        ("<<opp>> N rightHit", 14),  # TRUE: the witness walk
        ("<<opp>> F <<opp>> N rightHit", 5),  # a nested operator
    ],
)
def test_each_node_is_expanded_once_per_check(g_mix, text, k, monkeypatch):
    # Keyed on the operator, the branch set and the moves, which a choice
    # fixes at the node's state.  A recomputed expansion is a new dict, so
    # every repeat must be handed the object the first call got.
    expand = checker._Search.expand
    served: dict[tuple, list] = {}

    def recorded(search, branches, *rest):
        got = expand(search, branches, *rest)
        key = (search.members, id(search.goal), branches, rest[-1])
        served.setdefault(key, []).append(got)
        return got

    monkeypatch.setattr(checker._Search, "expand", recorded)
    f = parse_formula(text, g_mix)
    evaluator = Evaluator(g_mix, k, f)
    ctx = EvalContext(
        g_mix, all_paths(g_mix, 0, 0)[0], 1, canonical_assignment(g_mix), k, evaluator
    )
    if eval_path_formula(ctx, f) is Verdict.TRUE:
        assert find_winning_strategy(ctx, f.coalition, f.goal) is not None
    calls = sum(len(got) for got in served.values())
    assert calls > len(served)  # the row does ask for some node twice
    for got in served.values():
        assert all(again is got[0] for again in got)


@pytest.mark.parametrize(
    "text", [row for row in DEEP_ROWS if row.startswith("<<") and "K[" in row]
)
def test_belief_sets_leave_out_members_with_an_empty_set(g_mix, text):
    # Such a member holds every knowledge vacuously; kept, it would make
    # states that differ only by it distinct, and split the memos.
    f = parse_formula(text, g_mix)
    evaluator = Evaluator(g_mix, 4, f)
    ctx = EvalContext(
        g_mix, all_paths(g_mix, 0, 0)[0], 1, canonical_assignment(g_mix), 4, evaluator
    )
    eval_path_formula(ctx, f)
    members = [m for s in evaluator.interned.values() for b in s.beliefs for m in b]
    assert members  # the check did reach belief sets
    assert all(all(member) for member in members)


@pytest.mark.parametrize("other", ["game", "horizon"])
def test_context_rejects_an_evaluator_for_another_game_or_horizon(
    g_hand, g_mix, other
):
    # The memos are keyed without the game or horizon, so an evaluator
    # shared across either would hand out another check's verdicts.
    f = parse_formula("<<opp>> F leftHit", g_mix)
    start, lam = all_paths(g_mix, 0, 0)[0], canonical_assignment(g_mix)
    EvalContext(g_mix, start, 1, lam, 3, Evaluator(g_mix, 3, f))
    game, k = (g_hand, 3) if other == "game" else (g_mix, 4)
    with pytest.raises(ValueError, match="evaluator is for another game or horizon"):
        EvalContext(g_mix, start, 1, lam, 3, Evaluator(game, k, f))


def test_equal_branch_sets_at_different_depths_rank_apart():
    # From ``a`` the goal is two steps away (go, go).  At horizon 3 the first
    # choice, ``around``, comes back to ``a`` at depth 2 with one step left,
    # too few; ``stay`` reaches the same abstract state at depth 1 with two
    # left, which is enough, so ``stay`` is the first winning choice.
    game = build_game(
        name="loop",
        agents=["p"],
        capacities={"p": ["any"]},
        actions={"any": ["around", "stay", "go"]},
        states=["a", "b", "c", "g"],
        labels={"g": ["goal"]},
        protocol={
            ("p", "a"): ["around", "stay", "go"],
            ("p", "b"): ["around"],
            ("p", "c"): ["go"],
            ("p", "g"): ["stay"],
        },
        transitions={
            ("a", ("around",)): "b",
            ("a", ("stay",)): "a",
            ("a", ("go",)): "c",
            ("b", ("around",)): "a",
            ("c", ("go",)): "g",
            ("g", ("stay",)): "g",
        },
    )
    f = parse_formula("<<p>> F goal", game)
    first = {}
    for k in range(2, 5):
        ctx = ctx_at(game, all_paths(game, 0, 0)[0], 1, k)
        assert eval_path_formula(ctx, f) is Verdict.TRUE
        witness = find_winning_strategy(ctx, f.coalition, f.goal)
        reference = first_winning_tree(ctx, f.coalition, f.goal)
        assert witness.decisions == reference.decisions
        first[k] = game.action_names[witness.decisions[(0,)][0]]
    assert first == {2: "go", 3: "stay", 4: "around"}


def _relabelled_hand_mix():
    """``hand_mix`` with ``leftHit`` also labelling ``s2``: the same states,
    actions and transitions, so the same ids throughout."""
    text = (GAMES_DIR / "hand_mix.game").read_text(encoding="utf-8")
    assert "  s2: rightHit\n" in text
    return text.replace("  s2: rightHit\n", "  s2: rightHit, leftHit\n")


def test_alternating_games_in_one_process_match_fresh_processes(tmp_path, capsys):
    plain = str(GAMES_DIR / "hand_mix.game")
    relabelled = tmp_path / "relabelled.game"
    relabelled.write_text(_relabelled_hand_mix(), encoding="utf-8")
    checks = [
        ("<<opp>> N (leftHit & rightHit)", "3"),
        ("<<obs>> N !(leftHit & rightHit)", "3"),
        ("<<obs>> G (start | leftHit | K[obs](opp=righty))", "4"),
    ]

    def argv(game, formula, k):
        return ["check", game, "-f", formula, "-k", k, "--format", "json"]

    def record(stdout):
        data = json.loads(stdout)
        del data["elapsed_ms"]
        return data

    fresh = {}
    for game in (plain, str(relabelled)):
        for formula, k in checks:
            done = subprocess.run(
                [sys.executable, "-m", "upatl.cli", *argv(game, formula, k)],
                capture_output=True, text=True, check=False,
                cwd=FsPath(cli.__file__).parent.parent,
            )
            fresh[game, formula] = (done.returncode, record(done.stdout))
    verdicts = {(g, f): r["verdict"] for (g, f), (_, r) in fresh.items()}
    assert any(verdicts[plain, f] != verdicts[str(relabelled), f] for f, _ in checks)

    for _ in range(2):
        for formula, k in checks:
            for game in (plain, str(relabelled)):
                code = cli.main(argv(game, formula, k))
                assert (code, record(capsys.readouterr().out)) == fresh[game, formula]

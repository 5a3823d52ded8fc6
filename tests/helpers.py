"""Shared helpers for loading the example games and building paths,
mutants, and random formulas in tests."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path as FsPath

from upatl.checker import (
    EvalContext,
    Verdict,
    and3,
    enumerate_strategy_trees,
    eval_cap_formula,
    eval_temporal,
    lift,
    not3,
    or3,
    unprunable_capacities,
)
from upatl.formula import (
    And,
    Atom,
    CapAnd,
    CapFormula,
    CapNot,
    HasCap,
    Know,
    Next,
    Not,
    PathFormula,
    Release,
    Strat,
    TemporalFormula,
    Until,
)
from upatl.gamespec import load_game
from upatl.model import GameStructure
from upatl.trace import (
    Path,
    StrategyTree,
    compatible_assignments,
    compatible_capacities,
    indistinguishability_class,
    outcomes_bounded,
)

GAMES_DIR = FsPath(__file__).resolve().parent.parent / "games"


def load_game_file(name: str) -> GameStructure:
    """The game in ``games/<name>.game``, read without leaving a file open."""
    return load_game((GAMES_DIR / f"{name}.game").read_text(encoding="utf-8"))


def compared(game: GameStructure) -> dict:
    """The fields ``GameStructure`` compares, ids included."""
    return {f.name: getattr(game, f.name) for f in dataclasses.fields(game) if f.compare}


def path_of(game: GameStructure, *alternating: str) -> Path:
    """Build a path from alternating state names and action-name tuples.

    ``path_of(g, "s0", ("watch", "swingL"), "s1")``
    """
    states = []
    actions = []
    for item in alternating:
        if isinstance(item, str):
            states.append(game.state_names.index(item))
        else:
            actions.append(tuple(game.action_names.index(x) for x in item))
    return Path(tuple(states), tuple(actions))


def first_winning_tree(
    ctx: EvalContext, coalition: frozenset[int], goal: TemporalFormula
) -> StrategyTree | None:
    """Reference witness: enumerate trees in order, return the first that wins.

    A tree wins when its bounded outcome set is nonempty and the goal is TRUE
    on every outcome.  Exponential in the horizon; for small cases only.
    """
    prefix = ctx.path.prefix(ctx.index)
    base = dataclasses.replace(ctx, path=prefix, index=ctx.index)
    for tree in enumerate_strategy_trees(
        ctx.game, prefix.last_state, coalition, ctx.horizon
    ):
        outcomes = outcomes_bounded(ctx.game, prefix, tree, ctx.horizon)
        if outcomes and all(
            eval_temporal(base, goal, outcome) is Verdict.TRUE
            for outcome in outcomes
        ):
            return tree
    return None


def reference_tree_json(game: GameStructure, tree: StrategyTree) -> dict:
    """Reference JSON form of a strategy tree, as nested dicts: each node is
    ``{"actions": {agent: action}, "children": {state: node}}``.  The CLI
    writes the same bytes without building them."""
    root = (tree.pivot,)
    nodes = {
        history: {
            "actions": {
                game.agent_names[a]: game.action_names[x]
                for a, x in zip(tree.agents, tree.decisions.get(history, ()))
            },
            "children": {},
        }
        for history in [root, *tree.decisions]
    }
    for history, node in nodes.items():
        parent = nodes.get(history[:-1])
        if parent is not None:
            parent["children"][game.state_names[history[-1]]] = node
    return {
        "coalition": [game.agent_names[a] for a in tree.agents],
        "pivot": game.state_names[tree.pivot],
        "depth": tree.depth,
        "root": nodes[root],
    }


def drop_deepest_decision(monkeypatch) -> None:
    """Make the certificate walk leave out a deepest decision, so that the
    trees it yields fail ``validate_strategy_tree``."""
    from upatl import checker

    first_tree = checker._Search.first_tree

    def dropped(search, pivot, start):
        decisions = first_tree(search, pivot, start)
        decisions.pop(max(decisions, key=len))
        return decisions

    monkeypatch.setattr(checker._Search, "first_tree", dropped)


def reference_knowledge(
    game: GameStructure, path: Path, index: int, agent: int, body: CapFormula
) -> bool:
    """Reference knowledge: every compatible assignment of every path in the
    agent's indistinguishability class of the prefix satisfies ``body``."""
    if not 1 <= index <= len(path.states):
        raise ValueError("index out of range for the path")
    prefix = path.prefix(index)
    return all(
        eval_cap_formula(assignment, body)
        for other in indistinguishability_class(game, prefix, agent)
        for assignment in compatible_assignments(game, other)
    )


def reference_temporal(
    ctx: EvalContext, goal: TemporalFormula, outcome: Path
) -> Verdict:
    """Reference bounded temporal rules: the strong-Kleene unrolling, computed
    backward from UNKNOWN past the horizon, on the concrete outcome."""
    i, k = ctx.index, ctx.horizon
    if len(outcome.states) != i + k:
        raise ValueError("outcome does not match the horizon")
    if isinstance(goal, Next):
        if k < 1:
            return Verdict.UNKNOWN
        after = dataclasses.replace(ctx, path=outcome, index=i + 1)
        return reference_path_formula(after, goal.operand)
    result = Verdict.UNKNOWN
    for j in range(i + k, i - 1, -1):
        here = dataclasses.replace(ctx, path=outcome, index=j)
        right = reference_path_formula(here, goal.right)
        left = reference_path_formula(here, goal.left)
        if isinstance(goal, Until):
            result = or3(right, and3(left, result))
        else:
            result = and3(right, or3(left, result))
    return result


def reference_strategic(
    ctx: EvalContext, coalition: frozenset[int], goal: TemporalFormula
) -> Verdict:
    """Reference strategic verdict, tree by tree: TRUE if some tree has
    outcomes, all TRUE; FALSE if every tree is falsified (no outcome, every
    outcome FALSE, or a FALSE outcome the coalition can never prune); else
    UNKNOWN.  Exponential in the horizon; for small cases only."""
    game = ctx.game
    prefix = ctx.path.prefix(ctx.index)
    base = dataclasses.replace(ctx, path=prefix, index=ctx.index)
    safe = unprunable_capacities(game, coalition)
    escaped = False
    for tree in enumerate_strategy_trees(
        game, prefix.last_state, coalition, ctx.horizon
    ):
        outcomes = outcomes_bounded(game, prefix, tree, ctx.horizon)
        verdicts = {o: reference_temporal(base, goal, o) for o in outcomes}
        if outcomes and all(v is Verdict.TRUE for v in verdicts.values()):
            return Verdict.TRUE
        falsified = (
            all(v is Verdict.FALSE for v in verdicts.values())
            or any(
                v is Verdict.FALSE
                and all(
                    compatible_capacities(game, o, a) & safe[a]
                    for a in game.agents
                )
                for o, v in verdicts.items()
            )
        )
        escaped = escaped or not falsified
    return Verdict.UNKNOWN if escaped else Verdict.FALSE


def reference_path_formula(ctx: EvalContext, f: PathFormula) -> Verdict:
    """Reference satisfaction on the concrete prefix, built from the three
    references above."""
    if isinstance(f, Atom):
        return lift(f.prop in ctx.game.labels[ctx.path.states[ctx.index - 1]])
    if isinstance(f, Know):
        return lift(
            reference_knowledge(ctx.game, ctx.path, ctx.index, f.agent, f.body)
        )
    if isinstance(f, Not):
        return not3(reference_path_formula(ctx, f.operand))
    if isinstance(f, And):
        return and3(
            reference_path_formula(ctx, f.left),
            reference_path_formula(ctx, f.right),
        )
    return reference_strategic(ctx, f.coalition, f.goal)


def all_paths(game: GameStructure, start: int, steps: int) -> list[Path]:
    """Every valid path with exactly ``steps`` steps from ``start``."""
    paths = [Path((start,))]
    for _ in range(steps):
        paths = [
            p.extend(joint, game.transitions[(p.last_state, joint)])
            for p in paths
            for joint in game.joint_actions(p.last_state)
        ]
    return paths


def random_cap_formula(game: GameStructure, rng: random.Random, depth: int) -> CapFormula:
    if depth <= 1 or rng.random() < 0.4:
        agent = rng.randrange(game.agent_count)
        cap = rng.randrange(len(game.capacity_names))
        return HasCap(agent, cap)
    if rng.random() < 0.5:
        return CapNot(random_cap_formula(game, rng, depth - 1))
    return CapAnd(
        random_cap_formula(game, rng, depth - 1),
        random_cap_formula(game, rng, depth - 1),
    )


def random_temporal(game: GameStructure, rng: random.Random, depth: int) -> TemporalFormula:
    pick = rng.randrange(3)
    if pick == 0:
        return Next(random_formula(game, rng, depth - 1))
    if pick == 1:
        return Until(
            random_formula(game, rng, depth - 1),
            random_formula(game, rng, depth - 1),
        )
    return Release(
        random_formula(game, rng, depth - 1),
        random_formula(game, rng, depth - 1),
    )


def random_formula(game: GameStructure, rng: random.Random, depth: int) -> PathFormula:
    """Random desugared formula of AST depth at most ``depth``."""
    if depth <= 1:
        return Atom(rng.randrange(len(game.prop_names)))
    pick = rng.randrange(5)
    if pick == 0:
        return Atom(rng.randrange(len(game.prop_names)))
    if pick == 1:
        return Not(random_formula(game, rng, depth - 1))
    if pick == 2:
        return And(
            random_formula(game, rng, depth - 1),
            random_formula(game, rng, depth - 1),
        )
    if pick == 3:
        agent = rng.randrange(game.agent_count)
        return Know(agent, random_cap_formula(game, rng, depth - 1))
    size = rng.randrange(game.agent_count + 1)
    coalition = frozenset(rng.sample(range(game.agent_count), size))
    return Strat(coalition, random_temporal(game, rng, depth - 1))

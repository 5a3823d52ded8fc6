"""Shared helpers for building paths, mutants, and random formulas in tests."""

from __future__ import annotations

import random

from upatl.checker import (
    EvalContext,
    Verdict,
    enumerate_strategy_trees,
    eval_temporal,
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
from upatl.model import GameStructure
from upatl.trace import Path, StrategyTree, outcomes_bounded


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
    base = ctx.at(prefix, ctx.index)
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

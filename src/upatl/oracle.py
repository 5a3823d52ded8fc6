"""Independent naive implementations for cross-validation.

Everything here is written directly from the definitions with explicit set
building: all complete assignments are enumerated and filtered, all
equal-length paths are enumerated and filtered for indistinguishability,
strategy trees are materialized one by one, and outcome sets are built by
extending paths step by step and filtering on the full extension.  The only
things shared with the main engine are the data types and the parser; the
point is that the two routes agree for genuinely different reasons.

Desk scale only (a handful of states, horizon a few steps).  A work budget
guards against accidental blowups and aborts with ``BudgetExceeded`` instead
of grinding.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import formula as fm
from .checker import Verdict
from .model import GameStructure, StateId, build_game
from .trace import CapacityAssignment, Path, StrategyTree

DEFAULT_BUDGET = 50_000_000


class BudgetExceeded(Exception):
    """The instance is beyond desk scale for the naive oracle."""


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded("oracle work budget exhausted")


# Three-valued connectives, redone locally so the oracle shares no evaluation
# code with the engine under test.


def _not(v: Verdict) -> Verdict:
    if v is Verdict.UNKNOWN:
        return Verdict.UNKNOWN
    return Verdict.FALSE if v is Verdict.TRUE else Verdict.TRUE


def _and(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.FALSE in (a, b):
        return Verdict.FALSE
    if Verdict.UNKNOWN in (a, b):
        return Verdict.UNKNOWN
    return Verdict.TRUE


def _or(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.TRUE in (a, b):
        return Verdict.TRUE
    if Verdict.UNKNOWN in (a, b):
        return Verdict.UNKNOWN
    return Verdict.FALSE


def _joints(game: GameStructure, state: StateId):
    return itertools.product(
        *(sorted(game.protocols[a][state]) for a in game.agents)
    )


def _all_assignments(game: GameStructure):
    return itertools.product(
        *(sorted(game.agent_capacities[a]) for a in game.agents)
    )


def _compatible(game: GameStructure, path: Path, budget: _Budget):
    found = []
    for lam in _all_assignments(game):
        budget.spend()
        if all(
            joint[a] in game.capacity_actions[lam[a]]
            for joint in path.actions
            for a in game.agents
        ):
            found.append(lam)
    return found


def _indistinguishable_paths(
    game: GameStructure, path: Path, agent: int, budget: _Budget
):
    """All valid equal-length paths the agent cannot tell from ``path``."""
    candidates = [Path((path.states[0],))]
    for _ in path.actions:
        extended = []
        for p in candidates:
            for joint in _joints(game, p.last_state):
                budget.spend()
                extended.append(
                    p.extend(joint, game.transitions[(p.last_state, joint)])
                )
        candidates = extended
    return [
        p
        for p in candidates
        if p.states == path.states
        and all(
            mine[agent] == theirs[agent]
            for mine, theirs in zip(path.actions, p.actions)
        )
    ]


def _trees(
    game: GameStructure,
    pivot: StateId,
    coalition: frozenset[int],
    depth: int,
    budget: _Budget,
):
    members = tuple(sorted(coalition))
    if not members or depth == 0:
        yield StrategyTree(coalition, pivot, depth, {})
        return
    yield from _tree_walk(
        game, pivot, coalition, members, depth, budget, ((pivot,),), ()
    )


def _tree_walk(game, pivot, coalition, members, depth, budget, pending, decided):
    """Every tree completing ``decided``, deciding ``pending`` in order."""
    if not pending:
        budget.spend()
        yield StrategyTree(coalition, pivot, depth, dict(decided))
        return
    history, rest = pending[0], pending[1:]
    q = history[-1]
    for choice in itertools.product(
        *(sorted(game.protocols[a][q]) for a in members)
    ):
        budget.spend()
        children = []
        if len(history) < depth:
            seen = set()
            for joint in _joints(game, q):
                if all(joint[a] == x for a, x in zip(members, choice)):
                    target = game.transitions[(q, joint)]
                    if target not in seen:
                        seen.add(target)
                        children.append(history + (target,))
        yield from _tree_walk(
            game, pivot, coalition, members, depth, budget,
            rest + tuple(children), decided + ((history, choice),),
        )


def _outcomes(
    game: GameStructure,
    prefix: Path,
    tree: StrategyTree,
    steps: int,
    budget: _Budget,
):
    members = tree.agents
    extensions = [prefix]
    for step in range(steps):
        new = []
        for p in extensions:
            history = p.states[len(prefix.states) - 1 :]
            prescribed = tree.decisions.get(history, ())
            for joint in _joints(game, p.last_state):
                budget.spend()
                if all(
                    joint[a] == x for a, x in zip(members, prescribed)
                ):
                    new.append(
                        p.extend(
                            joint, game.transitions[(p.last_state, joint)]
                        )
                    )
        extensions = new
    return [p for p in extensions if _compatible(game, p, budget)]


def _eval_cap(lam: CapacityAssignment, f: fm.CapFormula) -> bool:
    if isinstance(f, fm.HasCap):
        return lam[f.agent] == f.capacity
    if isinstance(f, fm.CapNot):
        return not _eval_cap(lam, f.operand)
    if isinstance(f, fm.CapAnd):
        return _eval_cap(lam, f.left) and _eval_cap(lam, f.right)
    raise TypeError(f"not a capacity formula: {f!r}")


def _eval(
    game: GameStructure,
    path: Path,
    index: int,
    lam: CapacityAssignment,
    f: fm.PathFormula,
    horizon: int,
    budget: _Budget,
) -> Verdict:
    budget.spend()
    if isinstance(f, fm.Atom):
        state = path.states[index - 1]
        return Verdict.TRUE if f.prop in game.labels[state] else Verdict.FALSE
    if isinstance(f, fm.Know):
        prefix = Path(path.states[:index], path.actions[: index - 1])
        for other in _indistinguishable_paths(game, prefix, f.agent, budget):
            for other_lam in _compatible(game, other, budget):
                if not _eval_cap(other_lam, f.body):
                    return Verdict.FALSE
        return Verdict.TRUE
    if isinstance(f, fm.Not):
        return _not(_eval(game, path, index, lam, f.operand, horizon, budget))
    if isinstance(f, fm.And):
        return _and(
            _eval(game, path, index, lam, f.left, horizon, budget),
            _eval(game, path, index, lam, f.right, horizon, budget),
        )
    if isinstance(f, fm.Strat):
        prefix = Path(path.states[:index], path.actions[: index - 1])
        every_tree_lost = True
        for tree in _trees(
            game, prefix.last_state, f.coalition, horizon, budget
        ):
            outcomes = _outcomes(game, prefix, tree, horizon, budget)
            if not outcomes:
                continue
            # A falsification is final only if deeper play cannot prune it:
            # either every outcome is false, or some false outcome stays
            # compatible with an assignment whose capacities license every
            # protocol action of every coalition agent at every state.
            all_true = all_false = True
            stable_false = False
            for outcome in outcomes:
                verdict = _temporal(
                    game, outcome, index, lam, f.goal, horizon, budget
                )
                if verdict is not Verdict.TRUE:
                    all_true = False
                if verdict is not Verdict.FALSE:
                    all_false = False
                if verdict is Verdict.FALSE and _stably_false(
                    game, f.coalition, outcome, budget
                ):
                    stable_false = True
                    break
            if all_true:
                return Verdict.TRUE
            if not (all_false or stable_false):
                every_tree_lost = False
        return Verdict.FALSE if every_tree_lost else Verdict.UNKNOWN
    raise TypeError(f"not a path formula: {f!r}")


def _stably_false(
    game: GameStructure,
    coalition: frozenset[int],
    outcome: Path,
    budget: _Budget,
) -> bool:
    for lam in _compatible(game, outcome, budget):
        if all(
            game.protocols[a][q] <= game.capacity_actions[lam[a]]
            for a in sorted(coalition)
            for q in game.states
        ):
            return True
    return False


def _temporal(
    game: GameStructure,
    outcome: Path,
    index: int,
    lam: CapacityAssignment,
    goal: fm.TemporalFormula,
    horizon: int,
    budget: _Budget,
) -> Verdict:
    if isinstance(goal, fm.Next):
        if horizon < 1:
            return Verdict.UNKNOWN
        return _eval(game, outcome, index + 1, lam, goal.operand, horizon, budget)
    if isinstance(goal, fm.Until):
        result = Verdict.UNKNOWN
        for j in range(index + horizon, index - 1, -1):
            result = _or(
                _eval(game, outcome, j, lam, goal.right, horizon, budget),
                _and(
                    _eval(game, outcome, j, lam, goal.left, horizon, budget),
                    result,
                ),
            )
        return result
    if isinstance(goal, fm.Release):
        result = Verdict.UNKNOWN
        for j in range(index + horizon, index - 1, -1):
            result = _and(
                _eval(game, outcome, j, lam, goal.right, horizon, budget),
                _or(
                    _eval(game, outcome, j, lam, goal.left, horizon, budget),
                    result,
                ),
            )
        return result
    raise TypeError(f"not a temporal formula: {goal!r}")


def brute_force_eval(
    game: GameStructure,
    path: Path,
    index: int,
    assignment: CapacityAssignment,
    f: fm.PathFormula,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Literal recursive transcription of the satisfaction relation.

    Same contract as ``checker.eval_path_formula`` but with zero shared
    evaluation code.  Desk-scale inputs only; raises ``BudgetExceeded`` when
    the enumeration grows past the work budget.
    """
    return _eval(game, path, index, assignment, f, horizon, _Budget(budget))


# -- classical fixed-point checking for the degenerate fragment ---------------


def _assert_capacity_free(game: GameStructure) -> None:
    for a in game.agents:
        if len(game.agent_capacities[a]) != 1:
            raise ValueError(
                "fixed-point checking needs exactly one capacity per agent"
            )


def _pre(
    game: GameStructure, coalition: frozenset[int], targets: frozenset[int]
) -> frozenset[int]:
    """States where the coalition can force the next state into ``targets``."""
    members = tuple(sorted(coalition))
    good = set()
    for q in game.states:
        for choice in itertools.product(
            *(sorted(game.protocols[a][q]) for a in members)
        ):
            fixed = dict(zip(members, choice))
            if all(
                game.transitions[(q, joint)] in targets
                for joint in _joints(game, q)
                if all(joint[a] == x for a, x in fixed.items())
            ):
                good.add(q)
                break
    return frozenset(good)


def atl_fixed_point(game: GameStructure, f: fm.PathFormula) -> frozenset[int]:
    """States satisfying a knowledge-free formula on a capacity-free game.

    Standard attractor computation: next is one controllable-predecessor
    step, until is a least fixed point, release a greatest fixed point.
    Fixed points converge within ``|St|`` iterations.
    """
    _assert_capacity_free(game)
    return _sat(game, f)


def _sat(game: GameStructure, node: fm.PathFormula) -> frozenset[int]:
    everything = frozenset(game.states)
    if isinstance(node, fm.Atom):
        return frozenset(q for q in game.states if node.prop in game.labels[q])
    if isinstance(node, fm.Not):
        return everything - _sat(game, node.operand)
    if isinstance(node, fm.And):
        return _sat(game, node.left) & _sat(game, node.right)
    if isinstance(node, fm.Know):
        raise ValueError("knowledge operators have no fixed-point form")
    if isinstance(node, fm.Strat):
        goal = node.goal
        if isinstance(goal, fm.Next):
            return _pre(game, node.coalition, _sat(game, goal.operand))
        if isinstance(goal, fm.Until):
            left, right = _sat(game, goal.left), _sat(game, goal.right)
            current: frozenset[int] = frozenset()
        elif isinstance(goal, fm.Release):
            left, right = _sat(game, goal.left), _sat(game, goal.right)
            current = everything
        else:
            raise TypeError(f"not a temporal formula: {goal!r}")
        for _ in range(len(game.state_names) + 1):
            pre = _pre(game, node.coalition, current)
            if isinstance(goal, fm.Until):
                updated = right | (left & pre)
            else:
                updated = right & (left | pre)
            if updated == current:
                return current
            current = updated
        raise AssertionError("fixed point failed to converge")
    raise TypeError(f"not a path formula: {node!r}")


# -- random game generation ----------------------------------------------------


@dataclass(frozen=True)
class GeneratorParams:
    """Shape of a generated game; small enough for exhaustive oracles."""

    seed: int
    states: int = 3
    agents: int = 2
    capacities_per_agent: int = 2
    actions_per_capacity: int = 2
    label_density: float = 0.5

    def __post_init__(self) -> None:
        if not 1 <= self.states <= 5:
            raise ValueError("states must be between 1 and 5")
        if not 1 <= self.agents <= 3:
            raise ValueError("agents must be between 1 and 3")
        if not 1 <= self.capacities_per_agent <= 2:
            raise ValueError("capacities per agent must be 1 or 2")
        if not 1 <= self.actions_per_capacity <= 2:
            raise ValueError("actions per capacity must be 1 or 2")
        if not 0.0 <= self.label_density <= 1.0:
            raise ValueError("label density must be in [0, 1]")


def generate_random_game(params: GeneratorParams) -> GameStructure:
    """A valid structure, deterministic in the seed.

    Protocols are sampled with a single action and then repaired by adding
    one action per capacity that would otherwise have no move, so the
    progression condition holds by construction.
    """
    rng = random.Random(params.seed)
    agent_names = [f"ag{i + 1}" for i in range(params.agents)]
    state_names = [f"q{i}" for i in range(params.states)]
    pool = [f"act{i + 1}" for i in range(2 * params.actions_per_capacity)]
    capacities: dict[str, list[str]] = {}
    actions: dict[str, list[str]] = {}
    for i, agent in enumerate(agent_names):
        caps = [
            f"c{i + 1}_{j + 1}" for j in range(params.capacities_per_agent)
        ]
        capacities[agent] = caps
        for cap in caps:
            count = rng.randint(1, params.actions_per_capacity)
            actions[cap] = sorted(rng.sample(pool, count))

    props = ["p1", "p2"]
    labels = {
        q: [p for p in props if rng.random() < params.label_density]
        for q in state_names
    }

    protocol: dict[tuple[str, str], list[str]] = {}
    for agent in agent_names:
        allowed = sorted({x for c in capacities[agent] for x in actions[c]})
        for q in state_names:
            chosen = {rng.choice(allowed)}
            for cap in capacities[agent]:
                if not chosen & set(actions[cap]):
                    chosen.add(rng.choice(sorted(actions[cap])))
            protocol[(agent, q)] = sorted(chosen)

    transitions: dict[tuple[str, tuple[str, ...]], str] = {}
    for q in state_names:
        for joint in itertools.product(
            *(protocol[(agent, q)] for agent in agent_names)
        ):
            transitions[(q, joint)] = rng.choice(state_names)

    return build_game(
        name=f"random{params.seed}",
        agents=agent_names,
        capacities=capacities,
        actions=actions,
        states=state_names,
        labels=labels,
        protocol=protocol,
        transitions=transitions,
        init=state_names[0],
    )


# -- formula templates for sweep jobs ------------------------------------------


def formula_templates(
    game: GameStructure, include_deep: bool = True
) -> list[fm.PathFormula]:
    """Systematic formula corpus over a game's own vocabulary.

    Everything of AST depth up to three over the first couple of atoms,
    agents, and capacities, plus (optionally) a few deeper shapes that put
    knowledge and nested strategic operators under a strategic operator.
    """
    true_atom = fm.Atom(game.true_prop)
    real_props = [
        p for p, name in enumerate(game.prop_names) if name != "true"
    ]
    atoms = [fm.Atom(p) for p in real_props[:2]] or [true_atom]
    a0 = atoms[0]
    a1 = atoms[1] if len(atoms) > 1 else true_atom

    hascaps = []
    for agent in game.agents:
        for cap in sorted(game.agent_capacities[agent])[:2]:
            hascaps.append(fm.HasCap(agent, cap))
    hascaps = hascaps[:4]

    coalitions: list[frozenset[int]] = [frozenset()]
    coalitions += [frozenset({a}) for a in game.agents]
    if game.agent_count > 1:
        coalitions.append(frozenset(game.agents))
    if game.agent_count == 3:
        coalitions.append(frozenset({0, 1}))

    templates: list[fm.PathFormula] = []
    templates += atoms
    templates += [fm.Not(a) for a in atoms]
    templates.append(fm.And(a0, a1))
    templates.append(fm.And(a0, fm.Not(a1)))
    viewers = list(game.agents)[:2]
    for viewer in viewers:
        for hc in hascaps[:2]:
            templates.append(fm.Know(viewer, hc))
    if hascaps:
        templates.append(fm.Not(fm.Know(viewers[0], hascaps[0])))
        templates.append(fm.Know(viewers[0], fm.CapNot(hascaps[0])))
    if len(hascaps) >= 2:
        templates.append(
            fm.Know(viewers[0], fm.CapAnd(hascaps[0], fm.CapNot(hascaps[1])))
        )
    for coalition in coalitions:
        templates.append(fm.Strat(coalition, fm.Next(a0)))
        templates.append(fm.Strat(coalition, fm.Next(fm.Not(a0))))
        templates.append(fm.Strat(coalition, fm.Until(a0, a1)))
        templates.append(fm.Strat(coalition, fm.Until(true_atom, a0)))
        templates.append(fm.Strat(coalition, fm.Release(a0, a1)))
        templates.append(fm.Strat(coalition, fm.Release(fm.Not(true_atom), a0)))

    if include_deep:
        lead = coalitions[1] if len(coalitions) > 1 else coalitions[0]
        second = coalitions[2] if len(coalitions) > 2 else lead
        templates.append(fm.Not(fm.Strat(lead, fm.Next(a0))))
        if hascaps:
            templates.append(fm.Strat(lead, fm.Next(fm.Know(viewers[0], hascaps[0]))))
            templates.append(
                fm.Strat(lead, fm.Until(true_atom, fm.Know(viewers[0], hascaps[0])))
            )
        templates.append(
            fm.Strat(lead, fm.Next(fm.Strat(second, fm.Next(a0))))
        )
        templates.append(fm.And(a0, fm.Strat(lead, fm.Until(a0, a1))))

    return list(dict.fromkeys(templates))

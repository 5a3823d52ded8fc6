"""Bounded-horizon evaluator for the full satisfaction relation.

Verdicts are three-valued: TRUE and FALSE are sound conclusions under the
configured horizon, UNKNOWN means the horizon was too short to decide.
Knowledge is exact (it only depends on the finite prefix already played);
temporal and strategic operators are approximated by unrolling up to the
horizon with strong-Kleene combination.

Strategic operators quantify existentially over finite-depth decision trees
and universally over their capacity-compatible outcomes.  The evaluator does
not materialize the trees: decisions at distinct suffix histories are
independent, so it searches the and-or structure per history node and ranks
each node by the best subtree below it under a leaf rule.  One rule asks
for a winning tree, the other for a tree that escapes falsification; the
verdict takes at most one pass of each, and the witness is a greedy walk
over the first.  ``enumerate_strategy_trees`` materializes trees in the
canonical order that witnesses and falsifiers are first in.

Each nested strategic operator is re-anchored at the current prefix with the
full configured horizon, so nesting does not starve the budget.
"""

from __future__ import annotations

import collections
import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from . import formula as fm
from .model import ActionId, AgentId, GameStructure, StateId
from .trace import (
    Branch,
    CapacityAssignment,
    History,
    Path,
    StrategyTree,
    compatible_assignments,
    compatible_capacities,
    extend_branches,
    indistinguishability_class,
    outcomes_bounded,
)


class Verdict(enum.Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"


def lift(value: bool) -> Verdict:
    return Verdict.TRUE if value else Verdict.FALSE


def not3(v: Verdict) -> Verdict:
    if v is Verdict.TRUE:
        return Verdict.FALSE
    if v is Verdict.FALSE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def and3(left: Verdict, right: Verdict) -> Verdict:
    if left is Verdict.FALSE or right is Verdict.FALSE:
        return Verdict.FALSE
    if left is Verdict.UNKNOWN or right is Verdict.UNKNOWN:
        return Verdict.UNKNOWN
    return Verdict.TRUE


def or3(left: Verdict, right: Verdict) -> Verdict:
    return not3(and3(not3(left), not3(right)))


@dataclass(frozen=True)
class EvalContext:
    """Everything a satisfaction judgment ranges over.

    ``path`` is the absolute finite prefix from the evaluation origin,
    ``index`` the 1-based position in its state trace, ``assignment`` the
    ambient complete capacity assignment, and ``horizon`` the number of
    extension steps each strategic operator may explore.
    """

    game: GameStructure
    path: Path
    index: int
    assignment: CapacityAssignment
    horizon: int

    def __post_init__(self) -> None:
        if not 1 <= self.index <= len(self.path.states):
            raise ValueError("index out of range for the path")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if len(self.assignment) != self.game.agent_count:
            raise ValueError("ambient capacity assignment must be complete")

    def at(self, path: Path, index: int) -> "EvalContext":
        return EvalContext(self.game, path, index, self.assignment, self.horizon)


# -- capacity and knowledge ---------------------------------------------------


def eval_cap_formula(assignment: CapacityAssignment, f: fm.CapFormula) -> bool:
    if isinstance(f, fm.HasCap):
        return assignment[f.agent] == f.capacity
    if isinstance(f, fm.CapNot):
        return not eval_cap_formula(assignment, f.operand)
    if isinstance(f, fm.CapAnd):
        return eval_cap_formula(assignment, f.left) and eval_cap_formula(
            assignment, f.right
        )
    raise TypeError(f"not a capacity formula: {f!r}")


def eval_knowledge(
    game: GameStructure,
    path: Path,
    index: int,
    agent: AgentId,
    body: fm.CapFormula,
) -> bool:
    """Exact knowledge: does the agent know ``body`` after ``index`` states?

    Quantifies over every path the agent cannot distinguish from the prefix
    and every capacity assignment compatible with it.  Members whose
    compatible set is empty hold vacuously.
    """
    if not 1 <= index <= len(path.states):
        raise ValueError("index out of range for the path")
    prefix = path.prefix(index)
    for other in indistinguishability_class(game, prefix, agent):
        for assignment in compatible_assignments(game, other):
            if not eval_cap_formula(assignment, body):
                return False
    return True


# -- path formulas ------------------------------------------------------------


def eval_path_formula(ctx: EvalContext, f: fm.PathFormula) -> Verdict:
    if isinstance(f, fm.Atom):
        state = ctx.path.states[ctx.index - 1]
        return lift(f.prop in ctx.game.labels[state])
    if isinstance(f, fm.Know):
        return lift(
            eval_knowledge(ctx.game, ctx.path, ctx.index, f.agent, f.body)
        )
    if isinstance(f, fm.Not):
        return not3(eval_path_formula(ctx, f.operand))
    if isinstance(f, fm.And):
        left = eval_path_formula(ctx, f.left)
        if left is Verdict.FALSE:
            return Verdict.FALSE
        return and3(left, eval_path_formula(ctx, f.right))
    if isinstance(f, fm.Strat):
        return eval_strategic(ctx, f.coalition, f.goal)
    raise TypeError(f"not a path formula: {f!r}")


def eval_temporal(
    ctx: EvalContext, goal: fm.TemporalFormula, outcome: Path
) -> Verdict:
    """Bounded temporal rules on one outcome extending the prefix.

    The outcome provides positions ``index .. index + horizon``; everything
    beyond contributes UNKNOWN, which the strong-Kleene unrolling propagates:
    an until that found no witness and never failed stays undecided, and a
    release that was maintained to the bound without being released stays
    undecided.
    """
    i, k = ctx.index, ctx.horizon
    if len(outcome.states) != i + k:
        raise ValueError("outcome does not match the horizon")
    if isinstance(goal, fm.Next):
        if k < 1:
            return Verdict.UNKNOWN
        return eval_path_formula(ctx.at(outcome, i + 1), goal.operand)
    if isinstance(goal, fm.Until):
        result = Verdict.UNKNOWN
        for j in range(i + k, i - 1, -1):
            here = ctx.at(outcome, j)
            result = or3(
                eval_path_formula(here, goal.right),
                and3(eval_path_formula(here, goal.left), result),
            )
        return result
    if isinstance(goal, fm.Release):
        result = Verdict.UNKNOWN
        for j in range(i + k, i - 1, -1):
            here = ctx.at(outcome, j)
            result = and3(
                eval_path_formula(here, goal.right),
                or3(eval_path_formula(here, goal.left), result),
            )
        return result
    raise TypeError(f"not a temporal formula: {goal!r}")


# -- strategic operator -------------------------------------------------------

def unprunable_capacities(
    game: GameStructure, coalition: frozenset[AgentId]
) -> tuple[frozenset[int], ...]:
    """Per-agent capacities the coalition can never play away from.

    A capacity of a coalition agent is returned when it licenses that agent's
    whole protocol at every state, so no prescription can contradict it.  An
    outcome compatible with such a capacity choice for every coalition agent
    stays compatible under any deeper play; its falsification is final.  For
    non-coalition agents every capacity qualifies (their moves are quantified
    universally, and the progression condition always leaves them a
    compatible move).
    """
    safe = []
    for a in game.agents:
        if a in coalition:
            safe.append(
                frozenset(
                    c
                    for c in game.agent_capacities[a]
                    if all(
                        game.protocols[a][q] <= game.capacity_actions[c]
                        for q in game.states
                    )
                )
            )
        else:
            safe.append(game.agent_capacities[a])
    return tuple(safe)


_Leaf = Callable[[list[Branch]], int]


class _Search:
    """The and-or search of one strategic operator at one prefix.

    A node is a suffix history since the pivot together with the branches
    that reach it; the coalition fixes one choice per node, and a choice
    leads to one child node per target state of the surviving branches.
    """

    def __init__(
        self,
        ctx: EvalContext,
        coalition: frozenset[AgentId],
        goal: fm.TemporalFormula,
    ):
        game = ctx.game
        prefix = ctx.path.prefix(ctx.index)
        self.game = game
        self.goal = goal
        self.goal_ctx = ctx.at(prefix, ctx.index)
        self.members = tuple(sorted(coalition))
        self.horizon = ctx.horizon
        self.safe_caps = unprunable_capacities(game, coalition)
        start_caps = tuple(
            compatible_capacities(game, prefix, a) for a in game.agents
        )
        self.root: History = (prefix.last_state,)
        # No compatible assignment: every tree has an empty outcome set.
        self.start: list[Branch] = (
            [(prefix, start_caps)] if all(start_caps) else []
        )
        # Outcome -> goal verdict, shared by both leaf rules: the verdict's
        # two passes reach the same leaves, and the witness walk searches
        # below each node it fixes again, so outcomes recur.
        self.verdicts: dict[Path, Verdict] = {}

    def is_leaf(self, history: History) -> bool:
        return len(history) - 1 == self.horizon

    def choices(self, q: StateId) -> Iterator[tuple[ActionId, ...]]:
        return itertools.product(
            *(sorted(self.game.protocols[a][q]) for a in self.members)
        )

    def expand(
        self,
        history: History,
        branches: list[Branch],
        choice: tuple[ActionId, ...],
    ) -> dict[StateId, list[Branch]]:
        return extend_branches(
            self.game, history[-1], branches, dict(zip(self.members, choice))
        )

    def verdict(self, outcome: Path) -> Verdict:
        if outcome not in self.verdicts:
            self.verdicts[outcome] = eval_temporal(
                self.goal_ctx, self.goal, outcome
            )
        return self.verdicts[outcome]

    def won(self, branches: list[Branch]) -> int:
        """Leaf rule for a winning tree: every outcome TRUE."""
        for branch, _ in branches:
            if self.verdict(branch) is not Verdict.TRUE:
                return 0
        return 2

    def unfalsified(self, branches: list[Branch]) -> int:
        """Leaf rule for a tree that escapes falsification: no FALSE outcome
        is unprunable, and 2 only if some outcome is not FALSE."""
        rank = 1
        for branch, caps in branches:
            if self.verdict(branch) is not Verdict.FALSE:
                rank = 2
            elif all(cs & self.safe_caps[a] for a, cs in enumerate(caps)):
                return 0
        return rank

    def rank(self, history: History, branches: list[Branch], leaf: _Leaf) -> int:
        """2 if some subtree below the node has every leaf ranked at least 1
        by ``leaf`` and some leaf ranked 2, else 1 if some has every leaf
        ranked at least 1 (or no leaf), else 0; stops at the first 2."""
        if self.is_leaf(history):
            return leaf(branches)
        best = 0
        for choice in self.choices(history[-1]):
            groups = self.expand(history, branches, choice)
            ranks = self.child_ranks(history, groups, leaf)
            if ranks is not None:
                if 2 in ranks.values():
                    return 2
                best = 1
        return best

    def child_ranks(
        self, history: History, groups: dict[StateId, list[Branch]], leaf: _Leaf
    ) -> dict[StateId, int] | None:
        """Each child's rank, or None as soon as one ranks 0."""
        ranks = {}
        for target in sorted(groups):
            got = self.rank(history + (target,), groups[target], leaf)
            if got == 0:
                return None
            ranks[target] = got
        return ranks


def eval_strategic(
    ctx: EvalContext, coalition: frozenset[AgentId], goal: fm.TemporalFormula
) -> Verdict:
    """Existential over strategy trees, universal over surviving outcomes.

    TRUE iff some depth-``horizon`` tree has a nonempty outcome set with the
    goal TRUE on every outcome.  FALSE requires every tree to be falsified in
    a way deeper play cannot repair: its outcome set is empty, or every
    outcome is FALSE (survivors of any extension still extend FALSE
    outcomes), or some FALSE outcome admits a compatible assignment the
    coalition can never play away from.  A tree whose only FALSE outcomes are
    prunable may be rescued at a larger horizon by making those branches
    capacity-incompatible, so it yields UNKNOWN instead; this keeps TRUE and
    FALSE sound for the unbounded semantics and monotone in the horizon.

    Both questions are one rank search with different leaf rules.  A tree
    wins iff every leaf ranks at least 1 under ``won`` and some leaf ranks 2
    (every outcome TRUE, and at least one outcome).  A tree escapes
    falsification iff the same holds under ``unfalsified`` (no unprunable
    FALSE outcome, and some outcome not FALSE).  Decisions at distinct
    histories are independent, so a tree with that property exists iff the
    root ranks 2, where a node takes the best choice and a choice needs all
    of its children at least 1 and one of them at 2.
    """
    search = _Search(ctx, coalition, goal)
    if not search.start:
        return Verdict.FALSE
    if search.rank(search.root, search.start, search.won) == 2:
        return Verdict.TRUE
    if search.rank(search.root, search.start, search.unfalsified) != 2:
        return Verdict.FALSE
    return Verdict.UNKNOWN


# -- certificates -------------------------------------------------------------


def _choice_targets(
    game: GameStructure, q: StateId, fixed: dict[AgentId, ActionId]
) -> list[StateId]:
    """Successors of ``q`` under a coalition choice, ignoring capacities."""
    return sorted(
        {
            game.transitions[(q, joint)]
            for joint in game.joint_actions(q)
            if all(joint[a] == x for a, x in fixed.items())
        }
    )


def enumerate_strategy_trees(
    game: GameStructure,
    pivot: StateId,
    coalition: frozenset[AgentId],
    depth: int,
) -> Iterator[StrategyTree]:
    """Yield every canonical decision tree of the given depth.

    Trees carry decisions only at suffix histories reachable under their own
    prescriptions, so distinct yields are genuinely distinct strategies.  The
    order is deterministic: breadth-first over histories, lexicographic by
    action indices at each node.
    """
    members = tuple(sorted(coalition))
    if not members or depth == 0:
        yield StrategyTree(frozenset(coalition), pivot, depth, {})
        return
    # Depth-first over the decision sequence; each frame holds the histories
    # still to decide, in breadth-first order, and the decisions so far.
    # Choices are pushed largest first so that the smallest pops first.
    stack: list[tuple[tuple[History, ...], tuple]] = [(((pivot,),), ())]
    while stack:
        pending, decided = stack.pop()
        if not pending:
            yield StrategyTree(
                frozenset(coalition), pivot, depth, dict(decided)
            )
            continue
        history = pending[0]
        q = history[-1]
        for choice in itertools.product(
            *(sorted(game.protocols[a][q], reverse=True) for a in members)
        ):
            children: tuple[History, ...] = ()
            if len(history) < depth:
                targets = _choice_targets(game, q, dict(zip(members, choice)))
                children = tuple(history + (t,) for t in targets)
            stack.append(
                (pending[1:] + children, decided + ((history, choice),))
            )


def _first_choices(
    game: GameStructure,
    members: tuple[AgentId, ...],
    roots: list[History],
    depth: int,
) -> dict[History, tuple[ActionId, ...]]:
    """The first tree's decisions below ``roots``.

    Every history of length at most ``depth`` reachable from a root under
    these decisions gets each member's smallest protocol action, as the
    first tree in enumeration order has it.
    """
    decisions: dict[History, tuple[ActionId, ...]] = {}
    stack = [history for history in roots if members and len(history) <= depth]
    while stack:
        history = stack.pop()
        q = history[-1]
        choice = tuple(min(game.protocols[a][q]) for a in members)
        decisions[history] = choice
        if len(history) < depth:
            targets = _choice_targets(game, q, dict(zip(members, choice)))
            stack.extend(history + (t,) for t in targets)
    return decisions


def find_winning_strategy(
    ctx: EvalContext,
    coalition: frozenset[AgentId],
    goal: fm.TemporalFormula,
) -> StrategyTree | None:
    """First tree, in enumeration order, that wins the bounded goal.

    Walks the and-or search in the enumeration's breadth-first history
    order and fixes each node to its smallest choice that still admits a
    winning completion: every open node can still end TRUE, and at least one
    node can end TRUE with an outcome.  Decisions at distinct histories are
    independent, so the walk picks the lexicographically first winning
    sequence of decisions.  Histories reached only through capacity-pruned
    branches cannot change the outcomes and take the first tree's choices.
    """
    search = _Search(ctx, coalition, goal)
    pivot = search.root[0]
    if not search.start:
        return None
    if not search.members or search.is_leaf(search.root):
        # The single tree of an empty coalition or of depth 0 decides nothing.
        if search.rank(search.root, search.start, search.won) != 2:
            return None
        return StrategyTree(frozenset(coalition), pivot, ctx.horizon, {})

    decisions: dict[History, tuple[ActionId, ...]] = {}
    pruned: list[History] = []
    # Open nodes with their ranks; the root's is not known yet.
    queue = collections.deque([(search.root, search.start, 0)])
    # Open nodes and fixed leaves that can end TRUE with an outcome.
    twos = 0
    while queue:
        history, branches, own = queue.popleft()
        twos -= own == 2
        q = history[-1]
        for choice in search.choices(q):
            groups = search.expand(history, branches, choice)
            ranks = search.child_ranks(history, groups, search.won)
            if ranks is None:
                continue
            gained = sum(got == 2 for got in ranks.values())
            if twos + gained > 0:
                break
        else:
            return None  # only the root can lack a winning choice
        decisions[history] = choice
        twos += gained
        if len(history) < ctx.horizon:
            fixed = dict(zip(search.members, choice))
            for target in _choice_targets(ctx.game, q, fixed):
                child = history + (target,)
                if target in groups:
                    queue.append((child, groups[target], ranks[target]))
                else:
                    pruned.append(child)
    decisions.update(
        _first_choices(ctx.game, search.members, pruned, ctx.horizon)
    )
    return StrategyTree(frozenset(coalition), pivot, ctx.horizon, decisions)


def find_falsifying_pair(
    ctx: EvalContext,
    coalition: frozenset[AgentId],
    goal: fm.TemporalFormula,
) -> tuple[StrategyTree, Path | None]:
    """A falsified tree with a FALSE outcome, or with none when pruned empty.

    Meaningful when the strategic verdict is FALSE: then every tree is
    falsified, so the first one in enumeration order is taken.
    """
    prefix = ctx.path.prefix(ctx.index)
    pivot = prefix.last_state
    members = tuple(sorted(coalition))
    tree = StrategyTree(
        frozenset(coalition),
        pivot,
        ctx.horizon,
        _first_choices(ctx.game, members, [(pivot,)], ctx.horizon),
    )
    for outcome in sorted(
        outcomes_bounded(ctx.game, prefix, tree, ctx.horizon),
        key=lambda p: p.actions,
    ):
        if (
            eval_temporal(ctx.at(prefix, ctx.index), goal, outcome)
            is Verdict.FALSE
        ):
            return tree, outcome
    return tree, None


# -- state checking -----------------------------------------------------------


def canonical_assignment(game: GameStructure) -> CapacityAssignment:
    """Each agent's lowest-indexed capacity; any complete choice would do."""
    return tuple(min(game.agent_capacities[a]) for a in game.agents)


def check_state(
    game: GameStructure, state: StateId, f: fm.PathFormula, horizon: int
) -> Verdict:
    """Evaluate at the single-state path from ``state``.

    The ambient assignment is immaterial for path formulas (capacity atoms
    occur only under the knowledge operator, which re-quantifies them); the
    canonical one is used so results are reproducible.
    """
    if not 0 <= state < len(game.state_names):
        raise ValueError(f"unknown state id {state}")
    ctx = EvalContext(
        game=game,
        path=Path((state,)),
        index=1,
        assignment=canonical_assignment(game),
        horizon=horizon,
    )
    return eval_path_formula(ctx, f)

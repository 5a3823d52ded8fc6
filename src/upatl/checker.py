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
verdict takes at most one pass of each.  Certificates come from one walk
over the first: a greedy walk yields the witness, and the same walk started
without live branches yields the falsifier's tree, the first tree of all.
The falsifier's outcome is found by a depth-first walk over that tree's
outcomes that stops at the first FALSE one.
``enumerate_strategy_trees`` materializes trees in the canonical order that
witnesses and falsifiers are first in.  The search, the walk and the
enumeration read a coalition's choices at a state, each with the moves it
allows, from one table, ``GameStructure.choices``.  So does the belief
update: the moves an agent cannot tell from its own are those its own action
allows, the entry of that action for the one-agent coalition.  A move is a
joint action, the capacities licensing each agent's part of it, and the
successor, so one step of play is one move: ``Evaluator.step`` takes the move
from the table, and a step of a concrete path builds its move once.

Each nested strategic operator is re-anchored at the current prefix with the
full configured horizon, so nesting does not starve the budget.

Evaluation runs over abstract prefix states.  The abstract state of a prefix
is its last state, each agent's compatible capacity set, and, for each agent
named in a ``K[...]`` subformula, a belief set: the tuples of per-agent
compatible capacity sets of the paths that agent cannot tell from the
prefix.  Tuples with an empty set are left out; they hold any knowledge
vacuously, and do so forever, since compatible sets only shrink.

Why equal abstract states give equal verdicts.  An atom reads the last
state.  ``K[a]`` quantifies over the compatible assignments of the members
of the prefix's class, which are the products of the tuples in the belief
set.  Extending the prefix by a joint action ``j`` to a state ``t`` narrows
each compatible set to the capacities licensing that agent's action in
``j``.  The members of the extension's class are the members of the old
class extended by the joint actions ``j'`` with ``j'[a] == j[a]`` that also
lead to ``t``, so the new belief set depends only on the old one and on
(last state, ``j[a]``, ``t``).  By induction, the abstract state of every
extension is a function of the prefix's abstract state and the steps taken.
A nested ``<<...>>`` explores extensions only, starting from the compatible
sets, so it too depends on the prefix only through its abstract state.
Every state subformula, and so goal progress, therefore has one verdict per
abstract state, which lets the search memos below key nodes by abstract
states.  Verdicts themselves are not memoized: few are asked for twice.

Goals progress forward.  With FALSE < UNKNOWN < TRUE, strong-Kleene ``&``
and ``|`` are min and max, a distributive lattice.  The bounded until unrolls
backward as ``u_j = r_j | (l_j & u_j+1)``, with UNKNOWN past the horizon.  A
progress pair ``(a, b)`` stands for ``a | (b & u_j)``; distributivity gives
``a | (b & u_j) = (a | (b & r_j)) | ((b & l_j) & u_j+1)``, so reading position
``j`` maps ``(a, b)`` to ``(a | (b & r_j), b & l_j)``.  Starting from
``(FALSE, TRUE)`` and ending with ``a | (b & UNKNOWN)`` this is exactly the
backward value.  Release is the dual ``u_j = r_j & (l_j | u_j+1)``, and maps
``(a, b)`` to ``(a | (b & r_j & l_j), b & r_j)``.  Once ``a`` is TRUE or
``b`` FALSE the value is decided, and ``(a, FALSE)`` stands for it; an
undecided pair ends UNKNOWN.  Next starts there too, skips the first
position, and maps to ``(v, FALSE)`` at the second, where its operand is v.

Why equal nodes get equal ranks.  A search node's rank depends on the steps
left below it and on the set of its branches, each an (abstract state,
progress) pair: the leaf rules read only the progress and the compatible
sets, the choices only the last state, and the expansion of a branch is a
function of the pair.  Duplicates do not matter, since the leaf rules ask
"every" and "some".  So ranks are memoized on (leaf rule, steps left, branch
set).  A node's expansion under a choice, its children grouped by target,
depends on neither the steps left nor the leaf rule, so expansions are
memoized on (branch set, choice) alone and shared by both rank passes and the
witness walk; once a goal nests ``<<...>>``, they hold its verdicts at the
evaluator's horizon.  Both are keyed by the operator's value, its coalition
and goal (frozen dataclasses), so equal operators share one search and a key
stays valid after its node is freed.  Every memo belongs to one
``Evaluator``, made per call unless the context shares one; a shared one
answers questions on its game and horizon, about the ``K[...]`` agents it
tracks, nested no deeper than its own formula.
"""

from __future__ import annotations

import collections
import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import formula as fm
from .model import ActionId, AgentId, CapacityId, GameStructure, Move, StateId
from .trace import (
    CapacityAssignment,
    History,
    Path,
    StrategyTree,
    check_strategy_tree,
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
    extension steps each strategic operator may explore.  ``evaluator``, if
    set, holds the memos that calls with this context share (the CLI shares
    one between a verdict and its certificate); without it, every call makes
    its own.  A shared one answers questions on its game and horizon, about
    the ``K[...]`` agents it tracks, nested no deeper than its own formula.
    """

    game: GameStructure
    path: Path
    index: int
    assignment: CapacityAssignment
    horizon: int
    evaluator: Evaluator | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.index <= len(self.path.states):
            raise ValueError("index out of range for the path")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if len(self.assignment) != self.game.agent_count:
            raise ValueError("ambient capacity assignment must be complete")
        evaluator = self.evaluator
        if evaluator is None:
            return
        if evaluator.game is not self.game or evaluator.horizon != self.horizon:
            raise ValueError("evaluator is for another game or horizon")


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
    know = fm.Know(agent, body)
    evaluator = Evaluator(game, 0, know)
    return evaluator.value(know, evaluator.fold(path, index)) is Verdict.TRUE


# -- abstract prefix states ---------------------------------------------------

Caps = tuple[frozenset[CapacityId], ...]  # one compatible set per agent
# Goal progress: a pair (a, b) standing for ``a | (b & rest)``; decided iff b
# is FALSE.
Progress = tuple[Verdict, Verdict]
_UNREAD = (Verdict.FALSE, Verdict.TRUE)
_WON = (Verdict.TRUE, Verdict.FALSE)


def _narrow(caps: Caps, licensing: Caps) -> Caps:
    return tuple(cs & lic for cs, lic in zip(caps, licensing))


def _final(progress: Progress) -> Verdict:
    """The goal's verdict once the horizon is reached."""
    if progress[1] is not Verdict.FALSE:
        return Verdict.UNKNOWN
    return progress[0]


def _nodes(f) -> Iterator[tuple[object, int]]:
    """Every node of ``f``, with the number of strategic operators from the
    root down to it, itself included."""
    stack = [(f, 0)]
    while stack:
        g, nesting = stack.pop()
        if isinstance(g, fm.Strat):
            nesting += 1
            stack.append((g.goal, nesting))
        elif isinstance(g, (fm.Not, fm.Next)):
            stack.append((g.operand, nesting))
        elif isinstance(g, (fm.And, fm.Until, fm.Release)):
            stack += [(g.left, nesting), (g.right, nesting)]
        yield g, nesting


# Deepest search the checker accepts: the horizon times the most strategic
# operators nested on one branch of the formula.  The rank search recurses
# once per step, and a nested operator's search runs inside its parent's, so
# a deeper search would exhaust the interpreter's stack.  Set from
# measurement under pytest with a formula nested to ``formula.MAX_NESTING``,
# which first failed at 379.
MAX_SEARCH_DEPTH = 300


class SearchDepthError(ValueError):
    """The horizon times the formula's strategic nesting exceeds
    ``MAX_SEARCH_DEPTH``."""


# Most decisions a certificate's tree may hold.  A tree decides every history
# its prescriptions reach, so it can grow exponentially with the horizon while
# the search behind it stays small.  Set from measurement on a 2-vCPU host:
# ``hand_mix``'s ``<<obs>> N leftHit`` falsifier has 195,024 decisions at
# k=14 (an 82 MB JSON record, written in about 2 s at a 100 MB peak, as its
# text), which must still print; at k=200 it cannot fit in memory, and with this limit the
# walk gives up after about 3 s at a 220 MB peak.
MAX_CERTIFICATE_DECISIONS = 250_000


class CertificateTooLarge(Exception):
    """A certificate's tree would hold more than ``MAX_CERTIFICATE_DECISIONS``
    decisions.  Not a ``ValueError``: the verdict stands, only its
    certificate is withheld."""


class _State:
    """An abstract prefix state, interned by its evaluator, so that identity
    is equality and memo keys hash fast."""

    __slots__ = ("q", "caps", "beliefs", "alive")

    def __init__(self, q: StateId, caps: Caps, beliefs: tuple[frozenset[Caps], ...]):
        self.q = q
        self.caps = caps
        self.beliefs = beliefs  # one per knower, in knower order
        self.alive = all(caps)  # some complete assignment is compatible


class Evaluator:
    """The memos of the questions asked on one game at one horizon: abstract
    states, and the ranks and node expansions of each strategic operator's
    search, keyed by the operator's coalition and goal.

    The states carry a belief set for each ``K[...]`` agent of ``formula``;
    asked about another agent's knowledge, ``value`` raises ``ValueError``.
    Every search runs inside an evaluator, so this is where
    ``SearchDepthError`` is raised, for ``formula``'s nesting; a question
    nested deeper is not checked, which would cost a walk per question.  The
    memos hold no reference back to the evaluator, so that it is freed as
    soon as its last call ends, without waiting for the cycle collector.
    """

    def __init__(self, game: GameStructure, horizon: int, formula) -> None:
        nodes = list(_nodes(formula))
        nesting = max(depth for _, depth in nodes)
        if horizon * nesting > MAX_SEARCH_DEPTH:
            raise SearchDepthError(
                f"horizon {horizon} times strategic nesting {nesting} exceeds "
                f"the search depth limit {MAX_SEARCH_DEPTH}"
            )
        self.game = game
        self.horizon = horizon
        self.knowers = tuple(
            sorted({g.agent for g, _ in nodes if isinstance(g, fm.Know)})
        )
        self.interned: dict[tuple, _State] = {}
        self.ranks: dict[tuple, dict] = {}  # by (coalition, goal)
        self.expansions: dict[tuple, dict] = {}  # by (coalition, goal)

    def _intern(self, q: StateId, caps: Caps, beliefs: tuple) -> _State:
        key = (q, caps, beliefs)
        state = self.interned.get(key)
        if state is None:
            state = self.interned[key] = _State(q, caps, beliefs)
        return state

    def fold(self, path: Path, index: int) -> _State:
        """The abstract state of ``path.prefix(index)``."""
        if not 1 <= index <= len(path.states):
            raise ValueError("index out of range for the path")
        caps = self.game.agent_capacities
        whole = frozenset([caps]) if all(caps) else frozenset()
        state = self._intern(path.states[0], caps, (whole,) * len(self.knowers))
        for joint, target in zip(path.actions[: index - 1], path.states[1:index]):
            state = self.step(state, (joint, self.game.licensing(joint), target))
        return state

    def step(self, state: _State, move: Move) -> _State:
        """The abstract state after ``move`` is played from ``state``."""
        joint, licensing, target = move
        beliefs = tuple(
            self._believe(state.q, a, joint[a], target, belief)
            for a, belief in zip(self.knowers, state.beliefs)
        )
        return self._intern(target, _narrow(state.caps, licensing), beliefs)

    def _believe(self, q, agent, action, target, belief) -> frozenset[Caps]:
        """Belief set update: every member extended by every joint action the
        agent cannot tell from its own, narrowed, and dropped if emptied."""
        out = set()
        for _, licensing, reached in self.game.choices(q, (agent,)).get((action,), ()):
            if reached == target:
                for member in belief:
                    narrowed = _narrow(member, licensing)
                    if all(narrowed):
                        out.add(narrowed)
        return frozenset(out)

    def value(self, f: fm.PathFormula, state: _State) -> Verdict:
        if isinstance(f, fm.Atom):
            return lift(f.prop in self.game.labels[state.q])
        if isinstance(f, fm.Know):
            if f.agent not in self.knowers:
                name = self.game.agent_names[f.agent]
                raise ValueError(f"the evaluator keeps no beliefs of agent {name!r}")
            belief = state.beliefs[self.knowers.index(f.agent)]
            return lift(
                all(
                    eval_cap_formula(assignment, f.body)
                    for member in belief
                    for assignment in itertools.product(*member)
                )
            )
        if isinstance(f, fm.Not):
            return not3(self.value(f.operand, state))
        if isinstance(f, fm.And):
            left = self.value(f.left, state)
            if left is Verdict.FALSE:
                return Verdict.FALSE
            return and3(left, self.value(f.right, state))
        if isinstance(f, fm.Strat):
            return _Search(self, f.coalition, f.goal).verdict(state)
        raise TypeError(f"not a path formula: {f!r}")

    # Goal progress, read one position at a time (module docstring).

    def begin(self, goal: fm.TemporalFormula, state: _State) -> Progress:
        """Progress after reading the first position, at ``state``."""
        if isinstance(goal, fm.Next):
            return _UNREAD
        if not isinstance(goal, (fm.Until, fm.Release)):
            raise TypeError(f"not a temporal formula: {goal!r}")
        return self.advance(goal, _UNREAD, state)

    def advance(
        self, goal: fm.TemporalFormula, progress: Progress, state: _State
    ) -> Progress:
        """Progress after reading one more position, at ``state``."""
        a, b = progress
        if b is Verdict.FALSE:
            return progress
        if isinstance(goal, fm.Next):
            return (self.value(goal.operand, state), Verdict.FALSE)
        if isinstance(goal, fm.Until):
            a = or3(a, and3(b, self.value(goal.right, state)))
            if a is Verdict.TRUE:
                return _WON
            return (a, and3(b, self.value(goal.left, state)))
        b = and3(b, self.value(goal.right, state))
        if b is Verdict.FALSE:
            return (a, b)
        a = or3(a, and3(b, self.value(goal.left, state)))
        return _WON if a is Verdict.TRUE else (a, b)


def _evaluator(ctx: EvalContext, formula) -> Evaluator:
    """The context's evaluator, or a fresh one for this call."""
    if ctx.evaluator is not None:
        return ctx.evaluator
    return Evaluator(ctx.game, ctx.horizon, formula)


# -- path formulas ------------------------------------------------------------


def eval_path_formula(ctx: EvalContext, f: fm.PathFormula) -> Verdict:
    """The verdict of ``f`` at ``ctx``; a top-level ``K`` is answered by
    ``eval_knowledge``."""
    # The evaluator alone would give the same verdict; this route stays
    # because the benchmark's tests count calls of ``eval_knowledge``
    # (bench/test_bench.py).
    if isinstance(f, fm.Know):
        return lift(
            eval_knowledge(ctx.game, ctx.path, ctx.index, f.agent, f.body)
        )
    evaluator = _evaluator(ctx, f)
    return evaluator.value(f, evaluator.fold(ctx.path, ctx.index))


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
    if len(outcome.states) != ctx.index + ctx.horizon:
        raise ValueError("outcome does not match the horizon")
    evaluator, index = _evaluator(ctx, goal), ctx.index
    state = evaluator.fold(outcome, index)
    progress = evaluator.begin(goal, state)
    for joint, target in zip(outcome.actions[index - 1 :], outcome.states[index:]):
        state = evaluator.step(state, (joint, ctx.game.licensing(joint), target))
        progress = evaluator.advance(goal, progress, state)
    return _final(progress)


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


# A search branch: an outcome prefix's abstract state and goal progress.
_Branch = tuple[_State, Progress]
_Leaf = Callable[[frozenset[_Branch]], int]


class _Search:
    """The and-or search of one strategic operator, from any prefix.

    A node is a suffix history since the pivot; below it only the steps left
    and its branches matter, the (abstract state, progress) pairs of the
    outcome prefixes that reach it.  The coalition fixes one choice per node,
    and a choice leads to one child node per target state of the surviving
    branches.  The memos live in the evaluator, shared by every search of an
    equal operator.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        coalition: frozenset[AgentId],
        goal: fm.TemporalFormula,
    ):
        self.evaluator = evaluator
        self.goal = goal
        self.members = tuple(sorted(coalition))
        self.horizon = evaluator.horizon
        self.safe_caps = unprunable_capacities(evaluator.game, coalition)
        key = (coalition, goal)
        self.ranks = evaluator.ranks.setdefault(key, {})  # (leaf, left, branches)
        self.expansions = evaluator.expansions.setdefault(key, {})  # (branches, choice)

    def start(self, state: _State) -> frozenset[_Branch]:
        """The root's branches; none when no assignment is compatible, so
        that every tree has an empty outcome set."""
        if not state.alive:
            return frozenset()
        return frozenset([(state, self.evaluator.begin(self.goal, state))])

    def verdict(self, state: _State) -> Verdict:
        """The operator's verdict at a prefix: existential over strategy
        trees, universal over surviving outcomes.

        TRUE iff some depth-``horizon`` tree has a nonempty outcome set with
        the goal TRUE on every outcome.  FALSE requires every tree to be
        falsified in a way deeper play cannot repair: its outcome set is
        empty, or every outcome is FALSE (survivors of any extension still
        extend FALSE outcomes), or some FALSE outcome admits a compatible
        assignment the coalition can never play away from.  A tree whose only
        FALSE outcomes are prunable may be rescued at a larger horizon by
        making those branches capacity-incompatible, so it yields UNKNOWN
        instead; this keeps TRUE and FALSE sound for the unbounded semantics
        and monotone in the horizon.

        Each question is one rank search, with the leaf rule ``won`` or
        ``unfalsified``.  Decisions at distinct histories are independent, so
        a tree whose leaves all rank at least 1 and one ranks 2 exists iff the
        root ranks 2.
        """
        start = self.start(state)
        if not start:
            return Verdict.FALSE
        if self.rank(self.horizon, start, self.won) == 2:
            return Verdict.TRUE
        if self.rank(self.horizon, start, self.unfalsified) != 2:
            return Verdict.FALSE
        return Verdict.UNKNOWN

    def expand(
        self,
        branches: frozenset[_Branch],
        choice: tuple[ActionId, ...],
        moves: tuple[Move, ...],
    ) -> dict[StateId, frozenset[_Branch]]:
        """Every branch extended by every move ``choice`` allows, dropped once
        no assignment is compatible, and grouped by the state it reaches;
        computed once per (branches, choice), and shared, so read-only."""
        key = (branches, choice)
        got = self.expansions.get(key)
        if got is not None:
            return got
        evaluator = self.evaluator
        groups: dict[StateId, set[_Branch]] = {}
        for state, progress in branches:
            for move in moves:
                after = evaluator.step(state, move)
                if after.alive:
                    groups.setdefault(after.q, set()).add(
                        (after, evaluator.advance(self.goal, progress, after))
                    )
        got = self.expansions[key] = {
            target: frozenset(group) for target, group in groups.items()
        }
        return got

    def won(self, branches: frozenset[_Branch]) -> int:
        """Leaf rule for a winning tree: every outcome TRUE."""
        for _, progress in branches:
            if _final(progress) is not Verdict.TRUE:
                return 0
        return 2

    def unfalsified(self, branches: frozenset[_Branch]) -> int:
        """Leaf rule for a tree that escapes falsification: no FALSE outcome
        is unprunable, and 2 only if some outcome is not FALSE."""
        rank = 1
        for state, progress in branches:
            if _final(progress) is not Verdict.FALSE:
                rank = 2
            elif all(cs & safe for cs, safe in zip(state.caps, self.safe_caps)):
                return 0
        return rank

    def rank(self, left: int, branches: frozenset[_Branch], leaf: _Leaf) -> int:
        """2 if some subtree of ``left`` steps below the node has every leaf
        ranked at least 1 by ``leaf`` and some leaf ranked 2, else 1 if some
        has every leaf ranked at least 1 (or no leaf), else 0; stops at the
        first 2."""
        if left == 0:
            return leaf(branches)
        key = (leaf.__name__, left, branches)
        best = self.ranks.get(key)
        if best is not None:
            return best
        best = 0
        q = next(iter(branches))[0].q
        for choice, moves in self.evaluator.game.choices(q, self.members).items():
            groups = self.expand(branches, choice, moves)
            ranks = self.child_ranks(left - 1, groups, leaf)
            if ranks is not None:
                if 2 in ranks.values():
                    best = 2
                    break
                best = 1
        self.ranks[key] = best
        return best

    def child_ranks(
        self, left: int, groups: dict[StateId, frozenset[_Branch]], leaf: _Leaf
    ) -> dict[StateId, int] | None:
        """Each child's rank, or None as soon as one ranks 0."""
        ranks = {}
        for target in sorted(groups):
            got = self.rank(left, groups[target], leaf)
            if got == 0:
                return None
            ranks[target] = got
        return ranks

    def first_tree(
        self, pivot: StateId, start: frozenset[_Branch]
    ) -> dict[History, tuple[ActionId, ...]] | None:
        """The decisions of the first tree, in enumeration order, that wins
        from ``start``, or None if no tree does.

        Walks the nodes in the enumeration's breadth-first history order and
        fixes each to its smallest choice that still admits a winning
        completion: every open node can still end TRUE, and at least one
        node can end TRUE with an outcome.  Decisions at distinct histories
        are independent, so the walk picks the lexicographically first
        winning sequence of decisions.  A history without live branches
        cannot change the outcomes and takes its first choice, as do its
        descendants; from an empty ``start`` the walk yields the first tree.
        Raises ``CertificateTooLarge`` once the tree passes
        ``MAX_CERTIFICATE_DECISIONS`` decisions.
        """
        if not self.members or self.horizon == 0:
            # The single tree of an empty coalition or of depth 0 decides nothing.
            if start and self.rank(self.horizon, start, self.won) != 2:
                return None
            return {}
        game = self.evaluator.game
        decisions: dict[History, tuple[ActionId, ...]] = {}
        # Open nodes with their ranks; the root's is not known yet.
        queue = collections.deque([((pivot,), start, 0)])
        # Open nodes and fixed leaves that can end TRUE with an outcome.
        twos = 0
        while queue:
            history, branches, own = queue.popleft()
            left = self.horizon - len(history)
            twos -= own == 2
            choices = game.choices(history[-1], self.members).items()
            if not branches:
                choice, moves = next(iter(choices))
                groups, ranks, gained = {}, {}, 0
            else:
                for choice, moves in choices:
                    groups = self.expand(branches, choice, moves)
                    ranks = self.child_ranks(left, groups, self.won)
                    if ranks is None:
                        continue
                    gained = sum(got == 2 for got in ranks.values())
                    if twos + gained > 0:
                        break
                else:
                    return None  # only the root can lack a winning choice
            decisions[history] = choice
            if len(decisions) > MAX_CERTIFICATE_DECISIONS:
                raise CertificateTooLarge(
                    f"its certificate has more than {MAX_CERTIFICATE_DECISIONS} "
                    f"decisions (MAX_CERTIFICATE_DECISIONS)"
                )
            twos += gained
            if left:
                for target in sorted({target for _, _, target in moves}):
                    queue.append(
                        (
                            history + (target,),
                            groups.get(target, frozenset()),
                            ranks.get(target, 0),
                        )
                    )
        return decisions

    def first_false_outcome(
        self, prefix: Path, state: _State, tree: StrategyTree
    ) -> Path | None:
        """The first outcome of ``tree`` from ``prefix``, of abstract state
        ``state``, in action order, whose goal is FALSE, or None if none is;
        see ``_false_below``."""
        if not state.alive:
            return None
        start = self.evaluator.begin(self.goal, state)
        found = self._false_below(tree, (tree.pivot,), state, start)
        if found is None:
            return None
        return Path(prefix.states + found[0], prefix.actions + found[1])

    def _false_below(
        self, tree: StrategyTree, history: History, state: _State, progress: Progress
    ) -> tuple[tuple, tuple] | None:
        """The states and joint actions after ``history`` of the first FALSE
        outcome through it, or None.

        Depth-first, each node's moves in action order, so the first FALSE
        leaf reached is the first in action order.  A branch is left as soon
        as no assignment is compatible with it or its goal is decided other
        than FALSE.  One frame per step: at most ``horizon + 1``.
        """
        if len(history) > self.horizon:
            return ((), ()) if _final(progress) is Verdict.FALSE else None
        if progress[1] is Verdict.FALSE and progress[0] is not Verdict.FALSE:
            return None
        evaluator = self.evaluator
        moves = evaluator.game.choices(history[-1], self.members)[
            tree.prescription(history)
        ]
        for move in moves:
            after = evaluator.step(state, move)
            if after.alive:
                joint, _, target = move
                progressed = evaluator.advance(self.goal, progress, after)
                found = self._false_below(tree, history + (target,), after, progressed)
                if found is not None:
                    return (target,) + found[0], (joint,) + found[1]
        return None


def _strategic(
    ctx: EvalContext, coalition: frozenset[AgentId], goal: fm.TemporalFormula
) -> tuple[_Search, _State]:
    """The search of ``<<coalition>> goal`` and the abstract state of the
    context's prefix, whose last state is the pivot."""
    evaluator = _evaluator(ctx, fm.Strat(coalition, goal))
    return _Search(evaluator, coalition, goal), evaluator.fold(ctx.path, ctx.index)


# -- certificates -------------------------------------------------------------


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
    # Depth-first over the decision sequence; each frame holds the histories
    # still to decide, in breadth-first order, and the decisions so far.  The
    # empty coalition and depth 0 decide nothing.  Choices are pushed largest
    # first so that the smallest pops first.
    root = ((pivot,),) if members and depth else ()
    stack: list[tuple[tuple[History, ...], tuple]] = [(root, ())]
    while stack:
        pending, decided = stack.pop()
        if not pending:
            yield StrategyTree(
                frozenset(coalition), pivot, depth, dict(decided)
            )
            continue
        history = pending[0]
        for choice, moves in reversed(game.choices(history[-1], members).items()):
            children: tuple[History, ...] = ()
            if len(history) < depth:
                targets = sorted({target for _, _, target in moves})
                children = tuple(history + (t,) for t in targets)
            stack.append(
                (pending[1:] + children, decided + ((history, choice),))
            )


def find_winning_strategy(
    ctx: EvalContext,
    coalition: frozenset[AgentId],
    goal: fm.TemporalFormula,
) -> StrategyTree | None:
    """First tree, in enumeration order, that wins the bounded goal; see
    ``_Search.first_tree``.  Given the context that decided the verdict, the
    walk reuses its ranks.  Raises ``ValueError`` if the tree fails
    ``validate_strategy_tree``."""
    search, state = _strategic(ctx, coalition, goal)
    start = search.start(state)
    decisions = search.first_tree(state.q, start) if start else None
    if decisions is None:
        return None
    tree = StrategyTree(frozenset(coalition), state.q, ctx.horizon, decisions)
    check_strategy_tree(ctx.game, tree)
    return tree


def find_falsifying_pair(
    ctx: EvalContext,
    coalition: frozenset[AgentId],
    goal: fm.TemporalFormula,
) -> tuple[StrategyTree, Path | None]:
    """The first tree in enumeration order, with its first FALSE outcome in
    action order, or with none when no outcome is FALSE.

    Meaningful when the strategic verdict is FALSE: then every tree is
    falsified, so the first one is taken, and it has a FALSE outcome unless
    its outcomes are pruned empty.  The tree is the witness walk started
    without live branches; the outcome is found depth-first
    (``_Search.first_false_outcome``).  Raises ``ValueError`` if the tree
    fails ``validate_strategy_tree``.
    """
    search, state = _strategic(ctx, coalition, goal)
    decisions = search.first_tree(state.q, frozenset())
    tree = StrategyTree(frozenset(coalition), state.q, ctx.horizon, decisions)
    check_strategy_tree(ctx.game, tree)
    prefix = ctx.path.prefix(ctx.index)
    return tree, search.first_false_outcome(prefix, state, tree)


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

"""Paths, capacity compatibility, indistinguishability, and bounded outcomes.

A finite path alternates states and joint actions and always ends with a
state.  Capacity assignments compatible with a path are those where every
action each agent took is licensed by that agent's assigned capacity; the
compatible set only shrinks as a path grows.

Strategies are finite decision trees over suffix histories: state sequences
starting at the tree's pivot state.  A tree of depth ``n`` can drive its
coalition for ``n`` steps; outcome enumeration extends a path under a tree,
letting the other agents move freely, and prunes every branch whose
compatible-assignment set becomes empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .model import (
    ActionId,
    AgentId,
    CapacityId,
    GameStructure,
    JointAction,
    StateId,
)

History = tuple[StateId, ...]
CapacityAssignment = tuple[CapacityId, ...]  # complete: one capacity per agent


@dataclass(frozen=True)
class Path:
    """Finite path: ``len(actions) == len(states) - 1``."""

    states: tuple[StateId, ...]
    actions: tuple[JointAction, ...] = ()

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a path has at least one state")
        if len(self.actions) != len(self.states) - 1:
            raise ValueError("a finite path alternates states and actions")

    @property
    def steps(self) -> int:
        return len(self.actions)

    @property
    def last_state(self) -> StateId:
        return self.states[-1]

    def prefix(self, n_states: int) -> "Path":
        if not 1 <= n_states <= len(self.states):
            raise ValueError(f"prefix of {n_states} states out of range")
        return Path(self.states[:n_states], self.actions[: n_states - 1])

    def extend(self, joint: JointAction, state: StateId) -> "Path":
        return Path(self.states + (state,), self.actions + (joint,))


def validate_path(game: GameStructure, path: Path) -> bool:
    """True iff every step uses an available joint action and the successors match."""
    if any(not 0 <= q < len(game.state_names) for q in path.states):
        return False
    for i, joint in enumerate(path.actions):
        q = path.states[i]
        if not game.is_available(q, joint):
            return False
        if game.transitions.get((q, joint)) != path.states[i + 1]:
            return False
    return True


def complete_assignments(game: GameStructure) -> tuple[CapacityAssignment, ...]:
    """Every complete capacity assignment, sorted lexicographically."""
    per_agent = [sorted(game.agent_capacities[a]) for a in game.agents]
    return tuple(itertools.product(*per_agent))


def compatible_capacities(
    game: GameStructure, path: Path, agent: AgentId
) -> frozenset[CapacityId]:
    """Capacities of ``agent`` licensing every action it took along ``path``."""
    taken = {joint[agent] for joint in path.actions}
    return frozenset(
        c
        for c in game.agent_capacities[agent]
        if taken <= game.capacity_actions[c]
    )


def compatible_assignments(
    game: GameStructure, path: Path
) -> frozenset[CapacityAssignment]:
    """Complete assignments that may have brought about ``path``.

    Agents constrain each other only through completeness, so the set is the
    product of the per-agent compatible capacity sets; it may be empty.
    """
    per_agent = [sorted(compatible_capacities(game, path, a)) for a in game.agents]
    return frozenset(itertools.product(*per_agent))


# A branch is an outcome prefix with its per-agent compatible capacity sets.
Branch = tuple[Path, tuple[frozenset[CapacityId], ...]]


def indistinguishable(
    game: GameStructure, left: Path, right: Path, agent: AgentId
) -> bool:
    """True iff the state traces coincide and the agent's own actions coincide.

    The relation compares index-wise, so the paths must have equal length.
    """
    if len(left.states) != len(right.states):
        raise ValueError("indistinguishability compares equal-length paths")
    if left.states != right.states:
        return False
    return all(
        a[agent] == b[agent] for a, b in zip(left.actions, right.actions)
    )


def indistinguishability_class(
    game: GameStructure, path: Path, agent: AgentId
) -> frozenset[Path]:
    """All equal-length valid paths the agent cannot tell from ``path``.

    Members with an empty compatible-assignment set are kept; knowledge
    evaluation quantifies over their assignments and skips them vacuously.
    """
    step_choices = [
        [
            other
            for other, _, reached in game.choices(q, (agent,)).get((joint[agent],), ())
            if reached == target
        ]
        for q, joint, target in zip(path.states, path.actions, path.states[1:])
    ]
    return frozenset(
        Path(path.states, combo) for combo in itertools.product(*step_choices)
    )


@dataclass(frozen=True, eq=False)
class StrategyTree:
    """Finite-depth decision tree standing for a memoryful strategy assignment.

    ``decisions`` maps suffix histories (state sequences starting at the
    pivot, of length 1..depth) to one action per coalition agent, ordered by
    agent index.  The map must cover every history reachable under the tree's
    own prescriptions and no other, and each prescribed action must be in the
    acting agent's protocol at the history's last state.
    """

    coalition: frozenset[AgentId]
    pivot: StateId
    depth: int
    decisions: dict[History, tuple[ActionId, ...]] = field(default_factory=dict)

    @property
    def agents(self) -> tuple[AgentId, ...]:
        return tuple(sorted(self.coalition))

    def prescription(self, history: History) -> tuple[ActionId, ...] | None:
        """Actions prescribed at ``history``; the empty coalition needs none."""
        if not self.coalition:
            return ()
        return self.decisions.get(history)


def validate_strategy_tree(game: GameStructure, tree: StrategyTree) -> list[str]:
    """Check that every id is the game's, then protocol conformance and
    totality on reachable suffix histories, then that no decision sits at a
    history play under the tree never reaches (past the depth, or off its
    prescribed moves)."""
    agents = tree.agents
    if any(not 0 <= a < game.agent_count for a in agents):
        return ["coalition contains an unknown agent"]
    problems = _unknown_ids(game, tree)
    if problems or not agents:  # the empty coalition prescribes nothing
        return problems
    decided = 0  # reached histories with a decision
    for history, prescribed in _walk(game, tree):
        if prescribed is None:
            problems.append(
                f"no decision for reachable history "
                f"{' '.join(game.state_names[s] for s in history)}"
            )
            continue
        decided += 1
        if len(prescribed) != len(agents):
            problems.append("decision arity does not match the coalition")
            continue
        q = history[-1]
        for agent, x in zip(agents, prescribed):
            if x not in game.protocols[agent][q]:
                problems.append(
                    f"agent {game.agent_names[agent]} is prescribed "
                    f"{game.action_names[x]} outside its protocol at "
                    f"{game.state_names[q]}"
                )
    if decided < len(tree.decisions):
        reached = {history for history, _ in _walk(game, tree)}
        problems += [
            f"decision for unreached history "
            f"{' '.join(game.state_names[s] for s in history)}"
            for history in sorted(tree.decisions, key=lambda h: (len(h), h))
            if history not in reached
        ]
    return problems


def _unknown_ids(game: GameStructure, tree: StrategyTree) -> list[str]:
    """A message for the pivot and for each decision whose history or
    actions hold ids outside the game's ranges."""
    states = range(len(game.state_names))
    problems = [] if tree.pivot in states else [f"pivot {tree.pivot} is an unknown state"]
    chain = itertools.chain.from_iterable
    bad_states = set(chain(tree.decisions)).difference(states)
    bad_actions = set(chain(tree.decisions.values())).difference(
        range(len(game.action_names))
    )
    if bad_states or bad_actions:
        for history, prescribed in tree.decisions.items():
            if not bad_states.isdisjoint(history):
                problems.append(f"decision at history {history} has an unknown state")
            if not bad_actions.isdisjoint(prescribed):
                problems.append(f"decision at history {history} has an unknown action")
    return problems


def _walk(game: GameStructure, tree: StrategyTree) -> Iterator[tuple]:
    """Depth-first, each history play under ``tree`` reaches within its
    depth, with its decision (None if it has none): a history is extended by
    the moves its decision allows, if the decision has the coalition's
    arity."""
    agents = tree.agents
    frontier: list[History] = [(tree.pivot,)] if tree.depth > 0 else []
    while frontier:
        history = frontier.pop()
        prescribed = tree.decisions.get(history)
        yield history, prescribed
        if prescribed is None or len(prescribed) != len(agents):
            continue
        if len(history) < tree.depth:
            # A history is reached only from its prefix, so each distinct
            # target is pushed once, at the position of its last move.
            moves = game.choices(history[-1], agents).get(prescribed, ())
            targets = dict.fromkeys(target for _, _, target in reversed(moves))
            frontier += [history + (target,) for target in reversed(targets)]


def check_strategy_tree(game: GameStructure, tree: StrategyTree) -> None:
    """Raise ``ValueError`` naming every problem ``validate_strategy_tree``
    finds in ``tree``."""
    problems = validate_strategy_tree(game, tree)
    if problems:
        raise ValueError("invalid strategy tree: " + "; ".join(problems))


def outcomes_bounded(
    game: GameStructure, path: Path, tree: StrategyTree, steps: int
) -> frozenset[Path]:
    """Extensions of ``path`` by exactly ``steps`` steps under ``tree``.

    Coalition agents follow the tree applied to the suffix history since the
    pivot, non-coalition agents take any protocol action, and every prefix of
    every returned path keeps a nonempty compatible-assignment set (branches
    are pruned as soon as theirs empties, which is equivalent because the set
    is antitone along prefixes).
    """
    if tree.pivot != path.last_state:
        raise ValueError("strategy pivot must equal the path's last state")
    if tree.depth < steps:
        raise ValueError("strategy tree is too shallow for the requested bound")
    check_strategy_tree(game, tree)
    agents = tree.agents

    start_caps = tuple(
        compatible_capacities(game, path, a) for a in game.agents
    )
    if any(not caps for caps in start_caps):
        return frozenset()
    # Suffix history since the pivot -> the branches that reach it.
    frontier: dict[History, list[Branch]] = {
        (path.last_state,): [(path, start_caps)]
    }
    # Each step narrows a branch's capacity sets to the capacities licensing
    # the action taken, and drops the branch once one of them empties.
    for _ in range(steps):
        reached: dict[History, list[Branch]] = {}
        for history, branches in frontier.items():
            moves = game.choices(history[-1], agents)[tree.prescription(history)]
            for path, caps in branches:
                for joint, licensing, target in moves:
                    narrowed = tuple(cs & lic for cs, lic in zip(caps, licensing))
                    if all(narrowed):
                        reached.setdefault(history + (target,), []).append(
                            (path.extend(joint, target), narrowed)
                        )
        frontier = reached
    return frozenset(
        branch for branches in frontier.values() for branch, _ in branches
    )

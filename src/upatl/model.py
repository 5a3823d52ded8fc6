"""Game structures with per-agent capacity profiles.

A structure couples a concurrent game arena with capacities: every agent owns
a nonempty set of capacities, every capacity licenses a subset of the action
alphabet, and the per-state protocols must leave every capacity of every agent
at least one move (the progression condition).  Under that condition play can
never deadlock, whichever capacities the agents secretly hold.

All identifiers are interned to dense integer indices; the name tables are
kept only for diagnostics and serialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

AgentId = int
CapacityId = int
StateId = int
ActionId = int
PropId = int
JointAction = tuple[ActionId, ...]
# A move: joint action, per-agent licensing capacities, successor state.
Move = tuple[JointAction, tuple[frozenset[CapacityId], ...], StateId]

# The syntax of every name, in game files and formulas alike.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# Reserved proposition, labeled on every state by construction.  The formula
# layer desugars "true"/"false" to this atom and its negation.
TRUE_PROP = "true"
# The words of the formula syntax; no proposition may be named by one.
KEYWORDS_TEMPORAL = ("N", "U", "R", "F", "G")
RESERVED_PROPS = ("true", "false", "K") + KEYWORDS_TEMPORAL


# Violation kinds produced by validate_structure.
EMPTY_CAPACITIES = "empty-capacities"
PROTOCOL_OUTSIDE_CAPACITIES = "protocol-outside-capacities"
CAPACITY_MISSING_ACTION = "capacity-missing-action"
MISSING_TRANSITION = "missing-transition"
SPURIOUS_TRANSITION = "spurious-transition"


@dataclass(frozen=True)
class Violation:
    """One structural defect, with enough location to point at the culprit."""

    kind: str
    message: str
    agent: AgentId | None = None
    state: StateId | None = None
    capacity: CapacityId | None = None
    action: ActionId | None = None
    joint: JointAction | None = None


@dataclass(frozen=True, eq=False)
class GameStructure:
    """A concurrent game whose agents hold hidden capacity profiles.

    Immutable after construction; safe to share across concurrent evaluators.
    ``validate_structure`` checks the semantic invariants (the constructor
    only checks shapes and index ranges, so partially written inputs can
    still be diagnosed).
    """

    name: str
    agent_names: tuple[str, ...]
    capacity_names: tuple[str, ...]
    state_names: tuple[str, ...]
    prop_names: tuple[str, ...]  # includes the reserved always-true atom
    action_names: tuple[str, ...]
    labels: tuple[frozenset[PropId], ...]  # by state
    agent_capacities: tuple[frozenset[CapacityId], ...]  # by agent
    capacity_actions: tuple[frozenset[ActionId], ...]  # by capacity
    protocols: tuple[tuple[frozenset[ActionId], ...], ...]  # [agent][state]
    transitions: dict[tuple[StateId, JointAction], StateId]
    init_state: StateId | None = None
    # The one table of moves, filled lazily by ``choices`` ((state, members)
    # -> dict): every move there carries its licensing, so no step looks it
    # up again.  Derived from the fields above, which never change, and never
    # copied by ``dataclasses.replace``.
    _choices: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        k = len(self.agent_names)
        n_caps = len(self.capacity_names)
        n_states = len(self.state_names)
        n_props = len(self.prop_names)
        n_acts = len(self.action_names)
        if k == 0:
            raise ValueError("a game needs at least one agent")
        if n_states == 0:
            raise ValueError("a game needs at least one state")
        if TRUE_PROP not in self.prop_names:
            raise ValueError(f"reserved proposition {TRUE_PROP!r} missing")
        true_id = self.prop_names.index(TRUE_PROP)
        if len(self.labels) != n_states:
            raise ValueError("labels must cover every state")
        for q, props in enumerate(self.labels):
            if any(p < 0 or p >= n_props for p in props):
                raise ValueError(f"label out of range at state {q}")
            if true_id not in props:
                raise ValueError(
                    f"reserved proposition must label every state, missing at {q}"
                )
        if len(self.agent_capacities) != k:
            raise ValueError("capacity sets must cover every agent")
        for caps in self.agent_capacities:
            if any(c < 0 or c >= n_caps for c in caps):
                raise ValueError("capacity id out of range")
        if len(self.capacity_actions) != n_caps:
            raise ValueError("action sets must cover every capacity")
        for acts in self.capacity_actions:
            if any(x < 0 or x >= n_acts for x in acts):
                raise ValueError("action id out of range")
        if len(self.protocols) != k:
            raise ValueError("protocols must cover every agent")
        for row in self.protocols:
            if len(row) != n_states:
                raise ValueError("protocols must cover every state")
            for acts in row:
                if any(x < 0 or x >= n_acts for x in acts):
                    raise ValueError("protocol action id out of range")
        for (q, joint), target in self.transitions.items():
            if q < 0 or q >= n_states or target < 0 or target >= n_states:
                raise ValueError("transition state id out of range")
            if len(joint) != k:
                raise ValueError("joint action arity must equal agent count")
            if any(x < 0 or x >= n_acts for x in joint):
                raise ValueError("transition action id out of range")
        if self.init_state is not None and not 0 <= self.init_state < n_states:
            raise ValueError("init state out of range")

    # -- basic accessors ---------------------------------------------------

    @property
    def agent_count(self) -> int:
        return len(self.agent_names)

    @property
    def agents(self) -> range:
        return range(len(self.agent_names))

    @property
    def states(self) -> range:
        return range(len(self.state_names))

    @property
    def true_prop(self) -> PropId:
        return self.prop_names.index(TRUE_PROP)

    def allowed_actions(self, agent: AgentId) -> frozenset[ActionId]:
        """Union of the action sets of the agent's capacities."""
        out: set[ActionId] = set()
        for c in self.agent_capacities[agent]:
            out |= self.capacity_actions[c]
        return frozenset(out)

    # -- moves -------------------------------------------------------------

    def joint_actions(self, state: StateId) -> tuple[JointAction, ...]:
        """All joint actions available at ``state``, sorted lexicographically."""
        if not 0 <= state < len(self.state_names):
            raise ValueError(f"unknown state id {state}")
        return tuple(itertools.product(*(sorted(row[state]) for row in self.protocols)))

    def licensing(self, joint: JointAction) -> tuple[frozenset[CapacityId], ...]:
        """Per agent, the capacities of that agent licensing its action."""
        return tuple(
            frozenset(
                c for c in self.agent_capacities[a] if x in self.capacity_actions[c]
            )
            for a, x in enumerate(joint)
        )

    def choices(
        self, state: StateId, members: tuple[AgentId, ...]
    ) -> dict[tuple[ActionId, ...], tuple[Move, ...]]:
        """Each choice of one protocol action per member at ``state``, mapped
        to the moves it allows, the other agents moving freely.

        Choices come in ``itertools.product`` order of the members' sorted
        protocols, so the first gives each member its smallest action; the
        empty coalition has the single choice ``()``, allowing every move.
        Within a choice, moves keep ``joint_actions`` order.
        """
        key = (state, members)
        table = self._choices.get(key)
        if table is None:
            joints = self.joint_actions(state)  # raises on an unknown state
            allowed: dict[tuple[ActionId, ...], list[Move]] = {
                choice: []
                for choice in itertools.product(
                    *(sorted(self.protocols[a][state]) for a in members)
                )
            }
            for joint in joints:
                allowed[tuple(joint[a] for a in members)].append(
                    (joint, self.licensing(joint), self.transitions[(state, joint)])
                )
            table = self._choices[key] = {
                choice: tuple(group) for choice, group in allowed.items()
            }
        return table

    def is_available(self, state: StateId, joint: JointAction) -> bool:
        if len(joint) != self.agent_count:
            return False
        for x, row in zip(joint, self.protocols):
            if x not in row[state]:
                return False
        return True

    # -- diagnostics -------------------------------------------------------

    def joint_label(self, joint: JointAction) -> str:
        return "(" + ", ".join(self.action_names[x] for x in joint) + ")"


def validate_structure(game: GameStructure) -> list[Violation]:
    """Check the semantic invariants; an empty report means the game is valid.

    Violations are data, not failures: a partially written game produces a
    report naming every offending agent, state, capacity, or transition.
    """
    report: list[Violation] = []
    for a in game.agents:
        if not game.agent_capacities[a]:
            report.append(
                Violation(
                    EMPTY_CAPACITIES,
                    f"agent {game.agent_names[a]} has no capacity",
                    agent=a,
                )
            )
    for a in game.agents:
        allowed = game.allowed_actions(a)
        for q in game.states:
            d = game.protocols[a][q]
            for x in sorted(d - allowed):
                report.append(
                    Violation(
                        PROTOCOL_OUTSIDE_CAPACITIES,
                        f"protocol action {game.action_names[x]} of agent "
                        f"{game.agent_names[a]} at {game.state_names[q]} is "
                        f"outside all of the agent's capacities",
                        agent=a,
                        state=q,
                        action=x,
                    )
                )
            for c in sorted(game.agent_capacities[a]):
                if not d & game.capacity_actions[c]:
                    report.append(
                        Violation(
                            CAPACITY_MISSING_ACTION,
                            f"agent {game.agent_names[a]} with capacity "
                            f"{game.capacity_names[c]} has no action at "
                            f"{game.state_names[q]}",
                            agent=a,
                            state=q,
                            capacity=c,
                        )
                    )
    for q in game.states:
        for joint in game.joint_actions(q):
            if (q, joint) not in game.transitions:
                report.append(
                    Violation(
                        MISSING_TRANSITION,
                        f"no transition for available joint action "
                        f"{game.joint_label(joint)} at {game.state_names[q]}",
                        state=q,
                        joint=joint,
                    )
                )
    for q, joint in sorted(game.transitions):
        if not game.is_available(q, joint):
            report.append(
                Violation(
                    SPURIOUS_TRANSITION,
                    f"transition at {game.state_names[q]} under "
                    f"{game.joint_label(joint)} uses an unavailable joint action",
                    state=q,
                    joint=joint,
                )
            )
    return report


def build_game(
    name: str,
    agents: list[str],
    capacities: dict[str, list[str]],
    actions: dict[str, list[str]],
    states: list[str],
    labels: dict[str, list[str]],
    protocol: dict[tuple[str, str], list[str]],
    transitions: dict[tuple[str, tuple[str, ...]], str],
    init: str | None = None,
) -> GameStructure:
    """Intern a name-level description into a dense GameStructure.

    The one constructor from names: the random generator and the game-file
    binder (which checks every name, with its source line, first) both call
    it, and ``game_names`` is its inverse.  Ids follow declaration order,
    the order ``render_game`` writes:
    capacities by first appearance walking ``agents`` and each one's
    capacities, actions walking those capacities and each one's actions,
    props walking ``states`` and each one's labels; the reserved always-true
    atom is appended and applied to every state.

    Raises ``ValueError`` on a name declared twice in ``agents`` or
    ``states``, or a row keyed by a name not declared.
    """
    agent_set = set(agents)
    cap_names = list(dict.fromkeys(c for a in agents for c in capacities.get(a, [])))
    cap_index = {n: i for i, n in enumerate(cap_names)}
    state_index = {n: i for i, n in enumerate(states)}
    for what, names, distinct in (
        ("agent", agents, agent_set),
        ("state", states, state_index),
    ):
        if len(distinct) < len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"duplicate {what} {repeated!r}")
    pairs = set(itertools.product(agents, states))
    for section, what, keys, declared in (
        ("capacities", "agent", capacities.keys(), agent_set),
        ("actions", "capacity", actions.keys(), cap_index.keys()),
        ("labels", "state", labels.keys(), state_index.keys()),
        ("protocol", "(agent, state)", protocol.keys(), pairs),
    ):
        if not keys <= declared:
            key = next(key for key in keys if key not in declared)
            raise ValueError(f"{section} for undeclared {what} {key!r}")
    act_names = list(dict.fromkeys(x for c in cap_names for x in actions.get(c, [])))
    act_index = {n: i for i, n in enumerate(act_names)}
    prop_names = list(dict.fromkeys(p for q in states for p in labels.get(q, [])))
    for p in prop_names:
        if p in RESERVED_PROPS:
            raise ValueError(f"proposition name {p!r} is reserved")
    prop_names.append(TRUE_PROP)
    true_id = len(prop_names) - 1
    prop_index = {n: i for i, n in enumerate(prop_names)}

    label_sets = []
    for q in states:
        ids = {prop_index[p] for p in labels.get(q, [])}
        ids.add(true_id)
        label_sets.append(frozenset(ids))
    gamma = [frozenset(act_index[x] for x in actions.get(c, [])) for c in cap_names]
    big_gamma = [
        frozenset(cap_index[c] for c in capacities.get(a, [])) for a in agents
    ]
    proto = [
        tuple(
            frozenset(act_index[x] for x in protocol.get((a, q), []))
            for q in states
        )
        for a in agents
    ]
    trans = {
        (state_index[q], tuple(act_index[x] for x in joint)): state_index[target]
        for (q, joint), target in transitions.items()
    }
    return GameStructure(
        name=name,
        agent_names=tuple(agents),
        capacity_names=tuple(cap_names),
        state_names=tuple(states),
        prop_names=tuple(prop_names),
        action_names=tuple(act_names),
        labels=tuple(label_sets),
        agent_capacities=tuple(big_gamma),
        capacity_actions=tuple(gamma),
        protocols=tuple(proto),
        transitions=trans,
        init_state=None if init is None else state_index[init],
    )


def game_names(game: GameStructure) -> dict:
    """``build_game``'s inverse, its keyword arguments but ``name``: every
    list in id order, which is declaration order, labels without the
    reserved atom, a protocol row for every (agent, state) pair, and
    transitions sorted by ids."""
    agents, caps, states = game.agent_names, game.capacity_names, game.state_names
    acts, props, true_id = game.action_names, game.prop_names, game.true_prop

    def named(table: tuple[str, ...], ids) -> list[str]:
        return [table[i] for i in sorted(ids)]

    return {
        "agents": list(agents),
        "capacities": {
            a: named(caps, cs) for a, cs in zip(agents, game.agent_capacities)
        },
        "actions": {c: named(acts, xs) for c, xs in zip(caps, game.capacity_actions)},
        "states": list(states),
        "labels": {q: named(props, p - {true_id}) for q, p in zip(states, game.labels)},
        "protocol": {
            (a, q): named(acts, xs)
            for a, row in zip(agents, game.protocols)
            for q, xs in zip(states, row)
        },
        "transitions": {
            (states[q], tuple(acts[x] for x in joint)): states[target]
            for (q, joint), target in sorted(game.transitions.items())
        },
        "init": None if game.init_state is None else states[game.init_state],
    }

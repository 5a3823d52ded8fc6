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
import threading
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


# Set while ``build_game`` constructs a structure: every id it interned is in
# range by construction, so ``GameStructure`` does not walk them again.  A
# direct construction or a ``dataclasses.replace`` checks every field.
_interning = threading.local()

# Violation kinds produced by validate_structure.
EMPTY_CAPACITIES = "empty-capacities"
PROTOCOL_OUTSIDE_CAPACITIES = "protocol-outside-capacities"
CAPACITY_MISSING_ACTION = "capacity-missing-action"
MISSING_TRANSITION = "missing-transition"
SPURIOUS_TRANSITION = "spurious-transition"


class NameFault(ValueError):
    """A name that ``build_game`` refuses, and where it is: its ``section``
    (the argument of ``build_game``), the ``key`` of its row there (None in
    ``agents``, ``states`` and ``init``), and the offending ``name`` (None
    for an empty section or a joint action's wrong arity).  For a name that
    is not declared, ``unknown`` is the kind of name it had to be."""

    def __init__(self, message: str, section: str, key=None, name=None, unknown=None):
        super().__init__(message)
        self.section, self.key, self.name, self.unknown = section, key, name, unknown


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
    still be diagnosed; for a structure ``build_game`` interned, only that
    there is an agent and a state).
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
        if not self.agent_names:
            raise NameFault("a game needs at least one agent", "agents")
        if not self.state_names:
            raise NameFault("a game needs at least one state", "states")
        if getattr(_interning, "active", False):
            return
        k = len(self.agent_names)
        n_caps = len(self.capacity_names)
        n_states = len(self.state_names)
        n_props = len(self.prop_names)
        n_acts = len(self.action_names)
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
        caps = [(c, game.capacity_actions[c]) for c in sorted(game.agent_capacities[a])]
        for q, d in enumerate(game.protocols[a]):
            for x in () if d <= allowed else sorted(d - allowed):
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
            for c, acts in caps:
                if d.isdisjoint(acts):
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
    # The transitions are keyed by exactly the joint actions the protocol
    # sets allow: the product of the agents' sets at each state.  Any that
    # miss are reported in ``joint_actions`` order, then any spurious ones.
    columns = list(zip(*game.protocols))  # by state, then agent
    available = {
        (q, joint)
        for q, column in enumerate(columns)
        for joint in itertools.product(*column)
    }
    if game.transitions.keys() == available:
        return report
    for q, column in enumerate(columns):
        for joint in itertools.product(*map(sorted, column)):
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
    for q, joint in sorted(game.transitions.keys() - available):
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
    binder both call it, and ``game_names`` is its inverse.  Ids follow
    declaration order, the order ``render_game`` writes: capacities by first
    appearance walking ``agents`` and each one's capacities, actions walking
    those capacities and each one's actions, props walking ``states`` and
    each one's labels; the reserved always-true atom is appended and applied
    to every state.

    Raises ``NameFault``, the first in ``_refusal``'s order, for what it
    would otherwise drop, merge or look up in vain: a name declared twice in
    ``agents`` or ``states``, no agent or state, a row keyed by a name not
    declared, a reserved proposition, a name listed twice in one row, a
    protocol or transitions row or ``init`` naming an undeclared state or
    action, or a joint action whose arity is not the number of agents.  So
    every id it interns is in range, and the structure does not check them
    again; and the game-file binder only finds the line the fault names.
    """
    # Each check below fails as a lookup in vain does, with a ``KeyError``;
    # only then does ``_refusal`` walk the rows, to name the first fault.
    agent_index, state_index = _index(agents), _index(states)
    try:
        if len(agent_index) < len(agents) or len(state_index) < len(states):
            raise KeyError
        cap_index, big_gamma = _intern(capacities, agent_index)
        act_index, gamma = _intern(actions, cap_index)
        prop_index, label_ids = _intern(labels, state_index)
        if not prop_index.keys().isdisjoint(RESERVED_PROPS):
            raise KeyError
        cells = list(itertools.product(agents, states))
        if not protocol.keys() <= set(cells):
            raise KeyError
        cell_sets = _id_sets(act_index, [protocol.get(cell, ()) for cell in cells])
        for row in transitions:
            if len(row[1]) != len(agents):
                raise KeyError
        act_id = act_index.__getitem__
        trans = {
            (state_index[q], tuple(map(act_id, joint))): state_index[target]
            for (q, joint), target in transitions.items()
        }
        init_state = None if init is None else state_index[init]
    except KeyError:
        raise _refusal(
            agents, capacities, actions, states, labels, protocol, transitions, init
        ) from None
    prop_index[TRUE_PROP] = len(prop_index)
    true = frozenset((prop_index[TRUE_PROP],))
    n = len(states)
    proto = [tuple(cell_sets[i : i + n]) for i in range(0, len(cell_sets), n)]
    _interning.active = True
    try:
        return GameStructure(
            name=name,
            agent_names=tuple(agents),
            capacity_names=tuple(cap_index),
            state_names=tuple(states),
            prop_names=tuple(prop_index),
            action_names=tuple(act_index),
            labels=tuple(ids | true for ids in label_ids),
            agent_capacities=tuple(big_gamma),
            capacity_actions=tuple(gamma),
            protocols=tuple(proto),
            transitions=trans,
            init_state=init_state,
        )
    finally:
        _interning.active = False


def _index(names) -> dict[str, int]:
    """Each name's id: its place in the order the names first appear."""
    return {name: i for i, name in enumerate(dict.fromkeys(names))}


def _intern(
    rows: dict, keys: dict[str, int]
) -> tuple[dict[str, int], list[frozenset[int]]]:
    """The ids of the names ``rows`` list, in the order they first appear
    walking ``keys``, and each key's row as a set of those ids.  Every row is
    keyed by one of ``keys``."""
    if not rows.keys() <= keys.keys():
        raise KeyError
    lists = [rows.get(key, ()) for key in keys]
    index = _index(itertools.chain.from_iterable(lists))
    return index, _id_sets(index, lists)


def _id_sets(index: dict[str, int], rows: list) -> list[frozenset[int]]:
    """The ids of each row's names, no row listing a name twice."""
    sets = [frozenset(map(index.__getitem__, row)) for row in rows]
    if list(map(len, sets)) != list(map(len, rows)):
        raise KeyError
    return sets


def _refusal(
    agents, capacities, actions, states, labels, protocol, transitions, init
) -> NameFault:
    """The first fault of ``build_game``'s arguments, in a fixed order: a
    name declared twice in ``agents``, then in ``states``; no agent, then no
    state; then the rows of ``capacities``, ``actions``, ``labels``,
    ``protocol`` and ``transitions``, each section's in its own order; then
    ``init``.  Within a row: a keyed row's key, a reserved name, a name
    listed twice; a protocol row's agent, state, actions, an action listed
    twice; a transition's source, target, arity, actions."""
    for what, names in (("agent", agents), ("state", states)):
        if len(set(names)) < len(names):
            return _twice(f"{what}s", None, names, what)
    for what, names in (("agent", agents), ("state", states)):
        if not names:
            return NameFault(f"a game needs at least one {what}", f"{what}s")
    agents, states = set(agents), set(states)
    caps, acts = (set(itertools.chain(*r.values())) for r in (capacities, actions))
    for section, rows, keys, kind, what in (
        ("capacities", capacities, agents, "agent", "capacity"),
        ("actions", actions, caps, "capacity", "action"),
        ("labels", labels, states, "state", "proposition"),
    ):
        reserved = RESERVED_PROPS if section == "labels" else ()
        for key, names in rows.items():
            if key not in keys:
                message = f"{section} for undeclared {kind} {key!r}"
                return _undeclared(section, key, key, kind, message)
            for name in names:
                if name in reserved:
                    message = f"proposition name {name!r} is reserved"
                    return NameFault(message, section, key, name)
            if len(set(names)) < len(names):
                return _twice(section, key, names, what)
    for key, names in protocol.items():
        for name, kind, known in zip(key, ("agent", "state"), (agents, states)):
            if name not in known:
                message = f"protocol for undeclared (agent, state) {key!r}"
                return _undeclared("protocol", key, name, kind, message)
        for name in names:
            if name not in acts:
                return _undeclared("protocol", key, name, "action")
        if len(set(names)) < len(names):
            return _twice("protocol", key, names, "action")
    for key, target in transitions.items():
        for name in (key[0], target):
            if name not in states:
                return _undeclared("transitions", key, name, "state")
        if len(key[1]) != len(agents):
            message = f"transitions row {key!r}: joint action arity must equal the"
            return NameFault(f"{message} number of agents", "transitions", key)
        for name in key[1]:
            if name not in acts:
                return _undeclared("transitions", key, name, "action")
    if init is not None and init not in states:
        message = f"init names undeclared state {init!r}"
        return _undeclared("init", None, init, "init state", message)
    raise AssertionError("build_game refused arguments that have no fault")


def _undeclared(section: str, key, name: str, kind: str, message="") -> NameFault:
    """The fault of ``name``, which the row keyed ``key`` gives as a ``kind``
    but nothing declares."""
    message = message or f"{section} row {key!r} names undeclared {kind} {name!r}"
    return NameFault(message, section, key, name, kind)


def _twice(section: str, key, names: list[str], what: str) -> NameFault:
    """The fault of ``names`` listing a name twice, the first such name."""
    name = next(n for i, n in enumerate(names) if n in names[:i])
    return NameFault(f"duplicate {what} {name!r}", section, key, name)


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

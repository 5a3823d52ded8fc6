"""Textual game format: parser, binder, and serializer.

Line-oriented and diff-friendly:

    game hand

    agents:
      obs, opp
    capacities:
      obs: normal
      opp: lefty, righty
    actions:
      normal: watch
      lefty: serve, swingL
    states:
      s0, s1
    init: s0
    labels:
      s0: start
    protocol:
      obs @ s0: watch
    transitions:
      s0 (watch, serve) -> s0

Comments start with ``#``.  Every section must appear exactly once except
``init``, which is optional metadata (the default state for state checking).
``bind_game`` checks names, builds the dense structure with
``model.build_game`` and then validates it; binding succeeds only on a clean
report, and every diagnostic carries the line it points at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import (
    CAPACITY_MISSING_ACTION,
    EMPTY_CAPACITIES,
    MISSING_TRANSITION,
    PROTOCOL_OUTSIDE_CAPACITIES,
    RESERVED_PROPS,
    SPURIOUS_TRANSITION,
    TRUE_PROP,
    GameStructure,
    build_game,
    validate_structure,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_PROTOCOL_ROW = re.compile(r"([A-Za-z_]\w*)\s*@\s*([A-Za-z_]\w*)\s*:\s*(.*)\Z")
_TRANSITION_ROW = re.compile(r"([A-Za-z_]\w*)\s*\(([^)]*)\)\s*->\s*([A-Za-z_]\w*)\Z")
_SECTIONS = (
    "agents",
    "capacities",
    "actions",
    "states",
    "labels",
    "protocol",
    "transitions",
)


@dataclass(frozen=True)
class Diagnostic:
    line: int  # 1-based source line
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class GameSpecError(Exception):
    """Parse or bind failure; every diagnostic carries a source line."""

    def __init__(self, diagnostics: list[Diagnostic] | Diagnostic):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def _fail(line: int, message: str) -> None:
    raise GameSpecError(Diagnostic(line, message))


@dataclass
class GameDocument:
    """Parsed sections with source lines, before name resolution."""

    name: str = ""
    name_line: int = 0
    agents: list[tuple[str, int]] = field(default_factory=list)
    capacities: list[tuple[str, list[str], int]] = field(default_factory=list)
    actions: list[tuple[str, list[str], int]] = field(default_factory=list)
    states: list[tuple[str, int]] = field(default_factory=list)
    init: tuple[str, int] | None = None
    labels: list[tuple[str, list[str], int]] = field(default_factory=list)
    protocol: list[tuple[str, str, list[str], int]] = field(default_factory=list)
    transitions: list[tuple[str, tuple[str, ...], str, int]] = field(
        default_factory=list
    )
    section_lines: dict[str, int] = field(default_factory=dict)


def _idents(raw: str, line: int) -> list[str]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    for name in names:
        if not _IDENT.match(name):
            _fail(line, f"invalid identifier {name!r}")
    return names


def parse_game(text: str) -> GameDocument:
    doc = GameDocument()
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("game ") or line == "game":
            if doc.name:
                _fail(lineno, "duplicate game header")
            name = line[len("game") :].strip()
            if not _IDENT.match(name):
                _fail(lineno, f"invalid game name {name!r}")
            doc.name, doc.name_line = name, lineno
            continue
        if not doc.name:
            _fail(lineno, "expected 'game <name>' before anything else")
        header = line[:-1].strip() if line.endswith(":") else None
        if header in _SECTIONS:
            if header in doc.section_lines:
                _fail(lineno, f"duplicate section {header!r}")
            doc.section_lines[header] = lineno
            section = header
            continue
        if line.startswith("init:"):
            if doc.init is not None:
                _fail(lineno, "duplicate init")
            value = line[len("init:") :].strip()
            if not _IDENT.match(value):
                _fail(lineno, f"invalid init state {value!r}")
            doc.init = (value, lineno)
            section = None
            continue
        if section is None:
            _fail(lineno, f"unexpected line outside any section: {line!r}")
        if section == "agents":
            doc.agents += [(n, lineno) for n in _idents(line, lineno)]
        elif section == "states":
            doc.states += [(n, lineno) for n in _idents(line, lineno)]
        elif section in ("capacities", "actions", "labels"):
            key, sep, rest = line.partition(":")
            key = key.strip()
            if not sep or not _IDENT.match(key):
                _fail(lineno, f"expected '<name>: ...', got {line!r}")
            values = _idents(rest, lineno) if rest.strip() else []
            getattr(doc, section).append((key, values, lineno))
        elif section == "protocol":
            match = _PROTOCOL_ROW.match(line)
            if not match:
                _fail(lineno, f"expected '<agent> @ <state>: actions', got {line!r}")
            agent, state, rest = match.groups()
            doc.protocol.append((agent, state, _idents(rest, lineno), lineno))
        elif section == "transitions":
            match = _TRANSITION_ROW.match(line)
            if not match:
                _fail(
                    lineno,
                    f"expected '<state> (act, ...) -> <state>', got {line!r}",
                )
            source, acts, target = match.groups()
            doc.transitions.append(
                (source, tuple(_idents(acts, lineno)), target, lineno)
            )
    if not doc.name:
        _fail(1, "missing 'game <name>' header")
    for required in _SECTIONS:
        if required not in doc.section_lines:
            _fail(doc.name_line, f"missing section {required!r}")
    return doc


def _declare(pairs: list[tuple[str, int]], what: str) -> dict[str, None]:
    """The declared names in order, as dict keys; a repeat is an error."""
    names: dict[str, None] = {}
    for name, line in pairs:
        if name in names:
            _fail(line, f"duplicate {what} {name!r}")
        names[name] = None
    return names


def _distinct(names: list[str], line: int, what: str) -> list[str]:
    """The names of one row; a name listed twice is an error."""
    if len(set(names)) < len(names):
        _declare([(name, line) for name in names], what)
    return names


def bind_with_report(
    doc: GameDocument,
) -> tuple[GameStructure, list[Diagnostic]]:
    """Check names, build the structure with ``build_game``, and return the
    validation report as span-carrying diagnostics instead of raising.

    Name-resolution problems (unknown or duplicate identifiers, malformed
    arities) are hard errors and still raise.
    """
    agents = _declare(doc.agents, "agent")
    states = _declare(doc.states, "state")
    if not agents:
        _fail(doc.section_lines["agents"], "at least one agent is required")
    if not states:
        _fail(doc.section_lines["states"], "at least one state is required")

    capacities: dict[str, list[str]] = {}
    for agent, caps, line in doc.capacities:
        if agent not in agents:
            _fail(line, f"unknown agent {agent!r}")
        if agent in capacities:
            _fail(line, f"duplicate capacities for agent {agent!r}")
        capacities[agent] = _distinct(caps, line, "capacity")
    known_caps = {cap for caps in capacities.values() for cap in caps}

    actions: dict[str, list[str]] = {}
    for cap, acts, line in doc.actions:
        if cap not in known_caps:
            _fail(line, f"unknown capacity {cap!r}")
        if cap in actions:
            _fail(line, f"duplicate actions for capacity {cap!r}")
        actions[cap] = _distinct(acts, line, "action")
    known_acts = {act for acts in actions.values() for act in acts}

    labels: dict[str, list[str]] = {}
    for state, props, line in doc.labels:
        if state not in states:
            _fail(line, f"unknown state {state!r}")
        if state in labels:
            _fail(line, f"duplicate labels for state {state!r}")
        for prop in props:
            if prop in RESERVED_PROPS:
                _fail(line, f"proposition name {prop!r} is reserved")
        labels[state] = _distinct(props, line, "proposition")

    protocol: dict[tuple[str, str], list[str]] = {}
    proto_lines: dict[tuple[str, str], int] = {}
    for agent, state, acts, line in doc.protocol:
        if agent not in agents:
            _fail(line, f"unknown agent {agent!r}")
        if state not in states:
            _fail(line, f"unknown state {state!r}")
        if (agent, state) in protocol:
            _fail(line, f"duplicate protocol for {agent!r} at {state!r}")
        for act in acts:
            if act not in known_acts:
                _fail(line, f"unknown action {act!r}")
        protocol[(agent, state)] = _distinct(acts, line, "action")
        proto_lines[(agent, state)] = line

    transitions: dict[tuple[str, tuple[str, ...]], str] = {}
    trans_lines: dict[tuple[str, tuple[str, ...]], int] = {}
    for source, joint, target, line in doc.transitions:
        for state in (source, target):
            if state not in states:
                _fail(line, f"unknown state {state!r}")
        if len(joint) != len(agents):
            _fail(line, "joint action arity must equal the number of agents")
        for act in joint:
            if act not in known_acts:
                _fail(line, f"unknown action {act!r}")
        if (source, joint) in transitions:
            _fail(line, "duplicate transition")
        transitions[(source, joint)] = target
        trans_lines[(source, joint)] = line

    init = None
    if doc.init is not None:
        init, line = doc.init
        if init not in states:
            _fail(line, f"unknown init state {init!r}")

    game = build_game(
        name=doc.name,
        agents=list(agents),
        capacities=capacities,
        actions=actions,
        states=list(states),
        labels=labels,
        protocol=protocol,
        transitions=transitions,
        init=init,
    )

    diagnostics = []
    for violation in validate_structure(game):
        line = doc.section_lines["protocol"]
        if violation.kind in (
            PROTOCOL_OUTSIDE_CAPACITIES,
            CAPACITY_MISSING_ACTION,
        ):
            key = (
                game.agent_names[violation.agent],
                game.state_names[violation.state],
            )
            line = proto_lines.get(key, doc.section_lines["protocol"])
        elif violation.kind == MISSING_TRANSITION:
            line = doc.section_lines["transitions"]
        elif violation.kind == SPURIOUS_TRANSITION:
            line = trans_lines.get(
                (
                    game.state_names[violation.state],
                    tuple(game.action_names[x] for x in violation.joint),
                ),
                doc.section_lines["transitions"],
            )
        elif violation.kind == EMPTY_CAPACITIES:
            line = doc.section_lines["capacities"]
        diagnostics.append(Diagnostic(line, violation.message))
    return game, diagnostics


def bind_game(doc: GameDocument) -> GameStructure:
    """Resolve, build, and validate; succeeds only on an empty report."""
    game, diagnostics = bind_with_report(doc)
    if diagnostics:
        raise GameSpecError(diagnostics)
    return game


def load_game(text: str) -> GameStructure:
    return bind_game(parse_game(text))


def render_game(game: GameStructure) -> str:
    """Canonical text for a valid structure; reloads to an isomorphic game."""
    lines = [f"game {game.name}", ""]
    lines.append("agents:")
    lines.append("  " + ", ".join(game.agent_names))
    lines.append("")
    lines.append("capacities:")
    for a in game.agents:
        caps = ", ".join(
            game.capacity_names[c] for c in sorted(game.agent_capacities[a])
        )
        lines.append(f"  {game.agent_names[a]}: {caps}")
    lines.append("")
    lines.append("actions:")
    for c, name in enumerate(game.capacity_names):
        acts = ", ".join(
            game.action_names[x] for x in sorted(game.capacity_actions[c])
        )
        lines.append(f"  {name}: {acts}")
    lines.append("")
    lines.append("states:")
    lines.append("  " + ", ".join(game.state_names))
    lines.append("")
    if game.init_state is not None:
        lines.append(f"init: {game.state_names[game.init_state]}")
        lines.append("")
    true_id = game.true_prop
    lines.append("labels:")
    for q in game.states:
        props = sorted(game.labels[q] - {true_id})
        if props:
            names = ", ".join(game.prop_names[p] for p in props)
            lines.append(f"  {game.state_names[q]}: {names}")
    lines.append("")
    lines.append("protocol:")
    for a in game.agents:
        for q in game.states:
            acts = ", ".join(
                game.action_names[x] for x in sorted(game.protocols[a][q])
            )
            lines.append(f"  {game.agent_names[a]} @ {game.state_names[q]}: {acts}")
    lines.append("")
    lines.append("transitions:")
    for (q, joint), target in sorted(game.transitions.items()):
        acts = ", ".join(game.action_names[x] for x in joint)
        lines.append(
            f"  {game.state_names[q]} ({acts}) -> {game.state_names[target]}"
        )
    lines.append("")
    return "\n".join(lines)


def canonical_form(game: GameStructure):
    """Name-keyed shape of a structure, for isomorphism comparisons."""
    return {
        "agents": list(game.agent_names),
        "capacities": {
            game.agent_names[a]: sorted(
                game.capacity_names[c] for c in game.agent_capacities[a]
            )
            for a in game.agents
        },
        "actions": {
            name: sorted(
                game.action_names[x] for x in game.capacity_actions[c]
            )
            for c, name in enumerate(game.capacity_names)
        },
        "states": list(game.state_names),
        "init": None
        if game.init_state is None
        else game.state_names[game.init_state],
        "labels": {
            game.state_names[q]: sorted(
                game.prop_names[p] for p in game.labels[q]
                if game.prop_names[p] != TRUE_PROP
            )
            for q in game.states
        },
        "protocol": {
            (game.agent_names[a], game.state_names[q]): sorted(
                game.action_names[x] for x in game.protocols[a][q]
            )
            for a in game.agents
            for q in game.states
        },
        "transitions": {
            (
                game.state_names[q],
                tuple(game.action_names[x] for x in joint),
            ): game.state_names[target]
            for (q, joint), target in game.transitions.items()
        },
    }

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
A line that is ``game`` or starts with ``game `` (an ASCII space), a
``<section>:`` line and an ``init:`` line are never rows.  Every other line
of a section is one row, read by that section's pattern in ``_ROWS``: a name
list (``agents``, ``states``), ``key: list`` (``capacities``, ``actions``,
``labels``), ``agent @ state: list`` (``protocol``) or
``state (list) -> state`` (``transitions``), each built from ``model.IDENT``,
with any Unicode whitespace around names and separators.  The match's groups
are the row's names, and the names of its list are one ``findall``; only a
rejected row is walked name by name, to name its fault.  Lines end where
``str.splitlines`` ends them.

``load_game`` parses, then ``bind_with_report`` builds the dense structure
with ``model.build_game`` and validates it; when ``build_game`` refuses the
rows, the binder finds the first unknown or duplicate name with its line.
Loading succeeds only on a clean report, and every diagnostic carries the
line it points at.
"""

from __future__ import annotations

import re
from collections.abc import Container
from dataclasses import dataclass, field

from .model import (
    EMPTY_CAPACITIES,
    IDENT,
    MISSING_TRANSITION,
    RESERVED_PROPS,
    SPURIOUS_TRANSITION,
    GameStructure,
    build_game,
    game_names,
    validate_structure,
)

_NAME = re.compile(IDENT)
_IDENT = re.compile(rf"{IDENT}\Z")
# The shapes of a row with any text for its list: used, and compiled, only
# to name the fault of a row its section's pattern rejected.
_PROTOCOL_SHAPE = rf"({IDENT})\s*@\s*({IDENT})\s*:\s*(.*)\Z"
_TRANSITION_SHAPE = rf"({IDENT})\s*\(([^)]*)\)\s*->\s*({IDENT})\Z"
_SECTIONS = (
    "agents",
    "capacities",
    "actions",
    "states",
    "labels",
    "protocol",
    "transitions",
)


def _row(shape: str) -> re.Pattern:
    """A whole line holding one row of ``shape``, with any whitespace around
    it and an optional trailing comment."""
    return re.compile(rf"\s*{shape}\s*(?:#.*)?")


_LIST = rf"{IDENT}(?:\s*,\s*{IDENT})*"
_NAMES_ROW = _row(rf"({IDENT})(?:\s*,\s*({_LIST}))?")
_KEYED_ROW = _row(rf"({IDENT})\s*:(?:\s*({_LIST}))?")
# Each section's row pattern.  Its groups are the row's names in order, a
# list of names counting as one group; group 1 is the row's first name.
_ROWS = {
    "agents": _NAMES_ROW,
    "capacities": _KEYED_ROW,
    "actions": _KEYED_ROW,
    "states": _NAMES_ROW,
    "labels": _KEYED_ROW,
    "protocol": _row(rf"({IDENT})\s*@\s*({IDENT})\s*:(?:\s*({_LIST}))?"),
    "transitions": _row(rf"({IDENT})\s*\((?:\s*({_LIST}))?\s*\)\s*->\s*({IDENT})"),
}
# The first names of lines that may be a header rather than a row.
_WORDS = frozenset(("game", "init", *_SECTIONS))


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
    """The names of a comma-separated list; a blank list is empty, and an
    empty name between commas is an invalid identifier."""
    names = [part.strip() for part in raw.split(",")] if raw.strip() else []
    for name in names:
        if not _IDENT.match(name):
            _fail(line, f"invalid identifier {name!r}")
    return names


def _reject(section: str, line: str, lineno: int) -> None:
    """Raise the fault of a row that ``section``'s pattern rejected: its
    shape, or else its first name that is not an identifier."""
    rest = line
    if section in ("capacities", "actions", "labels"):
        key, sep, rest = line.partition(":")
        if not sep or not _IDENT.match(key.strip()):
            _fail(lineno, f"expected '<name>: ...', got {line!r}")
    elif section == "protocol":
        match = re.match(_PROTOCOL_SHAPE, line)
        if not match:
            _fail(lineno, f"expected '<agent> @ <state>: actions', got {line!r}")
        rest = match[3]
    elif section == "transitions":
        match = re.match(_TRANSITION_SHAPE, line)
        if not match:
            _fail(lineno, f"expected '<state> (act, ...) -> <state>', got {line!r}")
        rest = match[2]
    _idents(rest, lineno)
    raise AssertionError(f"line {lineno}: {section} row {line!r} has no fault")


def parse_game(text: str) -> GameDocument:
    doc = GameDocument()
    section: str | None = None
    row_match = None  # the fullmatch of the section's row pattern
    names_in = _NAME.findall
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw:
            continue
        # A row costs one match and one findall over its list.  The long way
        # below is for the other lines, for rows whose first name is a word
        # of the format (which keep the header rules' precedence), for lines
        # ending in ":" (most are section headers) and for rejected rows.
        row = row_match and raw[-1] != ":" and row_match(raw)
        if row:
            fields = row.groups("")  # a blank list is ""
        if not row or fields[0] in _WORDS:
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
            if header in _ROWS:
                if header in doc.section_lines:
                    _fail(lineno, f"duplicate section {header!r}")
                doc.section_lines[header] = lineno
                section, row_match = header, _ROWS[header].fullmatch
                continue
            if line.startswith("init:"):
                if doc.init is not None:
                    _fail(lineno, "duplicate init")
                value = line[len("init:") :].strip()
                if not _IDENT.match(value):
                    _fail(lineno, f"invalid init state {value!r}")
                doc.init = (value, lineno)
                section = row_match = None
                continue
            if section is None:
                _fail(lineno, f"unexpected line outside any section: {line!r}")
            row = row_match(raw)
            if not row:
                _reject(section, line, lineno)
            fields = row.groups("")
        if section == "transitions":
            source, acts, target = fields
            doc.transitions.append((source, tuple(names_in(acts)), target, lineno))
        elif section == "protocol":
            agent, state, acts = fields
            doc.protocol.append((agent, state, names_in(acts), lineno))
        elif section == "agents" or section == "states":
            first, rest = fields
            names = [first, *names_in(rest)]
            getattr(doc, section).extend([(name, lineno) for name in names])
        else:
            key, rest = fields
            getattr(doc, section).append((key, names_in(rest), lineno))
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


def _keyed(
    doc: GameDocument,
    section: str,
    keys: Container[str],
    key_kind: str,
    item: str,
    reserved: tuple[str, ...] = (),
) -> dict[str, list[str]]:
    """The rows of a ``<key>: names`` section by key: each key is one of
    ``keys`` and has one row, and a row's names are distinct and none is
    ``reserved``."""
    rows: dict[str, list[str]] = {}
    for key, names, line in getattr(doc, section):
        if key not in keys:
            _fail(line, f"unknown {key_kind} {key!r}")
        if key in rows:
            _fail(line, f"duplicate {section} for {key_kind} {key!r}")
        for name in names:
            if name in reserved:
                _fail(line, f"{item} name {name!r} is reserved")
        rows[key] = _distinct(names, line, item)
    return rows


def _arguments(doc: GameDocument) -> dict:
    """``build_game``'s keyword arguments, the document's rows by key; two
    rows with one key are a ``ValueError``, since a dict would merge them."""
    arguments = {
        "agents": [name for name, _ in doc.agents],
        "capacities": {key: names for key, names, _ in doc.capacities},
        "actions": {key: names for key, names, _ in doc.actions},
        "states": [name for name, _ in doc.states],
        "labels": {key: names for key, names, _ in doc.labels},
        "protocol": {(agent, state): acts for agent, state, acts, _ in doc.protocol},
        "transitions": {
            (source, joint): target for source, joint, target, _ in doc.transitions
        },
        "init": None if doc.init is None else doc.init[0],
    }
    for section in ("capacities", "actions", "labels", "protocol", "transitions"):
        if len(arguments[section]) < len(getattr(doc, section)):
            raise ValueError(f"two {section} rows share a key")
    return arguments


def _check_names(doc: GameDocument) -> None:
    """Raise the first name-resolution fault of the document, with its line:
    the faults for which ``build_game`` refuses the rows."""
    agents = _declare(doc.agents, "agent")
    states = _declare(doc.states, "state")
    if not agents:
        _fail(doc.section_lines["agents"], "at least one agent is required")
    if not states:
        _fail(doc.section_lines["states"], "at least one state is required")

    capacities = _keyed(doc, "capacities", agents, "agent", "capacity")
    known_caps = {cap for caps in capacities.values() for cap in caps}
    actions = _keyed(doc, "actions", known_caps, "capacity", "action")
    known_acts = {act for acts in actions.values() for act in acts}
    _keyed(doc, "labels", states, "state", "proposition", RESERVED_PROPS)

    protocol: set[tuple[str, str]] = set()
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
        _distinct(acts, line, "action")
        protocol.add((agent, state))

    transitions: set[tuple[str, tuple[str, ...]]] = set()
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
        transitions.add((source, joint))

    if doc.init is not None:
        init, line = doc.init
        if init not in states:
            _fail(line, f"unknown init state {init!r}")


def bind_with_report(
    doc: GameDocument,
) -> tuple[GameStructure, list[Diagnostic]]:
    """Build the structure with ``build_game`` from the document's rows, and
    return the validation report as span-carrying diagnostics instead of
    raising.

    Name-resolution problems (unknown or duplicate identifiers, malformed
    arities), for which ``build_game`` refuses the rows, are hard errors and
    still raise, with the line ``_check_names`` finds for the first.
    """
    try:
        game = build_game(name=doc.name, **_arguments(doc))
    except ValueError:
        _check_names(doc)
        raise

    # A reported row is found by its key, unique since duplicate rows are
    # rejected above; without a row, the report points at the section.
    diagnostics = []
    for violation in validate_structure(game):
        if violation.kind == EMPTY_CAPACITIES:
            section, key = "capacities", None
        elif violation.kind == MISSING_TRANSITION:
            section, key = "transitions", None
        elif violation.kind == SPURIOUS_TRANSITION:
            section, key = "transitions", (
                game.state_names[violation.state],
                tuple(game.action_names[x] for x in violation.joint),
            )
        else:  # a protocol row leaves a capacity without moves or exceeds them
            section, key = "protocol", (
                game.agent_names[violation.agent],
                game.state_names[violation.state],
            )
        line = next(
            (row[-1] for row in getattr(doc, section) if row[:2] == key),
            doc.section_lines[section],
        )
        diagnostics.append(Diagnostic(line, violation.message))
    return game, diagnostics


def load_game(text: str) -> GameStructure:
    """Parse, bind and validate; succeeds only on an empty report."""
    game, diagnostics = bind_with_report(parse_game(text))
    if diagnostics:
        raise GameSpecError(diagnostics)
    return game


def render_game(game: GameStructure) -> str:
    """Canonical text for a valid structure: ``game_names`` written out, so
    the text reloads to the same game, ids included, not only an isomorphic
    one."""
    names = game_names(game)
    init, join = names.pop("init"), ", ".join
    sections = {
        "agents": [join(names["agents"])],
        "capacities": [f"{a}: {join(cs)}" for a, cs in names["capacities"].items()],
        "actions": [f"{c}: {join(xs)}" for c, xs in names["actions"].items()],
        "states": [join(names["states"])],
        "labels": [f"{q}: {join(ps)}" for q, ps in names["labels"].items() if ps],
        "protocol": [
            f"{a} @ {q}: {join(xs)}" for (a, q), xs in names["protocol"].items()
        ],
        "transitions": [
            f"{q} ({join(joint)}) -> {target}"
            for (q, joint), target in names["transitions"].items()
        ],
    }
    lines = [f"game {game.name}", ""]
    for section, rows in sections.items():
        lines += [f"{section}:", *("  " + row for row in rows), ""]
        if section == "states" and init is not None:
            lines += [f"init: {init}", ""]
    return "\n".join(lines)


def canonical_form(game: GameStructure) -> dict:
    """Name-keyed shape of a structure, for isomorphism comparisons:
    ``game_names`` with each row sorted by name."""
    names = game_names(game)
    for section in ("capacities", "actions", "labels", "protocol"):
        names[section] = {key: sorted(row) for key, row in names[section].items()}
    return names

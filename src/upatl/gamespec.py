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
with ``model.build_game``, which holds every name rule and their order, and
validates it.  The binder finds the line of a ``NameFault`` and the rows
that repeat a key, which no dict can pass.  Loading succeeds only on a
clean report, and every diagnostic carries the line it points at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import (
    EMPTY_CAPACITIES,
    IDENT,
    MISSING_TRANSITION,
    SPURIOUS_TRANSITION,
    GameStructure,
    NameFault,
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


def _row(shape: str) -> re.Pattern:
    """A whole line holding one row of ``shape``, with any whitespace around
    it and an optional trailing comment."""
    return re.compile(rf"\s*{shape}\s*(?:#.*)?")


_LIST = rf"{IDENT}(?:\s*,\s*{IDENT})*"
_NAMES_ROW = _row(rf"({IDENT})(?:\s*,\s*({_LIST}))?")
_KEYED_ROW = _row(rf"({IDENT})\s*:(?:\s*({_LIST}))?")
# Each section's row pattern, in the order a missing section is reported.
# Its groups are the row's names in order, a list of names counting as one
# group; group 1 is the row's first name.
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
_WORDS = frozenset(("game", "init", *_ROWS))


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
    """Parsed sections with source lines, before name resolution.  A row is
    its name and line in ``agents``, ``states`` and ``init``; elsewhere it is
    the key, the value and the line of an entry of ``build_game``'s
    argument."""

    name: str = ""
    name_line: int = 0
    agents: list[tuple[str, int]] = field(default_factory=list)
    capacities: list[tuple[str, list[str], int]] = field(default_factory=list)
    actions: list[tuple[str, list[str], int]] = field(default_factory=list)
    states: list[tuple[str, int]] = field(default_factory=list)
    init: tuple[str, int] | None = None
    labels: list[tuple[str, list[str], int]] = field(default_factory=list)
    protocol: list[tuple[tuple[str, str], list[str], int]] = field(
        default_factory=list
    )
    transitions: list[tuple[tuple[str, tuple[str, ...]], str, int]] = field(
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
            doc.transitions.append(((source, tuple(names_in(acts))), target, lineno))
        elif section == "protocol":
            agent, state, acts = fields
            doc.protocol.append(((agent, state), names_in(acts), lineno))
        elif section == "agents" or section == "states":
            first, rest = fields
            names = [first, *names_in(rest)]
            getattr(doc, section).extend([(name, lineno) for name in names])
        else:
            key, rest = fields
            getattr(doc, section).append((key, names_in(rest), lineno))
    if not doc.name:
        _fail(1, "missing 'game <name>' header")
    for required in _ROWS:
        if required not in doc.section_lines:
            _fail(doc.name_line, f"missing section {required!r}")
    return doc


# The sections whose rows ``build_game`` takes by key, each with the fault
# of a row whose key an earlier row of the section has.
_REPEATS = {
    "capacities": "duplicate capacities for agent {0!r}",
    "actions": "duplicate actions for capacity {0!r}",
    "labels": "duplicate labels for state {0!r}",
    "protocol": "duplicate protocol for {0[0]!r} at {0[1]!r}",
    "transitions": "duplicate transition",
}
# The order in which a file's name faults are reported, as
# ``model._refusal`` walks ``build_game``'s arguments.
_ORDER = ("agents", "states", *_REPEATS, "init")


def _line(doc: GameDocument, section: str, key, nth: int = 0) -> int:
    """The line of the ``nth`` row of ``section`` keyed ``key`` (named, in
    ``agents``, ``states`` and ``init``), or else of the section's header."""
    rows = [doc.init] if section == "init" else getattr(doc, section)
    lines = [line for first, *_, line in rows if first == key]
    return lines[nth] if nth < len(lines) else doc.section_lines[section]


def _arguments(doc: GameDocument) -> tuple[dict, tuple | None]:
    """``build_game``'s keyword arguments, the first row of each key, and the
    first row in ``_ORDER`` whose key an earlier row has, as (section, key,
    value, line), or None: a dict would merge the two."""
    arguments = {
        "agents": [name for name, _ in doc.agents],
        "states": [name for name, _ in doc.states],
        "init": None if doc.init is None else doc.init[0],
    }
    repeat = None
    for section in _REPEATS:
        rows = getattr(doc, section)
        first = arguments[section] = {key: value for key, value, _ in rows}
        if len(first) < len(rows):
            first.clear()
            for key, value, line in rows:
                if key in first:
                    repeat = repeat or (section, key, value, line)
                else:
                    first[key] = value
    return arguments, repeat


def _located(doc: GameDocument, fault: NameFault) -> tuple[int, str]:
    """The line of ``build_game``'s refusal, and its fault in the file's
    words."""
    section, key, name = fault.section, fault.key, fault.name
    if fault.unknown:
        message = f"unknown {fault.unknown} {name!r}"
    elif name is not None:
        message = str(fault)
    elif section == "transitions":
        message = "joint action arity must equal the number of agents"
    else:  # an empty section
        message = f"at least one {section[:-1]} is required"
    if key is None:  # agents, states or init; a repeat is at its second row
        return _line(doc, section, name, section != "init"), message
    return _line(doc, section, key), message


def bind_with_report(
    doc: GameDocument,
) -> tuple[GameStructure, list[Diagnostic]]:
    """Build the structure with ``build_game`` from the document's rows, and
    return the validation report as span-carrying diagnostics instead of
    raising.  A ``NameFault`` of ``build_game`` raises with the line of the
    row it names, in the file's words; so does a row that repeats a key,
    where it comes first in ``build_game``'s order."""
    arguments, repeat = _arguments(doc)
    try:
        game = build_game(name=doc.name, **arguments)
    except NameFault as fault:
        line, message = _located(doc, fault)
        place = (_ORDER.index(fault.section), line)
        if repeat is None or place < (_ORDER.index(repeat[0]), repeat[-1]):
            _fail(line, message)
    if repeat is not None:
        section, key, value, line = repeat
        if section == "transitions":
            # A transition's target is read before its repeat: build again
            # with the repeat's target, to see whether it is declared.
            arguments[section][key] = value
            try:
                build_game(name=doc.name, **arguments)
            except NameFault as fault:
                if fault.key == key:
                    _fail(line, _located(doc, fault)[1])
        _fail(line, _REPEATS[section].format(key))

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
        diagnostics.append(Diagnostic(_line(doc, section, key), violation.message))
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
    # Spaced so that no row is a header: ``init:`` starts the init line and
    # ``game `` a game header, so ``init :``, ``game@`` and ``game(``.
    def key(name: str) -> str:
        return "init :" if name == "init" else f"{name}:"

    sections = {
        "agents": [join(names["agents"])],
        "capacities": [f"{key(a)} {join(cs)}" for a, cs in names["capacities"].items()],
        "actions": [f"{key(c)} {join(xs)}" for c, xs in names["actions"].items()],
        "states": [join(names["states"])],
        "labels": [f"{key(q)} {join(ps)}" for q, ps in names["labels"].items() if ps],
        "protocol": [
            f"{a}{'@' if a == 'game' else ' @ '}{q}: {join(xs)}"
            for (a, q), xs in names["protocol"].items()
        ],
        "transitions": [
            f"{q}{'' if q == 'game' else ' '}({join(joint)}) -> {target}"
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

"""Every input diagnostic, one minimal invalid input each.

Each case runs the CLI in-process and asserts the exact stderr line and exit
code: game files through ``check`` (the loader's messages, each with its
line), path literals through ``compat``, strategy files through
``outcomes``, and formulas through ``check``.  The last two tests pin the
text lines of certificates with nothing to show.
"""

import json

import pytest

from upatl import cli
from upatl.cli import main
from upatl.trace import Path

from helpers import GAMES_DIR, load_game_file

HAND = str(GAMES_DIR / "hand.game")

# The smallest valid game: one agent, one capacity, one action, one state.
# Cases edit it by line number (1-based).
BASE = """\
game g
agents:
  a
capacities:
  a: c
actions:
  c: x
states:
  s
init: s
labels:
  s: p
protocol:
  a @ s: x
transitions:
  s (x) -> s
"""


def edited(edits: dict[int, str | None]) -> str:
    """``BASE`` with line ``n`` replaced by ``edits[n]``, or dropped if that
    is None; a replacement may span several lines."""
    lines = [edits.get(n, line) for n, line in enumerate(BASE.splitlines(), 1)]
    return "".join(line + "\n" for line in lines if line is not None)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_base_game_is_valid(capsys, tmp_path):
    target = tmp_path / "base.game"
    target.write_text(BASE)
    assert run(capsys, "validate", str(target)) == (0, "ok\n", "")
    assert run(capsys, "check", str(target), "-f", "p", "-k", "0") == (0, "TRUE\n", "")


GAME_CASES = [
    # (id, edits of BASE, line reported, message)
    ("missing-header", {n: None for n in range(1, 17)}, 1, "missing 'game <name>' header"),
    ("duplicate-header", {1: "game g\ngame h"}, 2, "duplicate game header"),
    ("invalid-game-name", {1: "game 1g"}, 1, "invalid game name '1g'"),
    ("line-before-header", {1: "agents:\ngame g"}, 1, "expected 'game <name>' before anything else"),
    ("duplicate-section", {16: "  s (x) -> s\nagents:"}, 17, "duplicate section 'agents'"),
    ("missing-section", {15: None, 16: None}, 1, "missing section 'transitions'"),
    ("duplicate-init", {10: "init: s\ninit: s"}, 11, "duplicate init"),
    ("invalid-init", {10: "init: 1s"}, 10, "invalid init state '1s'"),
    ("line-outside-sections", {10: "init: s\n  s"}, 11, "unexpected line outside any section: 's'"),
    ("malformed-keyed-row", {5: "  a c"}, 5, "expected '<name>: ...', got 'a c'"),
    ("malformed-protocol-row", {14: "  a s: x"}, 14, "expected '<agent> @ <state>: actions', got 'a s: x'"),
    ("malformed-transition-row", {16: "  s x -> s"}, 16, "expected '<state> (act, ...) -> <state>', got 's x -> s'"),
    ("invalid-identifier", {3: "  a, 2b"}, 3, "invalid identifier '2b'"),
    # Names are separated by single commas: an empty name is invalid.
    ("empty-agent", {3: "  a,, b"}, 3, "invalid identifier ''"),
    ("empty-capacity", {5: "  a: c,"}, 5, "invalid identifier ''"),
    ("empty-joint-action", {16: "  s (x,) -> s"}, 16, "invalid identifier ''"),
    # Row patterns read names as ASCII identifiers, like every other list.
    ("non-ascii-protocol-state", {14: "  a @ sé: x"}, 14, "expected '<agent> @ <state>: actions', got 'a @ sé: x'"),
    ("non-ascii-transition-state", {16: "  s (x) -> sé"}, 16, "expected '<state> (act, ...) -> <state>', got 's (x) -> sé'"),
    ("duplicate-agent", {3: "  a, a"}, 3, "duplicate agent 'a'"),
    ("duplicate-state", {9: "  s, s"}, 9, "duplicate state 's'"),
    ("no-agent", {3: None}, 2, "at least one agent is required"),
    ("no-state", {9: None}, 8, "at least one state is required"),
    ("capacities-unknown-agent", {5: "  b: c"}, 5, "unknown agent 'b'"),
    ("capacities-duplicate-row", {5: "  a: c\n  a: c"}, 6, "duplicate capacities for agent 'a'"),
    ("actions-unknown-capacity", {7: "  d: x"}, 7, "unknown capacity 'd'"),
    ("actions-duplicate-row", {7: "  c: x\n  c: x"}, 8, "duplicate actions for capacity 'c'"),
    ("labels-unknown-state", {12: "  t: p"}, 12, "unknown state 't'"),
    ("labels-duplicate-row", {12: "  s: p\n  s: p"}, 13, "duplicate labels for state 's'"),
    ("labels-reserved", {12: "  s: true"}, 12, "proposition name 'true' is reserved"),
    ("protocol-unknown-agent", {14: "  b @ s: x"}, 14, "unknown agent 'b'"),
    ("protocol-unknown-state", {14: "  a @ t: x"}, 14, "unknown state 't'"),
    ("protocol-unknown-action", {14: "  a @ s: y"}, 14, "unknown action 'y'"),
    ("protocol-duplicate-row", {14: "  a @ s: x\n  a @ s: x"}, 15, "duplicate protocol for 'a' at 's'"),
    ("transition-unknown-source", {16: "  t (x) -> s"}, 16, "unknown state 't'"),
    ("transition-unknown-target", {16: "  s (x) -> t"}, 16, "unknown state 't'"),
    ("transition-arity", {16: "  s (x, x) -> s"}, 16, "joint action arity must equal the number of agents"),
    ("transition-unknown-action", {16: "  s (y) -> s"}, 16, "unknown action 'y'"),
    ("transition-duplicate-row", {16: "  s (x) -> s\n  s (x) -> s"}, 17, "duplicate transition"),
    ("unknown-init", {10: "init: t"}, 10, "unknown init state 't'"),
    # Validation, after binding: an agent without capacities is reported at
    # the capacities section's line, a missing transition at its section's.
    ("agent-without-capacities", {5: "  a:", 7: None, 14: "  a @ s:", 16: None}, 4, "agent a has no capacity"),
    ("missing-transition", {16: None}, 15, "no transition for available joint action (x) at s"),
    # The other validation reports point at their own row, here not the
    # section's first.
    (
        "protocol-outside-capacities",
        {3: "  a, b", 5: "  a: c\n  b: d", 7: "  c: x\n  d: y", 14: "  a @ s: x\n  b @ s: x, y", 16: "  s (x, x) -> s\n  s (x, y) -> s"},
        17,
        "protocol action x of agent b at s is outside all of the agent's capacities",
    ),
    (
        "capacity-without-action",
        {3: "  a, b", 5: "  a: c\n  b: d, e", 7: "  c: x\n  d: y\n  e: z", 14: "  a @ s: x\n  b @ s: y", 16: "  s (x, y) -> s"},
        18,
        "agent b with capacity e has no action at s",
    ),
    ("spurious-transition", {7: "  c: x, y", 16: "  s (x) -> s\n  s (y) -> s"}, 17, "transition at s under (y) uses an unavailable joint action"),
]


# Two faults in one file: the one reported is the first in the loader's
# order: parsing before binding, then sections in declaration order, and the
# first faulty row within a section.
TWO_FAULT_CASES = [
    ("unknown-agent-and-duplicate-transition", {5: "  b: c", 16: "  s (x) -> s\n  s (x) -> s"}, 5, "unknown agent 'b'"),
    ("reserved-label-and-duplicate-labels-row", {12: "  s: true\n  s: p"}, 12, "proposition name 'true' is reserved"),
    ("duplicate-capacities-row-and-unknown-capacity", {5: "  a: c\n  a: c", 7: "  d: x"}, 6, "duplicate capacities for agent 'a'"),
    ("unknown-capacity-and-duplicate-actions-row", {7: "  d: x\n  c: x\n  c: x"}, 7, "unknown capacity 'd'"),
    ("bind-fault-and-later-parse-fault", {5: "  b: c", 16: "  s x -> s"}, 16, "expected '<state> (act, ...) -> <state>', got 's x -> s'"),
    ("unknown-label-state-and-unknown-protocol-action", {12: "  t: p", 14: "  a @ s: y"}, 12, "unknown state 't'"),
]


@pytest.mark.parametrize(
    "edits, line, message",
    [pytest.param(*case[1:], id=case[0]) for case in GAME_CASES + TWO_FAULT_CASES],
)
def test_game_file_diagnostic(capsys, tmp_path, edits, line, message):
    target = tmp_path / "bad.game"
    target.write_text(edited(edits))
    got = run(capsys, "check", str(target), "-f", "true", "-k", "0")
    assert got == (65, "", f"error: line {line}: {message}\n")


@pytest.mark.parametrize(
    "literal, message",
    [
        ("", "empty path literal"),
        ("(watch, swingL) s1", "expected a state, found (watch, swingL)"),
        ("s0 s1", "expected a joint action, found 's1'"),
        ("s0 (watch, smash) s1", "unknown action 'smash'"),
        ("s0 (watch, swingL)", "a path literal must end with a state"),
        ("s9", "unknown state 's9'"),
        ("s0 (watch, swingL) s2", "path does not follow the transition relation"),
        ("s0 (watch) s1", "path does not follow the transition relation"),
    ],
)
def test_path_literal_diagnostic(capsys, literal, message):
    assert run(capsys, "compat", HAND, "-p", literal) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "strategy, message",
    [
        ([], "malformed strategy file: not a JSON object"),
        ({}, "malformed strategy file: missing 'coalition'"),
        ({"coalition": ["opp"], "depth": 1}, "malformed strategy file: missing 'pivot'"),
        ({"coalition": ["opp"], "pivot": "s0"}, "malformed strategy file: missing 'depth'"),
        (
            {"coalition": 5, "pivot": "s0", "depth": 1},
            "malformed strategy file: coalition must be a list, not 5",
        ),
        ({"coalition": ["nobody"], "pivot": "s0", "depth": 1}, "unknown agent 'nobody'"),
        (
            {"coalition": ["opp", "opp"], "pivot": "s0", "depth": 1, "root": {"actions": {"opp": "serve"}}},
            "malformed strategy file: coalition lists 'opp' twice",
        ),
        ({"coalition": ["opp"], "pivot": "s9", "depth": 1}, "unknown state 's9'"),
        (
            {"coalition": ["opp"], "pivot": "s0", "depth": 1, "root": []},
            "strategy node at s0 is not an object",
        ),
        (
            {"coalition": ["opp"], "pivot": "s0", "depth": 1, "root": {"actions": []}},
            "actions of strategy node at s0 is not an object",
        ),
        (
            {"coalition": ["opp"], "pivot": "s0", "depth": 1, "root": {"children": []}},
            "children of strategy node at s0 is not an object",
        ),
        (
            {"coalition": ["opp"], "pivot": "s0", "depth": 1, "root": {}},
            "malformed strategy decision at s0: no action for 'opp'",
        ),
        (
            {"coalition": ["opp"], "pivot": "s0", "depth": 1, "root": {"actions": {"opp": "smash"}}},
            "unknown action 'smash'",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 1,
                "root": {"actions": {"opp": "serve", "obs": "watch", "nobody": "x"}},
            },
            "malformed strategy decision at s0: 'obs' is not in the coalition",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 1,
                "root": {"actions": {"opp": "serve", "nobody": "x"}},
            },
            "unknown agent 'nobody'",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 1,
                "root": {"actions": {"opp": "serve"}, "children": {"s7": {}}},
            },
            "unknown state 's7'",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 2,
                "root": {"actions": {"opp": "swingL"}},
            },
            "invalid strategy tree: no decision for reachable history s0 s1",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s1",
                "depth": 1,
                "root": {"actions": {"opp": "serve"}},
            },
            "strategy pivot must equal the path's last state",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 0,
                "root": {"actions": {"opp": "serve"}},
            },
            "strategy tree is too shallow for the requested bound",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 1,
                "root": {
                    "actions": {"opp": "serve"},
                    "children": {
                        "s0": {
                            "actions": {"opp": "serve"},
                            "children": {"s0": {"actions": {"opp": "serve"}}},
                        }
                    },
                },
            },
            "invalid strategy tree: decision for unreached history s0 s0; "
            "decision for unreached history s0 s0 s0",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 2,
                "root": {
                    "actions": {"opp": "serve"},
                    "children": {
                        "s0": {"actions": {"opp": "serve"}},
                        "s1": {"actions": {"opp": "swingL"}},
                    },
                },
            },
            "invalid strategy tree: decision for unreached history s0 s1",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 1,
                "root": {"actions": {"opp": "serve"}},
                "extra": 1,
            },
            "malformed strategy file: unknown key 'extra'",
        ),
        (
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 1,
                "root": {"actions": {"opp": "serve"}, "kids": {}},
            },
            "strategy node at s0 has unknown key 'kids'",
        ),
    ],
    ids=[
        "not-an-object",
        "no-coalition",
        "no-pivot",
        "no-depth",
        "coalition-not-a-list",
        "coalition-unknown-agent",
        "coalition-twice",
        "unknown-pivot",
        "node",
        "node-actions",
        "node-children",
        "node-decision",
        "node-unknown-action",
        "node-agent-outside-coalition",
        "node-unknown-agent",
        "node-child-state",
        "tree-incomplete",
        "tree-pivot",
        "tree-shallow",
        "tree-past-depth",
        "tree-unreached",
        "file-unknown-key",
        "node-unknown-key",
    ],
)
def test_strategy_file_diagnostic(capsys, tmp_path, strategy, message):
    target = tmp_path / "strategy.json"
    target.write_text(json.dumps(strategy))
    got = run(capsys, "outcomes", HAND, "-p", "s0", "--strategy", str(target), "-k", "1")
    assert got == (65, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "coalition", ["a", "aa", "", {"a": 1}], ids=["name", "letters", "empty", "object"]
)
def test_strategy_coalition_must_be_a_list(capsys, tmp_path, coalition):
    # A string is not read as its letters, even where each names an agent.
    game = tmp_path / "base.game"
    game.write_text(BASE)
    target = tmp_path / "strategy.json"
    target.write_text(json.dumps({"coalition": coalition, "pivot": "s", "depth": 1}))
    got = run(capsys, "outcomes", str(game), "-p", "s", "--strategy", str(target), "-k", "1")
    message = f"malformed strategy file: coalition must be a list, not {coalition!r}"
    assert got == (65, "", f"error: {message}\n")


def test_formula_unexpected_character(capsys):
    got = run(capsys, "check", HAND, "-f", "start & $", "-k", "1")
    assert got == (65, "", "error: unexpected character '$' (at offset 8)\n")


@pytest.mark.parametrize(
    "formula, message",
    [
        ("(start", "expected ')', found 'end of input' (at offset 6)"),
        ("K[obs] start", "expected '(', found 'start' (at offset 7)"),
    ],
    ids=["unclosed", "knowledge-without-body"],
)
def test_formula_expected_token(capsys, formula, message):
    got = run(capsys, "check", HAND, "-f", formula, "-k", "1")
    assert got == (65, "", f"error: {message}\n")


def test_formula_coalition_lists_an_agent_twice(capsys):
    got = run(capsys, "check", HAND, "-f", "<<opp, opp>> N leftHit", "-k", "1")
    assert got == (65, "", "error: coalition lists 'opp' twice (at offset 7)\n")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["check", HAND, "-f", "start", "-k", "-1"], 64, "usage error: horizon must be nonnegative"),
        (["gen", "--seed", "1", "--states", "9"], 64, "usage error: states must be between 1 and 5"),
        (["gen", "--seed", "1", "--caps", "3"], 64, "usage error: capacities per agent must be 1 or 2"),
        (["gen", "--seed", "1", "--acts", "3"], 64, "usage error: actions per capacity must be 1 or 2"),
        (["classes", HAND, "-p", "s0", "-a", "nobody"], 65, "error: unknown agent 'nobody'"),
    ],
    ids=["negative-horizon", "gen-states", "gen-caps", "gen-acts", "classes-unknown-agent"],
)
def test_option_diagnostic(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"{message}\n")


def test_certificate_without_decisions(capsys):
    got = run(capsys, "check", HAND, "-f", "<<>> F start", "-k", "1")
    assert got == (
        0,
        "TRUE\nwitness strategy for {} from s0 (depth 1)\n  (no decisions needed)\n",
        "",
    )


def test_falsifier_without_compatible_outcomes(capsys, tmp_path):
    target = tmp_path / "random26.game"
    assert run(capsys, "gen", "--seed", "26", "-o", str(target)) == (0, "", "")
    got = run(capsys, "check", str(target), "-f", "<<ag2>> N p1", "-k", "2")
    assert got == (
        1,
        "FALSE\n"
        "falsified strategy for {ag2} from q0 (depth 2)\n"
        "  q0: ag2=act4\n"
        "  q0 q2: ag2=act1\n"
        "no capacity-compatible outcomes\n",
        "",
    )


@pytest.mark.parametrize(
    "edits, line, message",
    [
        ({5: "  a: c, c"}, 5, "duplicate capacity 'c'"),
        ({7: "  c: x, x"}, 7, "duplicate action 'x'"),
        ({12: "  s: p, p"}, 12, "duplicate proposition 'p'"),
        ({14: "  a @ s: x, x"}, 14, "duplicate action 'x'"),
    ],
    ids=["capacities", "actions", "labels", "protocol"],
)
def test_name_repeated_in_a_row(capsys, tmp_path, edits, line, message):
    target = tmp_path / "repeat.game"
    target.write_text(edited(edits))
    for command in ("validate", "fmt"):
        got = run(capsys, command, str(target))
        assert got == (65, "", f"error: line {line}: {message}\n")


@pytest.mark.parametrize(
    "literal, message",
    [
        ("s0 ;;; (watch, swingL) @@ s1", "unexpected character ';' (at offset 3)"),
        ("s0 (watch, swingL) @@ s1", "unexpected character '@' (at offset 19)"),
        ("s0 (watch, swingL) s1 é", "unexpected character 'é' (at offset 22)"),
        ("s0 -> s1", "unexpected '->' in a path literal (at offset 3)"),
        ("s0 (watch swingL) s1", "unexpected 'swingL' in a joint action (at offset 10)"),
        ("s0 (watch,,swingL) s1", "unexpected ',' in a joint action (at offset 10)"),
        ("s0 (watch, (swingL)) s1", "unexpected '(' in a joint action (at offset 11)"),
        ("s0 (watch, swingL", "unexpected 'end of input' in a joint action (at offset 17)"),
    ],
    ids=[
        "stray-characters",
        "stray-character-late",
        "non-ascii",
        "arrow",
        "missing-comma",
        "empty-name",
        "nested-parenthesis",
        "unclosed",
    ],
)
def test_path_literal_reads_every_character(capsys, literal, message):
    assert run(capsys, "compat", HAND, "-p", literal) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "literal", ["s0 (watch, swingL) s1", "s0(watch,swingL)s1", " s0 ( watch , swingL ) s1 "]
)
def test_path_literal_spacing_is_free(capsys, literal):
    assert run(capsys, "compat", HAND, "-p", literal) == (0, "obs=normal, opp=lefty\n", "")


def test_path_literal_reads_the_text_of_every_path():
    game = load_game_file("hand_mix")
    frontier = [Path((q,)) for q in game.states]
    for _ in range(4):
        for path in frontier:
            assert cli.parse_path_literal(game, cli._path_text(game, path)) == path
        frontier = [
            path.extend(joint, target)
            for path in frontier
            for joint, _, target in game.choices(path.last_state, ())[()]
        ]

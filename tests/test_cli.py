import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from upatl import cli
from upatl.checker import (
    MAX_SEARCH_DEPTH,
    EvalContext,
    Evaluator,
    Verdict,
    canonical_assignment,
    eval_path_formula,
    eval_temporal,
    find_falsifying_pair,
    find_winning_strategy,
)
from upatl.cli import main
from upatl.formula import Strat, parse_formula
from upatl.gamespec import canonical_form, load_game
from upatl.oracle import GeneratorParams, formula_templates, generate_random_game
from upatl.trace import Path, outcomes_bounded

from helpers import GAMES_DIR, drop_deepest_decision, reference_tree_json

HAND = str(GAMES_DIR / "hand.game")
MIX = str(GAMES_DIR / "hand_mix.game")

CHECK_SCHEMA = {
    "type": "object",
    "required": [
        "command",
        "game",
        "formula",
        "state",
        "horizon",
        "verdict",
        "witness",
        "falsifying",
        "elapsed_ms",
    ],
    "properties": {
        "command": {"const": "check"},
        "game": {"type": "string"},
        "formula": {"type": "string"},
        "state": {"type": "string"},
        "horizon": {"type": "integer", "minimum": 0},
        "verdict": {"enum": ["TRUE", "FALSE", "UNKNOWN"]},
        "witness": {"type": ["object", "null"]},
        "falsifying": {"type": ["object", "null"]},
        "elapsed_ms": {"type": "number"},
    },
    "additionalProperties": False,
}

TREE_SCHEMA = {
    "type": "object",
    "required": ["coalition", "pivot", "depth", "root"],
    "properties": {
        "coalition": {"type": "array", "items": {"type": "string"}},
        "pivot": {"type": "string"},
        "depth": {"type": "integer"},
        "root": {"$ref": "#/$defs/node"},
    },
    "$defs": {
        "node": {
            "type": "object",
            "required": ["actions", "children"],
            "properties": {
                "actions": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "children": {
                    "type": "object",
                    "additionalProperties": {"$ref": "#/$defs/node"},
                },
            },
        }
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "check", HAND, "-f", "<<opp>> N leftHit", "-s", "s0", "-k", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "TRUE"
        assert "opp=swingL" in out

    def test_false_with_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            HAND,
            "-f",
            "<<opp>> N (leftHit & rightHit)",
            "-s",
            "s0",
            "-k",
            "1",
        )
        assert code == 1
        assert out.splitlines()[0] == "FALSE"
        assert "falsifying outcome" in out

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            HAND,
            "-f",
            "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))",
            "-k",
            "4",
        )
        assert code == 2
        assert out.strip() == "UNKNOWN"

    def test_default_state_is_init(self, capsys):
        code, out, _ = run(capsys, "check", HAND, "-f", "start", "-k", "0")
        assert code == 0 and out.strip() == "TRUE"

    def test_json_record_matches_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            HAND,
            "-f",
            "<<opp>> N leftHit",
            "-s",
            "s0",
            "-k",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, CHECK_SCHEMA)
        jsonschema.validate(record["witness"], TREE_SCHEMA)
        assert record["verdict"] == "TRUE"
        # Round trip: dumping and reloading preserves the record.
        assert json.loads(json.dumps(record)) == record

    def test_text_and_json_verdicts_agree(self, capsys):
        for formula, _expected in (
            ("<<opp>> N leftHit", 0),
            ("<<opp>> N (leftHit & rightHit)", 1),
            ("<<obs>> (true) U (K[obs](opp=lefty))", 2),
        ):
            code_text, out_text, _ = run(
                capsys, "check", HAND, "-f", formula, "-s", "s0", "-k", "2"
            )
            code_json, out_json, _ = run(
                capsys,
                "check",
                HAND,
                "-f",
                formula,
                "-s",
                "s0",
                "-k",
                "2",
                "--format",
                "json",
            )
            assert code_text == code_json == _expected
            assert json.loads(out_json)["verdict"] == out_text.splitlines()[0]


def recheck(game_file, formula, horizon, record):
    """The outcomes of the record's certificate with the goal's verdict on
    each, recomputed through ``outcomes_bounded`` and ``eval_temporal``."""
    game = load_game(FsPath(game_file).read_text(encoding="utf-8"))
    goal = parse_formula(formula, game).goal
    cert = record["witness"] or record["falsifying"]["strategy"]
    tree = cli._tree_from_json(game, cert)
    start = Path((game.state_names.index(record["state"]),))
    ctx = EvalContext(game, start, 1, canonical_assignment(game), horizon)
    return [
        (cli._path_json(game, p), eval_temporal(ctx, goal, p))
        for p in outcomes_bounded(game, start, tree, horizon)
    ]


class TestDeepCertificates:
    @pytest.mark.parametrize(
        "game_file, formula",
        [(HAND, "<<obs>> N leftHit"), (MIX, "<<obs>> N K[obs](opp=righty)")],
        ids=["hand", "hand_mix"],
    )
    def test_false_at_k10_has_falsifier(self, capsys, game_file, formula):
        code, out, _ = run(
            capsys, "check", game_file, "-f", formula, "-k", "10", "--format", "json"
        )
        assert code == 1
        record = json.loads(out)
        outcome = record["falsifying"]["outcome"]
        assert (outcome, Verdict.FALSE) in recheck(game_file, formula, 10, record)

    def test_invalid_falsifier_tree_is_an_engine_error(self, capsys, monkeypatch):
        drop_deepest_decision(monkeypatch)
        code, out, err = run(capsys, "check", HAND, "-f", "<<obs>> N leftHit", "-k", "3")
        assert (code, out) == (70, "")
        assert "invalid strategy tree" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_true_without_witness_is_an_engine_error(self, capsys, monkeypatch, fmt):
        from upatl import checker

        monkeypatch.setattr(checker._Search, "first_tree", lambda *_: None)
        code, out, err = run(
            capsys, "check", MIX, "-f", "<<opp>> N rightHit", "-k", "2", "--format", fmt
        )
        assert (code, out) == (70, "")
        assert "without a witness" in err

    def test_true_at_k14_has_witness(self, capsys):
        formula = "<<opp>> N rightHit"
        code, out, _ = run(
            capsys, "check", MIX, "-f", formula, "-k", "14", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["witness"] is not None
        checked = recheck(MIX, formula, 14, record)
        assert checked
        assert all(verdict is Verdict.TRUE for _, verdict in checked)


class TestValidate:
    def test_clean_game(self, capsys):
        code, out, _ = run(capsys, "validate", HAND)
        assert code == 0 and out.strip() == "ok"

    def test_broken_protocol_mutant(self, capsys, tmp_path):
        broken = (GAMES_DIR / "hand.game").read_text().replace(
            "opp @ s1: serve", "opp @ s1: swingL"
        )
        target = tmp_path / "broken.game"
        target.write_text(broken)
        code, out, _ = run(capsys, "validate", str(target))
        assert code == 65
        assert "righty" in out and "no action" in out

    def test_json_mode(self, capsys, tmp_path):
        broken = (GAMES_DIR / "hand.game").read_text().replace(
            "  s1 (watch, serve) -> s0\n", ""
        )
        target = tmp_path / "broken.game"
        target.write_text(broken)
        code, out, _ = run(capsys, "validate", str(target), "--format", "json")
        assert code == 65
        record = json.loads(out)
        assert record["valid"] is False
        assert record["violations"]

    def test_parse_error_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "bad.game"
        target.write_text("game g\nwhatever\n")
        code, _, err = run(capsys, "validate", str(target))
        assert code == 65
        assert "error" in err


class TestPathCommands:
    def test_compat_prints_single_assignment(self, capsys):
        code, out, _ = run(
            capsys, "compat", HAND, "-p", "s0 (watch,swingL) s1"
        )
        assert code == 0
        assert out.strip() == "obs=normal, opp=lefty"

    def test_compat_empty_set(self, capsys):
        code, out, _ = run(
            capsys,
            "compat",
            MIX,
            "-p",
            "s0 (watch,swingL) s1 (watch,swingR) s2",
        )
        assert code == 0 and out.strip() == "(none)"

    def test_compat_json(self, capsys):
        code, out, _ = run(
            capsys, "compat", HAND, "-p", "s0 (watch,swingL) s1", "--format", "json"
        )
        record = json.loads(out)
        assert record["assignments"] == [{"obs": "normal", "opp": "lefty"}]

    def test_invalid_path_literal(self, capsys):
        code, _, err = run(capsys, "compat", HAND, "-p", "s0 (watch,swingL) s2")
        assert code == 65
        assert "transition relation" in err

    def test_classes_singleton(self, capsys):
        code, out, _ = run(
            capsys, "classes", HAND, "-p", "s0 (watch,swingL) s1", "-a", "obs"
        )
        assert code == 0
        assert out.strip() == "s0 (watch, swingL) s1"

    def test_outcomes_with_strategy_file(self, capsys, tmp_path):
        strategy = {
            "coalition": ["opp"],
            "pivot": "s0",
            "depth": 2,
            "root": {
                "actions": {"opp": "swingL"},
                "children": {
                    "s1": {"actions": {"opp": "serve"}, "children": {}}
                },
            },
        }
        target = tmp_path / "swing.json"
        target.write_text(json.dumps(strategy))
        code, out, _ = run(
            capsys, "outcomes", HAND, "-p", "s0", "--strategy", str(target), "-k", "2"
        )
        assert code == 0
        assert out.strip() == "s0 (watch, swingL) s1 (watch, serve) s0"

    def test_outcomes_validates_the_strategy_once(self, capsys, tmp_path, monkeypatch):
        from upatl import trace

        calls = []
        validate = trace.validate_strategy_tree

        def counting(game, tree):
            calls.append(tree)
            return validate(game, tree)

        monkeypatch.setattr(trace, "validate_strategy_tree", counting)
        monkeypatch.setattr(cli, "validate_strategy_tree", counting, raising=False)
        strategy = {
            "coalition": ["opp"],
            "pivot": "s0",
            "depth": 2,
            "root": {
                "actions": {"opp": "serve"},
                "children": {"s0": {"actions": {"opp": "serve"}}},
            },
        }
        target = tmp_path / "serve.json"
        target.write_text(json.dumps(strategy))
        code, out, _ = run(
            capsys, "outcomes", HAND, "-p", "s0", "--strategy", str(target), "-k", "2"
        )
        assert code == 0
        assert out == "s0 (watch, serve) s0 (watch, serve) s0\n"
        assert len(calls) == 1

    def test_outcomes_pruned_empty(self, capsys, tmp_path):
        strategy = {
            "coalition": ["opp"],
            "pivot": "s0",
            "depth": 2,
            "root": {
                "actions": {"opp": "swingL"},
                "children": {
                    "s1": {"actions": {"opp": "swingR"}, "children": {}}
                },
            },
        }
        target = tmp_path / "mixed.json"
        target.write_text(json.dumps(strategy))
        code, out, _ = run(
            capsys, "outcomes", MIX, "-p", "s0", "--strategy", str(target), "-k", "2"
        )
        assert code == 0 and out.strip() == "(none)"


class TestFmtAndGen:
    def test_fmt_game_is_idempotent(self, capsys):
        code, out1, _ = run(capsys, "fmt", HAND)
        assert code == 0
        game1 = load_game(out1)
        game0 = load_game(FsPath(HAND).read_text(encoding="utf-8"))
        assert canonical_form(game1) == canonical_form(game0)

    def test_fmt_formula(self, capsys):
        code, out, _ = run(
            capsys, "fmt", HAND, "-f", "start -> <<opp>> F leftHit"
        )
        assert code == 0
        assert out.strip() == "!(start & !<<opp>> (true) U (leftHit))"

    def test_gen_emits_valid_game(self, capsys, tmp_path):
        target = tmp_path / "random.game"
        code, _, _ = run(
            capsys, "gen", "--seed", "5", "--states", "4", "-o", str(target)
        )
        assert code == 0
        game = load_game(target.read_text())
        assert len(game.state_names) == 4

    def test_gen_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--seed", "11")
        _, out2, _ = run(capsys, "gen", "--seed", "11")
        assert out1 == out2

    def test_importing_the_cli_leaves_the_oracle_unloaded(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, upatl.cli; print('upatl.oracle' in sys.modules)"],
            cwd=FsPath(cli.__file__).parent.parent,
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.strip() == "False"


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "check", HAND)
        assert code == 64 and "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 64

    def test_formula_error(self, capsys):
        code, _, err = run(capsys, "check", HAND, "-f", "N start")
        assert code == 65
        assert "outside a strategic" in err

    def test_deeply_nested_formula(self, capsys):
        code, _, err = run(capsys, "check", HAND, "-f", "!" * 5000 + "start")
        assert code == 65
        assert "nests too deeply" in err and "offset" in err

    @pytest.mark.parametrize(
        "formula, nesting",
        [
            ("<<opp>> G start", 1),
            ("<<opp>> G <<opp>> G start", 2),
            # The deepest formulas the parser accepts around the searches.
            ("!" * 95 + "(<<opp>> G start)", 1),
            ("!" * 45 + "(<<opp>> G " + "!" * 45 + "(<<opp>> G start))", 2),
        ],
    )
    def test_search_depth_limit(self, capsys, formula, nesting):
        at = MAX_SEARCH_DEPTH // nesting
        code, out, _ = run(capsys, "check", MIX, "-f", formula, "-k", str(at))
        assert code == 2 and out == "UNKNOWN\n"
        code, _, err = run(capsys, "check", MIX, "-f", formula, "-k", str(at + 1))
        assert code == 64 and f"search depth limit {MAX_SEARCH_DEPTH}" in err

    def test_engine_value_error_is_internal(self, capsys, monkeypatch):
        def broken(ctx, f):
            raise ValueError("engine fault")

        monkeypatch.setattr(cli, "eval_path_formula", broken)
        code, _, err = run(capsys, "check", HAND, "-f", "start")
        assert code == 70
        assert "internal error" in err and "engine fault" in err

    @pytest.mark.parametrize(
        "root",
        [
            [],
            {"actions": [], "children": {}},
            {"actions": {"opp": "serve"}, "children": []},
            {"actions": {"opp": "serve"}, "children": {"s0": "serve"}},
        ],
    )
    def test_strategy_node_not_an_object(self, capsys, tmp_path, root):
        target = tmp_path / "bad.json"
        target.write_text(
            json.dumps({"coalition": ["opp"], "pivot": "s0", "depth": 1, "root": root})
        )
        code, _, err = run(
            capsys, "outcomes", HAND, "-p", "s0", "--strategy", str(target), "-k", "1"
        )
        assert code == 65
        assert "is not an object" in err

    def test_strategy_file_nested_too_deeply(self, capsys, tmp_path):
        target = tmp_path / "deep.json"
        nested = '{"children": {"s0": ' * 5000 + "{}" + "}}" * 5000
        target.write_text('{"root": ' + nested + "}")
        code, _, err = run(
            capsys, "outcomes", HAND, "-p", "s0", "--strategy", str(target), "-k", "1"
        )
        assert code == 65
        assert "malformed strategy file" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "nope.game", "-f", "start")
        assert code == 65 and "cannot read" in err

    @pytest.mark.parametrize("argv", [["validate"], ["check", "-f", "start"]])
    def test_game_file_not_utf8(self, capsys, tmp_path, argv):
        target = tmp_path / "latin1.game"
        target.write_bytes(FsPath(HAND).read_bytes() + b"# caf\xe9\n")
        code, out, err = run(capsys, argv[0], str(target), *argv[1:])
        assert code == 65 and out == ""
        assert err.startswith(f"error: cannot read {target}: 'utf-8' codec")

    def test_game_file_with_byte_order_mark(self, capsys, tmp_path):
        target = tmp_path / "bom.game"
        target.write_bytes(b"\xef\xbb\xbf" + FsPath(HAND).read_bytes())
        assert run(capsys, "validate", str(target)) == (0, "ok\n", "")
        argv = ["-f", "<<opp>> F leftHit", "-k", "2"]
        plain = run(capsys, "check", HAND, *argv)
        assert run(capsys, "check", str(target), *argv) == plain

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"coalition": ["caf\xe9"]}', "cannot read {}: 'utf-8' codec"),
            (
                b'{"coalition": ["opp"], "pivot": "s0", "depth": 1e400}',
                "malformed strategy file: cannot convert float infinity",
            ),
            (
                b'{"coalition": ["opp"], "pivot": "s0", "depth": 1.5}',
                "malformed strategy file: depth must be an integer, not 1.5",
            ),
            (
                b'{"coalition": ["opp"], "pivot": "s0", "depth": "1"}',
                "malformed strategy file: depth must be an integer, not '1'",
            ),
            (
                b'{"coalition": ["opp"], "pivot": "s0", "depth": true}',
                "malformed strategy file: depth must be an integer, not True",
            ),
            (
                b'{"coalition": ["opp"], "pivot": "s0", "depth": -1}',
                "malformed strategy file: depth must be nonnegative, not -1",
            ),
        ],
        ids=[
            "not-utf8",
            "depth-overflow",
            "depth-fraction",
            "depth-string",
            "depth-bool",
            "depth-negative",
        ],
    )
    def test_unusable_strategy_file(self, capsys, tmp_path, content, message):
        target = tmp_path / "strategy.json"
        target.write_bytes(content)
        code, _, err = run(
            capsys, "outcomes", HAND, "-p", "s0", "--strategy", str(target), "-k", "1"
        )
        assert code == 65
        assert err.startswith("error: " + message.format(target))

    def test_gen_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "random.game"
        code, out, err = run(capsys, "gen", "--seed", "0", "-o", str(target))
        assert code == 65 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_no_init_and_no_state(self, capsys, tmp_path):
        text = (GAMES_DIR / "hand.game").read_text().replace("init: s0\n", "")
        target = tmp_path / "noinit.game"
        target.write_text(text)
        code, _, err = run(capsys, "check", str(target), "-f", "start")
        assert code == 64
        assert "init" in err

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "fmt, horizon, first",
        [("text", 10, b"FALSE\n"), ("json", 10, b"{\n"), ("text", 1, None)],
    )
    def test_closed_stdout_exits_like_sigpipe(self, fmt, horizon, first, unbuffered):
        # The k=10 falsifier is far larger than a pipe's buffer, so writing it
        # fails once the reader has gone; unbuffered, a write cut short can
        # end without an error.  The k=1 record fits in the buffer, so with
        # the reader gone before it is written, only a flush reveals it.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "upatl.cli", "check", MIX,
             "-f", "<<obs>> N leftHit", "-k", str(horizon), "--format", fmt],
            cwd=FsPath(cli.__file__).parent.parent, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            if first is not None:
                assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b""


def emitted(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(value)
    return out.getvalue()


# Lowercase letters, punctuation (quotes, backslash), control characters,
# lone surrogates and symbols, ASCII and beyond.
_text = st.text(st.characters(categories=("Ll", "Po", "Cc", "Cs", "So")))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e-7])
    | _text,
    lambda children: st.lists(children) | st.dictionaries(_text, children),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    @example({"\ud800k": ['"\\\x00\u00e9\U0001f600', -0.0, 1e-7, {}, [], None, True]})
    def test_matches_indented_json_dumps(self, value):
        assert emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_certificate_600_levels_deep(self):
        # Horizon 300: each step nests a node and its children.
        node = {"actions": {"opp": "serve"}, "children": {}}
        for _ in range(300):
            node = {"actions": {"opp": "swingL"}, "children": {"s0": node}}
        record = {
            "command": "check",
            "witness": {"coalition": ["opp"], "depth": 300, "pivot": "s0", "root": node},
        }
        assert emitted(record) == json.dumps(record, indent=2, sort_keys=True) + "\n"


def reversed_names_game():
    """Two agents, capacities and states whose names sort opposite to their
    declaration order, so that the JSON key order differs from it."""
    from upatl.model import build_game

    states = ["sz", "sm", "sa"]
    # The joint action (zeta's, alpha's) picks the successor, from any state.
    successor = {("zz", "yy"): "sa", ("zz", "bb"): "sm", ("aa", "yy"): "sz", ("aa", "bb"): "sa"}
    return build_game(
        name="reversed",
        agents=["zeta", "alpha"],
        capacities={"zeta": ["kz"], "alpha": ["ky", "kx"]},
        actions={"kz": ["zz", "aa"], "ky": ["yy", "bb"], "kx": ["yy"]},
        states=states,
        labels={"sa": ["pa"], "sz": ["pz"]},
        protocol={
            (agent, q): moves
            for q in states
            for agent, moves in (("zeta", ["zz", "aa"]), ("alpha", ["yy", "bb"]))
        },
        transitions={(q, joint): t for q in states for joint, t in successor.items()},
    )


def certificates(game, horizons):
    """(kind, tree) for every witness and falsifier tree ``check`` prints
    for the game's strategic formula templates, from every state."""
    lam = canonical_assignment(game)
    for f in formula_templates(game):
        if not isinstance(f, Strat):
            continue
        for horizon in horizons:
            for q in game.states:
                ctx = EvalContext(
                    game, Path((q,)), 1, lam, horizon, Evaluator(game, horizon, f)
                )
                verdict = eval_path_formula(ctx, f)
                if verdict is Verdict.TRUE:
                    yield "witness", find_winning_strategy(ctx, f.coalition, f.goal)
                elif verdict is Verdict.FALSE:
                    tree, _ = find_falsifying_pair(ctx, f.coalition, f.goal)
                    yield "falsifier", tree


class TestTreeWriter:
    """Witness and falsifier trees are written straight from their decisions;
    the bytes equal those of the nested-dict reference form."""

    @pytest.mark.parametrize(
        "name",
        ["hand", "hand_mix", "gen2-0", "gen2-1", "gen3-0", "gen3-1", "reversed"],
    )
    def test_matches_reference_form(self, name, g_hand, g_mix):
        if name.startswith("gen"):
            agents, seed = int(name[3]), int(name[5:])
            game = generate_random_game(
                GeneratorParams(seed=seed, states=4, agents=agents)
            )
        elif name == "reversed":
            game = reversed_names_game()
        else:
            game = g_hand if name == "hand" else g_mix
        horizons = range(4 if game.agent_count < 3 else 3)
        kinds = set()
        for kind, tree in certificates(game, horizons):
            # At the depths the check record nests witnesses and falsifiers.
            for wrap in (
                lambda tree_json: {"witness": tree_json},
                lambda tree_json: {"falsifying": {"outcome": None, "strategy": tree_json}},
            ):
                want = wrap(reference_tree_json(game, tree))
                got = emitted(wrap(cli._tree_record(game, tree)))
                assert got == json.dumps(want, indent=2, sort_keys=True) + "\n"
            kinds.add(kind)
            kinds.add(f"depth {tree.depth}")
            kinds.add(f"{len(tree.coalition)} agents")
        deepest = f"depth {horizons[-1]}"
        assert {"witness", "falsifier", "depth 0", deepest, "0 agents", "2 agents"} <= kinds

    def test_key_order_differs_from_declaration_order(self):
        game = reversed_names_game()
        ctx = EvalContext(game, Path((0,)), 1, canonical_assignment(game), 2)
        both = parse_formula("<<zeta, alpha>> N pa", game)
        tree = find_winning_strategy(ctx, both.coalition, both.goal)
        text = emitted(cli._tree_record(game, tree))
        assert text == json.dumps(reference_tree_json(game, tree), indent=2, sort_keys=True) + "\n"
        assert text.index('"alpha": ') < text.index('"zeta": ')
        # zeta alone: alpha's two actions lead to sm and sa, declared in that order.
        one = parse_formula("<<zeta>> N pa", game)
        tree, _ = find_falsifying_pair(ctx, one.coalition, one.goal)
        text = emitted(cli._tree_record(game, tree))
        assert text == json.dumps(reference_tree_json(game, tree), indent=2, sort_keys=True) + "\n"
        assert list(json.loads(text)["root"]["children"]) == ["sa", "sm"]


def strategy_file(tmp_path) -> str:
    target = tmp_path / "swing.json"
    target.write_text(
        json.dumps(
            {
                "coalition": ["opp"],
                "pivot": "s0",
                "depth": 2,
                "root": {
                    "actions": {"opp": "swingL"},
                    "children": {"s1": {"actions": {"opp": "serve"}, "children": {}}},
                },
            }
        )
    )
    return str(target)


class TestJsonBytes:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["validate", HAND], 0),
            (["check", HAND, "-f", "<<opp>> N leftHit", "-s", "s0", "-k", "1"], 0),
            (["check", HAND, "-f", "<<opp>> N (leftHit & rightHit)", "-k", "1"], 1),
            (["check", HAND, "-f", "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))", "-k", "4"], 2),
            (["compat", HAND, "-p", "s0 (watch,swingL) s1"], 0),
            (["classes", HAND, "-p", "s0 (watch,swingL) s1", "-a", "obs"], 0),
            (["outcomes", HAND, "-p", "s0", "--strategy", None, "-k", "2"], 0),
            (["fmt", HAND], 0),
            (["fmt", HAND, "-f", "start -> <<opp>> F leftHit"], 0),
            (["gen", "--seed", "7"], 0),
        ],
    )
    def test_every_command_writes_indented_sorted_json(self, capsys, tmp_path, argv, code):
        argv = [strategy_file(tmp_path) if a is None else a for a in argv]
        got, out, _ = run(capsys, *argv, "--format", "json")
        assert got == code
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, capsys):
        fresh = cli.build_parser.__wrapped__()
        argv = ["check", HAND, "-f", "start", "-k", "0"]
        sequence = [
            ["gen", "--seed", "3", "--states", "4", "--format", "json"],
            ["check", HAND, "-f", "start", "-s", "s1", "-k", "0", "--format", "json"],
            ["check", HAND, "-k", "0"],
            ["check", HAND, "-f", "start", "--format", "yaml"],
        ]
        for previous in sequence:
            run(capsys, *previous)
            assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))

    def test_state_option_does_not_stick(self, capsys):
        code, out, _ = run(
            capsys, "check", HAND, "-f", "start", "-s", "s1", "-k", "0", "--format", "json"
        )
        assert code == 1 and json.loads(out)["state"] == "s1"
        code, out, _ = run(capsys, "check", HAND, "-f", "start", "-k", "0", "--format", "json")
        assert code == 0 and json.loads(out)["state"] == "s0"

    def test_usage_error_then_valid_call(self, capsys):
        code, _, err = run(capsys, "check", HAND, "-k", "0")
        assert code == 64 and "--formula" in err
        code, out, err = run(capsys, "check", HAND, "-f", "start", "-k", "0")
        assert (code, out, err) == (0, "TRUE\n", "")

    def test_gen_then_check(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "3", "--format", "json")
        assert code == 0 and json.loads(out)["command"] == "gen"
        code, out, err = run(capsys, "check", HAND, "-f", "start", "-k", "0")
        assert (code, out, err) == (0, "TRUE\n", "")

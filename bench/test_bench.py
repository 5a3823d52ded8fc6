"""Tests of the benchmark itself, at smoke-test size.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quiet(*_):
    pass


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_every_workload(name):
    untraced = run.run_workload(name, 5, 0, traced=False, tiny=True, log=quiet)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.run_workload(name, 5, 0, traced=True, tiny=True, log=quiet)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        unit = (untraced["metrics"] | traced["metrics"])[metric["name"]]["unit"]
        assert unit == metric["unit"], metric["name"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def first_outputs(workload):
    from upatl import cli

    return [run._call(cli, check.argv()) for check in workload.checks]


def tiny(name, seed=5):
    workload = workloads.build(name, seed, f"{run.WORK}/test-{name}-s{seed}", tiny=True)
    workload.write(ROOT)
    return workload


def test_outputs_pass_the_gate_as_they_are():
    workload = tiny("deep")
    report = gate.verify(workload, first_outputs(workload), gate.load_games(workload))
    assert report.problems == {}
    assert report.oracle.exact == len(workload.checks)


def test_corrupted_expected_verdict_is_a_failure():
    workload = tiny("deep")
    outputs = first_outputs(workload)
    i = next(i for i, (code, _) in enumerate(outputs) if code == 0)
    workload.checks[i].expected = "FALSE"
    report = gate.verify(workload, outputs, gate.load_games(workload))
    assert list(report.problems) == [i]


def test_stripped_witness_is_a_failure():
    workload = tiny("deep")
    outputs = first_outputs(workload)
    i = next(i for i, (code, out) in enumerate(outputs) if code == 0 and json.loads(out)["witness"])
    record = json.loads(outputs[i][1])
    record["witness"] = None
    outputs[i] = (0, json.dumps(record))
    report = gate.verify(workload, outputs, gate.load_games(workload))
    assert list(report.problems) == [i]


def test_tampered_falsifying_outcome_is_a_failure():
    workload = tiny("deep")
    outputs = first_outputs(workload)
    i = next(
        i for i, (code, out) in enumerate(outputs)
        if code == 1 and (json.loads(out)["falsifying"] or {}).get("outcome")
    )
    record = json.loads(outputs[i][1])
    record["falsifying"]["outcome"] = record["falsifying"]["outcome"][:1]
    outputs[i] = (1, json.dumps(record))
    report = gate.verify(workload, outputs, gate.load_games(workload))
    assert list(report.problems) == [i]


def test_wrong_exit_code_and_extra_key_are_failures():
    workload = tiny("deep")
    outputs = first_outputs(workload)
    code, out = outputs[0]
    outputs[0] = ((code + 1) % 3, out)
    record = json.loads(outputs[1][1])
    record["stats"] = {}
    outputs[1] = (outputs[1][0], json.dumps(record))
    report = gate.verify(workload, outputs, gate.load_games(workload))
    assert sorted(report.problems) == [0, 1]


def test_span_self_times_add_up_to_the_traced_pass():
    from upatl import cli

    workload = tiny("deep")
    argvs = [check.argv() for check in workload.checks]
    tracer = spans.Tracer()
    with tracer.installed():
        wall, _, _ = run._pass(cli, argvs, tracer)
    assert cli.main.__name__ == "main"  # restored
    header = tracer.write(ROOT / run.WORK / "test-spans")
    written = spans.read_spans(header)
    assert len(written["start"]) == len(tracer.start)
    recomputed = spans.self_times(written)
    unspanned = wall - tracer.root_time()
    assert 0 <= unspanned < wall
    assert sum(recomputed.values()) + unspanned == pytest.approx(wall, rel=1e-9)
    assert tracer.calls[spans.SPAN_NAMES.index("cli.main")] == len(argvs)
    assert tracer.calls[spans.SPAN_NAMES.index("checker.eval_knowledge")] > 0


def test_renaming_keeps_the_verdicts():
    plain = tiny("deep", seed=1)
    other = tiny("deep", seed=2)
    assert plain.games != other.games
    left = [json.loads(out)["verdict"] for _, out in first_outputs(plain)]
    right = [json.loads(out)["verdict"] for _, out in first_outputs(other)]
    assert left == right


def test_sweep_seed_renames_the_same_games_and_checks():
    one = workloads.build("sweep", 1, "w")
    two = workloads.build("sweep", 2, "w")
    assert one.games != two.games
    shape = [(c.horizon, len(c.formula), len(c.state)) for c in one.checks]
    assert shape == [(c.horizon, len(c.formula), len(c.state)) for c in two.checks]
    assert [len(text) for text in one.games.values()] == [len(text) for text in two.games.values()]


def test_check_medians_take_each_checks_median_over_passes():
    # Three passes of two checks, in pass order.
    samples = [0.3, 0.2, 0.1, 0.9, 0.5, 0.4]
    assert run._check_medians(samples, 2) == [0.3, 0.4]


def test_same_seed_same_inputs():
    a = workloads.build("sweep", 9, "w", tiny=False)
    b = workloads.build("sweep", 9, "w", tiny=False)
    assert a.games == b.games and a.checks == b.checks and a.order() == b.order()


def test_generator_templates_and_tree_counts_mirror_the_program():
    oracle = pytest.importorskip("upatl.oracle")
    if not hasattr(oracle, "generate_random_game") or not hasattr(oracle, "formula_templates"):
        pytest.skip("the program's generator has moved")
    from upatl.checker import enumerate_strategy_trees
    from upatl.formula import render_formula
    from upatl.gamespec import load_game, render_game

    for seed, (agents, states) in enumerate(workloads.SWEEP_SHAPES * 3):
        mine = workloads.random_game(seed, states=states, agents=agents)
        game = oracle.generate_random_game(
            oracle.GeneratorParams(seed=seed, states=states, agents=agents)
        )
        assert render_game(load_game(mine.text())) == render_game(game)
        expected = [render_formula(f, game) for f in oracle.formula_templates(game, include_deep=False)]
        assert [formula for formula, _ in workloads.sweep_templates(mine)] == expected
        for coalition in ([], mine.agents[:1], mine.agents):
            members = frozenset(mine.agents.index(a) for a in coalition)
            for k in (1, 2):
                trees = sum(1 for _ in enumerate_strategy_trees(game, 0, members, k))
                assert mine.strategy_trees(coalition, "q0", k) == trees


def test_bare_directory_exits_nonzero_without_a_result():
    bare = ROOT / run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

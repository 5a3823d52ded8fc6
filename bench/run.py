#!/usr/bin/env python3
"""Benchmark of the upatl checker on the working tree's ``src/``.

    python3 bench/run.py --workload deep --seed 1 --seconds 50 --trace 0

One client runs checks in a closed loop: each check is the in-process call
``upatl.cli.main(["check", GAME, "-f", FORMULA, "-k", K, "--format", "json"])``
with its output captured, and the next starts when it returns.  A pass runs
every check of the workload once, in a seeded order; passes repeat until
``--seconds`` of pass time is used.  Every output is then verified outside
the timed region (see ``gate.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
pass after the timed ones and prints the per-layer metrics instead.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run from the repository root; exits 2 without a
result when ``src/upatl`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = "bench/_work"
# Fresh-interpreter probes per run for ``setup_s`` and ``cold_check_s``.  They
# are spread evenly over the run, in the gaps between passes, so that they,
# like the passes, sample the whole run rather than one moment of the machine.
PROBES = 24

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "setup_s": "s",
    "cold_check_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "upatl" / "cli.py").is_file():
        print(f"error: no upatl sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_workload(name, seed, seconds, traced, tiny=False, log=print) -> dict:
    """Run one workload and return the result object the last line prints."""
    import upatl
    from upatl import cli

    import gate
    import spans

    if not Path(upatl.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"upatl imported from {upatl.__file__}, not from {SRC}")
    work = f"{WORK}/{name}-s{seed}{'-tiny' if tiny else ''}"
    workload = workloads.build(name, seed, work, tiny)
    workload.write(ROOT)
    games = gate.load_games(workload)
    order = workload.order()
    argvs = [workload.checks[i].argv() for i in order]
    _header(log, name, seed, upatl.__file__, workload)

    for path in workload.games:  # warm-up: one horizon-1 check per game
        first = next(c for c in workload.checks if c.game == path)
        _call(cli, first.argv()[:4] + ["-k", "1", "--format", "json"])

    first_outputs = None
    mismatches = []  # per pass: indices of checks whose output differs from the first pass
    pass_times, samples = [], []
    setup_times, cold_times, cold_differs = [], [], []  # probes, untraced runs only
    started = time.perf_counter()  # the run's time budget covers passes and probes
    while not pass_times or time.perf_counter() - started + statistics.mean(pass_times) / 2 < seconds:
        wall, times, outputs = _pass(cli, argvs)
        pass_times.append(wall)
        samples += times
        if first_outputs is None:
            first_outputs = [None] * len(outputs)
            for position, i in enumerate(order):
                first_outputs[i] = outputs[position]
            records = [gate.parse_output(stdout) for _, stdout in first_outputs]
        mismatches.append(_compare(order, outputs, first_outputs, records, gate))
        del outputs  # keep one pass of outputs alive, however many passes run
        used = 1.0 if seconds <= 0 else min(1.0, (time.perf_counter() - started) / seconds)
        while not traced and len(setup_times) < max(1, PROBES * used):
            setup_times.append(_setup_probe(workload))
            cold, differs = _cold_probe(workload, records[0], first_outputs[0][0], gate)
            cold_times.append(cold)
            cold_differs.append(differs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics: dict[str, float] = {}
    if traced:
        tracer = spans.Tracer()
        with tracer.installed():
            wall, _, outputs = _pass(cli, argvs, tracer)
        mismatches.append(_compare(order, outputs, first_outputs, records, gate))
        metrics.update(_layer_metrics(tracer, wall, statistics.median(pass_times), work, log))
        _log_groups(log, tracer, [workload.checks[i].group for i in order])
    else:
        # Each check's time is its median over the run's passes (README.md,
        # "Timing"), so that a stall of the machine moves it little.
        typical = _check_medians(samples, len(argvs))
        metrics["checks_per_s"] = len(argvs) / sum(typical)
        quantiles = statistics.quantiles([t * 1000.0 for t in typical], n=10)
        metrics["check_ms_p50"] = quantiles[4]
        metrics["check_ms_p90"] = quantiles[8]
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["cold_check_s"] = statistics.median(cold_times)
        metrics["peak_rss_mb"] = peak_rss_mb
        log(f"# passes {len(pass_times)}, pass seconds "
            f"{' '.join(f'{t:.3f}' for t in pass_times)}, samples {len(samples)}, "
            f"{len(setup_times)} set-up and {len(cold_times)} cold-start probes")

    report = gate.verify(workload, first_outputs, games)
    # Every run of a check counts: it fails when the check's first output
    # fails the gate or when that run's output differs from the first one.
    failing = set(report.problems)
    attempted = len(argvs) * len(mismatches) + len(cold_differs)
    failed = sum(len(failing | differs) for differs in mismatches)
    failed += sum(1 for differs in cold_differs if differs or 0 in failing)
    _log_gate(log, workload, report, first_outputs, samples, order)
    if traced:
        stats = report.oracle
        metrics["oracle.brute_force_eval.calls"] = stats.calls
        metrics["oracle.brute_force_eval.s"] = stats.seconds
        metrics["oracle.budget_exceeded"] = stats.budget_exceeded
    for key, value in metrics.items():
        log(f"{key} = {value:.6g}")
    units = END_TO_END_UNITS if not traced else _layer_units()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def _check_medians(samples: list[float], per_pass: int) -> list[float]:
    """Each check's median time over the passes, by position in a pass."""
    return [statistics.median(samples[position::per_pass]) for position in range(per_pass)]


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _pass(cli, argvs, tracer=None):
    """One timed pass: wall time, per-check times, (exit code, stdout) each."""
    times, outputs = [], []
    started = time.perf_counter()
    for position, argv in enumerate(argvs):
        if tracer is not None:
            tracer.check_id = position
        t0 = time.perf_counter()
        outputs.append(_call(cli, argv))
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - started, times, outputs


def _compare(order, outputs, first_outputs, records, gate) -> set[int]:
    """Indices of the checks whose output in a pass differs from the first pass's."""
    return {
        i
        for position, i in enumerate(order)
        if outputs[position][0] != first_outputs[i][0]
        or not gate.same_answer(gate.parse_output(outputs[position][1]), records[i])
    }


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _setup_probe(workload) -> float:
    """Wall time of a fresh interpreter importing the CLI and binding every game."""
    argv = [sys.executable, str(HERE / "probe.py"), *workload.games]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    where, count = done.stdout.split()
    if done.returncode != 0 or not Path(where).resolve().is_relative_to(SRC) or int(count) != len(workload.games):
        raise RuntimeError(f"set-up probe failed: {done.stdout} {done.stderr}")
    return elapsed


def _cold_probe(workload, record, code, gate) -> tuple[float, bool]:
    """Wall time of ``python -m upatl.cli check`` on the first check, and
    whether its answer differs from the in-process one."""
    argv = [sys.executable, "-m", "upatl.cli", *workload.checks[0].argv()]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    return elapsed, done.returncode != code or not gate.same_answer(gate.parse_output(done.stdout), record)


def _git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _header(log, name, seed, upatl_file, workload) -> None:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    log(f"# python {platform.python_version()} ({sys.executable})")
    log(f"# nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), load average {load}")
    log(f"# git commit {_git_commit()}")
    log(f"# workload {name}, seed {seed}, {len(workload.games)} games, {len(workload.checks)} checks per pass")
    log(f"# upatl imported from {upatl_file}")


def _log_gate(log, workload, report, first_outputs, samples, order) -> None:
    verdicts: dict[str, int] = {}
    for code, _ in first_outputs:
        verdicts[str(code)] = verdicts.get(str(code), 0) + 1
    log(f"# exit codes of the distinct checks: {dict(sorted(verdicts.items()))}")
    if len(workload.checks) <= 20:
        per_check = len(workload.checks)
        for position, i in enumerate(order):
            check = workload.checks[i]
            times = samples[position::per_check]
            best, median = min(times) * 1000.0, statistics.median(times) * 1000.0
            log(f"#   {best:9.2f} ms best {median:9.2f} ms median  exit {first_outputs[i][0]}  k={check.horizon}  "
                f"{Path(check.game).name}  {check.formula}")
    stats = report.oracle
    log(f"# oracle: {stats.exact + stats.lower + stats.undecided} checks sampled, "
        f"{stats.exact} agree at their own horizon, {stats.lower} agree with a decided "
        f"lower horizon, {stats.undecided} undecided by the oracle within budget; "
        f"{stats.calls} oracle calls in {stats.seconds:.2f} s")
    for i, problems in list(report.problems.items())[:10]:
        log(f"# FAILED {workload.checks[i].argv()}: {'; '.join(problems)}")


# -- per-layer metrics ----------------------------------------------------------

# Inclusive times, reported for spans that are not re-entered.  The top-level
# verdict and the two certificate searches split the checker's time.
INCLUSIVE = [
    "gamespec.load_game",
    "formula.parse_formula",
    "checker.eval_path_formula",
    "checker.find_winning_strategy",
    "checker.find_falsifying_pair",
    "model.GameStructure.joint_actions",
]
COUNTS = {
    "trace.outcomes_bounded.paths": "trace.outcomes_bounded",
    "trace.indistinguishability_class.paths": "trace.indistinguishability_class",
    "checker.enumerate_strategy_trees.trees": "checker.enumerate_strategy_trees",
}


def _layer_units() -> dict[str, str]:
    import spans

    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{name}.s": "s" for name in INCLUSIVE})
    units.update({key: "count" for key in COUNTS})
    units["checker.witness_found_ratio"] = "ratio"
    units["oracle.brute_force_eval.calls"] = "count"
    units["oracle.brute_force_eval.s"] = "s"
    units["oracle.budget_exceeded"] = "count"
    units["tracing.overhead_ratio"] = "ratio"
    units["tracing.unspanned_s"] = "s"
    return units


def _layer_metrics(tracer, wall, untraced_wall, work, log) -> dict[str, float]:
    """Per-layer figures of the traced pass; checks that self times add up."""
    import spans

    metrics: dict[str, float] = {}
    for index, name in enumerate(spans.SPAN_NAMES):
        metrics[f"{name}.calls"] = tracer.calls[index]
        metrics[f"{name}.self_s"] = tracer.self_time[index]
        if name in INCLUSIVE:
            metrics[f"{name}.s"] = tracer.total[index]
    for key, name in COUNTS.items():
        metrics[key] = tracer.counted[name]
    wins = spans.SPAN_NAMES.index("checker.find_winning_strategy")
    metrics["checker.witness_found_ratio"] = (
        tracer.counted["checker.find_winning_strategy"] / tracer.calls[wins]
        if tracer.calls[wins] else 0.0
    )
    unspanned = wall - tracer.root_time()
    metrics["tracing.overhead_ratio"] = wall / untraced_wall
    metrics["tracing.unspanned_s"] = unspanned

    header = tracer.write(ROOT / work)
    if abs(sum(tracer.self_time) + unspanned - wall) > 1e-6 * wall:
        raise RuntimeError("span self times do not add up to the traced pass time")
    log(f"# traced pass {wall:.3f} s = self times {sum(tracer.self_time):.3f} s "
        f"+ unspanned {unspanned:.3f} s; {len(tracer.start)} spans in {header}")
    for i in sorted(range(len(spans.SPAN_NAMES)), key=lambda i: -tracer.self_time[i]):
        log(f"#   {tracer.self_time[i]:9.4f} s self {100 * tracer.self_time[i] / wall:5.1f}%  "
            f"{tracer.calls[i]:9d} calls  {spans.SPAN_NAMES[i]}")
    return metrics


def _log_groups(log, tracer, groups: list[str]) -> None:
    """The largest self times of each group of rows in the traced pass."""
    import spans

    if len(set(groups)) < 2:
        return
    written = {"names": spans.SPAN_NAMES, "start": tracer.start, "end": tracer.end,
               "name": tracer.name, "parent": tracer.parent, "check": tracer.check}
    for group in dict.fromkeys(groups):
        checks = {position for position, g in enumerate(groups) if g == group}
        times = spans.self_times(written, checks)
        total = sum(times.values())
        top = sorted(times.items(), key=lambda item: -item[1])[:5]
        log(f"# {group} rows: {total:.3f} s in spans; "
            + ", ".join(f"{name} {100 * t / total:.0f}%" for name, t in top))


if __name__ == "__main__":
    sys.exit(main())

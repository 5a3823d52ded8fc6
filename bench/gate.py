"""The correctness gate: every check's output is verified outside the timed region.

A record passes when its exit code matches its verdict, it has exactly the
keys the README documents, it echoes its inputs, its certificate re-checks
through ``trace.outcomes_bounded`` and ``checker.eval_temporal``, its verdict
equals any pinned decided verdict, and, for the seeded oracle sample, its
verdict agrees with ``oracle.brute_force_eval`` at its own horizon or with a
decided oracle verdict at a lower one (decided verdicts never flip as the
horizon grows).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from upatl import checker, formula, gamespec, oracle, trace

RECORD_KEYS = {
    "command", "game", "formula", "state", "horizon", "verdict", "witness",
    "falsifying", "elapsed_ms",
}
VERDICT_EXIT = {"TRUE": 0, "FALSE": 1, "UNKNOWN": 2}
# Work units per oracle call; about half a second at most on the slowest
# instances, so the sample stays a few seconds per run.
ORACLE_BUDGET = 100_000


@dataclass
class OracleStats:
    calls: int = 0
    seconds: float = 0.0
    budget_exceeded: int = 0
    exact: int = 0  # agreed at the check's own horizon
    lower: int = 0  # agreed with a decided verdict at a lower horizon
    undecided: int = 0  # oracle fit only at lower horizons, and said UNKNOWN there


@dataclass
class GateReport:
    problems: dict[int, list[str]] = field(default_factory=dict)  # check index
    oracle: OracleStats = field(default_factory=OracleStats)


def parse_output(stdout: str) -> dict | None:
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def same_answer(left: dict | None, right: dict | None) -> bool:
    """Records agree on everything but the elapsed time."""
    if left is None or right is None:
        return False
    return {k: v for k, v in left.items() if k != "elapsed_ms"} == {
        k: v for k, v in right.items() if k != "elapsed_ms"
    }


def verify(workload, outputs, games) -> GateReport:
    """Check the first output of every distinct check of ``workload``.

    ``outputs[i]`` is ``(exit code, stdout)`` of check ``i``; ``games`` maps
    each game path to its bound ``GameStructure``.
    """
    report = GateReport()
    sample = set(
        random.Random(workload.seed * 31 + 5).sample(
            range(len(workload.checks)),
            min(workload.oracle_sample, len(workload.checks)),
        )
    )
    for i, check in enumerate(workload.checks):
        code, stdout = outputs[i]
        problems = _check_one(check, code, stdout, games[check.game], i in sample, report.oracle)
        if problems:
            report.problems[i] = problems
    return report


def _check_one(check, code, stdout, game, with_oracle, stats) -> list[str]:
    record = parse_output(stdout)
    if record is None:
        return [f"not one JSON record (exit {code})"]
    if set(record) != RECORD_KEYS:
        return [f"record keys {sorted(record)}"]
    verdict = record["verdict"]
    problems = []
    if VERDICT_EXIT.get(verdict) != code:
        problems.append(f"exit {code} for verdict {verdict}")
    state = game.init_state if check.state is None else game.state_names.index(check.state)
    echoed = {
        "command": "check",
        "game": check.game,
        "formula": check.formula,
        "state": game.state_names[state],
        "horizon": check.horizon,
    }
    for key, value in echoed.items():
        if record[key] != value:
            problems.append(f"{key} is {record[key]!r}, expected {value!r}")
    if not isinstance(record["elapsed_ms"], (int, float)) or record["elapsed_ms"] < 0:
        problems.append("bad elapsed_ms")
    if check.expected is not None and verdict != check.expected:
        problems.append(f"verdict {verdict}, pinned {check.expected}")
    if problems:
        return problems

    f = formula.parse_formula(check.formula, game)
    root = trace.Path((state,))
    ctx = checker.EvalContext(
        game, root, 1, checker.canonical_assignment(game), check.horizon
    )
    problems += _check_certificates(record, f, game, root, ctx)
    if with_oracle:
        problems += _check_oracle(verdict, f, game, root, ctx, stats)
    return problems


def _check_certificates(record, f, game, root, ctx) -> list[str]:
    verdict, witness, falsifying = record["verdict"], record["witness"], record["falsifying"]
    if not isinstance(f, formula.Strat) or verdict == "UNKNOWN":
        if witness is not None or falsifying is not None:
            return ["certificate where none belongs"]
        return []
    if verdict == "TRUE":
        if witness is None or falsifying is not None:
            return ["TRUE without exactly a witness"]
        try:
            outcomes = _outcomes(game, root, f, ctx.horizon, witness)
        except (KeyError, ValueError, TypeError) as err:
            return [f"witness does not re-check: {err}"]
        if not outcomes:
            return ["witness has no outcomes"]
        if any(checker.eval_temporal(ctx, f.goal, o) is not checker.Verdict.TRUE for o in outcomes):
            return ["witness has an outcome that is not TRUE"]
        return []
    if falsifying is None or witness is not None:
        return ["FALSE without exactly a falsifier"]
    try:
        outcomes = _outcomes(game, root, f, ctx.horizon, falsifying["strategy"])
        outcome = falsifying["outcome"]
        path = None if outcome is None else _path_from_json(game, outcome)
    except (KeyError, ValueError, TypeError) as err:
        return [f"falsifier does not re-check: {err}"]
    if path is None:
        return [] if not outcomes else ["falsifier without outcome, but outcomes exist"]
    if path not in outcomes:
        return ["falsifying outcome is not an outcome of the falsified tree"]
    if checker.eval_temporal(ctx, f.goal, path) is not checker.Verdict.FALSE:
        return ["falsifying outcome does not evaluate FALSE"]
    return []


def _outcomes(game, root, f, horizon, data) -> frozenset:
    tree = tree_from_json(game, data)
    if tree.coalition != f.coalition or tree.pivot != root.last_state or tree.depth != horizon:
        raise ValueError("tree does not match the formula, state and horizon")
    return trace.outcomes_bounded(game, root, tree, horizon)


def tree_from_json(game, data: dict) -> trace.StrategyTree:
    """The strategy tree of the README's JSON shape; raises on malformed input."""
    members = sorted(game.agent_names.index(name) for name in data["coalition"])
    pivot = game.state_names.index(data["pivot"])
    decisions = {}

    def walk(node: dict, history: tuple[int, ...]) -> None:
        if members:
            decisions[history] = tuple(
                game.action_names.index(node["actions"][game.agent_names[a]])
                for a in members
            )
        for name, child in node["children"].items():
            walk(child, history + (game.state_names.index(name),))

    walk(data["root"], (pivot,))
    return trace.StrategyTree(frozenset(members), pivot, int(data["depth"]), decisions)


def _path_from_json(game, items: list) -> trace.Path:
    states = tuple(game.state_names.index(name) for name in items[0::2])
    actions = tuple(
        tuple(game.action_names.index(x) for x in joint) for joint in items[1::2]
    )
    return trace.Path(states, actions)


def _check_oracle(verdict, f, game, root, ctx, stats: OracleStats) -> list[str]:
    """Compare with the oracle at the highest horizon it decides within budget."""
    best = None
    for k in range(ctx.horizon + 1):
        stats.calls += 1
        started = time.perf_counter()
        try:
            best = (k, oracle.brute_force_eval(
                game, root, 1, ctx.assignment, f, k, budget=ORACLE_BUDGET
            ).value)
        except oracle.BudgetExceeded:
            stats.budget_exceeded += 1
            break
        finally:
            stats.seconds += time.perf_counter() - started
    if best is None:
        stats.undecided += 1
        return []
    k, expected = best
    if k == ctx.horizon:
        stats.exact += 1
        return [] if verdict == expected else [f"oracle says {expected} at k={k}"]
    if expected == "UNKNOWN":
        stats.undecided += 1
        return []
    stats.lower += 1
    return [] if verdict == expected else [f"oracle says {expected} already at k={k}"]


def load_games(workload) -> dict:
    return {path: gamespec.load_game(text) for path, text in workload.games.items()}

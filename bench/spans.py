"""Spans recorded from outside the program, by wrapping its public functions.

Each wrapper replaces a function under the name its caller looks it up by
(``upatl.checker.indistinguishability_class`` is what ``eval_knowledge``
calls, ``upatl.cli.load_game`` what ``_read_game`` calls) and records one
span per call: name, start, end, parent span and the id of the check it
belongs to.  Spans stay in memory and are written out at the end.  A span's
self time is its duration minus its children's, so the self times of all
spans plus the time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from upatl import checker, cli, model, trace

# (owner, attribute, span name, how to count the result or None).
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "load_game", "gamespec.load_game", None),
    (cli, "parse_formula", "formula.parse_formula", None),
    (cli, "eval_path_formula", "checker.eval_path_formula", None),
    (cli, "find_winning_strategy", "checker.find_winning_strategy", lambda r: r is not None),
    (cli, "find_falsifying_pair", "checker.find_falsifying_pair", None),
    (checker, "eval_strategic", "checker.eval_strategic", None),
    (checker, "eval_temporal", "checker.eval_temporal", None),
    (checker, "eval_knowledge", "checker.eval_knowledge", None),
    (checker, "indistinguishability_class", "trace.indistinguishability_class", len),
    (checker, "compatible_assignments", "trace.compatible_assignments", None),
    (checker, "outcomes_bounded", "trace.outcomes_bounded", len),
    (trace, "validate_strategy_tree", "trace.validate_strategy_tree", None),
    (model.GameStructure, "joint_actions", "model.GameStructure.joint_actions", None),
]
# Generators are counted per item, not spanned: their frames run inside
# whichever span pulls the next item.
COUNTED_GENERATORS = [
    (checker, "enumerate_strategy_trees", "checker.enumerate_strategy_trees"),
]
SPAN_NAMES = [name for _, _, name, _ in TARGETS]


class Tracer:
    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.check = array("i")
        self.check_id = -1
        self.calls = [0] * len(TARGETS)
        self.total = [0.0] * len(TARGETS)  # inclusive time
        self.self_time = [0.0] * len(TARGETS)
        self.counted = {name: 0 for _, _, name, count in TARGETS if count is not None}
        self.counted.update({name: 0 for _, _, name in COUNTED_GENERATORS})
        self._stack: list[list] = []  # [span index, time covered by children]

    def _wrap(self, index: int, fn, count):
        stack = self._stack
        name = SPAN_NAMES[index]

        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1][0] if stack else -1)
            self.check.append(self.check_id)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self.start[span] = t0
                self.end[span] = t1
                self.calls[index] += 1
                self.total[index] += duration
                self.self_time[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                self.counted[name] += count(result)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counted[name] += 1
                yield item

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target that exists at this commit; restore on exit."""
        saved = []
        try:
            for index, (owner, attr, _, count) in enumerate(TARGETS):
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self._wrap(index, getattr(owner, attr), count))
            for owner, attr, name in COUNTED_GENERATORS:
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self._counting(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def root_time(self) -> float:
        """Summed duration of the spans without a parent."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def write(self, directory: Path) -> Path:
        """Write the spans as a JSON header plus one binary array per field."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"start": self.start, "end": self.end, "name": self.name,
                  "parent": self.parent, "check": self.check}
        with open(directory / "spans.bin", "wb") as handle:
            for values in fields.values():
                values.tofile(handle)
        header = {
            "names": SPAN_NAMES,
            "count": len(self.start),
            "fields": [[key, values.typecode] for key, values in fields.items()],
        }
        (directory / "spans.json").write_text(json.dumps(header), encoding="utf-8")
        return directory / "spans.json"


def read_spans(header_path: Path) -> dict:
    """The arrays ``Tracer.write`` wrote, by field name, plus ``names``."""
    header = json.loads(header_path.read_text(encoding="utf-8"))
    out = {"names": header["names"]}
    with open(header_path.with_name("spans.bin"), "rb") as handle:
        for key, typecode in header["fields"]:
            values = array(typecode)
            values.fromfile(handle, header["count"])
            out[key] = values
    return out


def self_times(spans: dict, checks: set[int] | None = None) -> dict[str, float]:
    """Per-name self time recomputed from written spans, of the spans that
    belong to ``checks`` (check ids, positions in the pass) or of all."""
    covered = [0.0] * len(spans["start"])
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            covered[parent] += spans["end"][i] - spans["start"][i]
    out = {name: 0.0 for name in spans["names"]}
    for i, index in enumerate(spans["name"]):
        if checks is None or spans["check"][i] in checks:
            out[spans["names"][index]] += spans["end"][i] - spans["start"][i] - covered[i]
    return out

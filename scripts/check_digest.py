#!/usr/bin/env python3
"""Digest of ``upatl check``'s output over the example games.

Runs ``check`` in process, in text and in JSON, for every formula template
of every game in ``games/*.game``, from every state, at horizons 0 to
``K_MAX``.  Prints the sha256 of what the runs wrote: each one's stdout,
stderr and exit code, with the ``elapsed_ms`` line of the JSON record
removed.  The output must not depend on the hash seed, so these print the
same digest:

    for seed in 0 1 987654; do
        PYTHONHASHSEED=$seed python3 scripts/check_digest.py
    done
"""

import contextlib
import hashlib
import io
import os
import sys
import time
from pathlib import Path as FsPath

from upatl import cli
from upatl.formula import render_formula
from upatl.gamespec import load_game
from upatl.oracle import formula_templates

ROOT = FsPath(__file__).resolve().parent.parent
# The one line of a check record that differs from run to run.
ELAPSED = '  "elapsed_ms": '
K_MAX = 4


def main() -> int:
    # The record names the game file as given, so name it from the root.
    os.chdir(ROOT)
    started = time.perf_counter()
    digest, runs = hashlib.sha256(), 0
    for path in sorted(FsPath("games").glob("*.game")):
        game = load_game(path.read_text(encoding="utf-8"))
        for f in formula_templates(game):
            text = render_formula(f, game)
            for state in game.state_names:
                for k in range(K_MAX + 1):
                    for form in ("text", "json"):
                        argv = ["check", str(path), "-f", text, "-s", state]
                        argv += ["-k", str(k), "--format", form]
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out):
                            with contextlib.redirect_stderr(err):
                                code = cli.main(argv)
                        lines = out.getvalue().splitlines(keepends=True)
                        kept = [x for x in lines if not x.startswith(ELAPSED)]
                        parts = (" ".join(argv), *kept, err.getvalue(), str(code))
                        for part in parts:
                            digest.update(part.encode() + b"\0")
                        runs += 1
    elapsed = time.perf_counter() - started
    print(f"{digest.hexdigest()}  {runs} runs, {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Profile how verdicts sharpen as the horizon grows.

Samples random (game, state, formula) instances, over the example games in
``games/*.game`` and randomly generated games, and tabulates the verdict
distribution per horizon.  Decided verdicts never flip, so the UNKNOWN
column can only shrink as k increases; this shows how quickly it does on
random instances.  The last line is the wall time of the checks.

    python3 scripts/horizon_profile.py --instances 300 --k-max 5
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path as FsPath

from upatl.checker import Verdict, check_state
from upatl.gamespec import load_game
from upatl.oracle import GeneratorParams, formula_templates, generate_random_game

GAMES_DIR = FsPath(__file__).resolve().parent.parent / "games"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--games", type=int, default=12)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    games = [
        load_game(path.read_text(encoding="utf-8"))
        for path in sorted(GAMES_DIR.glob("*.game"))
    ]
    for i in range(args.games):
        games.append(
            generate_random_game(
                GeneratorParams(seed=args.seed + 10_000 + i, states=2 + i % 2, agents=2)
            )
        )
    pool = [
        (game, f)
        for game in games
        for f in formula_templates(game, include_deep=False)
    ]

    started = time.perf_counter()
    counts = {k: Counter() for k in range(args.k_max + 1)}
    flips = 0
    for _ in range(args.instances):
        game, f = pool[rng.randrange(len(pool))]
        q = rng.randrange(len(game.state_names))
        previous = None
        for k in range(args.k_max + 1):
            verdict = check_state(game, q, f, k)
            counts[k][verdict] += 1
            if previous is not None and previous is not Verdict.UNKNOWN:
                if verdict is not previous:
                    flips += 1
            previous = verdict
    elapsed = time.perf_counter() - started
    header = f"{'k':>3} {'TRUE':>8} {'FALSE':>8} {'UNKNOWN':>8}"
    print(header)
    for k in range(args.k_max + 1):
        row = counts[k]
        print(
            f"{k:>3} {row[Verdict.TRUE]:>8} {row[Verdict.FALSE]:>8} "
            f"{row[Verdict.UNKNOWN]:>8}"
        )
    print(f"decided-verdict flips: {flips}")
    print(f"elapsed: {elapsed:.1f}s")
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main())

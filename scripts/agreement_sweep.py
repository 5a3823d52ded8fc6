#!/usr/bin/env python3
"""Sweep the bounded checker against the brute-force oracle.

Runs every formula template over the example games in ``games/*.game`` and
randomly generated games, comparing verdicts at each horizon.  Any disagreement is printed
and the script exits nonzero; this is the open-ended version of the pinned
agreement test in the acceptance suite.

    python3 scripts/agreement_sweep.py --games 40 --seed 1234 --k-max 3
"""

import argparse
import sys
import time
from pathlib import Path as FsPath

from upatl.checker import canonical_assignment, check_state
from upatl.formula import render_formula
from upatl.gamespec import load_game
from upatl.oracle import (
    BudgetExceeded,
    GeneratorParams,
    brute_force_eval,
    formula_templates,
    generate_random_game,
)
from upatl.trace import Path

GAMES_DIR = FsPath(__file__).resolve().parent.parent / "games"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k-max", type=int, default=3)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--agents", type=int, default=2)
    args = parser.parse_args()

    games = [
        load_game(path.read_text(encoding="utf-8"))
        for path in sorted(GAMES_DIR.glob("*.game"))
    ]
    for i in range(args.games):
        games.append(
            generate_random_game(
                GeneratorParams(
                    seed=args.seed + i,
                    states=args.states,
                    agents=args.agents,
                )
            )
        )

    started = time.perf_counter()
    compared = skipped = mismatched = 0
    for game in games:
        lam = canonical_assignment(game)
        for f in formula_templates(game):
            for horizon in range(args.k_max + 1):
                for q in game.states:
                    try:
                        expected = brute_force_eval(
                            game, Path((q,)), 1, lam, f, horizon
                        )
                    except BudgetExceeded:
                        skipped += 1
                        continue
                    got = check_state(game, q, f, horizon)
                    compared += 1
                    if got is not expected:
                        mismatched += 1
                        print(
                            f"MISMATCH {game.name} {game.state_names[q]} "
                            f"k={horizon} {render_formula(f, game)}: "
                            f"oracle={expected.value} checker={got.value}"
                        )
    elapsed = time.perf_counter() - started
    print(
        f"{compared} comparisons over {len(games)} games, "
        f"{mismatched} mismatches, {skipped} beyond oracle budget, "
        f"{elapsed:.1f}s"
    )
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: import ``upatl.cli``, then load and bind every game given.

    PYTHONPATH=src python3 bench/probe.py GAME_FILE...

Run in a fresh interpreter by ``run.py``, which times it from process start
to exit.  Prints the path ``upatl`` was imported from and the number of
games bound, so the caller can check that it measured the intended code.
"""

import sys

import upatl.cli  # noqa: F401 - importing the CLI is part of set-up
from upatl.gamespec import load_game

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        load_game(handle.read())
print(upatl.__file__, len(sys.argv) - 1)

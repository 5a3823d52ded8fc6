"""The benchmark's workloads: generated ``.game`` files and the checks run on them.

Everything here is built from the workload seed alone and written as text, so
the checker under test sees only game files and formula strings.  The random
game generator and the formula templates mirror ``upatl.oracle`` at the
commit that introduced this benchmark, but are kept here so that the inputs
do not change when the program's own generator moves or changes.

See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("deep", "sweep")

# Words of the game format and the formula syntax that are never renamed.
_KEYWORDS = {
    "game", "agents", "capacities", "actions", "states", "init", "labels",
    "protocol", "transitions", "true", "false", "N", "U", "R", "F", "G", "K",
}
_IDENT = re.compile(r"[A-Za-z_]\w*")


@dataclass
class Check:
    """One ``upatl check`` call and what the benchmark knows about its answer.

    ``expected`` is a decided verdict (TRUE or FALSE) that must never change,
    or None when only the oracle and the certificate checks apply.  UNKNOWN is
    never pinned: a later, sharper checker may soundly decide it.
    """

    game: str  # path of the generated game file, relative to the repo root
    formula: str
    horizon: int
    state: str | None = None
    expected: str | None = None
    group: str = ""  # the set of rows it belongs to, for the traced breakdown

    def argv(self) -> list[str]:
        args = ["check", self.game, "-f", self.formula, "-k", str(self.horizon)]
        if self.state is not None:
            args += ["-s", self.state]
        return args + ["--format", "json"]


@dataclass
class Workload:
    name: str
    seed: int
    games: dict[str, str]  # file path -> game text
    checks: list[Check]  # canonical order; the first is the cold-start instance
    oracle_sample: int  # how many distinct checks the oracle re-decides

    def order(self) -> list[int]:
        """The seeded order in which every pass runs the checks."""
        order = list(range(len(self.checks)))
        random.Random(self.seed * 7919 + 1).shuffle(order)
        return order

    def write(self, root: Path) -> None:
        for path, text in self.games.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")


# -- random games -------------------------------------------------------------


@dataclass
class RandomGame:
    """A generated game, by name, in declaration order."""

    name: str
    agents: list[str]
    capacities: dict[str, list[str]]  # agent -> capacities
    actions: dict[str, list[str]]  # capacity -> actions
    states: list[str]
    labels: dict[str, list[str]]  # state -> propositions
    protocol: dict[tuple[str, str], list[str]]  # (agent, state) -> actions
    transitions: dict[tuple[str, tuple[str, ...]], str]

    def text(self) -> str:
        lines = [f"game {self.name}", "", "agents:", "  " + ", ".join(self.agents)]
        lines += ["", "capacities:"]
        lines += [f"  {a}: {', '.join(self.capacities[a])}" for a in self.agents]
        lines += ["", "actions:"]
        lines += [f"  {c}: {', '.join(acts)}" for c, acts in self.actions.items()]
        lines += ["", "states:", "  " + ", ".join(self.states), "", f"init: {self.states[0]}"]
        lines += ["", "labels:"]
        lines += [f"  {q}: {', '.join(ps)}" for q, ps in self.labels.items() if ps]
        lines += ["", "protocol:"]
        lines += [f"  {a} @ {q}: {', '.join(acts)}" for (a, q), acts in self.protocol.items()]
        lines += ["", "transitions:"]
        lines += [
            f"  {q} ({', '.join(joint)}) -> {target}"
            for (q, joint), target in self.transitions.items()
        ]
        return "\n".join(lines) + "\n"

    def strategy_trees(self, coalition: list[str], state: str, depth: int) -> int:
        """How many trees ``checker.enumerate_strategy_trees`` would yield.

        A node at a history of length ``depth`` has no children; otherwise each
        coalition choice multiplies the counts below every successor it allows.
        """
        members = [self.agents.index(a) for a in coalition]
        if not members or depth == 0:
            return 1
        count: dict[tuple[str, int], int] = {}

        def below(q: str, left: int) -> int:
            if (q, left) not in count:
                total = 0
                for choice in itertools.product(*(self.protocol[(self.agents[i], q)] for i in members)):
                    successors = {
                        target
                        for (p, joint), target in self.transitions.items()
                        if p == q and all(joint[i] == x for i, x in zip(members, choice))
                    }
                    product = 1
                    for target in successors if left else ():
                        product *= below(target, left - 1)
                    total += product
                count[(q, left)] = total
            return count[(q, left)]

        return below(state, depth - 1)


def random_game(seed: int, states: int, agents: int) -> RandomGame:
    """A game drawn exactly as ``oracle.generate_random_game`` draws it.

    Two capacities per agent, one or two actions per capacity, label density
    one half; protocols are repaired so every capacity keeps a move.
    """
    rng = random.Random(seed)
    agent_names = [f"ag{i + 1}" for i in range(agents)]
    state_names = [f"q{i}" for i in range(states)]
    pool = [f"act{i + 1}" for i in range(4)]
    capacities: dict[str, list[str]] = {}
    actions: dict[str, list[str]] = {}
    for i, agent in enumerate(agent_names):
        capacities[agent] = [f"c{i + 1}_{j + 1}" for j in range(2)]
        for cap in capacities[agent]:
            actions[cap] = sorted(rng.sample(pool, rng.randint(1, 2)))
    labels = {q: [p for p in ("p1", "p2") if rng.random() < 0.5] for q in state_names}
    protocol: dict[tuple[str, str], list[str]] = {}
    for agent in agent_names:
        allowed = sorted({x for c in capacities[agent] for x in actions[c]})
        for q in state_names:
            chosen = {rng.choice(allowed)}
            for cap in capacities[agent]:
                if not chosen & set(actions[cap]):
                    chosen.add(rng.choice(sorted(actions[cap])))
            protocol[(agent, q)] = sorted(chosen)
    transitions = {
        (q, joint): rng.choice(state_names)
        for q in state_names
        for joint in itertools.product(*(protocol[(a, q)] for a in agent_names))
    }
    return RandomGame(
        f"random{seed}", agent_names, capacities, actions, state_names, labels,
        protocol, transitions,
    )


def sweep_templates(game: RandomGame) -> list[tuple[str, list[str] | None]]:
    """``oracle.formula_templates(game, include_deep=False)`` as rendered text.

    Each formula comes with its strategic coalition, or None when it has no
    strategic operator.
    """
    props = list(dict.fromkeys(p for ps in game.labels.values() for p in ps))
    atoms = props[:2] or ["true"]
    a0 = atoms[0]
    a1 = atoms[1] if len(atoms) > 1 else "true"
    hascaps = [f"{a}={c}" for a in game.agents for c in game.capacities[a][:2]][:4]
    coalitions = [[]] + [[a] for a in game.agents]
    if len(game.agents) > 1:
        coalitions.append(game.agents)
    if len(game.agents) == 3:
        coalitions.append(game.agents[:2])
    viewers = game.agents[:2]

    out = list(atoms) + [f"!{a}" for a in atoms]
    out += [f"{a0} & {a1}", f"{a0} & !{a1}"]
    out += [f"K[{v}]({hc})" for v in viewers for hc in hascaps[:2]]
    out += [f"!K[{viewers[0]}]({hascaps[0]})", f"K[{viewers[0]}](!{hascaps[0]})"]
    if len(hascaps) >= 2:
        out.append(f"K[{viewers[0]}]({hascaps[0]} & !{hascaps[1]})")
    templates = {formula: None for formula in out}
    for members in coalitions:
        c = "<<" + ", ".join(members) + ">>"
        for goal in (
            f"N {a0}", f"N !{a0}", f"({a0}) U ({a1})", f"(true) U ({a0})",
            f"({a0}) R ({a1})", f"(!true) R ({a0})",
        ):
            templates.setdefault(f"{c} {goal}", members)
    return list(templates.items())


# -- seeded renaming ----------------------------------------------------------


def renamer(seed: int, texts: list[str]):
    """A function renaming every declared identifier of ``texts`` afresh.

    Names become seeded strings of one fixed length.  Declaration order, and
    so every id the checker assigns and every order it searches in, is kept:
    a renamed game costs the same to check as the original.
    """
    rng = random.Random(seed * 104729 + 17)
    mapping: dict[str, str] = {}
    for text in texts:
        for name in _IDENT.findall(text):
            if name in _KEYWORDS or name in mapping:
                continue
            fresh = "x" + "".join(rng.choices("abcdefghijkmnpqrstuvwxyz", k=6))
            while fresh in mapping.values():
                fresh = "x" + "".join(rng.choices("abcdefghijkmnpqrstuvwxyz", k=6))
            mapping[name] = fresh
    return lambda text: _IDENT.sub(lambda m: mapping.get(m.group(), m.group()), text)


# -- the two workloads --------------------------------------------------------

# ``deep`` runs the strategic rows, then the knowledge rows.  They are one
# workload so that each of the two workloads the run time allows gets long
# runs (README.md, "Timing"); the trace still splits them by check.
#
# (game, formula, horizon, decided verdict or None).  The first row is the
# cold-start instance; it is a cheap row so that ``cold_check_s`` measures
# start-up rather than search, which the passes measure.
_STRATEGIC = [
    # Also keeps the knowledge spans non-empty at negligible cost.
    ("hand_mix", "K[obs](opp=lefty)", 1, "FALSE"),
    ("hand_mix", "<<opp>> F leftHit", 10, "TRUE"),
    ("hand_mix", "<<opp>> N rightHit", 10, "TRUE"),
    ("hand_mix", "<<opp>> F <<opp>> N rightHit", 5, "TRUE"),
    ("hand", "<<obs>> N leftHit", 8, "FALSE"),
    ("hand_mix", "<<opp>> G start", 8, None),
    ("random3", "<<ag1>> F <<ag2>> N true", 4, "TRUE"),
]

_KNOWLEDGE_GOALS = [
    ("<<opp>> F K[obs](opp=lefty)", "TRUE"),
    ("<<opp>> (!K[obs](opp=lefty)) U rightHit", "TRUE"),
    ("<<obs,opp>> F (leftHit & K[obs](opp=lefty))", "TRUE"),
    ("<<obs>> G (start | K[obs](opp=lefty) | K[obs](opp=righty))", None),
]
_KNOWLEDGE = [
    # The falsifier path, on a knowledge goal.
    ("hand_mix", "<<obs>> N K[obs](opp=righty)", 6, "FALSE"),
] + [
    ("hand_mix", formula, k, expected)
    for k in (8, 10)
    for formula, expected in _KNOWLEDGE_GOALS
] + [
    ("hand_mix", "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))", 8, None),
]

# Sweep: every (agents, states) shape gets the same number of games.  The
# games and the checks sampled on them are fixed (generator seeds 0 to 47);
# the workload seed renames them and orders the checks, as in the other
# workload, so that the cost of a pass does not depend on the seed (drawn
# from the seed, the cost of a pass differs by about 10% between seeds).
SWEEP_SHAPES = [(a, s) for a in (2, 3) for s in (3, 4, 5)]
SWEEP_GAMES_PER_SHAPE = 8
SWEEP_CHECKS_PER_GAME = 12
SWEEP_HORIZONS = (1, 2, 3)
# Strategic checks whose coalition has more strategy trees than this are not
# sampled.  Witness extraction enumerates trees one by one (up to 200,000,
# ROADMAP item 3), so past this size one check can take 25 s and decide a
# whole pass; about 1% of the pool is left out.  Deep searches are what
# ``deep`` measures.
SWEEP_MAX_TREES = 2000


def build(name: str, seed: int, work: str, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``, with games under the ``work`` dir.

    ``tiny`` shrinks every horizon and the sweep to a smoke-test size and
    drops the pinned verdicts, which hold only at the full horizons.
    """
    if name == "sweep":
        return _sweep(seed, work, tiny)
    if name != "deep":
        raise ValueError(f"unknown workload {name!r}")
    rows = [("strategic", *row) for row in _STRATEGIC] + [("knowledge", *row) for row in _KNOWLEDGE]
    sources = {
        "hand": (HERE / "games" / "hand.game").read_text(encoding="utf-8"),
        "hand_mix": (HERE / "games" / "hand_mix.game").read_text(encoding="utf-8"),
        "random3": random_game(3, states=5, agents=3).text(),
    }
    used = list(dict.fromkeys(row[1] for row in rows))
    rename = renamer(seed, [sources[g] for g in used])
    games = {f"{work}/{g}.game": rename(sources[g]) for g in used}
    checks = [
        Check(
            game=f"{work}/{g}.game",
            formula=rename(formula),
            horizon=min(k, 2) if tiny else k,
            expected=None if tiny else expected,
            group=group,
        )
        for group, g, formula, k, expected in rows
    ]
    return Workload(name, seed, games, checks, oracle_sample=len(checks) if tiny else 10)


def _sweep(seed: int, work: str, tiny: bool) -> Workload:
    per_shape = 1 if tiny else SWEEP_GAMES_PER_SHAPE
    per_game = 4 if tiny else SWEEP_CHECKS_PER_GAME
    shapes = SWEEP_SHAPES[:2] if tiny else SWEEP_SHAPES
    drawn: list[tuple[str, RandomGame, list[tuple[str, int, str]]]] = []
    for game_seed, (agents, states) in enumerate(
        shape for shape in shapes for _ in range(per_shape)
    ):
        game = random_game(game_seed, states=states, agents=agents)
        pool = [
            (formula, k, q)
            for formula, coalition in sweep_templates(game)
            for k in SWEEP_HORIZONS
            for q in game.states
            if coalition is None or game.strategy_trees(coalition, q, k) <= SWEEP_MAX_TREES
        ]
        picked = random.Random(game_seed).sample(pool, per_game)
        drawn.append((f"{work}/g{game_seed:02d}.game", game, picked))
    rename = renamer(seed, [game.text() for _, game, _ in drawn])
    games = {path: rename(game.text()) for path, game, _ in drawn}
    checks = [
        Check(path, rename(formula), k, rename(q))
        for path, _, picked in drawn
        for formula, k, q in picked
    ]
    return Workload("sweep", seed, games, checks, oracle_sample=len(checks) if tiny else 300)

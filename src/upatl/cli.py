"""Command-line front end: validation, checking, and exploration.

Exit codes: 0 for TRUE or plain success, 1 for FALSE, 2 for UNKNOWN, 64 for
usage errors, 65 for parse or bind errors and for files that cannot be read
or written, 70 for internal failures, 141 when the reader closes stdout.  All
diagnostics go to stderr; results go to stdout.  ``--format json`` emits one
self-contained JSON document instead of the textual report (see README for
the schema).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import formula as fm
from .checker import (
    CertificateTooLarge,
    EvalContext,
    Evaluator,
    SearchDepthError,
    Verdict,
    canonical_assignment,
    eval_path_formula,
    find_falsifying_pair,
    find_winning_strategy,
)
from .formula import FormulaError, parse_formula, render_formula
from .gamespec import (
    GameSpecError,
    bind_with_report,
    load_game,
    parse_game,
    render_game,
)
from .model import GameStructure
from .trace import (
    Path,
    StrategyTree,
    compatible_assignments,
    indistinguishability_class,
    outcomes_bounded,
    validate_path,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a closed pipe

VERDICT_EXIT = {
    Verdict.TRUE: EXIT_TRUE,
    Verdict.FALSE: EXIT_FALSE,
    Verdict.UNKNOWN: EXIT_UNKNOWN,
}


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


# -- shared helpers -----------------------------------------------------------


def _read_text(path: str) -> str:
    """The file's UTF-8 text, without a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None


def _read_game(path: str) -> GameStructure:
    return load_game(_read_text(path))


def _state_id(game: GameStructure, name: str | None) -> int:
    if name is None:
        if game.init_state is None:
            raise UsageError(
                "the game file has no init state; pass one with -s"
            )
        return game.init_state
    try:
        return game.state_names.index(name)
    except ValueError:
        raise InputError(f"unknown state {name!r}") from None


def _joint_names(tokens) -> tuple[list[str], int]:
    """The action names of a joint action whose ``(`` was just read, and the
    offset past its ``)``: names separated by ``,``, then ``)``."""
    names: list[str] = []
    expected = ("ident", ")")
    while True:
        token = next(tokens)  # the last token, "end", is never expected
        if token.kind not in expected:
            found = token.text or "end of input"
            raise FormulaError(f"unexpected {found!r} in a joint action", token.pos)
        if token.kind == ")":
            return names, token.pos + 1
        if token.kind == "ident":
            names.append(token.text)
            expected = (",", ")")
        else:
            expected = ("ident",)


def parse_path_literal(game: GameStructure, text: str) -> Path:
    """States and parenthesized joint actions, alternating:
    ``s0 (watch, swingL) s1``.  Read with the formula tokenizer, so that a
    character outside its tokens is an error at its offset."""
    states: list[int] = []
    actions: list[tuple[int, ...]] = []
    tokens = iter(fm.tokenize(text))
    for token in tokens:
        if token.kind == "ident":
            if len(states) > len(actions):
                raise InputError(f"expected a joint action, found {token.text!r}")
            states.append(_state_id(game, token.text))
        elif token.kind == "(":
            names, end = _joint_names(tokens)
            if len(states) == len(actions):
                raise InputError(f"expected a state, found {text[token.pos : end]}")
            joint = []
            for name in names:
                try:
                    joint.append(game.action_names.index(name))
                except ValueError:
                    raise InputError(f"unknown action {name!r}") from None
            actions.append(tuple(joint))
        elif token.kind != "end":
            raise FormulaError(f"unexpected {token.text!r} in a path literal", token.pos)
    if not states:
        raise InputError("empty path literal")
    if len(states) != len(actions) + 1:
        raise InputError("a path literal must end with a state")
    path = Path(tuple(states), tuple(actions))
    if not validate_path(game, path):
        raise InputError("path does not follow the transition relation")
    return path


def _path_text(game: GameStructure, path: Path) -> str:
    parts = [game.state_names[path.states[0]]]
    for joint, state in zip(path.actions, path.states[1:]):
        parts.append(game.joint_label(joint))
        parts.append(game.state_names[state])
    return " ".join(parts)


def _path_json(game: GameStructure, path: Path) -> list:
    out: list = [game.state_names[path.states[0]]]
    for joint, state in zip(path.actions, path.states[1:]):
        out.append([game.action_names[x] for x in joint])
        out.append(game.state_names[state])
    return out


def _assignment_text(game: GameStructure, lam: tuple[int, ...]) -> str:
    return ", ".join(
        f"{game.agent_names[a]}={game.capacity_names[c]}"
        for a, c in enumerate(lam)
    )


def _tree_nodes(tree: StrategyTree) -> list:
    return sorted(tree.decisions, key=lambda h: (len(h), h))


def _tree_text(game: GameStructure, tree: StrategyTree) -> list[str]:
    members = "{" + ", ".join(game.agent_names[a] for a in tree.agents) + "}"
    lines = [
        f"strategy for {members} from "
        f"{game.state_names[tree.pivot]} (depth {tree.depth})"
    ]
    if not tree.decisions:
        lines.append("  (no decisions needed)")
    for history in _tree_nodes(tree):
        where = " ".join(game.state_names[q] for q in history)
        what = ", ".join(
            f"{game.agent_names[a]}={game.action_names[x]}"
            for a, x in zip(tree.agents, tree.decisions[history])
        )
        lines.append(f"  {where}: {what}")
    return lines


def _tree_record(game: GameStructure, tree: StrategyTree) -> dict:
    """The tree's JSON record; its root node is written by a ``_TreeWriter``."""
    return {
        "coalition": [game.agent_names[a] for a in tree.agents],
        "pivot": game.state_names[tree.pivot],
        "depth": tree.depth,
        "root": _TreeWriter(game, tree),
    }


class _TreeWriter:
    """Appends a tree's root node as ``_json_parts`` appends a nested object,
    straight from ``tree.decisions``.  Each node is ``{"actions": {agent:
    action}, "children": {state: node}}``; a history without a decision has
    no actions.  One frame per node depth: at most the tree's depth + 1."""

    def __init__(self, game: GameStructure, tree: StrategyTree) -> None:
        self.tree = tree
        self.action_names = game.action_names
        names = [game.agent_names[a] for a in tree.agents]
        # Coalition positions in the order of their agents' names, the key order.
        self.order = sorted(range(len(names)), key=names.__getitem__)
        self.agent_keys = [_encode_str(names[i]) + ": " for i in self.order]
        self.state_keys = [_encode_str(name) + ": " for name in game.state_names]
        children: dict[tuple[int, ...], list[int]] = {}
        for history in tree.decisions:
            if len(history) > 1:
                children.setdefault(history[:-1], []).append(history[-1])
        for below in children.values():
            below.sort(key=game.state_names.__getitem__)
        self.children = children
        # Per indentation and decision, the text that every such node shares.
        self.heads: dict[tuple, tuple[str, str, str, str]] = {}

    def __call__(self, out: list[str], indent: str) -> None:
        self.node(out, (self.tree.pivot,), indent)

    def node(self, out: list[str], history: tuple[int, ...], indent: str) -> None:
        """Append the node of ``history``; ``indent`` is a newline and the
        indentation of the line it starts on."""
        key = (indent, self.tree.decisions.get(history, ()))
        head = self.heads.get(key)
        if head is None:
            head = self.heads[key] = self.head(*key)
        text, leaf, inner, end = head
        below = self.children.get(history)
        if not below:
            out.append(leaf)
            return
        out.append(text)
        separator = "{"
        for q in below:
            out += (separator, inner, self.state_keys[q])
            self.node(out, history + (q,), inner)
            separator = ","
        out.append(end)

    def head(self, indent: str, decision: tuple[int, ...]) -> tuple[str, ...]:
        """The text of a node up to its children, the whole node when it has
        none, its entries' indentation and the text that closes it."""
        keys = indent + "  "  # the node's own keys
        inner = keys + "  "  # the entries of its actions and children
        actions = "{}"
        if decision:
            actions = "".join(
                ("," if n else "{")
                + inner
                + self.agent_keys[n]
                + _encode_str(self.action_names[decision[i]])
                for n, i in enumerate(self.order)
            ) + keys + "}"
        text = "{" + keys + '"actions": ' + actions + "," + keys + '"children": '
        return text, text + "{}" + indent + "}", inner, keys + "}" + indent + "}"


def _read_node(
    game: GameStructure, members: tuple, node, history: tuple, decisions: dict
) -> None:
    """Add the decisions of a strategy file's ``node`` at ``history``, and of
    every node below it, to ``decisions``."""
    where = " ".join(game.state_names[q] for q in history)
    if not isinstance(node, dict):
        raise InputError(f"strategy node at {where} is not an object")
    actions = node.get("actions", {})
    children = node.get("children", {})
    for key, value in (("actions", actions), ("children", children)):
        if not isinstance(value, dict):
            raise InputError(f"{key} of strategy node at {where} is not an object")
    if members:
        try:
            decisions[history] = tuple(
                game.action_names.index(actions[game.agent_names[a]])
                for a in members
            )
        except (KeyError, ValueError) as err:
            raise InputError(
                f"malformed strategy decision at {where}: {err}"
            ) from None
    for state_name, child in children.items():
        try:
            child_state = game.state_names.index(state_name)
        except ValueError:
            raise InputError(f"unknown state {state_name!r}") from None
        _read_node(game, members, child, history + (child_state,), decisions)


def _tree_from_json(game: GameStructure, data: dict) -> StrategyTree:
    try:
        coalition = frozenset(
            game.agent_names.index(name) for name in data["coalition"]
        )
        pivot = game.state_names.index(data["pivot"])
        depth = data["depth"]
        # int() alone would run 1.5, "1" and true as depth 1.  An infinite
        # depth (JSON's 1e400) fails in int() with its own message.
        if (
            isinstance(depth, bool)
            or not isinstance(depth, (int, float))
            or depth != int(depth)
        ):
            raise ValueError(f"depth must be an integer, not {depth!r}")
        depth = int(depth)
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, not {depth}")
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise InputError(f"malformed strategy file: {err}") from None
    decisions: dict[tuple[int, ...], tuple[int, ...]] = {}
    root = data.get("root", {"actions": {}, "children": {}})
    _read_node(game, tuple(sorted(coalition)), root, (pivot,), decisions)
    return StrategyTree(coalition, pivot, depth, decisions)


# The string encoder ``json.dumps`` uses, in C where available.
_encode_str = json.encoder.encode_basestring_ascii


def _json_parts(value, out: list[str], indent: str) -> None:
    """Append ``value`` as ``json.dumps(value, indent=2, sort_keys=True)``
    renders it; ``indent`` is a newline and the current indentation.  A
    callable value is a writer, called as ``value(out, indent)``."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key in sorted(value):
            out += (separator, _encode_str(key), ": ")
            _json_parts(value[key], out, inner)
            separator = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _json_parts(item, out, inner)
            separator = "," + inner
        out.append(indent + "]")
    elif callable(value):
        value(out, indent)
    else:
        out.append(json.dumps(value))


# Parts joined per write: a small record is one write, and a large one is
# never held as one string.
_WRITE_PARTS = 8192


def _emit_json(document) -> None:
    out: list[str] = []
    _json_parts(document, out, "\n")
    for start in range(0, len(out), _WRITE_PARTS):
        sys.stdout.write("".join(out[start : start + _WRITE_PARTS]))
    # Written apart: a large write that a closed pipe cuts short can end
    # without an error, and only the next write reports the closed pipe.
    sys.stdout.write("\n")


# -- subcommands ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    game, diagnostics = bind_with_report(parse_game(_read_text(args.game)))
    if args.format == "json":
        _emit_json(
            {
                "command": "validate",
                "game": args.game,
                "valid": not diagnostics,
                "violations": [
                    {"line": d.line, "message": d.message} for d in diagnostics
                ],
            }
        )
    else:
        if diagnostics:
            for d in diagnostics:
                print(str(d))
        else:
            print("ok")
    return EXIT_INPUT if diagnostics else EXIT_TRUE


def _cmd_check(args) -> int:
    game = _read_game(args.game)
    f = parse_formula(args.formula, game)
    state = _state_id(game, args.state)
    started = time.perf_counter()
    ctx = EvalContext(
        game=game,
        path=Path((state,)),
        index=1,
        assignment=canonical_assignment(game),
        horizon=args.horizon,
        # Shared, so that the certificate reuses the verdict's search.
        evaluator=Evaluator(game, args.horizon, f),
    )
    verdict = eval_path_formula(ctx, f)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    witness = falsifying = None
    if isinstance(f, fm.Strat):
        try:
            if verdict is Verdict.TRUE:
                witness = find_winning_strategy(ctx, f.coalition, f.goal)
                if witness is None:
                    raise RuntimeError("TRUE strategic verdict without a witness")
            elif verdict is Verdict.FALSE:
                falsifying = find_falsifying_pair(ctx, f.coalition, f.goal)
        except CertificateTooLarge as err:
            # Never a verdict without its certificate: report UNKNOWN instead.
            print(f"warning: {verdict.value} verdict withheld: {err}", file=sys.stderr)
            verdict = Verdict.UNKNOWN
    if args.format == "json":
        _emit_json(
            {
                "command": "check",
                "game": args.game,
                "formula": args.formula,
                "state": game.state_names[state],
                "horizon": args.horizon,
                "verdict": verdict.value,
                "witness": None
                if witness is None
                else _tree_record(game, witness),
                "falsifying": None
                if falsifying is None
                else {
                    "strategy": _tree_record(game, falsifying[0]),
                    "outcome": None
                    if falsifying[1] is None
                    else _path_json(game, falsifying[1]),
                },
                "elapsed_ms": round(elapsed_ms, 3),
            }
        )
    else:
        print(verdict.value)
        if witness is not None:
            print("witness " + "\n".join(_tree_text(game, witness)))
        if falsifying is not None:
            tree, outcome = falsifying
            print("falsified " + "\n".join(_tree_text(game, tree)))
            if outcome is None:
                print("no capacity-compatible outcomes")
            else:
                print(f"falsifying outcome: {_path_text(game, outcome)}")
    return VERDICT_EXIT[verdict]


def _cmd_compat(args) -> int:
    game = _read_game(args.game)
    path = parse_path_literal(game, args.path)
    assignments = sorted(compatible_assignments(game, path))
    if args.format == "json":
        _emit_json(
            {
                "command": "compat",
                "game": args.game,
                "path": _path_json(game, path),
                "assignments": [
                    {
                        game.agent_names[a]: game.capacity_names[c]
                        for a, c in enumerate(lam)
                    }
                    for lam in assignments
                ],
            }
        )
    else:
        if not assignments:
            print("(none)")
        for lam in assignments:
            print(_assignment_text(game, lam))
    return EXIT_TRUE


def _cmd_classes(args) -> int:
    game = _read_game(args.game)
    path = parse_path_literal(game, args.path)
    try:
        agent = game.agent_names.index(args.agent)
    except ValueError:
        raise InputError(f"unknown agent {args.agent!r}") from None
    members = sorted(
        indistinguishability_class(game, path, agent),
        key=lambda p: p.actions,
    )
    if args.format == "json":
        _emit_json(
            {
                "command": "classes",
                "game": args.game,
                "agent": args.agent,
                "paths": [_path_json(game, p) for p in members],
            }
        )
    else:
        for p in members:
            print(_path_text(game, p))
    return EXIT_TRUE


def _cmd_outcomes(args) -> int:
    game = _read_game(args.game)
    path = parse_path_literal(game, args.path)
    text = _read_text(args.strategy)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise InputError(f"malformed strategy file: {err}") from None
    tree = _tree_from_json(game, data)
    try:
        outcomes = sorted(
            outcomes_bounded(game, path, tree, args.horizon),
            key=lambda p: p.actions,
        )
    except ValueError as err:
        raise InputError(str(err)) from None
    if args.format == "json":
        _emit_json(
            {
                "command": "outcomes",
                "game": args.game,
                "horizon": args.horizon,
                "outcomes": [_path_json(game, p) for p in outcomes],
            }
        )
    else:
        if not outcomes:
            print("(none)")
        for p in outcomes:
            print(_path_text(game, p))
    return EXIT_TRUE


def _cmd_fmt(args) -> int:
    game = _read_game(args.game)
    if args.formula is not None:
        text = render_formula(parse_formula(args.formula, game), game)
    else:
        text = render_game(game)
    if args.format == "json":
        _emit_json({"command": "fmt", "text": text})
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_TRUE


def _cmd_gen(args) -> int:
    # Imported here so that the other commands do not load the oracle.
    from .oracle import GeneratorParams, generate_random_game

    try:
        params = GeneratorParams(
            seed=args.seed,
            states=args.states,
            agents=args.agents,
            capacities_per_agent=args.caps,
            actions_per_capacity=args.acts,
            label_density=args.density,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    text = render_game(generate_random_game(params))
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise InputError(f"cannot write {args.output}: {err}") from None
    elif args.format == "json":
        _emit_json({"command": "gen", "text": text})
    else:
        print(text, end="")
    return EXIT_TRUE


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and then reused; ``parse_args`` makes a
    fresh namespace on every call, so calls share no state."""
    parser = _Parser(
        prog="upatl",
        description="Bounded checking of strategic and capacity-knowledge "
        "properties over games with hidden capacity profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output mode (default: text)",
        )

    p = sub.add_parser("validate", help="report structural violations")
    p.add_argument("game")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="evaluate a formula at a state")
    p.add_argument("game")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-s", "--state", default=None)
    p.add_argument("-k", "--horizon", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compat", help="print the compatible assignments of a path")
    p.add_argument("game")
    p.add_argument("-p", "--path", required=True)
    common(p)
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("classes", help="print an indistinguishability class")
    p.add_argument("game")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("-a", "--agent", required=True)
    common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("outcomes", help="print bounded outcomes of a strategy")
    p.add_argument("game")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--strategy", required=True, help="strategy tree JSON file")
    p.add_argument("-k", "--horizon", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_outcomes)

    p = sub.add_parser("fmt", help="canonically re-render a game or formula")
    p.add_argument("game")
    p.add_argument("-f", "--formula", default=None)
    common(p)
    p.set_defaults(func=_cmd_fmt)

    p = sub.add_parser("gen", help="emit a random game file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--caps", type=int, default=2)
    p.add_argument("--acts", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "horizon", 0) < 0:
            raise UsageError("horizon must be nonnegative")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except (UsageError, SearchDepthError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GameSpecError, FormulaError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader has gone; point stdout at the null device so that the
        # interpreter's final flush of what is still buffered stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as err:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

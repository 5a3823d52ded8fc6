"""Formula ASTs, parser, and pretty-printer.

Core syntax keeps exactly negation and conjunction as boolean connectives:

    phi  := ident | K [ agent ] ( capf ) | ! phi | phi & phi | << Y >> temp
    temp := N phi | (phi) U (phi) | (phi) R (phi)
    capf := agent = capacity | ! capf | capf & capf

The surface grammar additionally accepts ``|``, ``->``, ``true``, ``false``,
``F``, and ``G``; all are desugared at parse time (``true`` becomes the
reserved atom that labels every state, ``F p`` becomes ``(true) U (p)``, and
``G p`` becomes ``(false) R (p)``).  Temporal operators are only legal
immediately under a strategic operator.  Identifiers are resolved against a
game structure while parsing, so the AST carries dense indices.

Precedence, low to high: ``->`` (right associative), ``|``, ``&``, then the
unary prefixes ``!``, ``K``, ``<<...>>``.  Operands of ``U`` and ``R`` are
unary-level formulas; in practice they are almost always parenthesized, and
the renderer always emits the parenthesized form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import IDENT, KEYWORDS_TEMPORAL, AgentId, CapacityId, GameStructure, PropId

# Deepest nesting the parser accepts.  Parsing, evaluation and rendering
# recurse once per level, so a deeper formula would exhaust the interpreter's
# stack instead of being reported as malformed input.
MAX_NESTING = 100


class FormulaError(Exception):
    """Parse or binding failure, with the offset where it happened."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


# -- ASTs -------------------------------------------------------------------


class PathFormula:
    pass


class TemporalFormula:
    pass


class CapFormula:
    pass


@dataclass(frozen=True)
class Atom(PathFormula):
    prop: PropId


@dataclass(frozen=True)
class Know(PathFormula):
    agent: AgentId
    body: CapFormula


@dataclass(frozen=True)
class Not(PathFormula):
    operand: PathFormula


@dataclass(frozen=True)
class And(PathFormula):
    left: PathFormula
    right: PathFormula


@dataclass(frozen=True)
class Strat(PathFormula):
    coalition: frozenset[AgentId]
    goal: TemporalFormula


@dataclass(frozen=True)
class Next(TemporalFormula):
    operand: PathFormula


@dataclass(frozen=True)
class Until(TemporalFormula):
    left: PathFormula
    right: PathFormula


@dataclass(frozen=True)
class Release(TemporalFormula):
    left: PathFormula
    right: PathFormula


@dataclass(frozen=True)
class HasCap(CapFormula):
    agent: AgentId
    capacity: CapacityId


@dataclass(frozen=True)
class CapNot(CapFormula):
    operand: CapFormula


@dataclass(frozen=True)
class CapAnd(CapFormula):
    left: CapFormula
    right: CapFormula


def path_or(left: PathFormula, right: PathFormula) -> PathFormula:
    return Not(And(Not(left), Not(right)))


def path_implies(left: PathFormula, right: PathFormula) -> PathFormula:
    return Not(And(left, Not(right)))


def cap_or(left: CapFormula, right: CapFormula) -> CapFormula:
    return CapNot(CapAnd(CapNot(left), CapNot(right)))


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{IDENT})|(?P<sym><<|>>|->|[()\[\]|&!=,]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", a symbol text, or "end"
    text: str
    pos: int


def tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, then an "end" token; a character that starts
    no token is a ``FormulaError`` at its offset."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaError(f"unexpected character {text[at]!r}", at)
        if match.group("ident") is not None:
            tokens.append(_Token("ident", match.group("ident"), match.start("ident")))
        else:
            sym = match.group("sym")
            tokens.append(_Token(sym, sym, match.start("sym")))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# -- parser -------------------------------------------------------------------


def _refuse_temporal(token: _Token) -> None:
    """A temporal operator where a path formula stands is misplaced."""
    if token.kind == "ident" and token.text in KEYWORDS_TEMPORAL:
        raise FormulaError(
            f"temporal operator {token.text!r} outside a strategic operator",
            token.pos,
        )


def _nested(parse):
    """Count one nesting level for each active call of a parse step."""

    def step(self):
        self.nest(self.peek())
        result = parse(self)
        self.depth -= 1
        return result

    return step


class _Parser:
    def __init__(self, text: str, game: GameStructure):
        self.tokens = tokenize(text)
        self.game = game
        self.at = 0
        self.depth = 0
        self.true_atom = Atom(game.true_prop)

    def nest(self, token: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaError(
                f"formula nests too deeply (limit {MAX_NESTING})", token.pos
            )

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def advance(self) -> _Token:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise FormulaError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.pos,
            )
        return self.advance()

    def lookup(self, names: tuple[str, ...], token: _Token, what: str) -> int:
        """The id of ``token``'s name, its index in ``names``; ``what`` names
        the kind of name in the error for an unknown one."""
        try:
            return names.index(token.text)
        except ValueError:
            raise FormulaError(f"unknown {what} {token.text!r}", token.pos) from None

    # path formulas -------------------------------------------------------

    @_nested
    def parse_phi(self) -> PathFormula:
        left = self.parse_or()
        if self.peek().kind == "->":
            self.advance()
            return path_implies(left, self.parse_phi())
        return left

    def chain(self, symbol: str, operand, combine):
        """``operand (symbol operand)*``, folded from the left by ``combine``;
        each operator nests one level deeper until the chain ends."""
        left = operand()
        outer = self.depth
        while self.peek().kind == symbol:
            self.nest(self.advance())
            left = combine(left, operand())
        self.depth = outer
        return left

    def parse_or(self) -> PathFormula:
        return self.chain("|", self.parse_and, path_or)

    def parse_and(self) -> PathFormula:
        return self.chain("&", self.parse_unary, And)

    @_nested
    def parse_unary(self) -> PathFormula:
        token = self.peek()
        if token.kind == "!":
            self.advance()
            return Not(self.parse_unary())
        if token.kind == "(":
            self.advance()
            inner = self.parse_phi()
            self.expect(")")
            return inner
        if token.kind == "<<":
            self.advance()
            coalition = self.parse_coalition()
            self.expect(">>")
            return Strat(coalition, self.parse_temporal())
        if token.kind == "ident":
            if token.text == "K":
                self.advance()
                self.expect("[")
                agent = self.lookup(
                    self.game.agent_names, self.expect("ident"), "agent"
                )
                self.expect("]")
                self.expect("(")
                body = self.parse_capf()
                self.expect(")")
                return Know(agent, body)
            _refuse_temporal(token)
            self.advance()
            if token.text == "true":
                return self.true_atom
            if token.text == "false":
                return Not(self.true_atom)
            return Atom(self.lookup(self.game.prop_names, token, "proposition"))
        raise FormulaError(
            f"expected a formula, found {token.text or 'end of input'!r}",
            token.pos,
        )

    def parse_coalition(self) -> frozenset[AgentId]:
        members: set[AgentId] = set()
        if self.peek().kind == ">>":
            return frozenset()
        while True:
            token = self.expect("ident")
            agent = self.lookup(self.game.agent_names, token, "agent")
            if agent in members:
                raise FormulaError(f"coalition lists {token.text!r} twice", token.pos)
            members.add(agent)
            if self.peek().kind != ",":
                return frozenset(members)
            self.advance()

    def parse_temporal(self) -> TemporalFormula:
        token = self.peek()
        if token.kind == "ident" and token.text == "N":
            self.advance()
            return Next(self.parse_unary())
        if token.kind == "ident" and token.text == "F":
            self.advance()
            return Until(self.true_atom, self.parse_unary())
        if token.kind == "ident" and token.text == "G":
            self.advance()
            return Release(Not(self.true_atom), self.parse_unary())
        left = self.parse_unary()
        op = self.peek()
        if op.kind == "ident" and op.text in ("U", "R"):
            self.advance()
            right = self.parse_unary()
            return Until(left, right) if op.text == "U" else Release(left, right)
        raise FormulaError(
            "expected a temporal operator after the strategic operator",
            op.pos,
        )

    # capacity formulas ---------------------------------------------------

    @_nested
    def parse_capf(self) -> CapFormula:
        return self.chain("|", self.parse_cap_and, cap_or)

    def parse_cap_and(self) -> CapFormula:
        return self.chain("&", self.parse_cap_unary, CapAnd)

    @_nested
    def parse_cap_unary(self) -> CapFormula:
        token = self.peek()
        if token.kind == "!":
            self.advance()
            return CapNot(self.parse_cap_unary())
        if token.kind == "(":
            self.advance()
            inner = self.parse_capf()
            self.expect(")")
            return inner
        agent = self.lookup(self.game.agent_names, self.expect("ident"), "agent")
        self.expect("=")
        capacity = self.lookup(
            self.game.capacity_names, self.expect("ident"), "capacity"
        )
        return HasCap(agent, capacity)


def parse_formula(text: str, game: GameStructure) -> PathFormula:
    parser = _Parser(text, game)
    result = parser.parse_phi()
    trailing = parser.peek()
    if trailing.kind != "end":
        _refuse_temporal(trailing)
        raise FormulaError(
            f"unexpected trailing input {trailing.text!r}", trailing.pos
        )
    return result


# -- renderer -----------------------------------------------------------------


def render_formula(formula: PathFormula, game: GameStructure) -> str:
    """Canonical core-syntax rendering; parse(render(f)) == f."""
    return _render_phi(formula, game)


def _render_phi(f: PathFormula, game: GameStructure) -> str:
    if isinstance(f, And):
        left = _render_phi(f.left, game) if isinstance(f.left, And) else _render_unary(f.left, game)
        return f"{left} & {_render_unary(f.right, game)}"
    return _render_unary(f, game)


def _render_unary(f: PathFormula, game: GameStructure) -> str:
    if isinstance(f, Atom):
        return game.prop_names[f.prop]
    if isinstance(f, Not):
        return f"!{_render_unary(f.operand, game)}"
    if isinstance(f, Know):
        return f"K[{game.agent_names[f.agent]}]({_render_capf(f.body, game)})"
    if isinstance(f, Strat):
        members = ", ".join(
            game.agent_names[a] for a in sorted(f.coalition)
        )
        return f"<<{members}>> {_render_temporal(f.goal, game)}"
    if isinstance(f, And):
        return f"({_render_phi(f, game)})"
    raise TypeError(f"not a path formula: {f!r}")


def _render_temporal(t: TemporalFormula, game: GameStructure) -> str:
    if isinstance(t, Next):
        return f"N {_render_unary(t.operand, game)}"
    if isinstance(t, Until):
        return f"({_render_phi(t.left, game)}) U ({_render_phi(t.right, game)})"
    if isinstance(t, Release):
        return f"({_render_phi(t.left, game)}) R ({_render_phi(t.right, game)})"
    raise TypeError(f"not a temporal formula: {t!r}")


def _render_capf(c: CapFormula, game: GameStructure) -> str:
    if isinstance(c, HasCap):
        return f"{game.agent_names[c.agent]}={game.capacity_names[c.capacity]}"
    if isinstance(c, CapNot):
        inner = _render_capf(c.operand, game)
        if isinstance(c.operand, CapAnd):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(c, CapAnd):
        left = _render_capf(c.left, game)
        right = _render_capf(c.right, game)
        if isinstance(c.right, CapAnd):
            right = f"({right})"
        return f"{left} & {right}"
    raise TypeError(f"not a capacity formula: {c!r}")

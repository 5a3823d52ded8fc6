import random

import pytest
from hypothesis import given, settings, strategies as st

from upatl.formula import (
    And,
    Atom,
    CapAnd,
    CapNot,
    FormulaError,
    HasCap,
    Know,
    Next,
    Not,
    Release,
    Strat,
    Until,
    parse_formula,
    render_formula,
)
from upatl.model import build_game

from helpers import load_game_file, random_formula


@pytest.fixture(scope="module")
def g_controller():
    """Memory-controller game used as a parsing vocabulary."""
    return build_game(
        name="controller",
        agents=["controller", "env"],
        capacities={"controller": ["fw1"], "env": ["client"]},
        actions={"fw1": ["grant", "deny"], "client": ["req"]},
        states=["idle", "busy"],
        labels={"idle": ["readCmd", "read"], "busy": ["write"]},
        protocol={
            ("controller", "idle"): ["grant", "deny"],
            ("controller", "busy"): ["grant"],
            ("env", "idle"): ["req"],
            ("env", "busy"): ["req"],
        },
        transitions={
            ("idle", ("grant", "req")): "busy",
            ("idle", ("deny", "req")): "idle",
            ("busy", ("grant", "req")): "idle",
        },
    )


class TestParsing:
    def test_atom(self, g_hand):
        assert parse_formula("start", g_hand) == Atom(
            g_hand.prop_names.index("start")
        )

    def test_knowledge(self, g_hand):
        got = parse_formula("K[obs](opp=lefty)", g_hand)
        assert got == Know(
            g_hand.agent_names.index("obs"),
            HasCap(
                g_hand.agent_names.index("opp"),
                g_hand.capacity_names.index("lefty"),
            ),
        )

    def test_strategic_next(self, g_hand):
        got = parse_formula("<<opp>> N leftHit", g_hand)
        opp = g_hand.agent_names.index("opp")
        assert got == Strat(
            frozenset({opp}), Next(Atom(g_hand.prop_names.index("leftHit")))
        )

    def test_empty_coalition(self, g_hand):
        got = parse_formula("<<>> N start", g_hand)
        assert isinstance(got, Strat) and got.coalition == frozenset()

    def test_controller_example(self, g_controller):
        got = parse_formula(
            "readCmd -> <<controller>> (!write) U read", g_controller
        )
        read_cmd = Atom(g_controller.prop_names.index("readCmd"))
        write = Atom(g_controller.prop_names.index("write"))
        read = Atom(g_controller.prop_names.index("read"))
        controller = g_controller.agent_names.index("controller")
        strat = Strat(frozenset({controller}), Until(Not(write), read))
        assert got == Not(And(read_cmd, Not(strat)))

    def test_eventually_with_disjunction_of_knowledge(self, g_hand):
        got = parse_formula(
            "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))", g_hand
        )
        obs = g_hand.agent_names.index("obs")
        opp = g_hand.agent_names.index("opp")
        lefty = g_hand.capacity_names.index("lefty")
        righty = g_hand.capacity_names.index("righty")
        true_atom = Atom(g_hand.true_prop)
        k_left = Know(obs, HasCap(opp, lefty))
        k_right = Know(obs, HasCap(opp, righty))
        either = Not(And(Not(k_left), Not(k_right)))
        assert got == Strat(frozenset({obs}), Until(true_atom, either))

    def test_true_false_desugar(self, g_hand):
        true_atom = Atom(g_hand.true_prop)
        assert parse_formula("true", g_hand) == true_atom
        assert parse_formula("false", g_hand) == Not(true_atom)
        g_formula = parse_formula("<<opp>> G start", g_hand)
        start = Atom(g_hand.prop_names.index("start"))
        assert g_formula.goal == Release(Not(true_atom), start)

    def test_cap_formula_sugar(self, g_hand):
        got = parse_formula("K[obs](opp=lefty | opp=righty)", g_hand)
        opp = g_hand.agent_names.index("opp")
        lefty = HasCap(opp, g_hand.capacity_names.index("lefty"))
        righty = HasCap(opp, g_hand.capacity_names.index("righty"))
        assert got.body == CapNot(CapAnd(CapNot(lefty), CapNot(righty)))

    def test_whitespace_insensitive(self, g_hand):
        a = parse_formula("<<opp>>N leftHit", g_hand)
        b = parse_formula("  <<  opp >>   N   leftHit ", g_hand)
        assert a == b


class TestParseErrors:
    def test_temporal_outside_strategic(self, g_hand):
        with pytest.raises(FormulaError, match="outside a strategic"):
            parse_formula("N start", g_hand)

    def test_until_outside_strategic(self, g_hand):
        with pytest.raises(FormulaError, match="outside a strategic"):
            parse_formula("start U leftHit", g_hand)

    def test_unknown_proposition(self, g_hand):
        with pytest.raises(FormulaError, match="unknown proposition 'blue'"):
            parse_formula("blue", g_hand)

    def test_unknown_agent(self, g_hand):
        with pytest.raises(FormulaError, match="unknown agent"):
            parse_formula("<<referee>> N start", g_hand)

    def test_unknown_capacity(self, g_hand):
        with pytest.raises(FormulaError, match="unknown capacity"):
            parse_formula("K[obs](opp=ambidextrous)", g_hand)

    def test_syntax_error_has_position(self, g_hand):
        with pytest.raises(FormulaError) as err:
            parse_formula("start & ", g_hand)
        assert err.value.position == 8

    def test_missing_temporal_operator(self, g_hand):
        with pytest.raises(FormulaError, match="temporal operator"):
            parse_formula("<<opp>> (start)", g_hand)

    def test_trailing_garbage(self, g_hand):
        with pytest.raises(FormulaError, match="trailing"):
            parse_formula("start leftHit", g_hand)


class TestRendering:
    def test_atom(self, g_hand):
        assert render_formula(Atom(0), g_hand) == g_hand.prop_names[0]

    def test_knowledge(self, g_hand):
        obs = g_hand.agent_names.index("obs")
        opp = g_hand.agent_names.index("opp")
        lefty = g_hand.capacity_names.index("lefty")
        got = render_formula(Know(obs, HasCap(opp, lefty)), g_hand)
        assert got == "K[obs](opp=lefty)"

    def test_round_trip_on_spec_strings(self, g_hand):
        for text in (
            "start",
            "!start & leftHit",
            "K[obs](!(opp=lefty) & opp=righty)",
            "<<opp>> N leftHit",
            "<<>> (start) U (leftHit)",
            "<<obs, opp>> (start) R (!leftHit)",
        ):
            ast = parse_formula(text, g_hand)
            rendered = render_formula(ast, g_hand)
            assert parse_formula(rendered, g_hand) == ast

    def test_render_parse_idempotent_on_sugar(self, g_hand):
        for text in (
            "start -> leftHit",
            "start | leftHit | rightHit",
            "<<obs>> F K[obs](opp=lefty | opp=righty)",
            "<<opp>> G !leftHit",
        ):
            once = render_formula(parse_formula(text, g_hand), g_hand)
            twice = render_formula(parse_formula(once, g_hand), g_hand)
            assert once == twice

    def test_round_trip_fixed_sample(self, g_hand):
        rng = random.Random(20240901)
        for _ in range(1000):
            ast = random_formula(g_hand, rng, depth=5)
            rendered = render_formula(ast, g_hand)
            assert parse_formula(rendered, g_hand) == ast


_G = None


def _shared_game():
    global _G
    if _G is None:
        _G = load_game_file("hand")
    return _G


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 6))
def test_round_trip_property(seed, depth):
    game = _shared_game()
    ast = random_formula(game, random.Random(seed), depth)
    rendered = render_formula(ast, game)
    assert parse_formula(rendered, game) == ast

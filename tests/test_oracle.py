import gc

import pytest

from upatl.checker import Verdict, canonical_assignment, check_state
from upatl.formula import Atom, Next, Strat, Until, parse_formula
from upatl.model import build_game, validate_structure
from upatl.oracle import (
    BudgetExceeded,
    GeneratorParams,
    atl_fixed_point,
    brute_force_eval,
    formula_templates,
    generate_random_game,
)
from upatl.trace import Path


def two_state_chase(can_reach: bool):
    """Single-agent cycle with p on state B; A reaches B iff ``can_reach``."""
    protocol_a = ["go", "stay"] if can_reach else ["stay"]
    transitions = {
        ("A", ("stay",)): "A",
        ("B", ("stay",)): "B",
    }
    if can_reach:
        transitions[("A", ("go",))] = "B"
    return build_game(
        name="chase",
        agents=["m"],
        capacities={"m": ["only"]},
        actions={"only": ["go", "stay"]},
        states=["A", "B"],
        labels={"B": ["p"]},
        protocol={("m", "A"): protocol_a, ("m", "B"): ["stay"]},
        transitions=transitions,
    )


class TestBruteForce:
    def test_atom_at_state(self, g_hand):
        got = brute_force_eval(
            g_hand,
            Path((0,)),
            1,
            canonical_assignment(g_hand),
            parse_formula("start", g_hand),
            0,
        )
        assert got is Verdict.TRUE

    def test_budget_guard(self, g_hand):
        f = parse_formula("<<opp>> (true) U (leftHit)", g_hand)
        with pytest.raises(BudgetExceeded):
            brute_force_eval(
                g_hand,
                Path((0,)),
                1,
                canonical_assignment(g_hand),
                f,
                3,
                budget=10,
            )


class TestFixedPoint:
    def test_reachability_attractor(self):
        game = two_state_chase(can_reach=True)
        p = Atom(game.prop_names.index("p"))
        f = Strat(frozenset({0}), Until(Atom(game.true_prop), p))
        got = atl_fixed_point(game, f)
        assert got == frozenset(game.states)

    def test_unreachable_attractor(self):
        game = two_state_chase(can_reach=False)
        p = Atom(game.prop_names.index("p"))
        f = Strat(frozenset({0}), Until(Atom(game.true_prop), p))
        got = atl_fixed_point(game, f)
        assert got == frozenset({game.state_names.index("B")})

    def test_empty_coalition_is_universal_next(self):
        game = two_state_chase(can_reach=True)
        p = Atom(game.prop_names.index("p"))
        got = atl_fixed_point(game, Strat(frozenset(), Next(p)))
        # From A the agent may stay, so only B guarantees p next.
        assert got == frozenset({game.state_names.index("B")})

    def test_requires_capacity_free_game(self, g_hand):
        f = parse_formula("<<opp>> N leftHit", g_hand)
        with pytest.raises(ValueError, match="one capacity"):
            atl_fixed_point(g_hand, f)

    def test_rejects_knowledge(self):
        game = two_state_chase(can_reach=True)
        caps = game.capacity_names
        from upatl.formula import HasCap, Know

        with pytest.raises(ValueError, match="knowledge"):
            atl_fixed_point(game, Know(0, HasCap(0, 0)))


def cyclic_garbage(call) -> int:
    """Objects left to the cycle collector by a second ``call()``."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    """An oracle call frees all it made by reference counting: no function
    calls itself through a closure, which would be a reference cycle."""

    def test_brute_force_eval(self, g_hand):
        f = parse_formula("<<opp>> F leftHit", g_hand)
        lam = canonical_assignment(g_hand)
        left = cyclic_garbage(
            lambda: brute_force_eval(g_hand, Path((0,)), 1, lam, f, 2)
        )
        assert left == 0

    def test_atl_fixed_point(self):
        game = two_state_chase(can_reach=True)
        p = Atom(game.prop_names.index("p"))
        f = Strat(frozenset({0}), Until(Atom(game.true_prop), p))
        assert cyclic_garbage(lambda: atl_fixed_point(game, f)) == 0


class TestGenerator:
    def test_deterministic_in_seed(self):
        params = GeneratorParams(seed=9, states=4, agents=3)
        a = generate_random_game(params)
        b = generate_random_game(params)
        assert a.state_names == b.state_names
        assert a.transitions == b.transitions
        assert a.labels == b.labels
        assert a.protocols == b.protocols

    def test_samples_are_valid(self):
        for seed in range(500):
            params = GeneratorParams(
                seed=seed,
                states=1 + seed % 5,
                agents=1 + seed % 3,
                capacities_per_agent=1 + seed % 2,
                actions_per_capacity=1 + (seed // 2) % 2,
                label_density=(seed % 10) / 10,
            )
            game = generate_random_game(params)
            assert validate_structure(game) == []

    def test_degenerate_games_fit_the_fixed_point_route(self):
        params = GeneratorParams(seed=3, states=3, agents=2, capacities_per_agent=1)
        game = generate_random_game(params)
        assert all(len(caps) == 1 for caps in game.agent_capacities)
        f = Strat(frozenset({0}), Next(Atom(game.true_prop)))
        assert atl_fixed_point(game, f) == frozenset(game.states)

    def test_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, states=6)
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, agents=4)
        with pytest.raises(ValueError):
            GeneratorParams(seed=0, label_density=1.5)


class TestDegenerateAgreement:
    """Bounded checking matches the classical fixed point on capacity-free
    games; the full 50-game version runs in the acceptance suite."""

    @pytest.mark.parametrize("seed", range(6))
    def test_next_and_until_agree(self, seed):
        game = generate_random_game(
            GeneratorParams(seed=700 + seed, states=3, agents=2, capacities_per_agent=1)
        )
        n = len(game.state_names)
        prop = Atom(game.true_prop if seed % 2 else 0)
        other = Atom(0)
        coalitions = [frozenset(), frozenset({0}), frozenset({0, 1})]
        for coalition in coalitions:
            for f in (
                Strat(coalition, Next(prop)),
                Strat(coalition, Until(prop, other)),
            ):
                expected = atl_fixed_point(game, f)
                for q in game.states:
                    verdict = check_state(game, q, f, n)
                    assert (verdict is Verdict.TRUE) == (q in expected)


class TestTemplates:
    def test_templates_are_unique_and_bounded(self, g_hand):
        templates = formula_templates(g_hand)
        assert len(templates) == len(set(templates))
        assert len(templates) > 20

    def test_templates_cover_strategic_and_knowledge(self, g_hand):
        from upatl.formula import Know, Strat as S

        templates = formula_templates(g_hand)
        assert any(isinstance(f, S) for f in templates)
        assert any(isinstance(f, Know) for f in templates)

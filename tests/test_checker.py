import itertools
import random

import pytest

from upatl import checker
from upatl.checker import (
    MAX_SEARCH_DEPTH,
    CertificateTooLarge,
    EvalContext,
    SearchDepthError,
    Verdict,
    and3,
    canonical_assignment,
    check_state,
    enumerate_strategy_trees,
    eval_cap_formula,
    eval_knowledge,
    eval_path_formula,
    eval_temporal,
    find_falsifying_pair,
    find_winning_strategy,
    lift,
    not3,
    or3,
)
from upatl.formula import Release, Strat, Until, parse_formula
from upatl.oracle import (
    GeneratorParams,
    brute_force_eval,
    formula_templates,
    generate_random_game,
)
from upatl.trace import Path, complete_assignments, outcomes_bounded

from helpers import (
    all_paths,
    drop_deepest_decision,
    first_winning_tree,
    load_game_file,
    path_of,
    reference_temporal,
)

T, F, U = Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN


def ctx_at(game, path, index=1, horizon=0, assignment=None):
    return EvalContext(
        game=game,
        path=path,
        index=index,
        assignment=assignment or canonical_assignment(game),
        horizon=horizon,
    )


def capf(game, text):
    """Parse a capacity formula by wrapping it in a knowledge operator."""
    viewer = game.agent_names[0]
    return parse_formula(f"K[{viewer}]({text})", game).body


class TestKleene:
    def test_not(self):
        assert not3(T) is F and not3(F) is T and not3(U) is U

    def test_and_or_tables(self):
        for a, b in itertools.product((T, F, U), repeat=2):
            if F in (a, b):
                assert and3(a, b) is F
            elif U in (a, b):
                assert and3(a, b) is U
            else:
                assert and3(a, b) is T
            assert or3(a, b) is not3(and3(not3(a), not3(b)))


class TestCapFormulas:
    def test_direct_clause(self, g_hand):
        lam = (0, g_hand.capacity_names.index("lefty"))
        assert eval_cap_formula(lam, capf(g_hand, "opp=lefty"))
        assert eval_cap_formula(lam, capf(g_hand, "!(opp=righty)"))

    def test_contradiction(self, g_hand):
        body = capf(g_hand, "opp=lefty & !(opp=lefty)")
        for lam in complete_assignments(g_hand):
            assert not eval_cap_formula(lam, body)


class TestKnowledge:
    def test_swing_reveals(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        assert eval_knowledge(g_hand, rho, 2, 0, capf(g_hand, "opp=lefty"))

    def test_serve_hides(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        assert not eval_knowledge(g_hand, rho, 2, 0, capf(g_hand, "opp=lefty"))

    def test_disjunction_always_known(self, g_hand):
        rho = path_of(g_hand, "s0")
        assert eval_knowledge(
            g_hand, rho, 1, 0, capf(g_hand, "opp=lefty | opp=righty")
        )

    def test_invariant_under_extension(self, g_hand):
        short = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        longer = path_of(
            g_hand, "s0", ("watch", "serve"), "s0", ("watch", "swingL"), "s1"
        )
        body = capf(g_hand, "opp=lefty")
        assert eval_knowledge(g_hand, short, 2, 0, body) == eval_knowledge(
            g_hand, longer, 2, 0, body
        )

    def test_index_out_of_range(self, g_hand):
        with pytest.raises(ValueError):
            eval_knowledge(
                g_hand, path_of(g_hand, "s0"), 2, 0, capf(g_hand, "opp=lefty")
            )


class TestTemporal:
    def test_until_witnessed(self, g_hand):
        outcome = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        goal = parse_formula("<<opp>> (true) U (leftHit)", g_hand).goal
        got = eval_temporal(ctx_at(g_hand, path_of(g_hand, "s0"), horizon=1), goal, outcome)
        assert got is T

    def test_until_undecided(self, g_hand):
        outcome = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        goal = parse_formula("<<opp>> (true) U (leftHit)", g_hand).goal
        got = eval_temporal(ctx_at(g_hand, path_of(g_hand, "s0"), horizon=1), goal, outcome)
        assert got is U

    def test_release_rules(self, g_hand):
        goal = parse_formula("<<opp>> (false) R (start)", g_hand).goal
        base = ctx_at(g_hand, path_of(g_hand, "s0"), horizon=1)
        maintained = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        broken = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        assert eval_temporal(base, goal, maintained) is U
        assert eval_temporal(base, goal, broken) is F

    def test_next_beyond_horizon_is_unknown(self, g_hand):
        goal = parse_formula("<<opp>> N leftHit", g_hand).goal
        got = eval_temporal(
            ctx_at(g_hand, path_of(g_hand, "s0"), horizon=0),
            goal,
            path_of(g_hand, "s0"),
        )
        assert got is U

    def test_release_is_dual_of_until(self, g_mix):
        rng = random.Random(11)
        outcomes = all_paths(g_mix, 0, 2)
        for _ in range(200):
            outcome = rng.choice(outcomes)
            left = parse_formula(
                rng.choice(["start", "leftHit", "!start", "true"]), g_mix
            )
            right = parse_formula(
                rng.choice(["start", "rightHit", "!leftHit", "false"]), g_mix
            )
            base = ctx_at(g_mix, path_of(g_mix, "s0"), horizon=2)
            from upatl.formula import Not

            released = eval_temporal(base, Release(left, right), outcome)
            dual = not3(
                eval_temporal(base, Until(Not(left), Not(right)), outcome)
            )
            assert released is dual


class TestStrategyTreeEnumeration:
    def test_observer_has_one_tree(self, g_hand):
        trees = list(enumerate_strategy_trees(g_hand, 0, frozenset({0}), 2))
        assert len(trees) == 1

    def test_opponent_has_three_depth_one_trees(self, g_hand):
        opp = g_hand.agent_names.index("opp")
        trees = list(enumerate_strategy_trees(g_hand, 0, frozenset({opp}), 1))
        assert len(trees) == 3
        roots = [tree.decisions[(0,)] for tree in trees]
        assert roots == sorted(roots)

    def test_empty_coalition_single_tree(self, g_hand):
        trees = list(enumerate_strategy_trees(g_hand, 0, frozenset(), 3))
        assert len(trees) == 1
        assert trees[0].decisions == {}

    def test_opponent_depth_two_count(self, g_hand):
        # Root choice (3) times one choice per reachable depth-2 history:
        # serve loops to s0 (3 follow-ups), swings lock to serve (1 each).
        opp = g_hand.agent_names.index("opp")
        trees = list(enumerate_strategy_trees(g_hand, 0, frozenset({opp}), 2))
        assert len(trees) == 3 + 1 + 1

    def test_deep_tree_does_not_exhaust_the_call_stack(self, g_hand):
        # At depth 10 the observer's single tree decides 1,364 histories.
        first = next(enumerate_strategy_trees(g_hand, 0, frozenset({0}), 10))
        f = parse_formula("<<obs>> N leftHit", g_hand)
        ctx = ctx_at(g_hand, path_of(g_hand, "s0"), horizon=10)
        tree, _ = find_falsifying_pair(ctx, f.coalition, f.goal)
        assert len(first.decisions) == 1364
        assert tree.decisions == first.decisions


class TestStrategic:
    def test_swing_wins_next_lefthit(self, g_hand):
        got = check_state(g_hand, 0, parse_formula("<<opp>> N leftHit", g_hand), 1)
        assert got is T

    def test_ambient_assignment_does_not_constrain_strategy(self, g_hand):
        # The opponent wins N leftHit even when the ambient assignment says
        # righty: the semantics only requires compatibility of the outcome.
        righty = (
            g_hand.capacity_names.index("normal"),
            g_hand.capacity_names.index("righty"),
        )
        ctx = ctx_at(
            g_hand, path_of(g_hand, "s0"), horizon=1, assignment=righty
        )
        got = eval_path_formula(ctx, parse_formula("<<opp>> N leftHit", g_hand))
        assert got is T

    def test_unsatisfiable_next_is_false(self, g_hand):
        got = check_state(
            g_hand, 0, parse_formula("<<opp>> N (leftHit & rightHit)", g_hand), 1
        )
        assert got is F

    def test_observer_cannot_force_discovery(self, g_hand):
        f = parse_formula(
            "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))", g_hand
        )
        for horizon in range(7):
            assert check_state(g_hand, 0, f, horizon) is U

    def test_mixed_swings_have_empty_outcomes(self, g_mix):
        from upatl.trace import StrategyTree, outcomes_bounded

        opp = g_mix.agent_names.index("opp")
        swing_l = g_mix.action_names.index("swingL")
        swing_r = g_mix.action_names.index("swingR")
        tree = StrategyTree(
            coalition=frozenset({opp}),
            pivot=0,
            depth=2,
            decisions={(0, 1): (swing_r,), (0,): (swing_l,)},
        )
        assert outcomes_bounded(g_mix, path_of(g_mix, "s0"), tree, 2) == frozenset()

    def test_witness_is_first_in_enumeration_order(self, g_hand):
        f = parse_formula("<<opp>> N leftHit", g_hand)
        ctx = ctx_at(g_hand, path_of(g_hand, "s0"), horizon=1)
        tree = find_winning_strategy(ctx, f.coalition, f.goal)
        swing_l = g_hand.action_names.index("swingL")
        assert tree is not None
        assert tree.decisions[(0,)] == (swing_l,)

    def test_invalid_witness_raises(self, g_mix, monkeypatch):
        drop_deepest_decision(monkeypatch)
        f = parse_formula("<<opp>> N rightHit", g_mix)
        ctx = ctx_at(g_mix, path_of(g_mix, "s0"), horizon=2)
        with pytest.raises(ValueError, match="no decision for reachable history s0 s2"):
            find_winning_strategy(ctx, f.coalition, f.goal)

    @pytest.mark.parametrize(
        "game_name, text, horizon, decisions",
        [
            ("hand", "<<obs>> N leftHit", 8, 340),
            ("hand_mix", "<<opp>> N rightHit", 10, 10),
        ],
        ids=["hand-false", "hand_mix-true"],
    )
    def test_certificate_decision_limit(
        self, monkeypatch, game_name, text, horizon, decisions
    ):
        game = load_game_file(game_name)
        f = parse_formula(text, game)
        ctx = ctx_at(game, path_of(game, "s0"), horizon=horizon)

        def certificate():
            if eval_path_formula(ctx, f) is T:
                return find_winning_strategy(ctx, f.coalition, f.goal)
            return find_falsifying_pair(ctx, f.coalition, f.goal)[0]

        monkeypatch.setattr(checker, "MAX_CERTIFICATE_DECISIONS", decisions)
        assert len(certificate().decisions) == decisions
        monkeypatch.setattr(checker, "MAX_CERTIFICATE_DECISIONS", decisions - 1)
        with pytest.raises(CertificateTooLarge, match=f"more than {decisions - 1} "):
            certificate()
        assert not issubclass(CertificateTooLarge, ValueError)

    def test_witness_matches_reference_enumeration(self, g_hand, g_mix):
        games = [g_hand, g_mix] + [
            generate_random_game(
                GeneratorParams(seed=seed, states=3 + seed % 3, agents=2 + seed % 2)
            )
            for seed in range(10)
        ]
        witnesses = falsifiers = 0
        for game in games:
            lam = canonical_assignment(game)
            # The reference enumerates trees one by one; with three agents
            # it takes seconds per game at k=3.
            horizons = range(1, 4 if game.agent_count == 2 else 3)
            for f in formula_templates(game):
                if not isinstance(f, Strat):
                    continue
                for horizon in horizons:
                    for q in game.states:
                        ctx = EvalContext(game, Path((q,)), 1, lam, horizon)
                        got = find_winning_strategy(ctx, f.coalition, f.goal)
                        want = first_winning_tree(ctx, f.coalition, f.goal)
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert got.decisions == want.decisions
                            witnesses += 1
                        if eval_path_formula(ctx, f) is not F:
                            continue
                        # The falsifier: the first tree, and its first FALSE
                        # outcome in action order.
                        tree, outcome = find_falsifying_pair(
                            ctx, f.coalition, f.goal
                        )
                        first = next(
                            enumerate_strategy_trees(game, q, f.coalition, horizon)
                        )
                        assert tree.decisions == first.decisions
                        outcomes = outcomes_bounded(game, Path((q,)), first, horizon)
                        wrong = [
                            p
                            for p in sorted(outcomes, key=lambda p: p.actions)
                            if reference_temporal(ctx, f.goal, p) is F
                        ]
                        assert outcome == (wrong[0] if wrong else None)
                        falsifiers += 1
        assert witnesses > 100 and falsifiers > 100

    def test_falsifying_pair_on_false_verdict(self, g_hand):
        f = parse_formula("<<opp>> N (leftHit & rightHit)", g_hand)
        ctx = ctx_at(g_hand, path_of(g_hand, "s0"), horizon=1)
        assert eval_path_formula(ctx, f) is F
        tree, outcome = find_falsifying_pair(ctx, f.coalition, f.goal)
        assert outcome is not None
        base = ctx_at(g_hand, path_of(g_hand, "s0"), horizon=1)
        assert eval_temporal(base, f.goal, outcome) is F


@pytest.fixture(scope="module")
def g_censor():
    from upatl.model import build_game

    return build_game(
        name="censor",
        agents=["env", "act"],
        capacities={"env": ["e"], "act": ["three", "one"]},
        actions={"e": ["move", "stay"], "three": ["act3"], "one": ["act1"]},
        states=["good", "bad"],
        labels={"bad": ["mark"]},
        protocol={
            ("env", "good"): ["stay"],
            ("env", "bad"): ["move", "stay"],
            ("act", "good"): ["act3", "act1"],
            ("act", "bad"): ["act3", "act1"],
        },
        transitions={
            ("good", ("stay", "act3")): "good",
            ("good", ("stay", "act1")): "good",
            ("bad", ("move", "act3")): "good",
            ("bad", ("move", "act1")): "bad",
            ("bad", ("stay", "act3")): "bad",
            ("bad", ("stay", "act1")): "bad",
        },
    )


class TestPruningRescue:
    """A coalition can erase a bad branch after the fact by playing actions
    jointly incompatible with every assignment that could have produced it.
    Shallow falsifications that deeper play can prune this way must stay
    UNKNOWN, not FALSE."""

    def test_shallow_falsification_stays_unknown(self, g_censor):
        # With one step, playing act3 still leaves a surviving bad-successor
        # branch; with two steps, following up with act1 makes that branch
        # incompatible with both capacities and it disappears.
        f = parse_formula("<<act>> N !mark", g_censor)
        bad = g_censor.state_names.index("bad")
        verdicts = [check_state(g_censor, bad, f, k) for k in range(4)]
        assert verdicts == [U, U, T, T]

    def test_matches_oracle_at_each_horizon(self, g_censor):
        f = parse_formula("<<act>> N !mark", g_censor)
        lam = canonical_assignment(g_censor)
        for q in g_censor.states:
            for k in range(4):
                rho = Path((q,))
                assert eval_path_formula(
                    EvalContext(g_censor, rho, 1, lam, k), f
                ) is brute_force_eval(g_censor, rho, 1, lam, f, k)

    def test_unprunable_falsification_is_false(self, g_hand):
        # Every tree's every outcome violates the goal, so pruning cannot
        # rescue anything and the verdict is decidedly FALSE.
        f = parse_formula("<<opp>> N (leftHit & rightHit)", g_hand)
        for k in (1, 2, 3):
            assert check_state(g_hand, 0, f, k) is F


class TestFalsifier:
    """``find_falsifying_pair`` finds its outcome depth-first; the reference
    route builds every outcome with ``outcomes_bounded``, sorts them by
    actions and takes the first that ``reference_temporal`` makes FALSE."""

    @staticmethod
    def reference_outcome(ctx, goal, tree):
        prefix = ctx.path.prefix(ctx.index)
        outcomes = outcomes_bounded(ctx.game, prefix, tree, ctx.horizon)
        for outcome in sorted(outcomes, key=lambda p: p.actions):
            if reference_temporal(ctx, goal, outcome) is F:
                return outcome
        return None

    def test_matches_reference_from_mid_path_prefixes(self, g_hand, g_mix, g_censor):
        games = [g_hand, g_mix, g_censor] + [
            generate_random_game(GeneratorParams(seed=seed, states=3, agents=2))
            for seed in range(4)
        ]
        found = empty = 0
        for game in games:
            lam = canonical_assignment(game)
            strategic = [
                f
                for f in formula_templates(game, include_deep=False)
                if isinstance(f, Strat)
            ]
            for q in game.states:
                for rho in all_paths(game, q, 2):
                    for index in (2, 3):
                        for horizon in (0, 1, 2):
                            ctx = EvalContext(game, rho, index, lam, horizon)
                            for f in strategic:
                                tree, outcome = find_falsifying_pair(
                                    ctx, f.coalition, f.goal
                                )
                                first = next(
                                    enumerate_strategy_trees(
                                        game, rho.states[index - 1], f.coalition, horizon
                                    )
                                )
                                assert tree.decisions == first.decisions
                                want = self.reference_outcome(ctx, f.goal, tree)
                                assert outcome == want
                                found += outcome is not None
                                empty += outcome is None
        assert found > 1000 and empty > 1000

    def test_prefix_without_compatible_assignment_has_no_outcome(self, g_mix):
        # swingL then swingR: no capacity of the opponent licenses both.
        rho = path_of(
            g_mix, "s0", ("watch", "swingL"), "s1", ("watch", "swingR"), "s2"
        )
        for text in ("<<opp>> N leftHit", "<<obs>> G start", "<<>> F rightHit"):
            f = parse_formula(text, g_mix)
            for horizon in (0, 1, 3):
                ctx = ctx_at(g_mix, rho, index=3, horizon=horizon)
                assert eval_path_formula(ctx, f) is F
                tree, outcome = find_falsifying_pair(ctx, f.coalition, f.goal)
                assert outcome is None
                assert self.reference_outcome(ctx, f.goal, tree) is None

    def test_invalid_tree_raises(self, g_hand, monkeypatch):
        drop_deepest_decision(monkeypatch)
        f = parse_formula("<<obs>> N leftHit", g_hand)
        ctx = ctx_at(g_hand, path_of(g_hand, "s0"), horizon=3)
        with pytest.raises(ValueError, match="invalid strategy tree"):
            find_falsifying_pair(ctx, f.coalition, f.goal)

    def test_never_builds_every_outcome(self, g_hand, g_mix, monkeypatch):
        from upatl import checker, trace

        def refuse(*args):
            raise AssertionError("outcomes_bounded called")

        monkeypatch.setattr(trace, "outcomes_bounded", refuse)
        monkeypatch.setattr(checker, "outcomes_bounded", refuse, raising=False)
        for game, text, horizon in [
            (g_hand, "<<obs>> N leftHit", 8),
            (g_mix, "<<obs>> N K[obs](opp=righty)", 6),
            (g_hand, "<<opp>> N (leftHit & rightHit)", 2),
        ]:
            f = parse_formula(text, game)
            ctx = ctx_at(game, path_of(game, "s0"), horizon=horizon)
            assert eval_path_formula(ctx, f) is F
            _, outcome = find_falsifying_pair(ctx, f.coalition, f.goal)
            assert outcome is not None
            assert eval_temporal(ctx, f.goal, outcome) is F


class TestCheckState:
    def test_atom(self, g_hand):
        for horizon in (0, 2):
            assert check_state(g_hand, 0, parse_formula("start", g_hand), horizon) is T

    def test_knowledge_at_bare_state(self, g_hand):
        s1 = g_hand.state_names.index("s1")
        f = parse_formula("K[obs](opp=lefty)", g_hand)
        assert check_state(g_hand, s1, f, 0) is F

    def test_assignment_independence(self, g_hand, g_mix):
        for game in (g_hand, g_mix):
            formulas = [
                parse_formula(text, game)
                for text in (
                    "<<opp>> N leftHit",
                    "<<obs>> (true) U (K[obs](opp=lefty))",
                    "!K[obs](opp=righty)",
                    "<<>> (start) R (true)",
                )
            ]
            for f in formulas:
                for q in game.states:
                    verdicts = {
                        eval_path_formula(
                            EvalContext(game, Path((q,)), 1, lam, 2), f
                        )
                        for lam in complete_assignments(game)
                    }
                    assert len(verdicts) == 1

    @pytest.mark.parametrize(
        "text, nesting", [("<<opp>> G start", 1), ("<<opp>> G <<opp>> G start", 2)]
    )
    def test_search_depth_limit(self, g_mix, text, nesting):
        f = parse_formula(text, g_mix)
        at = MAX_SEARCH_DEPTH // nesting
        assert check_state(g_mix, 0, f, at) is U
        with pytest.raises(SearchDepthError, match="search depth limit"):
            check_state(g_mix, 0, f, at + 1)
        # Every entry point refuses it too.  A goal with ``f`` inside nests
        # as deep as ``f``; the outcome serves at s0 throughout.
        goal = parse_formula(f"<<opp>> G ({text})", g_mix).goal
        serve = path_of(g_mix, "s0", ("watch", "serve"), "s0").actions
        ctx = ctx_at(g_mix, Path((0,)), horizon=at)
        assert eval_path_formula(ctx, f) is U
        assert eval_temporal(ctx, goal, Path((0,) * (at + 1), serve * at)) is U
        ctx = ctx_at(g_mix, Path((0,)), horizon=at + 1)
        outcome = Path((0,) * (at + 2), serve * (at + 1))
        for call in (
            lambda: eval_path_formula(ctx, f),
            lambda: find_winning_strategy(ctx, f.coalition, f.goal),
            lambda: find_falsifying_pair(ctx, f.coalition, f.goal),
            lambda: eval_temporal(ctx, goal, outcome),
        ):
            with pytest.raises(SearchDepthError, match="search depth limit"):
                call()


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "index, horizon, assignment, message",
        [
            (0, 0, None, "index out of range for the path"),
            (2, 0, None, "index out of range for the path"),
            (1, -1, None, "horizon must be nonnegative"),
            (1, 0, (0,), "ambient capacity assignment must be complete"),
        ],
        ids=["index-zero", "index-past-end", "negative-horizon", "incomplete-assignment"],
    )
    def test_context(self, g_hand, index, horizon, assignment, message):
        with pytest.raises(ValueError, match=message):
            ctx_at(g_hand, Path((0,)), index, horizon, assignment)

    @pytest.mark.parametrize("states", [1, 3])
    def test_outcome_length(self, g_hand, states):
        # Horizon 1 from position 1 reads exactly two states.
        goal = parse_formula("<<opp>> N leftHit", g_hand).goal
        outcome = Path((0,) * states, ((0, 1),) * (states - 1))
        with pytest.raises(ValueError, match="outcome does not match the horizon"):
            eval_temporal(ctx_at(g_hand, Path((0,)), horizon=1), goal, outcome)

    @pytest.mark.parametrize("state", [-1, 3])
    def test_unknown_state(self, g_hand, state):
        with pytest.raises(ValueError, match=f"unknown state id {state}"):
            check_state(g_hand, state, parse_formula("start", g_hand), 0)


class TestOracleAgreement:
    """Spot agreement with the brute-force route; the exhaustive sweep lives
    in the acceptance suite."""

    def test_fixture_examples_match_oracle(self, g_hand, g_mix):
        cases = [
            (g_hand, "start", 0),
            (g_hand, "<<opp>> N leftHit", 1),
            (g_hand, "<<opp>> N (leftHit & rightHit)", 1),
            (g_hand, "<<obs>> F (K[obs](opp=lefty) | K[obs](opp=righty))", 3),
            (g_mix, "<<opp>> (true) U (rightHit)", 2),
            (g_mix, "<<>> N start", 1),
        ]
        for game, text, horizon in cases:
            f = parse_formula(text, game)
            lam = canonical_assignment(game)
            for q in game.states:
                rho = Path((q,))
                expected = brute_force_eval(game, rho, 1, lam, f, horizon)
                got = eval_path_formula(
                    EvalContext(game, rho, 1, lam, horizon), f
                )
                assert got is expected

    def test_mid_path_positions_match_oracle(self, g_mix):
        lam = canonical_assignment(g_mix)
        f = parse_formula("<<opp>> (true) U (K[obs](opp=lefty))", g_mix)
        from upatl.trace import compatible_assignments

        paths = [
            rho
            for rho in all_paths(g_mix, 0, 2)
            if compatible_assignments(g_mix, rho)
        ]
        for rho in paths:
            for index in (1, 2, 3):
                expected = brute_force_eval(g_mix, rho, index, lam, f, 2)
                got = eval_path_formula(
                    EvalContext(g_mix, rho, index, lam, 2), f
                )
                assert got is expected

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from upatl.oracle import GeneratorParams, generate_random_game
from upatl.trace import (
    Path,
    StrategyTree,
    compatible_assignments,
    complete_assignments,
    indistinguishability_class,
    indistinguishable,
    outcomes_bounded,
    validate_path,
    validate_strategy_tree,
)
from upatl.model import GameStructure, build_game

from helpers import all_paths, path_of


def assignment_names(game, assignments):
    return {
        tuple(game.capacity_names[c] for c in lam) for lam in assignments
    }


def opp_tree(game, decisions, depth):
    """Strategy tree for opp anchored at s0, decisions keyed by state names."""
    opp = game.agent_names.index("opp")
    return StrategyTree(
        coalition=frozenset({opp}),
        pivot=game.state_names.index("s0"),
        depth=depth,
        decisions={
            tuple(game.state_names.index(s) for s in history): (
                game.action_names.index(act),
            )
            for history, act in decisions.items()
        },
    )


class TestTraces:
    def test_projections(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        assert rho.states == (
            g_hand.state_names.index("s0"),
            g_hand.state_names.index("s1"),
        )
        assert rho.actions == (
            (g_hand.action_names.index("watch"), g_hand.action_names.index("swingL")),
        )

    def test_single_state_path(self, g_hand):
        rho = path_of(g_hand, "s0")
        assert rho.states == (g_hand.state_names.index("s0"),)
        assert rho.actions == ()

    def test_alternation_invariant(self, g_hand):
        for steps in range(4):
            for rho in all_paths(g_hand, 0, steps):
                assert len(rho.states) == len(rho.actions) + 1

    @pytest.mark.parametrize(
        "states, actions, message",
        [
            ((), (), "a path has at least one state"),
            ((0, 0), (), "a finite path alternates states and actions"),
            ((0,), ((0, 1),), "a finite path alternates states and actions"),
        ],
        ids=["no-state", "missing-action", "extra-action"],
    )
    def test_malformed_path(self, states, actions, message):
        with pytest.raises(ValueError, match=message):
            Path(states, actions)

    @pytest.mark.parametrize("n_states", [0, 3])
    def test_prefix_out_of_range(self, g_hand, n_states):
        rho = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        with pytest.raises(ValueError, match=f"prefix of {n_states} states out of range"):
            rho.prefix(n_states)

    @pytest.mark.parametrize("state", [-1, 3])
    def test_validate_path_unknown_state(self, g_hand, state):
        assert not validate_path(g_hand, Path((state,)))
        serve = path_of(g_hand, "s0", ("watch", "serve"), "s0").actions
        assert not validate_path(g_hand, Path((0, state), serve))

    def test_validate_path(self, g_hand):
        good = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        bad = path_of(g_hand, "s0", ("watch", "swingL"), "s2")
        assert validate_path(g_hand, good)
        assert not validate_path(g_hand, bad)
        assert validate_path(g_hand, path_of(g_hand, "s0"))
        # serve is a real action, but not one obs may play.
        unavailable = path_of(g_hand, "s0", ("serve", "serve"), "s0")
        assert not validate_path(g_hand, unavailable)


class TestCompatibleAssignments:
    def test_empty_path_allows_all(self, g_hand):
        got = compatible_assignments(g_hand, path_of(g_hand, "s0"))
        assert assignment_names(g_hand, got) == {
            ("normal", "lefty"),
            ("normal", "righty"),
        }

    def test_swing_reveals_handedness(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        got = compatible_assignments(g_hand, rho)
        assert assignment_names(g_hand, got) == {("normal", "lefty")}

    def test_mixed_swings_are_incompatible(self, g_mix):
        rho = path_of(
            g_mix,
            "s0",
            ("watch", "swingL"),
            "s1",
            ("watch", "swingR"),
            "s2",
        )
        assert compatible_assignments(g_mix, rho) == frozenset()

    def test_matches_naive_refilter(self, g_hand, g_mix):
        for game in (g_hand, g_mix):
            for start in game.states:
                for steps in range(3):
                    for rho in all_paths(game, start, steps):
                        naive = frozenset(
                            lam
                            for lam in complete_assignments(game)
                            if all(
                                joint[a] in game.capacity_actions[lam[a]]
                                for joint in rho.actions
                                for a in game.agents
                            )
                        )
                        assert compatible_assignments(game, rho) == naive

    def test_antitone_along_prefixes(self, g_mix):
        for rho in all_paths(g_mix, 0, 3):
            sets = [
                compatible_assignments(g_mix, rho.prefix(n))
                for n in range(1, len(rho.states) + 1)
            ]
            for small, large in zip(sets[1:], sets):
                assert small <= large

    def test_extension_lemma(self, g_hand, g_mix):
        # Any compatible assignment of a finite path survives some one-step
        # extension; the progression condition guarantees it.
        from upatl.oracle import GeneratorParams, generate_random_game

        games = [g_hand, g_mix] + [
            generate_random_game(
                GeneratorParams(seed=50 + i, states=2 + i % 3, agents=1 + i % 3)
            )
            for i in range(8)
        ]
        for game in games:
            for rho in all_paths(game, 0, 2):
                for lam in compatible_assignments(game, rho):
                    extensions = [
                        rho.extend(
                            joint, game.transitions[(rho.last_state, joint)]
                        )
                        for joint in game.joint_actions(rho.last_state)
                    ]
                    assert any(
                        lam in compatible_assignments(game, ext)
                        for ext in extensions
                    )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_antitonicity_property(self, seed, steps):
        rng = random.Random(seed)
        game = generate_random_game(
            GeneratorParams(
                seed=seed % 10_000,
                states=1 + seed % 4,
                agents=1 + seed % 3,
            )
        )
        rho = Path((rng.randrange(len(game.state_names)),))
        for _ in range(steps):
            joint = rng.choice(game.joint_actions(rho.last_state))
            rho = rho.extend(joint, game.transitions[(rho.last_state, joint)])
        sets = [
            compatible_assignments(game, rho.prefix(n))
            for n in range(1, len(rho.states) + 1)
        ]
        for small, large in zip(sets[1:], sets):
            assert small <= large


class TestIndistinguishability:
    def test_reflexive(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        assert indistinguishable(g_hand, rho, rho, 0)

    def test_different_state_traces_distinguish(self, g_hand):
        left = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        right = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        assert not indistinguishable(g_hand, left, right, 0)

    def test_length_mismatch_is_an_error(self, g_hand):
        left = path_of(g_hand, "s0")
        right = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        with pytest.raises(ValueError):
            indistinguishable(g_hand, left, right, 0)

    def test_third_agent_cannot_see_swapped_actions(self):
        # Agents b and c can swap their actions without changing the state,
        # and agent a cannot tell the difference.
        game = build_game(
            name="swap",
            agents=["a", "b", "c"],
            capacities={"a": ["ca"], "b": ["cb"], "c": ["cc"]},
            actions={"ca": ["idle"], "cb": ["x", "y"], "cc": ["x", "y"]},
            states=["q"],
            labels={},
            protocol={
                ("a", "q"): ["idle"],
                ("b", "q"): ["x", "y"],
                ("c", "q"): ["x", "y"],
            },
            transitions={
                ("q", ("idle", bx, cx)): "q"
                for bx in ("x", "y")
                for cx in ("x", "y")
            },
        )
        left = path_of(game, "q", ("idle", "x", "y"), "q")
        right = path_of(game, "q", ("idle", "y", "x"), "q")
        assert indistinguishable(game, left, right, 0)
        assert not indistinguishable(game, left, right, 1)

    def test_class_of_swing_is_singleton(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "swingL"), "s1")
        assert indistinguishability_class(g_hand, rho, 0) == {rho}

    def test_class_for_acting_agent_is_singleton(self, g_hand):
        rho = path_of(g_hand, "s0", ("watch", "serve"), "s0")
        opp = g_hand.agent_names.index("opp")
        assert indistinguishability_class(g_hand, rho, opp) == {rho}

    def test_class_of_single_state(self, g_hand):
        rho = path_of(g_hand, "s0")
        assert indistinguishability_class(g_hand, rho, 0) == {rho}

    def test_equivalence_laws_on_sampled_paths(self, g_mix):
        rng = random.Random(7)
        paths = all_paths(g_mix, 0, 2)
        for _ in range(300):
            a, b, c = (rng.choice(paths) for _ in range(3))
            agent = rng.randrange(g_mix.agent_count)
            assert indistinguishable(g_mix, a, a, agent)
            if indistinguishable(g_mix, a, b, agent):
                assert indistinguishable(g_mix, b, a, agent)
                if indistinguishable(g_mix, b, c, agent):
                    assert indistinguishable(g_mix, a, c, agent)

    def test_class_is_the_definition(self, g_hand, g_mix):
        # The class read from the move table equals the paths of the same
        # length from the same start that ``indistinguishable`` accepts, with
        # the candidates enumerated from ``joint_actions`` and ``transitions``.
        games = [g_hand, g_mix] + [
            generate_random_game(GeneratorParams(seed=seed, agents=3))
            for seed in range(6)
        ]
        for game in games:
            for start in game.states:
                for steps in range(3):
                    paths = all_paths(game, start, steps)
                    for rho, agent in itertools.product(paths, game.agents):
                        expected = {
                            p for p in paths if indistinguishable(game, rho, p, agent)
                        }
                        assert indistinguishability_class(game, rho, agent) == expected

    def test_class_closure(self, g_mix):
        for rho in all_paths(g_mix, 0, 2):
            for agent in g_mix.agents:
                cls = indistinguishability_class(g_mix, rho, agent)
                assert rho in cls
                for member in cls:
                    assert (
                        indistinguishability_class(g_mix, member, agent) == cls
                    )


class TestOutcomes:
    def test_single_step_swing(self, g_hand):
        tree = opp_tree(g_hand, {("s0",): "swingL"}, depth=1)
        got = outcomes_bounded(g_hand, path_of(g_hand, "s0"), tree, 1)
        assert got == {path_of(g_hand, "s0", ("watch", "swingL"), "s1")}

    def test_forced_serve_after_swing(self, g_hand):
        # At s1 only serve is available, so the s1 branch must prescribe it.
        tree = opp_tree(
            g_hand, {("s0",): "swingL", ("s0", "s1"): "serve"}, depth=2
        )
        got = outcomes_bounded(g_hand, path_of(g_hand, "s0"), tree, 2)
        assert got == {
            path_of(
                g_hand,
                "s0",
                ("watch", "swingL"),
                "s1",
                ("watch", "serve"),
                "s0",
            )
        }

    def test_mixed_swings_pruned_to_empty(self, g_mix):
        tree = opp_tree(
            g_mix, {("s0",): "swingL", ("s0", "s1"): "swingR"}, depth=2
        )
        assert outcomes_bounded(g_mix, path_of(g_mix, "s0"), tree, 2) == frozenset()

    def test_swing_then_swing_is_invalid_in_hand_game(self, g_hand):
        tree = opp_tree(
            g_hand, {("s0",): "swingL", ("s0", "s1"): "swingR"}, depth=2
        )
        assert validate_strategy_tree(g_hand, tree)
        with pytest.raises(ValueError, match="invalid strategy tree"):
            outcomes_bounded(g_hand, path_of(g_hand, "s0"), tree, 2)

    def test_every_reachable_history_needs_a_decision(self, g_hand):
        # Watching at s0 lets opp serve, swingL or swingR, so the tree must
        # decide at s0 s0, s0 s1 and s0 s2.
        obs = g_hand.agent_names.index("obs")
        watch = g_hand.action_names.index("watch")
        tree = StrategyTree(frozenset({obs}), 0, 2, {(0,): (watch,), (0, 0): (watch,)})
        assert sorted(validate_strategy_tree(g_hand, tree)) == [
            f"no decision for reachable history s0 {name}" for name in ("s1", "s2")
        ]

    def test_history_reached_by_two_moves_is_checked_once(self):
        # At p, b's x and z both lead to q and y to r; a missing decision at
        # p q is reported once, and before p r (targets in last-move order).
        game = build_game(
            name="fork",
            agents=["a", "b"],
            capacities={"a": ["ca"], "b": ["cb"]},
            actions={"ca": ["go"], "cb": ["x", "y", "z"]},
            states=["p", "q", "r"],
            labels={},
            protocol={
                (agent, q): acts
                for agent, acts in (("a", ["go"]), ("b", ["x", "y", "z"]))
                for q in ("p", "q", "r")
            },
            transitions={
                (q, ("go", bx)): target
                for q in ("p", "q", "r")
                for bx, target in (("x", "q"), ("y", "r"), ("z", "q"))
            },
        )
        tree = StrategyTree(frozenset({0}), 0, 2, {(0,): (0,)})
        assert validate_strategy_tree(game, tree) == [
            "no decision for reachable history p q",
            "no decision for reachable history p r",
        ]

    def test_empty_coalition_tree_is_valid_without_a_walk(self, g_mix, monkeypatch):
        # The empty coalition prescribes nothing, so no history needs a look.
        calls = []
        choices = GameStructure.choices

        def counting(game, state, members):
            calls.append(state)
            return choices(game, state, members)

        monkeypatch.setattr(GameStructure, "choices", counting)
        tree = StrategyTree(coalition=frozenset(), pivot=0, depth=8)
        assert validate_strategy_tree(g_mix, tree) == []
        assert calls == []

    def test_unknown_coalition_agent(self, g_hand):
        tree = StrategyTree(frozenset({2}), 0, 1, {(0,): (0,)})
        assert validate_strategy_tree(g_hand, tree) == [
            "coalition contains an unknown agent"
        ]

    @pytest.mark.parametrize(
        "pivot, decisions, expected",
        [
            # Ids of opp's tree on hand: s0=0, s1=1; serve=1, swingL=2.
            (
                0,
                {(0,): (2,), (0, 1): (1,), (0, 99): (1,)},
                ["decision at history (0, 99) has an unknown state"],
            ),
            (0, {(0,): (99,)}, ["decision at history (0,) has an unknown action"]),
            (0, {(0,): (-1,)}, ["decision at history (0,) has an unknown action"]),
            (
                99,
                {(99,): (1,)},
                [
                    "pivot 99 is an unknown state",
                    "decision at history (99,) has an unknown state",
                ],
            ),
            (
                -1,
                {(-1,): (1,)},
                [
                    "pivot -1 is an unknown state",
                    "decision at history (-1,) has an unknown state",
                ],
            ),
        ],
        ids=["history-state", "action", "negative-action", "pivot", "negative-pivot"],
    )
    def test_ids_outside_the_game(self, g_hand, pivot, decisions, expected):
        # Ids are checked before the walk: none is read as another by
        # wrapping around, and none is used as an index.
        tree = StrategyTree(frozenset({1}), pivot, 2, decisions)
        assert validate_strategy_tree(g_hand, tree) == expected

    @pytest.mark.parametrize("decision", [(), ("serve", "serve")])
    def test_decision_arity(self, g_hand, decision):
        opp = g_hand.agent_names.index("opp")
        actions = tuple(g_hand.action_names.index(name) for name in decision)
        tree = StrategyTree(frozenset({opp}), 0, 1, {(0,): actions})
        assert validate_strategy_tree(g_hand, tree) == [
            "decision arity does not match the coalition"
        ]

    def test_pivot_mismatch(self, g_hand):
        tree = opp_tree(g_hand, {("s0",): "swingL"}, depth=1)
        with pytest.raises(ValueError, match="pivot"):
            outcomes_bounded(g_hand, path_of(g_hand, "s1"), tree, 1)

    def test_insufficient_depth(self, g_hand):
        tree = opp_tree(g_hand, {("s0",): "swingL"}, depth=1)
        with pytest.raises(ValueError, match="shallow"):
            outcomes_bounded(g_hand, path_of(g_hand, "s0"), tree, 2)

    def test_empty_coalition_ranges_over_compatible_continuations(self, g_mix):
        tree = StrategyTree(coalition=frozenset(), pivot=0, depth=2)
        got = outcomes_bounded(g_mix, path_of(g_mix, "s0"), tree, 2)
        expected = {
            rho
            for rho in all_paths(g_mix, 0, 2)
            if compatible_assignments(g_mix, rho)
        }
        assert got == expected

    def test_prefix_consistency_between_bounds(self, g_hand, g_mix):
        # Outcomes at k+1, cut back to k steps, are exactly the k-outcomes
        # whenever every k-outcome still has a compatible extension.
        for game, decisions in (
            (g_hand, {("s0",): "serve", ("s0", "s0"): "swingL"}),
            (g_mix, {("s0",): "swingL", ("s0", "s1"): "swingL"}),
        ):
            tree_small = opp_tree(game, {("s0",): decisions[("s0",)]}, depth=1)
            tree_big = opp_tree(game, decisions, depth=2)
            start = path_of(game, "s0")
            small = outcomes_bounded(game, start, tree_small, 1)
            big = outcomes_bounded(game, start, tree_big, 2)
            cut = {rho.prefix(2) for rho in big}
            assert cut == small

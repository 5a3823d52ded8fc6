import dataclasses
import itertools
import re

import pytest

from upatl import model
from upatl.gamespec import load_game, render_game
from upatl.model import (
    CAPACITY_MISSING_ACTION,
    MISSING_TRANSITION,
    PROTOCOL_OUTSIDE_CAPACITIES,
    SPURIOUS_TRANSITION,
    build_game,
    game_names,
    validate_structure,
)
from upatl.oracle import GeneratorParams, generate_random_game

from helpers import GAMES_DIR


def names(game, ids):
    return {game.action_names[x] for x in ids}


def replace_protocol(game, agent_name, state_name, action_names):
    """Copy of ``game`` with one protocol cell replaced (no transition fixup)."""
    a = game.agent_names.index(agent_name)
    q = game.state_names.index(state_name)
    acts = frozenset(game.action_names.index(x) for x in action_names)
    rows = [list(row) for row in game.protocols]
    rows[a][q] = acts
    return dataclasses.replace(
        game, protocols=tuple(tuple(row) for row in rows)
    )


class TestValidation:
    def test_fixtures_are_clean(self, g_hand, g_mix):
        assert validate_structure(g_hand) == []
        assert validate_structure(g_mix) == []

    def test_emptied_capacity_intersection_is_reported(self, g_hand):
        # d(opp, s1) = {swingL}: the righty capacity loses its only move there.
        mutant = replace_protocol(g_hand, "opp", "s1", ["swingL"])
        report = validate_structure(mutant)
        righty = g_hand.capacity_names.index("righty")
        s1 = g_hand.state_names.index("s1")
        assert any(
            v.kind == CAPACITY_MISSING_ACTION
            and v.capacity == righty
            and v.state == s1
            for v in report
        )

    def test_deleted_transition_is_reported(self, g_hand):
        key = (
            g_hand.state_names.index("s0"),
            (
                g_hand.action_names.index("watch"),
                g_hand.action_names.index("serve"),
            ),
        )
        trans = dict(g_hand.transitions)
        del trans[key]
        mutant = dataclasses.replace(g_hand, transitions=trans)
        report = validate_structure(mutant)
        assert [v.kind for v in report] == [MISSING_TRANSITION]
        assert report[0].joint == key[1]

    def test_action_outside_capacities_is_reported(self, g_hand):
        # serve is an action of the game but of none of obs's capacities.
        mutant = replace_protocol(g_hand, "obs", "s1", ["watch", "serve"])
        report = validate_structure(mutant)
        kinds = {v.kind for v in report}
        assert PROTOCOL_OUTSIDE_CAPACITIES in kinds
        # The protocol change also makes new joint actions available.
        assert MISSING_TRANSITION in kinds

    def test_spurious_transition_is_reported(self, g_hand):
        trans = dict(g_hand.transitions)
        s1 = g_hand.state_names.index("s1")
        swing = (
            g_hand.action_names.index("watch"),
            g_hand.action_names.index("swingL"),
        )
        trans[(s1, swing)] = s1
        mutant = dataclasses.replace(g_hand, transitions=trans)
        report = validate_structure(mutant)
        assert [v.kind for v in report] == [SPURIOUS_TRANSITION]

    def test_empty_capacity_set_is_reported(self, g_hand):
        mutant = dataclasses.replace(
            g_hand,
            agent_capacities=(frozenset(), g_hand.agent_capacities[1]),
        )
        report = validate_structure(mutant)
        assert any(v.kind == model.EMPTY_CAPACITIES and v.agent == 0 for v in report)


class TestMoves:
    def test_joint_actions_product(self, g_hand):
        s0 = g_hand.state_names.index("s0")
        got = {
            tuple(g_hand.action_names[x] for x in joint)
            for joint in g_hand.joint_actions(s0)
        }
        assert got == {
            ("watch", "serve"),
            ("watch", "swingL"),
            ("watch", "swingR"),
        }

    def test_joint_actions_singleton(self, g_hand):
        s1 = g_hand.state_names.index("s1")
        got = g_hand.joint_actions(s1)
        assert len(got) == 1

    def test_joint_actions_unknown_state(self, g_hand):
        with pytest.raises(ValueError):
            g_hand.joint_actions(17)

    def test_all_singleton_protocols_mean_one_joint_action(self, g_hand):
        for q in (1, 2):
            assert len(g_hand.joint_actions(q)) == 1

    def test_choices_partition_moves_by_coalition_choice(self, g_hand, g_mix):
        three = generate_random_game(GeneratorParams(seed=4, states=4, agents=3))
        for game in (g_hand, g_mix, three):
            for size in range(game.agent_count + 1):
                for members in itertools.combinations(game.agents, size):
                    for q in game.states:
                        every = [
                            (joint, game.licensing(joint), game.transitions[(q, joint)])
                            for joint in game.joint_actions(q)
                        ]
                        table = game.choices(q, members)
                        assert list(table) == list(
                            itertools.product(
                                *(sorted(game.protocols[a][q]) for a in members)
                            )
                        )
                        for choice, moves in table.items():
                            assert moves == tuple(
                                move
                                for move in every
                                if tuple(move[0][a] for a in members) == choice
                            )
                        allowed = [m for ms in table.values() for m in ms]
                        assert sorted(allowed) == sorted(every)
            copy = dataclasses.replace(game, name="copy")
            assert game._choices and not copy._choices

    def test_progression_gives_total_successors(self, g_hand, g_mix):
        for game in (g_hand, g_mix):
            for q in game.states:
                joints = game.joint_actions(q)
                assert joints
                for joint in joints:
                    assert (q, joint) in game.transitions


def with_row(rows, i, row):
    """``rows`` with its ``i``-th entry replaced by ``row``."""
    return rows[:i] + (row,) + rows[i + 1 :]


def with_transition(game, key, target):
    return {**game.transitions, key: target}


# One mutant of hand.game per shape or range check of the constructor: the
# fields to replace, and the check's message.  Each mutant passes every
# other check, so that it is rejected by its own check alone.
MALFORMED = {
    "no-agents": (
        lambda g: {"agent_names": ()},
        "a game needs at least one agent",
    ),
    "no-states": (
        lambda g: {"state_names": ()},
        "a game needs at least one state",
    ),
    "no-true-prop": (
        lambda g: {"prop_names": with_row(g.prop_names, g.true_prop, "truth")},
        "reserved proposition 'true' missing",
    ),
    "labels-short": (
        lambda g: {"labels": g.labels[:-1]},
        "labels must cover every state",
    ),
    "label-range": (
        lambda g: {
            "labels": with_row(g.labels, 1, g.labels[1] | {len(g.prop_names)})
        },
        "label out of range at state 1",
    ),
    "label-without-true": (
        lambda g: {"labels": with_row(g.labels, 2, g.labels[2] - {g.true_prop})},
        "reserved proposition must label every state, missing at 2",
    ),
    "capacities-short": (
        lambda g: {"agent_capacities": g.agent_capacities[:-1]},
        "capacity sets must cover every agent",
    ),
    "capacity-range": (
        lambda g: {
            "agent_capacities": with_row(
                g.agent_capacities,
                1,
                g.agent_capacities[1] | {len(g.capacity_names)},
            )
        },
        "capacity id out of range",
    ),
    "action-sets-short": (
        lambda g: {"capacity_actions": g.capacity_actions[:-1]},
        "action sets must cover every capacity",
    ),
    "action-range": (
        lambda g: {
            "capacity_actions": with_row(
                g.capacity_actions, 0, g.capacity_actions[0] | {len(g.action_names)}
            )
        },
        "action id out of range",
    ),
    "protocols-short": (
        lambda g: {"protocols": g.protocols[:-1]},
        "protocols must cover every agent",
    ),
    "protocol-row-short": (
        lambda g: {"protocols": with_row(g.protocols, 1, g.protocols[1][:-1])},
        "protocols must cover every state",
    ),
    "protocol-action-range": (
        lambda g: {
            "protocols": with_row(
                g.protocols,
                0,
                with_row(g.protocols[0], 2, frozenset({len(g.action_names)})),
            )
        },
        "protocol action id out of range",
    ),
    "transition-state-range": (
        lambda g: {
            "transitions": with_transition(g, (0, (0, 1)), len(g.state_names))
        },
        "transition state id out of range",
    ),
    "transition-arity": (
        lambda g: {"transitions": with_transition(g, (0, (0,)), 0)},
        "joint action arity must equal agent count",
    ),
    "transition-action-range": (
        lambda g: {
            "transitions": with_transition(g, (0, (0, len(g.action_names))), 0)
        },
        "transition action id out of range",
    ),
    "init-range": (
        lambda g: {"init_state": len(g.state_names)},
        "init state out of range",
    ),
}


class TestConstruction:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_fields_are_rejected(self, g_hand, case):
        fields, message = MALFORMED[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(g_hand, **fields(g_hand))

    def test_reserved_prop_labels_every_state(self, g_hand):
        true_id = g_hand.true_prop
        assert all(true_id in props for props in g_hand.labels)

    def test_reserved_prop_name_rejected_in_labels(self):
        with pytest.raises(ValueError, match="reserved"):
            model.build_game(
                name="bad",
                agents=["a"],
                capacities={"a": ["c"]},
                actions={"c": ["x"]},
                states=["q"],
                labels={"q": ["true"]},
                protocol={("a", "q"): ["x"]},
                transitions={("q", ("x",)): "q"},
            )

    @pytest.mark.parametrize("name", ["K", "N", "U", "R", "F", "G"])
    def test_keyword_prop_name_rejected_in_labels(self, name):
        with pytest.raises(ValueError, match=f"^proposition name {name!r} is reserved$"):
            model.build_game(
                name="bad",
                agents=["a"],
                capacities={"a": ["c"]},
                actions={"c": ["x"]},
                states=["q"],
                labels={"q": [name]},
                protocol={("a", "q"): ["x"]},
                transitions={("q", ("x",)): "q"},
            )

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"capacities": {"a": ["c"], "zz": ["c"]}}, "capacities for undeclared agent 'zz'"),
            ({"actions": {"c": ["x"], "d": ["y"]}}, "actions for undeclared capacity 'd'"),
            ({"labels": {"t": ["p"]}}, "labels for undeclared state 't'"),
            (
                {"protocol": {("a", "s"): ["x"], ("zz", "s"): ["x"]}},
                "protocol for undeclared (agent, state) ('zz', 's')",
            ),
            ({"states": ["s", "s"]}, "duplicate state 's'"),
            ({"agents": ["a", "a"]}, "duplicate agent 'a'"),
        ],
        ids=["capacities", "actions", "labels", "protocol", "states", "agents"],
    )
    def test_build_game_rejects_what_it_would_drop(self, edits, message):
        # Nothing given is ignored: a row keyed by an undeclared name, or a
        # name declared twice, is an error naming it.
        fields = dict(
            name="g",
            agents=["a"],
            capacities={"a": ["c"]},
            actions={"c": ["x"]},
            states=["s"],
            labels={},
            protocol={("a", "s"): ["x"]},
            transitions={("s", ("x",)): "s"},
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_game(**{**fields, **edits})


# Every ``GeneratorParams`` shape: states, agents, capacities per agent and
# actions per capacity, each over its whole range.
SHAPES = list(itertools.product(range(1, 6), range(1, 4), range(1, 3), range(1, 3)))
GAME_FILES = sorted(GAMES_DIR.glob("*.game")) + sorted(
    (GAMES_DIR.parent / "bench" / "games").glob("*.game")
)


def compared(game):
    """The fields ``GameStructure`` compares, ids included."""
    return {f.name: getattr(game, f.name) for f in dataclasses.fields(game) if f.compare}


def generated(index, shape):
    states, agents, caps, acts = shape
    return generate_random_game(
        GeneratorParams(
            seed=index,
            states=states,
            agents=agents,
            capacities_per_agent=caps,
            actions_per_capacity=acts,
            label_density=index % 5 / 4,
        )
    )


class TestGameNames:
    """``game_names`` inverts ``build_game``, and ``render_game`` writes it."""

    def games(self):
        for path in GAME_FILES:
            yield load_game(path.read_text(encoding="utf-8"))
        for index, shape in enumerate(SHAPES):
            yield generated(index, shape)

    def test_build_game_inverts_game_names(self):
        for game in self.games():
            again = build_game(name=game.name, **game_names(game))
            assert compared(again) == compared(game)

    def test_rendered_text_reloads_to_the_same_game(self):
        for game in self.games():
            assert compared(load_game(render_game(game))) == compared(game)

    def test_names_are_in_id_order(self, g_mix):
        names = game_names(g_mix)
        assert names["states"] == list(g_mix.state_names)
        assert list(names["protocol"]) == [
            (a, q) for a in g_mix.agent_names for q in g_mix.state_names
        ]
        assert "true" not in {p for props in names["labels"].values() for p in props}
        assert list(names["transitions"]) == sorted(
            names["transitions"],
            key=lambda key: (
                g_mix.state_names.index(key[0]),
                tuple(g_mix.action_names.index(x) for x in key[1]),
            ),
        )

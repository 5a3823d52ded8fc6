import pytest
from hypothesis import given, settings, strategies as st

from upatl.gamespec import (
    GameSpecError,
    canonical_form,
    load_game,
    parse_game,
    render_game,
)
from upatl.model import GameStructure, validate_structure
from upatl.oracle import GeneratorParams, generate_random_game

from helpers import GAMES_DIR, load_game_file


@pytest.fixture(scope="module")
def hand_text():
    return (GAMES_DIR / "hand.game").read_text(encoding="utf-8")


# The ids both example games bind to.  Every pinned certificate and verdict
# in the suite is written against this order.
EXAMPLE_ID_ORDER = {
    "agent_names": ("obs", "opp"),
    "capacity_names": ("normal", "lefty", "righty"),
    "action_names": ("watch", "serve", "swingL", "swingR"),
    "state_names": ("s0", "s1", "s2"),
    "prop_names": ("start", "leftHit", "rightHit", "true"),
    "init_state": 0,
}


def id_order(game: GameStructure) -> dict:
    return {field: getattr(game, field) for field in EXAMPLE_ID_ORDER}


class TestParseAndBind:
    def test_fixture_file_binds(self, hand_text):
        game = load_game(hand_text)
        assert game.agent_count == 2
        assert len(game.state_names) == 3
        assert validate_structure(game) == []
        assert id_order(game) == EXAMPLE_ID_ORDER

    def test_mixed_fixture_file_binds(self):
        game = load_game_file("hand_mix")
        assert id_order(game) == EXAMPLE_ID_ORDER

    def test_init_is_bound(self, hand_text):
        game = load_game(hand_text)
        assert game.state_names[game.init_state] == "s0"

    def test_crlf_accepted(self, hand_text):
        game = load_game(hand_text.replace("\n", "\r\n"))
        assert game.agent_count == 2

    def test_missing_transition_row_is_a_bind_error(self, hand_text):
        broken = hand_text.replace("  s1 (watch, serve) -> s0\n", "")
        with pytest.raises(GameSpecError, match="no transition"):
            load_game(broken)

    def test_protocol_starving_a_capacity_is_a_bind_error(self, hand_text):
        broken = hand_text.replace("opp @ s1: serve", "opp @ s1: swingL")
        # The old serve transition also becomes spurious; the capacity
        # diagnostic must still be present and carry the protocol line.
        with pytest.raises(GameSpecError) as err:
            load_game(broken)
        messages = [str(d) for d in err.value.diagnostics]
        assert any("righty" in m and "no action" in m for m in messages)
        protocol_line = next(
            i
            for i, line in enumerate(broken.splitlines(), start=1)
            if line.strip() == "opp @ s1: swingL"
        )
        assert any(d.line == protocol_line for d in err.value.diagnostics)

    def test_unknown_name_has_span(self, hand_text):
        broken = hand_text.replace("opp @ s1: serve", "opp @ s1: smash")
        with pytest.raises(GameSpecError) as err:
            load_game(broken)
        assert "unknown action 'smash'" in str(err.value)
        assert err.value.diagnostics[0].line > 0

    def test_duplicate_section_rejected(self, hand_text):
        with pytest.raises(GameSpecError, match="duplicate section"):
            parse_game(hand_text + "\nstates:\n  s9\n")

    def test_duplicate_state_rejected(self, hand_text):
        with pytest.raises(GameSpecError, match="duplicate state"):
            load_game(hand_text.replace("s0, s1, s2", "s0, s0, s1, s2"))

    def test_missing_section_rejected(self, hand_text):
        broken = "\n".join(
            line
            for line in hand_text.splitlines()
            if line.strip() not in ("labels:", "s0: start", "s1: leftHit", "s2: rightHit")
            and not line.strip().startswith(("s0:", "s1:", "s2:"))
        )
        with pytest.raises(GameSpecError, match="missing section 'labels'"):
            parse_game(broken)

    def test_reserved_prop_rejected(self, hand_text):
        # The formula syntax's words could never be read back as atoms.
        for name in ("true", "false", "K", "N", "U", "R", "F", "G"):
            broken = hand_text.replace("s0: start", f"s0: start, {name}")
            with pytest.raises(GameSpecError, match=f"name {name!r} is reserved"):
                load_game(broken)

    def test_unknown_transition_state_is_named(self, hand_text):
        for row in ("  t (watch, serve) -> s0", "  s0 (watch, serve) -> t"):
            broken = hand_text.replace("  s1 (watch, serve) -> s0", row)
            line = broken.splitlines().index(row) + 1
            with pytest.raises(GameSpecError) as err:
                load_game(broken)
            assert str(err.value) == f"line {line}: unknown state 't'"

    def test_spurious_transition_carries_its_own_line(self, hand_text):
        # swingL is outside opp's protocol at s1, so the row is spurious.
        row = "  s1 (watch, swingL) -> s0"
        broken = hand_text.replace(
            "  s1 (watch, serve) -> s0", "  s1 (watch, serve) -> s0\n" + row
        )
        line = broken.splitlines().index(row) + 1
        with pytest.raises(GameSpecError) as err:
            load_game(broken)
        assert [str(d) for d in err.value.diagnostics] == [
            f"line {line}: transition at s1 under (watch, swingL) uses an "
            "unavailable joint action"
        ]

    def test_load_constructs_the_game_once(self, hand_text, monkeypatch):
        calls = []
        checks = GameStructure.__post_init__

        def counting(game):
            calls.append(game)
            checks(game)

        monkeypatch.setattr(GameStructure, "__post_init__", counting)
        game = load_game(hand_text)
        assert calls == [game]
        assert game.state_names[game.init_state] == "s0"

    def test_syntax_error_has_span(self):
        with pytest.raises(GameSpecError) as err:
            parse_game("game g\nagents:\n  a\nwhat is this\n")
        assert err.value.diagnostics[0].line == 4


class TestRoundTrip:
    def test_fixture_round_trips(self, g_hand, g_mix):
        for game in (g_hand, g_mix):
            again = load_game(render_game(game))
            assert canonical_form(again) == canonical_form(game)

    def test_empty_labels_survive(self, g_hand):
        import dataclasses

        true_only = frozenset({g_hand.true_prop})
        stripped = dataclasses.replace(
            g_hand, labels=(true_only,) * len(g_hand.state_names)
        )
        again = load_game(render_game(stripped))
        assert all(
            again.prop_names[p] == "true"
            for props in again.labels
            for p in props
        )

    def test_generated_games_round_trip(self):
        for seed in range(60):
            params = GeneratorParams(
                seed=seed,
                states=1 + seed % 5,
                agents=1 + seed % 3,
                capacities_per_agent=1 + seed % 2,
            )
            game = generate_random_game(params)
            again = load_game(render_game(game))
            assert canonical_form(again) == canonical_form(game)


# Sections listed out of declaration order.  Ids still follow the
# declarations (capacities normal, righty, lefty walking the agents; actions
# watch, swingR, serve, swingL walking those capacities; props start,
# leftHit, aa, rightHit, zz walking the states), and ``fmt`` writes in id
# order, so its output is its own ``fmt``.
OUT_OF_ORDER = """\
game hand
agents:
  obs, opp
capacities:
  opp: righty, lefty
  obs: normal
actions:
  righty: swingR, serve
  normal: watch
  lefty: swingL, serve
states:
  s0, s1, s2
init: s0
labels:
  s2: rightHit, zz
  s0: start
  s1: leftHit, aa
protocol:
  obs @ s0: watch
  obs @ s1: watch
  obs @ s2: watch
  opp @ s0: serve, swingL, swingR
  opp @ s1: serve
  opp @ s2: serve
transitions:
  s0 (watch, serve) -> s0
  s0 (watch, swingL) -> s1
  s0 (watch, swingR) -> s2
  s1 (watch, serve) -> s0
  s2 (watch, serve) -> s0
"""

OUT_OF_ORDER_FMT = """\
game hand

agents:
  obs, opp

capacities:
  obs: normal
  opp: righty, lefty

actions:
  normal: watch
  righty: swingR, serve
  lefty: serve, swingL

states:
  s0, s1, s2

init: s0

labels:
  s0: start
  s1: leftHit, aa
  s2: rightHit, zz

protocol:
  obs @ s0: watch
  obs @ s1: watch
  obs @ s2: watch
  opp @ s0: swingR, serve, swingL
  opp @ s1: serve
  opp @ s2: serve

transitions:
  s0 (watch, swingR) -> s2
  s0 (watch, serve) -> s0
  s0 (watch, swingL) -> s1
  s1 (watch, serve) -> s0
  s2 (watch, serve) -> s0
"""


def test_out_of_order_sections_render_in_declaration_order():
    assert render_game(load_game(OUT_OF_ORDER)) == OUT_OF_ORDER_FMT
    assert render_game(load_game(OUT_OF_ORDER_FMT)) == OUT_OF_ORDER_FMT


# Sections whose rows, and whose names within a row, may come in any order.
_SHUFFLED_ROWS = ("capacities", "actions", "labels", "protocol", "transitions")
_SHUFFLED_NAMES = ("capacities", "actions", "labels")


@given(
    seed=st.integers(0, 10_000),
    states=st.integers(1, 5),
    agents=st.integers(1, 3),
    caps=st.integers(1, 2),
    acts=st.integers(1, 2),
    rnd=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_fmt_is_a_fixed_point_on_shuffled_sections(
    seed, states, agents, caps, acts, rnd
):
    game = generate_random_game(
        GeneratorParams(
            seed=seed,
            states=states,
            agents=agents,
            capacities_per_agent=caps,
            actions_per_capacity=acts,
        )
    )
    # ``render_game`` writes each section as its header, its rows and a
    # blank line.  The agents line stays: its order is every joint action's.
    blocks = render_game(game).rstrip("\n").split("\n\n")
    for i, block in enumerate(blocks):
        header, *rows = block.split("\n")
        section = header[:-1]
        if section in _SHUFFLED_NAMES:
            for j, row in enumerate(rows):
                key, names = row.split(": ")
                names = names.split(", ")
                rnd.shuffle(names)
                rows[j] = f"{key}: {', '.join(names)}"
        if section in _SHUFFLED_ROWS:
            rnd.shuffle(rows)
        blocks[i] = "\n".join([header, *rows])
    shuffled = load_game("\n\n".join(blocks))
    once = render_game(shuffled)
    assert render_game(load_game(once)) == once
    assert canonical_form(shuffled) == canonical_form(game)

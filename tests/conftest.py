import pytest

from helpers import load_game_file


@pytest.fixture(scope="session")
def g_hand():
    return load_game_file("hand")


@pytest.fixture(scope="session")
def g_mix():
    return load_game_file("hand_mix")

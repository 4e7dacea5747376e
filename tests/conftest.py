import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cnflow.fem2d import build_space


@pytest.fixture(scope="session")
def two_element_space():
    return build_space((0.0, 1.0, 0.0, 1.0), 1, 1)


@pytest.fixture(scope="session")
def small_space():
    return build_space((-1.0, 1.0, -1.0, 1.0), 4, 4)


@pytest.fixture(scope="session")
def medium_space():
    return build_space((-1.0, 1.0, -1.0, 1.0), 8, 8)

import os

import numpy as np
import pytest

from wignerqi.oracle import haar_random_state

# Fixed default seed for reproducible runs; override with WIGNERQI_TEST_SEED.
DEFAULT_SEED = 20260811


def test_seed() -> int:
    return int(os.environ.get("WIGNERQI_TEST_SEED", DEFAULT_SEED))


@pytest.fixture
def rng():
    return np.random.default_rng(test_seed())


@pytest.fixture(scope="session")
def haar_states():
    """10,000 Haar-random three-qubit states, drawn once per session from a fresh test-seed generator."""
    rng = np.random.default_rng(test_seed())
    return tuple(haar_random_state(3, rng) for _ in range(10_000))

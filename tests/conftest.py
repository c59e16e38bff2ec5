import os

import numpy as np
import pytest

from wignerqi import sweep
from wignerqi.lorentz import WignerAngles
from wignerqi.oracle import haar_random_state

# Fixed default seed for reproducible runs; override with WIGNERQI_TEST_SEED.
DEFAULT_SEED = 20260811

# every measure id a traced sweep accepts: the three-tangle is defined at alpha 0 only
TRACED_MEASURES = tuple(m for m in sweep.MEASURE_IDS if m != "three_tangle")


def test_seed() -> int:
    return int(os.environ.get("WIGNERQI_TEST_SEED", DEFAULT_SEED))


def random_angles(rng):
    return WignerAngles(*rng.uniform(0.0, 2.0 * np.pi, 3))


def preset_values(name):
    """Maps of preset ``name``'s alpha, omega1, omega2 and omega3 columns from each printed value to its float.

    Read from the preset's own plans, so that a CSV row's text maps back to
    the grid values that produced it.
    """
    columns = ({}, {}, {}, {})
    for _, state, measures, options in sweep._PRESETS[name]:
        plan = sweep._plan(state, measures, **options)
        for column, values in zip(columns, ([plan.alpha], *(plan.grids[s] for s in plan.sources))):
            column.update((format(v + 0.0, ".12g"), v) for v in np.asarray(values).tolist())
    return columns


@pytest.fixture
def rng():
    return np.random.default_rng(test_seed())


@pytest.fixture(scope="session")
def haar_states():
    """10,000 Haar-random three-qubit states, drawn once per session from a fresh test-seed generator."""
    rng = np.random.default_rng(test_seed())
    return tuple(haar_random_state(3, rng) for _ in range(10_000))

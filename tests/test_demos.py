"""Each narrative script under demos/ runs to completion, and the README's
quick-start block prints what its comments say."""

import contextlib
import io
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from wignerqi import average_capacity, fidelity_pure, product_transform, three_tangle, to_density

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the tolerance the README states for its quick-start comments
QUICK_START_ATOL = 1e-12


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_prints_what_its_comments_claim(rng):
    block = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    printed, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(printed):
        exec(block, namespace)
    # each print's comment opens with the value it prints
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    claims = [float(re.search(r"# ([0-9.]+)", line).group(1)) for line in prints]
    values = [float(text) for text in printed.getvalue().split()]
    assert len(values) == len(claims) == 4
    for value, claim in zip(values, claims):
        assert value == pytest.approx(claim, rel=0, abs=QUICK_START_ATOL)

    ghz, angles = namespace["ghz"], namespace["angles"]
    # the fidelity is prod cos^2(o_k/2), so a full turn of any one angle returns it
    assert values[0] == pytest.approx(math.prod(math.cos(o / 2) ** 2 for o in angles), rel=0, abs=QUICK_START_ATOL)
    for axis in range(3):
        turned = [o + 2 * math.pi * (k == axis) for k, o in enumerate(angles)]
        fidelity = fidelity_pure(ghz, product_transform(ghz, turned))
        assert fidelity == pytest.approx(values[0], rel=0, abs=QUICK_START_ATOL)
    # capacity and tangle are 1 at any angles; the capacity by the pure and the general route
    for other in rng.uniform(-4 * np.pi, 4 * np.pi, (20, 3)):
        boosted = product_transform(ghz, other)
        for state in (boosted, to_density(boosted)):
            assert average_capacity(state).average == pytest.approx(1.0, rel=0, abs=QUICK_START_ATOL)
        assert three_tangle(boosted).three_tangle == pytest.approx(1.0, rel=0, abs=QUICK_START_ATOL)
    # alpha = pi/4 weighs the branches equally, and here they are orthogonal
    forward = product_transform(ghz, angles).amplitudes
    reversed_ = product_transform(ghz, [-o for o in angles]).amplitudes
    assert abs(np.vdot(forward, reversed_)) < QUICK_START_ATOL

"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so a plain ``pytest -s tests/test_acceptance.py``
run doubles as a checklist. Tolerances are pinned in the assertions below.
"""

import math
import time

import numpy as np

from wignerqi.cli import main as cli_main
from wignerqi.lorentz import (
    MomentumConfig,
    WignerAngles,
    momentum_traced_channel,
    product_transform,
    point_factors,
    product_transform_batch,
    wigner_unitaries,
)
from wignerqi.measures import (
    average_capacity,
    average_capacity_batch,
    concurrence,
    fidelity_pure,
    three_tangle,
    three_tangle_batch,
    von_neumann_entropy,
)
from wignerqi.oracle import (
    audit_w_coefficient_table,
    ghz_coefficients,
    haar_random_state,
    oracle_three_tangle,
    oracle_transform,
)
from wignerqi.qmath import pure_reductions
from wignerqi.states import PureState, check_unit_norms, make_state, reduced, to_density

TWO_PI = 2 * math.pi
GRID = np.linspace(0.0, TWO_PI, 257)


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion failed: {name} {detail}"


def _fid(state_tag, target_tag, omega_prime, omega3):
    psi = product_transform(make_state(state_tag), (omega_prime, omega_prime, omega3))
    return fidelity_pure(psi, make_state(target_tag))


def test_fidelity_figure_endpoints():
    start = time.perf_counter()
    pi = math.pi
    checks = [
        abs(_fid("ghz_plus", "ghz_plus", 0.0, 0.0) - 1.0) < 1e-9,
        abs(_fid("ghz_plus", "ghz_plus", 0.0, pi)) < 1e-9,
        abs(_fid("ghz_plus", "ghz_plus", pi, 0.0)) < 1e-9,
        abs(_fid("ghz_plus", "ghz_plus", pi, pi)) < 1e-9,
        abs(_fid("ghz_plus", "ghz_plus", TWO_PI, 0.0) - 1.0) < 1e-9,
        abs(_fid("ghz_plus", "ghz_plus", TWO_PI, TWO_PI) - 1.0) < 1e-9,
        abs(_fid("ghz_plus", "ghz_minus", pi, pi) - 1.0) < 1e-9,
        abs(_fid("ghz_plus", "ghz_minus", 0.0, 0.0)) < 1e-9,
    ]
    elapsed = time.perf_counter() - start
    _report(
        "fidelity figure endpoints (tol 1e-9, < 1 s)",
        all(checks) and elapsed < 1.0,
        f"{sum(checks)}/8 points, {elapsed:.3f} s",
    )


def test_closed_form_fidelity_curves():
    ghz = make_state("ghz_plus")
    w = make_state("w")
    dev_g = max(
        abs(fidelity_pure(ghz, product_transform(ghz, (o, o, o))) - math.cos(o / 2) ** 6)
        for o in GRID
    )
    dev_w = 0.0
    overlaps = []
    for o in GRID:
        boosted = product_transform(w, (o, o, o))
        c2 = math.cos(o / 2) ** 2
        s2 = math.sin(o / 2) ** 2
        dev_w = max(dev_w, abs(fidelity_pure(w, boosted) - c2 * (c2 - 2 * s2) ** 2))
        overlaps.append(float(np.vdot(w.amplitudes, boosted.amplitudes).real))

    # bracket the first touch of zero by bisecting the signed overlap
    k = next(i for i in range(len(GRID) - 1) if overlaps[i] > 0 >= overlaps[i + 1])
    lo, hi = GRID[k], GRID[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        value = float(
            np.vdot(w.amplitudes, product_transform(w, (mid, mid, mid)).amplitudes).real
        )
        if value > 0:
            lo = mid
        else:
            hi = mid
    first_zero = 0.5 * (lo + hi)
    in_bracket = 0.390 * math.pi <= first_zero <= 0.394 * math.pi

    _report(
        "closed-form fidelity curves on the 257-node grid (tol 1e-10)",
        dev_g < 1e-10 and dev_w < 1e-10 and in_bracket,
        f"max dev ghz {dev_g:.2e}, w {dev_w:.2e}, first zero {first_zero / math.pi:.4f} pi",
    )


def test_w_fidelity_complementarity():
    w = make_state("w")
    wp = make_state("w_prime")
    ok = True
    for o in GRID:
        boosted = product_transform(w, (o, o, o))
        f_w = fidelity_pure(boosted, w)
        f_wp = fidelity_pure(boosted, wp)
        if f_w >= 1.0 - 1e-9 and f_wp > 1e-9:
            ok = False
        if f_wp >= 1.0 - 1e-9 and f_w > 1e-9:
            ok = False
    _report("fidelity complementarity of the w / w_prime pair on the grid", ok)


def test_capacity_baselines():
    ghz_cap = average_capacity(to_density(make_state("ghz_plus"))).average
    w_cap = average_capacity(to_density(make_state("w"))).average
    bell = to_density(PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)))
    from wignerqi.measures import pair_capacity

    bell_cap = pair_capacity(bell)
    ok = abs(ghz_cap - 1.0) < 1e-9 and abs(w_cap - 1.0) < 1e-9 and abs(bell_cap - 2.0) < 1e-9
    _report(
        "capacity baselines ghz=1, w=1, bell pair=2 (tol 1e-9)",
        ok,
        f"{ghz_cap:.12f}, {w_cap:.12f}, {bell_cap:.12f}",
    )


def test_tangle_baselines_both_routes():
    ghz, w = make_state("ghz_plus"), make_state("w")
    values = (
        three_tangle(ghz).three_tangle,
        oracle_three_tangle(ghz),
        three_tangle(w).three_tangle,
        oracle_three_tangle(w),
    )
    ok = (
        abs(values[0] - 1.0) < 1e-8
        and abs(values[1] - 1.0) < 1e-8
        and abs(values[2]) < 1e-8
        and abs(values[3]) < 1e-8
    )
    # The ~0.55 figure sometimes quoted for the w state is a different
    # (negativity-based) quantity, not this tangle, and is not a target here.
    _report(
        "tangle baselines via pipeline and hyperdeterminant (tol 1e-8)",
        ok,
        "ghz %.2e/%.2e from 1, w %.2e/%.2e from 0" % (abs(values[0] - 1), abs(values[1] - 1), values[2], values[3]),
    )


def test_local_unitary_invariance_suite(rng):
    tags = ("ghz_plus", "ghz_minus", "w", "w_prime")
    # one (1000, 3) draw takes the same numbers as 1000 successive triples
    angles = rng.uniform(0.0, TWO_PI, (1000, 3))
    rotations = [wigner_unitaries(angles[:, q]) for q in range(3)]
    worst_cap = 0.0
    worst_tangle = 0.0
    pinned = True
    for tag in tags:
        psi = make_state(tag)
        boosted = product_transform_batch(psi.amplitudes, *point_factors(*rotations))
        check_unit_norms(boosted)
        caps = average_capacity_batch(pure_reductions(boosted, (0, 1, 2)))[3]
        tangles = three_tangle_batch(boosted)[3]
        worst_cap = max(worst_cap, float(np.abs(caps - average_capacity(to_density(psi)).average).max()))
        worst_tangle = max(worst_tangle, float(np.abs(tangles - three_tangle(psi).three_tangle).max()))
        # the scalar API is the one-point case of the same kernels, bit for bit
        scalar = np.array(
            [
                (average_capacity(to_density(out)).average, three_tangle(out).three_tangle)
                for out in (product_transform(psi, triple) for triple in angles[:100])
            ]
        )
        pinned &= np.array_equal(scalar.view(np.uint64), np.stack([caps[:100], tangles[:100]], axis=1).view(np.uint64))
    ok = worst_cap < 1e-9 and worst_tangle < 1e-9 and pinned
    _report(
        "local-unitary invariance of capacity and tangle, 1000 random triples x 4 states",
        ok,
        f"worst capacity dev {worst_cap:.2e}, worst tangle dev {worst_tangle:.2e}, "
        f"scalar API bit-identical on 100 triples: {pinned}",
    )


def test_momentum_traced_decay():
    start = time.perf_counter()
    angles = (math.pi / 2, math.pi / 2, math.pi / 2)
    rho = momentum_traced_channel(make_state("w"), angles, MomentumConfig(math.pi / 4))
    entropy = von_neumann_entropy(rho)
    pure_value = 2.0 / 3.0
    concurrences = [concurrence(reduced(rho, pair)) for pair in ((0, 1), (0, 2), (1, 2))]
    elapsed = time.perf_counter() - start
    ok = entropy > 1e-9 and all(c < pure_value - 1e-9 for c in concurrences) and elapsed < 1.0
    _report(
        "momentum-traced decay: entropy > 0, pair concurrence < 2/3 (< 1 s)",
        ok,
        f"S={entropy:.6f}, C={concurrences[0]:.6f}, {elapsed:.3f} s",
    )


def test_oracle_equivalence(rng):
    tags = ("ghz_plus", "ghz_minus", "w", "w_prime")
    worst_transform = 0.0
    for i in range(1000):
        psi = make_state(tags[i % 4]) if i % 2 == 0 else haar_random_state(3, rng)
        angles = WignerAngles(*rng.uniform(-TWO_PI, TWO_PI, 3))
        dev = np.abs(
            oracle_transform(psi, angles).amplitudes - product_transform(psi, angles).amplitudes
        ).max()
        worst_transform = max(worst_transform, float(dev))

    ghz = make_state("ghz_plus")
    worst_table = 0.0
    for _ in range(1000):
        angles = WignerAngles(*rng.uniform(0.0, TWO_PI, 3))
        dev = np.abs(ghz_coefficients(angles) - product_transform(ghz, angles).amplitudes).max()
        worst_table = max(worst_table, float(dev))

    # The erratic w table must be flagged at exactly the documented slots:
    # all eight disagree with the direct transform, and slots 0,3,5,6,7
    # reproduce the flipped-partner transform instead.
    audit_ok = True
    mismatch_union = set()
    for _ in range(200):
        mismatched, partner = audit_w_coefficient_table(WignerAngles(*rng.uniform(0.0, TWO_PI, 3)))
        mismatch_union |= set(mismatched)
        if not {0, 3, 5, 6, 7} <= set(partner):
            audit_ok = False
    audit_ok = (
        audit_ok
        and mismatch_union == set(range(8))
        and audit_w_coefficient_table((0.3, 0.7, 1.1)) == (tuple(range(8)), (0, 3, 5, 6, 7))
    )

    ok = worst_transform < 1e-12 and worst_table < 1e-12 and audit_ok
    _report(
        "oracle equivalence: transform and ghz table at 1e-12, w-table errata as documented",
        ok,
        f"worst transform dev {worst_transform:.2e}, worst table dev {worst_table:.2e}",
    )


def test_monogamy_bounds(haar_states):
    start = time.perf_counter()  # the session fixture has drawn the states already
    amplitudes = np.array([psi.amplitudes for psi in haar_states])
    values = three_tangle_batch(amplitudes)[3]
    low, high = float(values.min()), float(values.max())
    elapsed = time.perf_counter() - start
    ok = low >= -1e-9 and high <= 1.0 + 1e-9 and elapsed < 30.0
    _report(
        "monogamy bounds over 10^4 Haar-random states (< 30 s)",
        ok,
        f"range [{low:.2e}, {high:.6f}], {elapsed:.1f} s",
    )


def test_csv_determinism(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert cli_main(["figure", "1c", "--out-dir", str(dir_a)]) == 0
    assert cli_main(["figure", "1c", "--out-dir", str(dir_b)]) == 0

    names = sorted(p.name for p in dir_a.iterdir())
    identical = names == sorted(p.name for p in dir_b.iterdir()) and all(
        (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names
    )

    plus_rows = (dir_a / "fig1c_fidelity_gplus.csv").read_text().splitlines()[1:]
    minus_rows = (dir_a / "fig1c_fidelity_gminus.csv").read_text().splitlines()[1:]
    counts_ok = len(plus_rows) == 257 and len(minus_rows) == 257

    plus = [float(r.split(",")[-1]) for r in plus_rows]
    minus = [float(r.split(",")[-1]) for r in minus_rows]
    endpoints_ok = (
        abs(plus[0] - 1.0) < 1e-9
        and abs(plus[128]) < 1e-9
        and abs(plus[256] - 1.0) < 1e-9
        and abs(minus[128] - 1.0) < 1e-9
        and abs(minus[0]) < 1e-9
    )
    _report(
        "figure 1c CSV determinism, row count 257, endpoint values",
        identical and counts_ok and endpoints_ok,
        f"files {names}",
    )

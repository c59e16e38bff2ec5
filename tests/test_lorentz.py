import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wignerqi
from wignerqi import lorentz, sweep
from wignerqi.lorentz import (
    MomentumConfig,
    WignerAngles,
    factor_table,
    momentum_traced_channel,
    momentum_traced_channel_batch,
    point_factors,
    product_transform,
    product_transform_batch,
    wigner_unitaries,
)
from wignerqi.measures import concurrence
from wignerqi.qmath import partial_trace, pure_reductions
from wignerqi.states import STATE_TAGS, PureState, make_state, reduced, to_density, validate_density
from wignerqi.sweep import AXES, CHUNK_POINTS, MEASURE_IDS, SweepGrid, run_sweep

from conftest import TRACED_MEASURES, random_angles

SQ2 = 1 / np.sqrt(2)

angles_st = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False)


class TestWignerUnitary:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(wigner_unitaries([0.0])[0], np.eye(2), atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(wigner_unitaries([np.pi])[0], [[0, -1], [1, 0]], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            wigner_unitaries([np.pi / 2])[0], np.array([[1, -1], [1, 1]]) * SQ2, atol=1e-15
        )

    def test_unitary_everywhere(self, rng):
        u = wigner_unitaries(rng.uniform(-10 * np.pi, 10 * np.pi, 1000))
        assert np.max(np.abs(u.conj().mT @ u - np.eye(2))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(omega=angles_st)
    def test_spinor_periodicity(self, omega):
        u, full_turns, one_turn = wigner_unitaries([omega, omega + 4 * math.pi, omega + 2 * math.pi])
        np.testing.assert_allclose(full_turns, u, atol=1e-12)
        np.testing.assert_allclose(one_turn, -u, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wigner_unitaries([float("nan")])


class TestProductTransform:
    def test_identity_angles(self):
        ghz = make_state("ghz_plus")
        out = product_transform(ghz, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, ghz.amplitudes, atol=1e-15)

    def test_half_turns_on_ghz(self):
        # Direct 8x8 application sends (|000>+|111>)/sqrt(2) to (-|000>+|111>)/sqrt(2).
        out = product_transform(make_state("ghz_plus"), (np.pi, np.pi, np.pi))
        np.testing.assert_allclose(out.amplitudes, [-SQ2, 0, 0, 0, 0, 0, 0, SQ2], atol=1e-12)

    def test_001_amplitude_closed_form(self, rng):
        # The |001> amplitude of the boosted GHZ is (c1*c2*s3 + s1*s2*c3)/sqrt(2).
        for _ in range(25):
            o1, o2, o3 = random_angles(rng)
            out = product_transform(make_state("ghz_plus"), (o1, o2, o3))
            expected = (
                math.cos(o1 / 2) * math.cos(o2 / 2) * math.sin(o3 / 2)
                + math.sin(o1 / 2) * math.sin(o2 / 2) * math.cos(o3 / 2)
            ) * SQ2
            assert abs(out.amplitudes[1] - expected) < 1e-12

    def test_norm_preserved(self, rng):
        for _ in range(50):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            psi = PureState(amps / np.linalg.norm(amps))
            out = product_transform(psi, random_angles(rng))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_composition_adds_angles(self, rng):
        psi = make_state("w")
        for _ in range(20):
            first = random_angles(rng)
            second = random_angles(rng)
            chained = product_transform(product_transform(psi, first), second)
            summed = product_transform(
                psi, WignerAngles(first[0] + second[0], first[1] + second[1], first[2] + second[2])
            )
            np.testing.assert_allclose(chained.amplitudes, summed.amplitudes, atol=1e-10)

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            product_transform(PureState(np.array([1.0, 0.0])), (0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="acts on 3 qubits, got 2"):
            momentum_traced_channel(PureState(np.array([1.0, 0.0, 0.0, 0.0])), (0.1, 0.2, 0.3), MomentumConfig(0.3))

    def test_reduction_spectra_angle_independent(self, rng):
        # Per-qubit rotations leave every one- and two-qubit reduction spectrum
        # alone, which is why entropies, capacities and tangles cannot move.
        for tag in ("ghz_plus", "w"):
            base = to_density(make_state(tag)).matrix
            for _ in range(10):
                out = to_density(product_transform(make_state(tag), random_angles(rng))).matrix
                for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                    ref = np.sort(np.linalg.eigvalsh(partial_trace(base, keep)))
                    got = np.sort(np.linalg.eigvalsh(partial_trace(out, keep)))
                    np.testing.assert_allclose(got, ref, atol=1e-9)


def per_point(amplitudes, d1, d2, d3):
    # The dense 8x8 route: np.kron of the three matrices, then one matvec per point.
    return np.array([np.kron(np.kron(a, b), c) @ amplitudes for a, b, c in zip(d1, d2, d3)])


def transform_mismatches(seed):
    """Cases where product_transform_batch and the per-point route differ in any bit.

    n = 1 and n = CHUNK_POINTS are each tried on two kinds of float64
    (n, 2, 2) stacks: rotations (with the angles 0, -0, pi and -2*pi among
    the larger stack's, so exact and signed zeros occur) and their ``.mT``
    views. Each is passed in three layouts of factor tables: the points'
    products (``point_factors``), one table per qubit, and the pair (d1, d2)
    beside d3, as a sweep's tied leading run. Each is also run with its
    reversed branch, whose rows must be those of the ``.mT`` stacks.
    Comparing ``.view(np.uint64)`` tells -0.0 from +0.0, which
    ``np.array_equal`` does not.
    """
    rng = np.random.default_rng(seed)
    bad = []
    for n in (1, CHUNK_POINTS):
        omegas = rng.uniform(-10.0, 10.0, (3, n))
        if n > 4:
            omegas[:, :4] = [0.0, -0.0, np.pi, -2.0 * np.pi]
        rotations = [wigner_unitaries(o) for o in omegas]
        for kind, stacks in (("rotations", rotations), ("transposed", [d.mT for d in rotations])):
            layouts = {
                "products": point_factors(*stacks),
                "per qubit": ([factor_table([d], q) for q, d in enumerate(stacks)], [np.arange(n)] * 3),
                "pair": ([factor_table(stacks[:2], 0), factor_table(stacks[2:], 2)], [np.arange(n)] * 2),
            }
            for tag in STATE_TAGS:
                amplitudes = make_state(tag).amplitudes
                forward = per_point(amplitudes, *stacks)
                both = np.concatenate([forward, per_point(amplitudes, *(d.mT for d in stacks))])
                for layout, (factors, points) in layouts.items():
                    for reversed_branch, expected in ((False, forward), (True, both)):
                        got = product_transform_batch(amplitudes, factors, points, reversed_branch=reversed_branch)
                        same = got.shape == expected.shape and np.array_equal(got.view(np.uint64), expected.view(np.uint64))
                        if not same:
                            bad.append(f"{kind} n={n} {tag} {layout}" + " reversed" * reversed_branch)
    return bad


# a family preset's traced sweep: omega1 on 257 points, omega2 tied to it, omega3 fixed
FAMILY = dict(omega1=SweepGrid(0.0, 2 * math.pi, 257), omega3=math.pi / 3, ties=("omega2=omega1",))


def first_chunk(options):
    """A plan's factor tables and the points of its first chunk, as sweep._chunks passes them."""
    plan = sweep._plan("w", ["fidelity_w"], **options)
    tables, sources = zip(*sweep._factors(plan, [wigner_unitaries(grid) for grid in plan.grids], {}))
    shape = tuple(map(len, plan.grids))
    indices = np.unravel_index(np.arange(min(CHUNK_POINTS, math.prod(shape))), shape)
    return tables, [indices[s] for s in sources]


def steady_state_faults(warmup=50, counted=200):
    """Minor page faults per call of the chunk core's transform calls, after ``warmup`` calls.

    Each call makes its large buffers in one block of one size per shape, so
    once glibc's mmap threshold has settled a repeated call reuses freed heap
    pages and faults none in. The cases run in this order, each warmed up and
    then counted over ``counted`` calls.
    """
    import resource

    amplitudes = make_state("w").amplitudes
    family, surface = first_chunk(FAMILY), first_chunk(sweep._SURFACE)
    cases = {
        "traced family": lambda: momentum_traced_channel_batch(amplitudes, *family, math.pi / 4),
        "traced surface chunk": lambda: momentum_traced_channel_batch(amplitudes, *surface, math.pi / 4),
        "pure surface chunk": lambda: product_transform_batch(amplitudes, *surface),
    }
    faults = {}
    for name, call in cases.items():
        for _ in range(warmup):
            call()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(counted):
            call()
        faults[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / counted
    return faults


def in_child(name, *args, **env):
    """JSON result of this file's function ``name`` on integer ``args``, in a
    fresh interpreter with one BLAS thread and the variables ``env`` set."""
    src = str(Path(wignerqi.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", **env}
    # this file imports its helpers from conftest.py beside it
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), env.get("PYTHONPATH")]))
    code = (
        "import json, runpy, sys\n"
        "check = runpy.run_path(sys.argv[1])[sys.argv[2]]\n"
        "print(json.dumps(check(*map(int, sys.argv[3:]))))\n"
    )
    argv = [sys.executable, "-c", code, __file__, name, *map(str, args)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _grid(start, count):
    return SweepGrid(start, start + 17.3, count)


# sweep options whose omega1..omega3 read these free axes, 576 points apiece (two chunks)
TIE_PATTERNS = {
    (0, 1, 2): dict(omega1=_grid(-7.3, 9), omega2=_grid(-5.1, 8), omega3=_grid(-8.9, 8)),
    (0, 0, 1): dict(omega1=_grid(-7.3, 24), omega3=_grid(-8.9, 24), ties=("omega2=omega1",)),
    (0, 0, 0): dict(omega1=_grid(-7.3, 576), ties=("omega2=omega1", "omega3=omega1")),
    (0, 1, 0): dict(omega1=_grid(-7.3, 24), omega2=_grid(-5.1, 24), ties=("omega3=omega1",)),
    (0, 1, 1): dict(omega1=_grid(-7.3, 24), omega2=_grid(-5.1, 24), ties=("omega3=omega2",)),
}


class TestProductTransformBatch:
    """The stacked transform must reproduce the per-point kron product bit for bit."""

    def test_bitwise_equal_to_per_point_kron(self, rng):
        triples = rng.uniform(-10.0, 10.0, (2000, 3))
        for sign in (1.0, -1.0):
            angles = sign * triples
            rotations = [wigner_unitaries(angles[:, k]) for k in range(3)]
            for tag in STATE_TAGS:
                psi = make_state(tag)
                batch = product_transform_batch(psi.amplitudes, *point_factors(*rotations))
                assert batch.shape == (2000, 8)
                expected = per_point(psi.amplitudes, *rotations)
                assert np.array_equal(batch.view(np.uint64), expected.view(np.uint64))
                for row, point in zip(batch, angles):
                    scalar = product_transform(psi, tuple(point)).amplitudes
                    assert np.array_equal(row.view(np.uint64), scalar.view(np.uint64))

    def test_bitwise_equal_over_sizes_and_transposes(self, rng):
        assert transform_mismatches(int(rng.integers(2**32))) == []

    @pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64")
        or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        reason="OPENBLAS_CORETYPE selects kernels only in an x86-64 OpenBLAS",
    )
    @pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
    def test_bitwise_equal_under_other_blas_kernels(self, kernel, rng):
        # one tall matrix-vector call must sum as the per-point calls do on every
        # kernel; Haswell is the one an AMD runner selects. The child alone sees the variable.
        assert in_child("transform_mismatches", rng.integers(2**32), OPENBLAS_CORETYPE=kernel) == []

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's minor page faults through getrusage")
    def test_repeated_calls_fault_in_no_pages(self):
        # one transform call per traced chunk, each with one complex block: a
        # second call (say, for the .mT branch) faults its buffers in on every
        # chunk yet changes no byte. A fresh child's heap is the one measured.
        faults = in_child("steady_state_faults")
        assert len(faults) == 3 and all(per_call <= 16 for per_call in faults.values()), faults

    def test_single_point_batch(self):
        psi = make_state("w")
        angles = (0.3, -1.2, 2.5)
        rotations = [wigner_unitaries([o]) for o in angles]
        batch = product_transform_batch(psi.amplitudes, *point_factors(*rotations))
        assert batch.shape == (1, 8)
        assert np.array_equal(batch, per_point(psi.amplitudes, *rotations))
        assert np.array_equal(batch[0], product_transform(psi, angles).amplitudes)

    def test_refuses_factor_tables_that_are_not_float64(self):
        # a complex table once went through the float view with a ComplexWarning
        # alone, dropping its imaginary parts: a zero row for this d * 1j
        psi = make_state("w")
        d = wigner_unitaries([0.3])
        factors, points = point_factors(d, d, d)
        batch = product_transform_batch(psi.amplitudes, factors, points)
        assert np.array_equal(batch.view(np.uint64), per_point(psi.amplitudes, d, d, d).view(np.uint64))
        for tables in (point_factors(d * 1j, d * 1j, d * 1j)[0], [factors[0].astype(np.float32)]):
            with pytest.raises(TypeError, match=f"factor tables must be float64, got {tables[0].dtype}$"):
                product_transform_batch(psi.amplitudes, tables, points)
        with pytest.raises(TypeError, match="got complex128$"):  # every table is checked, not the first alone
            product_transform_batch(psi.amplitudes, [factors[0], factors[0] + 0j], points * 2)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("sources", sorted(TIE_PATTERNS), ids=lambda s: "".join(map(str, s)))
    def test_sweep_rows_equal_per_point_under_every_tie_pattern(self, monkeypatch, sources, alpha):
        # the sweep shares a factor table only over the leading run of qubits
        # that read one axis; a table over a later run such as D2 D3 would
        # change the bits of the fold (D1 D2) D3
        options = TIE_PATTERNS[sources]
        assert sweep._plan("w", ["fidelity_w"], **options).sources == sources
        transform, calls = lorentz.product_transform_batch, []

        def recording(*args, **kwargs):
            calls.append(transform(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(lorentz, "product_transform_batch", recording)
        monkeypatch.setattr(sweep, "product_transform_batch", recording)
        records = run_sweep("w", ["fidelity_w"], alpha=alpha, **options)
        assert len(records) > CHUNK_POINTS and len(calls) == 2  # one call per chunk
        rotations = [wigner_unitaries([getattr(r, axis) for r in records]) for axis in AXES]
        amplitudes = make_state("w").amplitudes
        expected = [per_point(amplitudes, *rotations)]
        got = [np.concatenate([rows[: len(rows) // (1 if alpha == 0.0 else 2)] for rows in calls])]
        if alpha != 0.0:  # the reversed branch follows the forward rows in each call
            expected.append(per_point(amplitudes, *(d.mT for d in rotations)))
            got.append(np.concatenate([rows[len(rows) // 2 :] for rows in calls]))
        for rows, reference in zip(got, expected):
            assert np.array_equal(rows.view(np.uint64), reference.view(np.uint64))

    def test_negated_angles_transpose_bit_for_bit(self, rng):
        # the traced channel's reversed branch relies on D(-w) = D(w)^T exactly
        omegas = np.concatenate([rng.uniform(-1e15, 1e15, 2000), rng.uniform(-20.0, 20.0, 2000), [0.0, -0.0]])
        transposed = np.ascontiguousarray(wigner_unitaries(omegas).mT)
        assert np.array_equal(wigner_unitaries(-omegas).view(np.uint64), transposed.view(np.uint64))

    def test_unitaries_hold_the_half_angle_cos_and_sin_bit_for_bit(self, rng):
        # the preset bytes rest on these exact entries
        omegas = np.concatenate([rng.uniform(-1e15, 1e15, 4000), rng.uniform(-20.0, 20.0, 4257), [0.0, -0.0]])
        trig = [(math.cos(0.5 * omega), math.sin(0.5 * omega)) for omega in omegas]
        expected = np.array([[[c, -s], [s, c]] for c, s in trig])
        unitaries = wigner_unitaries(omegas)
        assert unitaries.dtype == np.float64
        assert np.array_equal(unitaries.view(np.uint64), expected.view(np.uint64))

    def test_unitaries_reject_non_finite(self):
        for bad in (float("inf"), float("-inf"), float("nan"), np.float64("nan")):
            with pytest.raises(ValueError, match=f"finite, got {float(bad)!r}$"):
                wigner_unitaries([0.0, bad])
            with pytest.raises(ValueError, match="finite"):
                wigner_unitaries([bad])


class TestMomentumTracedChannel:
    def test_alpha_zero_is_pure_transform(self, rng):
        psi = make_state("w")
        angles = random_angles(rng)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(0.0))
        np.testing.assert_allclose(
            rho.matrix, to_density(product_transform(psi, angles)).matrix, atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 257, CHUNK_POINTS])
    def test_alpha_zero_stack_is_the_pure_projector_stack_bit_for_bit(self, rng, n):
        # the sweep takes the pure route at alpha 0 (or -0.0) on the strength of
        # this identity; + 0.0 maps the signed zeros in which the stacks differ to +0.0
        factors = point_factors(*(wigner_unitaries(rng.uniform(-4 * np.pi, 4 * np.pi, n)) for _ in range(3)))
        for state in STATE_TAGS:
            amplitudes = make_state(state).amplitudes
            pure = pure_reductions(product_transform_batch(amplitudes, *factors), (0, 1, 2)) + 0.0
            for alpha in (0.0, -0.0):
                traced = momentum_traced_channel_batch(amplitudes, *factors, alpha) + 0.0
                assert np.array_equal(traced.view(np.uint64), pure.view(np.uint64)), (state, alpha)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(allow_nan=False, allow_infinity=False))
    @example(alpha=0.0)
    @example(alpha=-0.0)
    @example(alpha=5e-324)
    def test_sweep_measures_three_tangle_exactly_at_alpha_zero(self, alpha):
        # alpha chooses the model: 0 is the pure transform, any other alpha a mixed state
        if alpha == 0.0:
            (record,) = run_sweep("ghz_plus", ["three_tangle"], alpha=alpha, omega1=0.4)
            assert record.value == pytest.approx(1.0, rel=0, abs=VALUE_ATOL)
        else:
            with pytest.raises(ValueError, match="three_tangle is undefined"):
                run_sweep("ghz_plus", ["three_tangle"], alpha=alpha, omega1=0.4)

    def test_alpha_right_angle_is_reversed_branch(self, rng):
        psi = make_state("ghz_plus")
        angles = random_angles(rng)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(np.pi / 2))
        flipped = WignerAngles(-angles[0], -angles[1], -angles[2])
        np.testing.assert_allclose(
            rho.matrix, to_density(product_transform(psi, flipped)).matrix, atol=1e-12
        )

    def test_half_turns_collapse_to_ghz_minus_projector(self):
        rho = momentum_traced_channel(
            make_state("ghz_plus"), (np.pi, np.pi, np.pi), MomentumConfig(np.pi / 4)
        )
        target = to_density(make_state("ghz_minus")).matrix
        np.testing.assert_allclose(rho.matrix, target, atol=1e-12)

    def test_output_is_valid_density(self, rng):
        for _ in range(20):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            psi = PureState(amps / np.linalg.norm(amps))
            cfg = MomentumConfig(rng.uniform(0, np.pi))
            rho = momentum_traced_channel(psi, random_angles(rng), cfg)
            validate_density(rho.matrix)

    def test_convex_in_branch_projectors(self, rng):
        psi = make_state("w")
        angles = random_angles(rng)
        alpha = 0.7
        rho = momentum_traced_channel(psi, angles, MomentumConfig(alpha))
        plus = to_density(product_transform(psi, angles)).matrix
        minus = to_density(product_transform(psi, WignerAngles(-angles[0], -angles[1], -angles[2]))).matrix
        expected = math.cos(alpha) ** 2 * plus + math.sin(alpha) ** 2 * minus
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_takes_alpha_alone(self):
        # the reversed branch always sees the negated angles; nothing selects another rule
        with pytest.raises(TypeError):
            MomentumConfig(0.1, "opposite")
        with pytest.raises(TypeError):
            MomentumConfig(0.1, branch_sign_convention="opposite")


# The named states are symmetric under every permutation of the qubits.
SWAP_01 = np.eye(8)[[0, 1, 4, 5, 2, 3, 6, 7]]  # exchanges qubits 0 and 1
# The concurrence route zeroes its spectrum below a relative floor, which
# leaves errors up to ~1e-7 (8.0e-8 over 1.2M random traced GHZ pair
# values); the matrix identities hold to a few eps.
MATRIX_ATOL = 1e-14
CONCURRENCE_ATOL = 1e-6
# Spectra and every other measure value, a few eps at most.
VALUE_ATOL = 1e-12
alphas_st = st.floats(min_value=-math.pi, max_value=math.pi)
triples_st = st.tuples(angles_st, angles_st, angles_st)


class TestTracedChannelIdentities:
    """Value identities of the momentum-traced channel (Gingrich & Adami,
    PRL 89, 270402, 2002), independent of how its output is validated."""

    @settings(max_examples=100, deadline=None)
    @given(state=st.sampled_from(STATE_TAGS), alpha=alphas_st, angles=triples_st)
    def test_branch_swap(self, state, alpha, angles):
        # rho(alpha, omega) = rho(pi/2 - alpha, -omega)
        psi = make_state(state)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(alpha))
        swapped = momentum_traced_channel(psi, [-omega for omega in angles], MomentumConfig(math.pi / 2 - alpha))
        np.testing.assert_allclose(swapped.matrix, rho.matrix, rtol=0, atol=MATRIX_ATOL)

    @settings(max_examples=100, deadline=None)
    @given(
        state=st.sampled_from(STATE_TAGS),
        alpha=alphas_st,
        angles=triples_st,
    )
    def test_qubit_swap(self, state, alpha, angles):
        omega1, omega2, omega3 = angles
        config = MomentumConfig(alpha)
        rho = momentum_traced_channel(make_state(state), angles, config)
        swapped = momentum_traced_channel(make_state(state), (omega2, omega1, omega3), config)
        np.testing.assert_allclose(swapped.matrix, SWAP_01 @ rho.matrix @ SWAP_01, rtol=0, atol=MATRIX_ATOL)
        c_ac = concurrence(reduced(rho, (0, 2)))
        assert concurrence(reduced(swapped, (1, 2))) == pytest.approx(c_ac, rel=0, abs=CONCURRENCE_ATOL)

    @settings(max_examples=60, deadline=None)
    @given(state=st.sampled_from(STATE_TAGS), alpha=alphas_st, angles=triples_st)
    def test_convexity(self, state, alpha, angles):
        # both branches are local-unitary images of the input, so mixing them
        # cannot raise a pair concurrence above its unboosted value
        psi = make_state(state)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(alpha))
        for pair in ((0, 1), (0, 2), (1, 2)):
            traced = concurrence(reduced(rho, pair))
            assert traced <= concurrence(reduced(to_density(psi), pair)) + CONCURRENCE_ATOL
            if state.startswith("ghz"):
                assert traced <= CONCURRENCE_ATOL

    @settings(max_examples=100, deadline=None)
    @given(
        state=st.sampled_from(STATE_TAGS),
        alpha=alphas_st,
        angles=triples_st,
    )
    def test_rank_two_spectrum(self, state, alpha, angles):
        # rho = w_f |f><f| + w_r |r><r| has the two nonzero eigenvalues
        # (1 +- sqrt(1 - 4 w_f w_r (1 - |<f|r>|^2))) / 2, and the rest are 0
        psi = make_state(state)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(alpha))
        f = product_transform(psi, angles).amplitudes
        r = product_transform(psi, [-omega for omega in angles]).amplitudes
        w_f, w_r = math.cos(alpha) ** 2, math.sin(alpha) ** 2
        root = math.sqrt(max(0.0, 1.0 - 4.0 * w_f * w_r * (1.0 - abs(np.vdot(f, r)) ** 2)))
        expected = [0.0] * 6 + [(1.0 - root) / 2, (1.0 + root) / 2]
        np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix), expected, rtol=0, atol=VALUE_ATOL)

    @settings(max_examples=60, deadline=None)
    @given(
        state=st.sampled_from(STATE_TAGS),
        alpha=st.one_of(st.just(0.0), alphas_st),
        angles=triples_st,
        axis=st.sampled_from(AXES),
    )
    def test_two_pi_periodicity(self, state, alpha, angles, axis):
        # D(omega + 2pi) = -D(omega) flips only the sign of a branch, which no
        # measure sees; alpha 0 is the pure transform, the only one with a three-tangle
        measures = MEASURE_IDS if alpha == 0.0 else TRACED_MEASURES
        base = dict(zip(AXES, angles))
        shifted = {**base, axis: base[axis] + 2 * math.pi}
        records = run_sweep(state, measures, alpha=alpha, **base)
        for a, b in zip(records, run_sweep(state, measures, alpha=alpha, **shifted)):
            atol = CONCURRENCE_ATOL if a.measure.startswith("concurrence") else VALUE_ATOL
            assert b.value == pytest.approx(a.value, rel=0, abs=atol), a.measure

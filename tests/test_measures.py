import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from wignerqi import measures
from wignerqi.lorentz import (
    momentum_traced_channel_batch,
    point_factors,
    product_transform,
    product_transform_batch,
    wigner_unitaries,
)
from wignerqi.measures import (
    CapacityClampWarning,
    average_capacity,
    average_capacity_batch,
    batch_with_reuse,
    clamp_capacity_batch,
    concurrence,
    concurrence_batch,
    fidelity_pure,
    fidelity_pure_batch,
    fidelity_vs_target,
    pair_capacity,
    pure_capacity_batch,
    three_tangle,
    three_tangle_batch,
    von_neumann_entropy,
    von_neumann_entropy_batch,
)
from wignerqi.oracle import (
    haar_random_state,
    oracle_concurrence_pure,
    oracle_entropy,
    oracle_pair_capacity,
    oracle_partial_trace,
    oracle_three_tangle,
)
from wignerqi.qmath import NumericValidationError, matrix_sqrt_psd, partial_trace, pure_reductions
from wignerqi.states import STATE_TAGS, DensityOperator, PureState, make_state, reduced, to_density

from conftest import random_angles

SQ2 = 1 / np.sqrt(2)
EPS = np.finfo(float).eps


def entropy_slack(spectrum_error):
    """Largest change of -p*log2(p), p in [0, 1], when p moves by ``spectrum_error``.

    The slope -log2(p) - 1/ln 2 grows without bound only as p -> 0, so the
    change is at most d * (log2(1/d) + 1/ln 2) for an error d.
    """
    return spectrum_error * (math.log2(1.0 / spectrum_error) + 1.0 / math.log(2.0))


def qubit_density_stack(rng, count):
    """A (4, count, 2, 2) stack of qubit densities: rank one, general complex, diagonal, maximally mixed."""
    vectors = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    rank_one = pure_reductions(vectors / np.linalg.norm(vectors, axis=-1, keepdims=True), (0,))
    factors = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    general = factors @ factors.conj().mT
    general /= np.trace(general, axis1=-2, axis2=-1).real[:, None, None]
    diagonal = np.zeros((count, 2, 2), dtype=complex)
    diagonal[:, 0, 0] = p = rng.uniform(0.0, 1.0, count)
    diagonal[:, 1, 1] = 1.0 - p
    mixed = np.broadcast_to(np.eye(2, dtype=complex) / 2, (count, 2, 2))
    return np.stack([rank_one, general, diagonal, mixed])


def bell_pair():
    return PureState(np.array([SQ2, 0, 0, SQ2]))


WRONG_QUBIT_COUNTS = {
    "fidelity_vs_target": (fidelity_vs_target, (to_density(bell_pair()), make_state("w")), "qubit counts differ: 2 vs 3"),
    "concurrence": (concurrence, (to_density(make_state("w")),), "concurrence expects 2 qubits, got 3"),
    "three_tangle": (three_tangle, (bell_pair(),), "three_tangle expects 3 qubits, got 2"),
}


@pytest.mark.parametrize(("function", "args", "message"), WRONG_QUBIT_COUNTS.values(), ids=WRONG_QUBIT_COUNTS.keys())
def test_wrong_qubit_count_refused(function, args, message):
    with pytest.raises(ValueError, match=message):
        function(*args)


class TestFidelity:
    def test_self_fidelity(self):
        ghz = make_state("ghz_plus")
        assert fidelity_pure(ghz, ghz) == pytest.approx(1.0)

    def test_equal_angle_ghz_curve(self, rng):
        ghz = make_state("ghz_plus")
        for omega in rng.uniform(0, 2 * np.pi, 30):
            f = fidelity_pure(ghz, product_transform(ghz, (omega, omega, omega)))
            assert f == pytest.approx(math.cos(omega / 2) ** 6, abs=1e-12)
        assert fidelity_pure(ghz, product_transform(ghz, (np.pi, np.pi, np.pi))) < 1e-12

    def test_equal_angle_w_curve(self, rng):
        w = make_state("w")
        for omega in rng.uniform(0, 2 * np.pi, 30):
            f = fidelity_pure(w, product_transform(w, (omega, omega, omega)))
            c2 = math.cos(omega / 2) ** 2
            s2 = math.sin(omega / 2) ** 2
            assert f == pytest.approx(c2 * (c2 - 2 * s2) ** 2, abs=1e-12)

    def test_w_first_zero_location(self):
        # cos^2 = 2 sin^2 first holds at 2*arctan(1/sqrt(2)) ~ 0.392 pi.
        first_zero = 2 * math.atan(1 / math.sqrt(2))
        assert 0.390 * math.pi < first_zero < 0.394 * math.pi
        w = make_state("w")
        assert fidelity_pure(w, product_transform(w, (first_zero,) * 3)) < 1e-15

    def test_batch_rows_match_single_calls(self, rng):
        states = [haar_random_state(3, rng) for _ in range(50)]
        target = make_state("w_prime")
        batch = fidelity_pure_batch(np.stack([s.amplitudes for s in states]), target.amplitudes)
        assert batch.shape == (50,)
        assert batch.tolist() == [fidelity_pure(s, target) for s in states]

    def test_symmetric_and_phase_invariant(self, rng):
        for _ in range(20):
            a = haar_random_state(3, rng)
            b = haar_random_state(3, rng)
            assert fidelity_pure(a, b) == pytest.approx(fidelity_pure(b, a), abs=1e-12)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert fidelity_pure(a, PureState(phase * b.amplitudes)) == pytest.approx(
                fidelity_pure(a, b), abs=1e-12
            )

    def test_two_pi_periodic_in_each_angle(self, rng):
        psi = make_state("w")
        for _ in range(10):
            angles = random_angles(rng)
            base = fidelity_pure(psi, product_transform(psi, angles))
            for axis in range(3):
                shifted = list(angles)
                shifted[axis] += 2 * np.pi
                assert fidelity_pure(psi, product_transform(psi, shifted)) == pytest.approx(base, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(bell_pair(), make_state("w"))

    def test_fidelity_vs_target_examples(self):
        ghz = make_state("ghz_plus")
        assert fidelity_vs_target(to_density(ghz), ghz) == pytest.approx(1.0)
        boosted = to_density(product_transform(ghz, (np.pi, np.pi, np.pi)))
        assert fidelity_vs_target(boosted, make_state("ghz_minus")) == pytest.approx(1.0, abs=1e-12)
        mixed = DensityOperator(np.eye(8) / 8)
        assert fidelity_vs_target(mixed, ghz) == pytest.approx(1 / 8)


class TestEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(to_density(make_state("ghz_plus"))) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_qubit(self):
        assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_two_thirds_one_third(self):
        rho = DensityOperator(np.diag([2 / 3, 1 / 3]))
        assert von_neumann_entropy(rho) == pytest.approx(math.log2(3) - 2 / 3, abs=1e-12)

    def test_invariant_under_rotation_conjugation(self, rng):
        for _ in range(10):
            rho = to_density(haar_random_state(2, rng))
            mixed = DensityOperator(0.6 * rho.matrix + 0.4 * np.eye(4) / 4)
            u = np.kron(*wigner_unitaries(rng.uniform(0, 2 * np.pi, 2)))
            conjugated = DensityOperator(u @ mixed.matrix @ u.conj().T)
            assert von_neumann_entropy(conjugated) == pytest.approx(von_neumann_entropy(mixed), abs=1e-9)

    def test_qubit_closed_form_matches_eigvalsh_and_oracle(self, rng):
        stack = qubit_density_stack(rng, 500)
        m = stack.reshape(-1, 2, 2)
        spectra = measures._qubit_spectra(m[:, 0, 0].real, m[:, 1, 1].real, np.abs(m[:, 1, 0]))
        # Both spectra are backward stable on matrices of norm <= 1: the closed
        # form rounds five times (a + b, a - b, |c|, hypot and the final -+), each
        # by at most eps/2 of a value <= 1, and LAPACK adds a few eps, so 8 eps
        # bounds their gap. Measured worst 4 eps.
        p = np.linalg.eigvalsh(m)
        assert np.abs(spectra - p).max() <= 8 * EPS
        entropies = von_neumann_entropy_batch(stack)
        assert entropies.shape == (4, 500)  # leading axes are kept
        eigvalsh_entropies = -(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)
        # two eigenvalues, each 8 eps apart; measured worst 1.5e-14, on rank-one
        # input, where -p*log2(p) amplifies the roundoff of the small eigenvalue
        tolerance = 2 * entropy_slack(8 * EPS)
        assert np.abs(entropies.ravel() - eigvalsh_entropies).max() <= tolerance
        # a 40-digit spectrum of the same double matrices (every 25th of each kind)
        for kind in stack:
            for matrix in kind[::25]:
                rho = DensityOperator(matrix)
                assert abs(von_neumann_entropy(rho) - oracle_entropy(rho)) <= tolerance
        # the scalar call is one matrix of the batch, bit for bit; I/2 is exact
        assert von_neumann_entropy(DensityOperator(stack[1, 7])) == entropies[1, 7]
        assert (entropies[3] == 1.0).all()

    def test_pure_states_have_entropy_plus_zero(self):
        # a bare negation of the zero sum -sum(p * log2(p)) would give -0.0
        pure = [np.eye(1), np.diag([1.0, 0.0]), np.diag(np.eye(4)[2]), np.diag(np.eye(8)[5])]
        entropies = [von_neumann_entropy(DensityOperator(m)) for m in pure]
        entropies.append(von_neumann_entropy(reduced(to_density(PureState(np.eye(8)[3])), (0,))))
        assert entropies == [0.0] * 5
        assert [math.copysign(1.0, s) for s in entropies] == [1.0] * 5


class TestCapacity:
    def test_product_pair(self):
        rho = to_density(PureState(np.array([1.0, 0, 0, 0])))
        assert pair_capacity(rho) == pytest.approx(1.0)

    def test_bell_pair_hits_ceiling(self):
        assert pair_capacity(to_density(bell_pair())) == pytest.approx(2.0, abs=1e-12)

    def test_ghz_pair_reduction(self):
        pair = reduced(to_density(make_state("ghz_plus")), (0, 1))
        assert pair_capacity(pair) == pytest.approx(1.0, abs=1e-12)

    def test_average_capacity_baselines(self):
        assert average_capacity(to_density(make_state("ghz_plus"))).average == pytest.approx(1.0, abs=1e-12)
        assert average_capacity(to_density(make_state("w"))).average == pytest.approx(1.0, abs=1e-12)

    def test_one_state_eigensolves_its_three_pairs_in_one_call(self, rng, monkeypatch):
        rho = to_density(haar_random_state(3, rng))
        expected = average_capacity(rho)
        entropies, joint = measures.von_neumann_entropy_batch, []

        def recording(matrices):  # logs the joint entropies' input; the sender marginals are qubits
            if matrices.shape[-1] == 4:
                joint.append(matrices)
            return entropies(matrices)

        monkeypatch.setattr(measures, "von_neumann_entropy_batch", recording)
        assert average_capacity(rho) == expected
        assert [stack.shape for stack in joint] == [(3, 4, 4)]

    def test_maximally_mixed_floor(self):
        breakdown = average_capacity(DensityOperator(np.eye(8) / 8))
        assert breakdown.pair_ab == pytest.approx(0.0, abs=1e-12)
        assert breakdown.average == pytest.approx(0.0, abs=1e-12)

    def test_average_is_mean_of_pairs(self, rng):
        for _ in range(10):
            rho = to_density(haar_random_state(3, rng))
            b = average_capacity(rho)
            assert b.average == pytest.approx((b.pair_ab + b.pair_ac + b.pair_bc) / 3, abs=1e-12)
            for value in (b.pair_ab, b.pair_ac, b.pair_bc):
                assert 0.0 <= value <= 2.0

    def test_angle_independent_under_pure_transform(self, rng):
        for tag in ("ghz_plus", "w"):
            base = average_capacity(to_density(make_state(tag))).average
            for _ in range(10):
                out = to_density(product_transform(make_state(tag), random_angles(rng)))
                assert abs(average_capacity(out).average - base) < 1e-9

    def test_clamp_reports(self):
        # Exact values stay inside [0, 2]; the clamp is a roundoff guard, so
        # exercise it directly, one value at a time: a clamped value warns.
        for raw, value, clamped in ((1.5, 1.5, False), (2.0, 2.0, False), (-1e-3, 0.0, True), (2.0 + 1e-3, 2.0, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert clamp_capacity_batch(np.array([raw])).tolist() == [value]
            assert len(caught) == int(clamped)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair_capacity(to_density(bell_pair()))  # no warning at the exact ceiling
            # a non-finite capacity is a fault, not roundoff: refused, neither clamped nor warned
            for raw, first in (([np.nan, 2.5], "nan"), ([1.5, np.inf], "inf"), ([-1e-3, -np.inf, np.nan], "-inf")):
                with pytest.raises(NumericValidationError, match=f"pair capacity {first} is not finite"):
                    clamp_capacity_batch(np.array(raw))

    def test_array_clamp_warns_once_per_clamped_value(self):
        raw = np.array([-1e-3, 1.5, 2.0 + 1e-3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = clamp_capacity_batch(raw)
        assert values.tolist() == [0.0, 1.5, 2.0]
        assert [w.category for w in caught] == [CapacityClampWarning] * 2
        assert [str(w.message) for w in caught] == [
            f"pair capacity {-1e-3!r} outside [0, 2], clamped",
            f"pair capacity {2.0 + 1e-3!r} outside [0, 2], clamped",
        ]

    def test_trace_out_selects_the_sender_marginal(self):
        # |0><0| x I/2: the second qubit is traced out, so the sender marginal
        # is the pure first qubit and the capacity is 0 (the maximally mixed
        # second qubit would give 1).
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert pair_capacity(rho) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_sizes_rejected(self):
        with pytest.raises(ValueError):
            pair_capacity(to_density(make_state("w")))
        for state in (to_density(bell_pair()), bell_pair()):
            with pytest.raises(ValueError, match="average_capacity expects 3 qubits, got 2"):
                average_capacity(state)

    def test_pure_route_is_the_schmidt_identity(self, haar_states):
        # For a pure state S(rho_ij) = S(rho_k), so the pure kernel reads three
        # one-qubit marginals where the general route eigensolves three pairs.
        amplitudes = np.array([psi.amplitudes for psi in haar_states])
        pure = np.stack(pure_capacity_batch(amplitudes))
        general = np.stack(average_capacity_batch(pure_reductions(amplitudes, (0, 1, 2))))
        # Every spectrum is within 16 eps of the exact one (LAPACK on a 4x4
        # of norm <= 1, plus the roundoff of forming the matrix). The general
        # route sums 2 + 4 eigenvalue terms per capacity, the pure route 2 + 2.
        # Measured worst over these 10,000 states 2.0e-14.
        tolerance = 10 * entropy_slack(16 * EPS)
        assert np.abs(pure - general).max() <= tolerance
        for psi, row in zip(haar_states[:20], pure.T):
            rho = to_density(psi)
            pairs = [oracle_pair_capacity(oracle_partial_trace(rho, pair)) for pair in ((0, 1), (0, 2), (1, 2))]
            assert np.abs(row[:3] - pairs).max() <= tolerance
        # the scalar call on a PureState is the one-state case of the kernel, bit for bit
        scalar = np.array([dataclasses.astuple(average_capacity(psi)) for psi in haar_states[:500]])
        assert np.array_equal(scalar.T.view(np.uint64), pure[:, :500].view(np.uint64))


class TestConcurrence:
    def test_bell_pair(self):
        assert concurrence(to_density(bell_pair())) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        assert concurrence(to_density(PureState(np.array([1.0, 0, 0, 0])))) == pytest.approx(0.0, abs=1e-10)

    def test_w_reduction(self):
        pair = reduced(to_density(make_state("w")), (0, 1))
        assert concurrence(pair) == pytest.approx(2 / 3, abs=1e-10)

    def test_matches_spin_flip_oracle_on_pure_states(self, rng):
        for _ in range(200):
            psi = haar_random_state(2, rng)
            assert concurrence(to_density(psi)) == pytest.approx(
                oracle_concurrence_pure(psi), abs=1e-10
            )


    def test_equal_to_the_matmul_spin_flip(self, rng):
        # concurrence_batch with rho_tilde = (sigma_y x sigma_y) rho* (sigma_y x sigma_y)
        # formed by two matrix products, as the kernel once built it
        sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        flip = np.kron(sigma_y, sigma_y)

        def matmul_concurrences(pairs):
            root = matrix_sqrt_psd(pairs)
            inner = root @ (flip @ pairs.conj() @ flip) @ root
            mu = np.linalg.eigvalsh(0.5 * (inner + inner.conj().mT))
            floor = np.maximum(mu[..., -1:], 0.0) * 128.0 * np.finfo(float).eps
            lam = np.sqrt(np.where(mu > floor, mu, 0.0))
            return np.maximum(0.0, 2.0 * lam.max(axis=-1) - lam.sum(axis=-1))

        for rank in (1, 2, 4):
            factors = rng.standard_normal((300, 4, rank)) + 1j * rng.standard_normal((300, 4, rank))
            pairs = factors @ factors.conj().mT
            pairs /= np.trace(pairs, axis1=-2, axis2=-1).real[:, None, None]
            values = concurrence_batch(pairs)
            assert np.count_nonzero(values) > 50
            np.testing.assert_array_equal(values, matmul_concurrences(pairs))


class TestBatchWithReuse:
    """A kernel's value is copied only for a matrix equal bit for bit to an
    earlier one at the same point, which is exact because the kernels give a
    subset of rows the whole stack's bits."""

    def test_reuses_exactly_the_rows_equal_bit_for_bit(self, rng):
        calls = []

        def kernel(stack):  # each value is its row's place in the call
            calls.append(stack)
            return np.arange(len(stack), dtype=float)

        first = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        first[1, 2, 3] = 0.0
        first[3, 1, 1] = complex(np.nan, 0.5)
        second = first.copy()
        second[1, 2, 3] = -0.0  # equal as floats, not as bits
        second[2, 0, 0] += np.spacing(second[2, 0, 0].real)  # the last bit of one entry
        second[4] = first[0]  # another point's matrix
        # every row equals the same row of one earlier stack or the other
        third = np.stack([first[0], second[1], second[2], first[3], second[4]])
        values = batch_with_reuse(kernel, np.stack([first, second, third]))
        # second's rows 0 and 3 (its NaN has the same bits) are first's, rows 1, 2 and 4 computed
        assert values.tolist() == [[0, 1, 2, 3, 4], [0, 5, 6, 3, 7], [0, 5, 6, 3, 7]]
        assert len(calls) == 1
        np.testing.assert_array_equal(
            calls[0].view(np.uint64), np.concatenate([first, second[[1, 2, 4]]]).view(np.uint64)
        )
        # no row matches: the whole stack reaches the kernel once, reshaped, uncopied
        stacks = np.stack([first, np.roll(first, 1, axis=0)])  # each row another point's matrix
        assert batch_with_reuse(kernel, stacks).tolist() == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        assert len(calls) == 2 and calls[1].shape == (10, 4, 4) and np.shares_memory(calls[1], stacks)

    @pytest.mark.parametrize("state", STATE_TAGS)
    def test_kernels_give_a_subset_of_rows_the_whole_stacks_bits(self, rng, state):
        # the traced and pure pair states of a family plan's 257 points, at seeded angles
        n = 257
        factors, points = point_factors(*(wigner_unitaries(rng.uniform(-2 * np.pi, 2 * np.pi, n)) for _ in range(3)))
        psi = make_state(state).amplitudes
        traced = momentum_traced_channel_batch(psi, factors, points, np.pi / 4)
        pure = product_transform_batch(psi, factors, points)
        stacks = [partial_trace(traced, pair) for pair in ((0, 1), (0, 2), (1, 2))]
        stacks += [pure_reductions(pure, pair) for pair in ((0, 1), (0, 2), (1, 2))]
        masks = {
            "every other row": np.arange(n) % 2 == 0,
            "a seeded third": rng.permutation(n) < n // 3,
            "the first row": np.arange(n) == 0,
            "the last row": np.arange(n) == n - 1,
        }
        for kernel in (concurrence_batch, von_neumann_entropy_batch):
            for stack in stacks:
                whole = kernel(stack)
                for name, mask in masks.items():
                    subset = kernel(stack[mask])
                    assert np.array_equal(subset.view(np.uint64), whole[mask].view(np.uint64)), (kernel, name)


def test_kernel_clamps_match_np_clip_bit_for_bit(rng):
    # matrix_sqrt_psd floors its spectrum with np.maximum, and three_tangle_batch
    # clamps its determinant with np.maximum then np.minimum: each gives np.clip's
    # bits wherever the kernel's result reads them
    special = np.array([-0.0, 0.0, -5e-324, 5e-324, np.nan, -np.nan, np.inf, -np.inf, 0.25, -0.25, 1.0])
    factors = rng.standard_normal((200, 4, 2)) + 1j * rng.standard_normal((200, 4, 2))
    spectra = np.linalg.eigvalsh(factors @ factors.conj().mT).ravel()  # half of them ~ +-eps
    near_quarter = 0.25 + rng.standard_normal(200) * 1e-16
    values = np.concatenate([special, spectra, near_quarter, -spectra[::7]])

    def bits(x):
        return np.asarray(x).view(np.uint64)

    grid = values[: values.size // 8 * 8].reshape(-1, 8)
    for x in (values, values[::3], values[::-1], grid[:, 1::3], np.ascontiguousarray(grid[:, 1::3])):
        np.testing.assert_array_equal(bits(np.maximum(x, 0.0)), bits(np.clip(x, 0.0, None)))
        clamped, clipped = np.minimum(np.maximum(x, 0.0), 0.25), np.clip(x, 0.0, 0.25)
        # np.clip may keep -0.0 where the pair gives +0.0; every other value
        # agrees, and the tangle reads the clamp only as (2 sqrt(det))**2
        nonzero = clipped != 0.0
        assert np.count_nonzero(nonzero) > x.size // 4
        np.testing.assert_array_equal(bits(clamped[nonzero]), bits(clipped[nonzero]))
        one, one_clipped = 2.0 * np.sqrt(clamped), 2.0 * np.sqrt(clipped)
        np.testing.assert_array_equal(bits(one * one), bits(one_clipped * one_clipped))


class TestTangle:
    def test_one_tangle_examples(self):
        # squared one-tangles 4 det(rho_0): 1, 0 and 8/9
        assert three_tangle(make_state("ghz_plus")).one_tangle_sq == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(PureState(np.eye(8)[0])).one_tangle_sq == pytest.approx(0.0, abs=1e-12)
        assert three_tangle(make_state("w")).one_tangle_sq == pytest.approx(8 / 9, abs=1e-12)

    def test_three_tangle_ghz(self):
        breakdown = three_tangle(make_state("ghz_plus"))
        assert breakdown.three_tangle == pytest.approx(1.0, abs=1e-10)
        assert breakdown.c12_sq == pytest.approx(0.0, abs=1e-10)
        assert breakdown.c13_sq == pytest.approx(0.0, abs=1e-10)

    def test_three_tangle_product_state(self):
        assert three_tangle(PureState(np.eye(8)[0])).three_tangle == pytest.approx(0.0, abs=1e-12)

    def test_three_tangle_w_vanishes(self):
        # 8/9 - 4/9 - 4/9: the one-tangle is fully exhausted by the pairs.
        breakdown = three_tangle(make_state("w"))
        assert breakdown.one_tangle_sq == pytest.approx(8 / 9, abs=1e-10)
        assert breakdown.c12_sq == pytest.approx(4 / 9, abs=1e-10)
        assert breakdown.c13_sq == pytest.approx(4 / 9, abs=1e-10)
        assert breakdown.three_tangle == pytest.approx(0.0, abs=1e-8)
        assert oracle_three_tangle(make_state("w")) == pytest.approx(0.0, abs=1e-8)

    def test_invariant_under_qubit_permutations(self, rng):
        # The kernel focuses on qubit 0; relabelling the qubits moves every
        # qubit into that place, on states that are not symmetric too.
        for psi in [make_state(tag) for tag in STATE_TAGS] + [haar_random_state(3, rng) for _ in range(20)]:
            cube = psi.amplitudes.reshape(2, 2, 2)
            permuted = [PureState(cube.transpose(order).reshape(8)) for order in itertools.permutations(range(3))]
            values = [three_tangle(p).three_tangle for p in permuted]
            assert max(values) - min(values) < 1e-9
            for p, value in zip(permuted, values):
                assert abs(value - oracle_three_tangle(p)) < 1e-9

    def test_angle_independent_under_pure_transform(self, rng):
        for tag in ("ghz_plus", "w"):
            base = three_tangle(make_state(tag)).three_tangle
            for _ in range(10):
                out = product_transform(make_state(tag), random_angles(rng))
                assert abs(three_tangle(out).three_tangle - base) < 1e-9

    def test_matches_hyperdeterminant_oracle(self, haar_states):
        # Dual-route agreement on a large random sample, plus monogamy and
        # component bounds, over one stack of amplitude rows.
        components = np.stack(three_tangle_batch(np.array([psi.amplitudes for psi in haar_states])))
        one_sq, c12_sq, c13_sq, tau = components
        direct = np.array([oracle_three_tangle(psi) for psi in haar_states])
        assert np.abs(tau - direct).max() < 1e-8
        assert ((components >= -1e-9) & (components <= 1.0 + 1e-9)).all()
        assert (tau == one_sq - c12_sq - c13_sq).all()
        # the scalar wrapper is the one-state case of the kernel, bit for bit
        scalar = np.array([dataclasses.astuple(three_tangle(psi)) for psi in haar_states[:500]])
        assert np.array_equal(scalar.T.view(np.uint64), components[:, :500].view(np.uint64))

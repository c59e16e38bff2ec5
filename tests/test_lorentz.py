import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerqi.lorentz import (
    MomentumConfig,
    WignerAngles,
    audit_w_coefficient_table,
    momentum_traced_channel,
    product_transform,
    product_transform_batch,
    w_variant_coefficients,
    wigner_unitaries,
    wigner_unitary,
)
from wignerqi.oracle import ghz_coefficients, w_coefficients
from wignerqi.qmath import partial_trace
from wignerqi.states import STATE_TAGS, PureState, make_state, to_density, validate_density

SQ2 = 1 / np.sqrt(2)

angles_st = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False)


def random_angles(rng):
    return WignerAngles(*rng.uniform(0.0, 2.0 * np.pi, 3))


class TestWignerUnitary:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(wigner_unitary(0.0), np.eye(2), atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(wigner_unitary(np.pi), [[0, -1], [1, 0]], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            wigner_unitary(np.pi / 2), np.array([[1, -1], [1, 1]]) * SQ2, atol=1e-15
        )

    def test_unitary_everywhere(self, rng):
        for omega in rng.uniform(-10 * np.pi, 10 * np.pi, 1000):
            u = wigner_unitary(omega)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(omega=angles_st)
    def test_spinor_periodicity(self, omega):
        u = wigner_unitary(omega)
        np.testing.assert_allclose(wigner_unitary(omega + 4 * math.pi), u, atol=1e-12)
        np.testing.assert_allclose(wigner_unitary(omega + 2 * math.pi), -u, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wigner_unitary(float("nan"))


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

    def test_reduction_spectra_angle_independent(self, rng):
        # Per-qubit rotations leave every one- and two-qubit reduction spectrum
        # alone, which is why entropies, capacities and tangles cannot move.
        for tag in ("ghz_plus", "w"):
            base = to_density(make_state(tag)).matrix
            for _ in range(10):
                out = to_density(product_transform(make_state(tag), random_angles(rng))).matrix
                for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                    ref = np.sort(np.linalg.eigvalsh(partial_trace(base, 3, keep)))
                    got = np.sort(np.linalg.eigvalsh(partial_trace(out, 3, keep)))
                    np.testing.assert_allclose(got, ref, atol=1e-9)


class TestProductTransformBatch:
    """The stacked transform must reproduce the per-point kron product bit for bit."""

    @staticmethod
    def per_point(psi, angles):
        # The dense 8x8 route: np.kron of the three rotations, then one matvec.
        u = np.kron(np.kron(wigner_unitary(angles[0]), wigner_unitary(angles[1])), wigner_unitary(angles[2]))
        return u @ psi.amplitudes

    def test_bitwise_equal_to_per_point_kron(self, rng):
        triples = rng.uniform(-10.0, 10.0, (2000, 3))
        for sign in (1.0, -1.0):
            angles = sign * triples
            rotations = [wigner_unitaries(angles[:, k]) for k in range(3)]
            for tag in STATE_TAGS:
                psi = make_state(tag)
                batch = product_transform_batch(psi.amplitudes, *rotations)
                assert batch.shape == (2000, 8)
                for row, point in zip(batch, angles):
                    expected = self.per_point(psi, point)
                    assert np.array_equal(row, expected)
                    assert np.array_equal(row, product_transform(psi, tuple(point)).amplitudes)

    def test_single_point_batch(self):
        psi = make_state("w")
        angles = (0.3, -1.2, 2.5)
        batch = product_transform_batch(psi.amplitudes, *(wigner_unitaries([o]) for o in angles))
        assert batch.shape == (1, 8)
        assert np.array_equal(batch[0], self.per_point(psi, angles))
        assert np.array_equal(batch[0], product_transform(psi, angles).amplitudes)

    def test_unitaries_reject_non_finite(self):
        with pytest.raises(ValueError):
            wigner_unitaries([0.0, float("inf")])


class TestCoefficientTables:
    def test_ghz_at_zero(self):
        np.testing.assert_allclose(ghz_coefficients((0, 0, 0)), [SQ2, 0, 0, 0, 0, 0, 0, SQ2], atol=1e-15)

    def test_ghz_first_half_turn(self):
        # Only |011> and |100> survive: (0,0,0,-1,1,0,0,0)/sqrt(2).
        np.testing.assert_allclose(
            ghz_coefficients((np.pi, 0, 0)), [0, 0, 0, -SQ2, SQ2, 0, 0, 0], atol=1e-12
        )

    def test_ghz_matches_direct_transform(self, rng):
        ghz = make_state("ghz_plus")
        for _ in range(200):
            angles = random_angles(rng)
            np.testing.assert_allclose(
                ghz_coefficients(angles), product_transform(ghz, angles).amplitudes, atol=1e-12
            )

    def test_w_at_zero(self):
        sq3 = 1 / np.sqrt(3)
        np.testing.assert_allclose(w_coefficients((0, 0, 0)), [0, sq3, sq3, 0, sq3, 0, 0, 0], atol=1e-15)

    def test_w_matches_direct_transform(self, rng):
        w = make_state("w")
        for _ in range(200):
            angles = random_angles(rng)
            np.testing.assert_allclose(
                w_coefficients(angles), product_transform(w, angles).amplitudes, atol=1e-12
            )

    def test_variant_table_not_normalized(self):
        norm = np.linalg.norm(w_variant_coefficients((0.7, 1.3, 2.1)))
        assert abs(norm - 1.0) > 1e-3

    def test_variant_table_audit_at_generic_angles(self):
        report = audit_w_coefficient_table((0.3, 0.7, 1.1))
        assert report.mismatched_indices == (0, 1, 2, 3, 4, 5, 6, 7)
        assert report.matches_flipped_partner == (0, 3, 5, 6, 7)
        assert report.max_abs_deviation > 0.1

    def test_variant_table_audit_over_random_angles(self, rng):
        seen = set()
        for _ in range(100):
            report = audit_w_coefficient_table(random_angles(rng))
            seen.update(report.mismatched_indices)
            assert {0, 3, 5, 6, 7} <= set(report.matches_flipped_partner)
        assert seen == set(range(8))

    def test_variant_table_matches_direct_w_nowhere_generic(self, rng):
        w = make_state("w")
        for _ in range(50):
            angles = random_angles(rng)
            dev = np.abs(w_variant_coefficients(angles) - product_transform(w, angles).amplitudes)
            assert np.all(dev > 1e-12)


class TestMomentumTracedChannel:
    def test_alpha_zero_is_pure_transform(self, rng):
        psi = make_state("w")
        angles = random_angles(rng)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(0.0))
        np.testing.assert_allclose(
            rho.matrix, to_density(product_transform(psi, angles)).matrix, atol=1e-15
        )

    def test_alpha_right_angle_is_reversed_branch(self, rng):
        psi = make_state("ghz_plus")
        angles = random_angles(rng)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(np.pi / 2, "opposite"))
        flipped = WignerAngles(-angles[0], -angles[1], -angles[2])
        np.testing.assert_allclose(
            rho.matrix, to_density(product_transform(psi, flipped)).matrix, atol=1e-12
        )

    def test_half_turns_collapse_to_ghz_minus_projector(self):
        rho = momentum_traced_channel(
            make_state("ghz_plus"), (np.pi, np.pi, np.pi), MomentumConfig(np.pi / 4, "opposite")
        )
        target = to_density(make_state("ghz_minus")).matrix
        np.testing.assert_allclose(rho.matrix, target, atol=1e-12)

    def test_same_convention_stays_pure(self, rng):
        psi = make_state("w")
        angles = random_angles(rng)
        rho = momentum_traced_channel(psi, angles, MomentumConfig(0.8, "same"))
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert abs(purity - 1.0) < 1e-12

    def test_output_is_valid_density(self, rng):
        for _ in range(20):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            psi = PureState(amps / np.linalg.norm(amps))
            cfg = MomentumConfig(rng.uniform(0, np.pi), "opposite")
            rho = momentum_traced_channel(psi, random_angles(rng), cfg)
            assert validate_density(rho.matrix).ok

    def test_convex_in_branch_projectors(self, rng):
        psi = make_state("w")
        angles = random_angles(rng)
        alpha = 0.7
        rho = momentum_traced_channel(psi, angles, MomentumConfig(alpha, "opposite"))
        plus = to_density(product_transform(psi, angles)).matrix
        minus = to_density(product_transform(psi, WignerAngles(-angles[0], -angles[1], -angles[2]))).matrix
        expected = math.cos(alpha) ** 2 * plus + math.sin(alpha) ** 2 * minus
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            MomentumConfig(0.1, "sideways")

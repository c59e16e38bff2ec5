import numpy as np
import pytest

from wignerqi.qmath import (
    NumericValidationError,
    eig_hermitian,
    matrix_sqrt_psd,
    partial_trace,
)
from wignerqi.lorentz import wigner_unitary

I2 = np.eye(2)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


class TestPartialTrace:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        np.testing.assert_allclose(partial_trace(rho, 2, (0,)), np.diag([1.0, 0.0]), atol=1e-15)

    def test_ghz_pair_reduction(self):
        amps = np.zeros(8)
        amps[0] = amps[7] = 1 / np.sqrt(2)
        rho = np.outer(amps, amps)
        np.testing.assert_allclose(partial_trace(rho, 3, (0, 1)), np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_w_single_qubit_reduction(self):
        # (|100>+|010>+|001>)/sqrt(3): qubit 0 is |1> in one branch of three,
        # so the marginal is diag(2/3, 1/3) by direct index summation.
        amps = np.zeros(8)
        amps[4] = amps[2] = amps[1] = 1 / np.sqrt(3)
        rho = np.outer(amps, amps)
        np.testing.assert_allclose(partial_trace(rho, 3, (0,)), np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_trace_preserved(self, rng):
        for _ in range(10):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                red = partial_trace(rho, 3, keep)
                assert abs(np.trace(red) - 1.0) < 1e-12

    def test_commutes_with_convex_mixing(self, rng):
        def random_density(dim):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = m @ m.conj().T
            return rho / np.trace(rho)

        a, b = random_density(8), random_density(8)
        lam = 0.3
        mixed = partial_trace(lam * a + (1 - lam) * b, 3, (0, 2))
        parts = lam * partial_trace(a, 3, (0, 2)) + (1 - lam) * partial_trace(b, 3, (0, 2))
        np.testing.assert_allclose(mixed, parts, atol=1e-12)

    @pytest.mark.parametrize("keep", [(), (3,), (-1,), (1, 0), (0, 0)])
    def test_rejects_bad_keep(self, keep):
        rho = np.eye(8) / 8
        with pytest.raises(ValueError):
            partial_trace(rho, 3, keep)


class TestEigHermitian:
    def test_identity(self):
        values, _ = eig_hermitian(I2)
        np.testing.assert_allclose(values, [1.0, 1.0], atol=1e-15)

    def test_already_diagonal(self):
        values, _ = eig_hermitian(np.diag([0.5, 0.0, 0.0, 0.5]))
        np.testing.assert_allclose(values, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_pauli_x_spectrum(self):
        values, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-15)

    def test_descending_and_reconstructs(self, rng):
        for dim in (2, 4, 8):
            m = random_hermitian(rng, dim)
            values, vectors = eig_hermitian(m)
            assert all(x >= y for x, y in zip(values, values[1:]))
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(m - rebuilt)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericValidationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_spectrum_invariant_under_rotation_conjugation(self, rng):
        for _ in range(10):
            m = random_hermitian(rng, 8)
            d1, d2, d3 = (wigner_unitary(o) for o in rng.uniform(0, 2 * np.pi, 3))
            u = np.kron(np.kron(d1, d2), d3)
            base, _ = eig_hermitian(m)
            conj, _ = eig_hermitian(u @ m @ u.conj().T)
            np.testing.assert_allclose(base, conj, atol=1e-9)


class TestMatrixSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12)

    def test_projector_is_its_own_root(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        proj = np.outer(bell, bell)
        np.testing.assert_allclose(matrix_sqrt_psd(proj), proj, atol=1e-12)

    def test_square_reconstructs(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            psd = m @ m.conj().T
            root = matrix_sqrt_psd(psd)
            assert np.max(np.abs(root @ root - psd)) < 1e-9

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NumericValidationError):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))


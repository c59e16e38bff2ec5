import itertools

import numpy as np
import pytest

from wignerqi.qmath import matrix_sqrt_psd, partial_trace, pure_reductions


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def np_trace_reference(rho, keep):
    # np.trace over each traced qubit's row and column axes, highest qubit first
    qubit_count = rho.shape[-1].bit_length() - 1
    lead = rho.shape[:-2]
    work = rho.reshape(lead + (2,) * (2 * qubit_count))
    remaining = qubit_count
    for q in sorted(set(range(qubit_count)) - set(keep), reverse=True):
        work = np.trace(work, axis1=len(lead) + q, axis2=len(lead) + q + remaining)
        remaining -= 1
    return work.reshape(lead + (2 ** len(keep),) * 2)


def zero_salted(rng, shape):
    # complex normals with a third of the real and imaginary parts set to +0.0 or -0.0
    parts = rng.standard_normal((2,) + shape)
    zeros = rng.random(parts.shape) < 1 / 3
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return parts[0] + 1j * parts[1]


class TestPartialTrace:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        np.testing.assert_allclose(partial_trace(rho, (0,)), np.diag([1.0, 0.0]), atol=1e-15)

    def test_ghz_pair_reduction(self):
        amps = np.zeros(8)
        amps[0] = amps[7] = 1 / np.sqrt(2)
        rho = np.outer(amps, amps)
        np.testing.assert_allclose(partial_trace(rho, (0, 1)), np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_w_single_qubit_reduction(self):
        # (|100>+|010>+|001>)/sqrt(3): qubit 0 is |1> in one branch of three,
        # so the marginal is diag(2/3, 1/3) by direct index summation.
        amps = np.zeros(8)
        amps[4] = amps[2] = amps[1] = 1 / np.sqrt(3)
        rho = np.outer(amps, amps)
        np.testing.assert_allclose(partial_trace(rho, (0,)), np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_trace_preserved(self, rng):
        for _ in range(10):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                red = partial_trace(rho, keep)
                assert abs(np.trace(red) - 1.0) < 1e-12

    def test_commutes_with_convex_mixing(self, rng):
        def random_density(dim):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = m @ m.conj().T
            return rho / np.trace(rho)

        a, b = random_density(8), random_density(8)
        lam = 0.3
        mixed = partial_trace(lam * a + (1 - lam) * b, (0, 2))
        parts = lam * partial_trace(a, (0, 2)) + (1 - lam) * partial_trace(b, (0, 2))
        np.testing.assert_allclose(mixed, parts, atol=1e-12)

    def test_bit_for_bit_equal_to_np_trace(self, rng):
        # np.trace adds each pair onto 0.0, so two -0.0 terms sum to +0.0; the
        # signed zeros salted in make a plain x0 + x1 differ in the bits
        for qubit_count in range(1, 5):
            dim = 2**qubit_count
            for lead in ((), (5,), (2, 3)):
                rho = zero_salted(rng, lead + (dim, dim))
                for size in range(1, qubit_count + 1):
                    for keep in itertools.combinations(range(qubit_count), size):
                        fast = partial_trace(rho, keep)
                        assert fast.shape == lead + (2**size,) * 2
                        np.testing.assert_array_equal(
                            fast.view(np.uint64), np_trace_reference(rho, keep).view(np.uint64), err_msg=str(keep)
                        )

    def test_accepts_numpy_integer_indices(self, rng):
        rho = random_hermitian(rng, 8)
        row = rng.standard_normal(8)
        expected = partial_trace(rho, (0, 2)), pure_reductions(row, (0, 2))
        # (0, 2)'s table is cached by now; each keep runs twice, the second time from the cache
        for keep in 2 * ([0, 2], (np.int64(0), np.int32(2)), np.array([0, 2]), range(0, 3, 2)):
            np.testing.assert_array_equal(partial_trace(rho, keep), expected[0])
            np.testing.assert_array_equal(pure_reductions(row, keep), expected[1])
        # a one-pass iterator is read once
        for _ in range(2):
            np.testing.assert_array_equal(partial_trace(rho, iter((0, 2))), expected[0])
            np.testing.assert_array_equal(pure_reductions(row, iter((0, 2))), expected[1])

    def test_keeping_every_qubit_copies(self, rng):
        rho = zero_salted(rng, (3, 8, 8))
        kept = partial_trace(rho, range(3))
        assert kept is not rho and kept.flags.c_contiguous
        np.testing.assert_array_equal(kept.view(np.uint64), rho.view(np.uint64))

    @pytest.mark.parametrize(
        "keep", [(), (3,), (-1,), (1, 0), (0, 0), (0.5,), [1.9], "01", (True,), (np.True_,), 0, None, (0, "1")]
    )
    def test_rejects_bad_keep(self, keep):
        # both entry points read one checked index table; the table cached for
        # (1,) must not answer (True,)
        for reduce, good in ((partial_trace, np.eye(8) / 8), (pure_reductions, np.full(8, 8**-0.5))):
            reduce(good, (1,))
            # a second call is refused too, so no refusal is cached
            for _ in range(2):
                with pytest.raises(ValueError, match="keep"):
                    reduce(good, keep)
        # the qubit count is read off the last axis, so an input that is not a
        # square 2**n x 2**n matrix, or rows of 2**n amplitudes, with n >= 1 is
        # refused whatever keep names
        bad_matrices = (np.eye(6) / 6, np.ones((8, 4)), np.ones(8), np.ones((1, 1)))
        bad_rows = (np.ones(6), np.ones((4, 3)), np.ones(1), np.ones((2, 0)), np.float64(1.0))
        for reduce, bad in [(partial_trace, m) for m in bad_matrices] + [(pure_reductions, r) for r in bad_rows]:
            with pytest.raises(ValueError, match="2\\*\\*n"):
                reduce(bad, keep)


class TestStacks:
    """Each routine treats a stack of matrices one matrix at a time."""

    def test_stack_equals_per_matrix_calls(self, rng):
        stack = np.array([random_hermitian(rng, 8) for _ in range(6)])
        np.testing.assert_array_equal(partial_trace(stack, (0, 2)), [partial_trace(m, (0, 2)) for m in stack])
        rows = stack[:, 0]
        np.testing.assert_array_equal(pure_reductions(rows, (0, 2)), [pure_reductions(r, (0, 2)) for r in rows])
        psd = stack @ stack.conj().mT
        np.testing.assert_array_equal(matrix_sqrt_psd(psd), [matrix_sqrt_psd(m) for m in psd])


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

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (5, 2, 4)])
    def test_rejects_a_non_square_matrix(self, shape):
        # np.linalg.eigh's LinAlgError is a ValueError
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.ones(shape))

import itertools

import numpy as np
import pytest

from wignerqi.lorentz import product_transform_batch, wigner_unitaries
from wignerqi.qmath import NumericValidationError, partial_trace
from wignerqi.states import (
    STATE_TAGS,
    DensityOperator,
    PureState,
    make_state,
    projectors,
    pure_reductions,
    reduced,
    to_density,
    validate_density,
)

SQ2 = 1 / np.sqrt(2)
SQ3 = 1 / np.sqrt(3)


def test_named_state_amplitudes():
    np.testing.assert_allclose(make_state("ghz_plus").amplitudes, [SQ2, 0, 0, 0, 0, 0, 0, SQ2], atol=0)
    np.testing.assert_allclose(make_state("ghz_minus").amplitudes, [SQ2, 0, 0, 0, 0, 0, 0, -SQ2], atol=0)
    np.testing.assert_allclose(make_state("w").amplitudes, [0, SQ3, SQ3, 0, SQ3, 0, 0, 0], atol=0)
    np.testing.assert_allclose(make_state("w_prime").amplitudes, [0, 0, 0, SQ3, 0, SQ3, SQ3, 0], atol=0)


def test_named_states_normalized_tightly():
    for tag in STATE_TAGS:
        amps = make_state(tag).amplitudes
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-15


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown state"):
        make_state("bell")


@pytest.mark.parametrize("tag", ["W", ["w"], None])
def test_wrong_case_and_non_string_tags_rejected(tag):
    with pytest.raises(ValueError, match="unknown state"):
        make_state(tag)


def test_named_states_built_once():
    for tag in STATE_TAGS:
        assert make_state(tag) is make_state(tag)
        assert not make_state(tag).amplitudes.flags.writeable


def test_pure_state_validation():
    with pytest.raises(NumericValidationError):
        PureState(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(NumericValidationError):
        PureState(np.array([1.0, 0.0, 0.0]))  # not a power-of-two dimension
    psi = PureState(np.array([1.0, 0.0]))
    assert psi.qubit_count == 1
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0  # stored array is read-only


def test_to_density_single_qubit():
    rho = to_density(PureState(np.array([1.0, 0.0])))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=0)


def test_to_density_ghz_corners():
    rho = to_density(make_state("ghz_plus")).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[0, 7] = expected[7, 0] = expected[7, 7] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_to_density_plus_state():
    rho = to_density(PureState(np.array([SQ2, SQ2]))).matrix
    np.testing.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-15)


def test_to_density_is_pure(rng):
    for _ in range(10):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(amps / np.linalg.norm(amps))
        rho = to_density(psi)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert abs(purity - 1.0) < 1e-12
        spectrum = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        np.testing.assert_allclose(spectrum, [1.0] + [0.0] * 7, atol=1e-10)


def test_validate_density_pass_and_fail():
    validate_density(np.diag([0.5, 0.5]))
    with pytest.raises(NumericValidationError, match=r"trace deviation 1\.000e\+00"):
        validate_density(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(NumericValidationError, match=r"min eigenvalue -2\.000e-01"):
        validate_density(np.diag([1.2, -0.2]))


def test_validate_density_stack_reports_each_matrix():
    stack = np.array([np.diag([0.25, 0.25, 0.25, 0.25])] * 5, dtype=complex)
    stack[3] = np.diag([0.5, 0.2, 0.2, 0.2])  # trace 1.1
    validate_density(stack[:3])
    validate_density(stack[4])
    # a single matrix and a stack give the same residuals; the stack names the matrix
    residuals = "hermiticity violation 0.000e+00, trace deviation 1.000e-01, min eigenvalue 2.000e-01"
    with pytest.raises(NumericValidationError) as single:
        validate_density(stack[3])
    assert str(single.value) == f"invalid density operator: {residuals}"
    with pytest.raises(NumericValidationError) as whole:
        validate_density(stack)
    assert str(whole.value) == f"invalid density operator (matrix 3 of the stack): {residuals}"
    # leading axes count in row-major order, and the first failing matrix is named
    stack[4] = np.diag([0.7, 0.2, 0.3, -0.2])  # eigenvalue -0.2
    stack[1, 0, 1] = 1e-9  # asymmetry
    with pytest.raises(NumericValidationError, match=r"matrix 2 of the stack\): .*min eigenvalue -2\.000e-01"):
        validate_density(stack[[0, 2, 4, 3]].reshape(2, 2, 4, 4))
    with pytest.raises(NumericValidationError, match=r"matrix 1 of the stack\): hermiticity violation 1\.000e-09"):
        validate_density(stack[:4].reshape(2, 2, 4, 4))
    for bad in (np.ones((5, 4, 3)), np.ones(4)):
        with pytest.raises(ValueError):
            validate_density(bad)


def test_density_operator_rejects_invalid():
    with pytest.raises(ValueError, match="expected a square matrix, got shape \\(2, 4\\)"):
        DensityOperator(np.ones((2, 4)) / 4)
    with pytest.raises(ValueError, match="dimension 3 is not a power of two"):
        DensityOperator(np.eye(3) / 3)
    with pytest.raises(NumericValidationError):
        DensityOperator(np.diag([1.0, 1.0]))
    with pytest.raises(NumericValidationError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    negative = np.diag([1.5, -0.5])  # trace one, not PSD
    asymmetric = np.array([[0.5, 1.0], [0.0, 0.5]])  # trace one, asymmetry 1
    with pytest.raises(NumericValidationError, match="min eigenvalue -5.000e-01"):
        DensityOperator(negative)
    with pytest.raises(NumericValidationError, match="hermiticity violation 1.000e\\+00"):
        DensityOperator(asymmetric)
    # a stack names its first failing matrix
    for bad in (negative, asymmetric):
        with pytest.raises(NumericValidationError, match="matrix 1 of the stack"):
            validate_density(np.array([np.eye(2) / 2, bad, np.diag([1.25, -0.25])]))


NON_FINITE = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan, "inf_imag": complex(0, np.inf), "inf_both": complex(np.inf, np.inf)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_entries_refused_before_arithmetic(bad):
    # refused with no numpy RuntimeWarning, on and off the diagonal and inside a stack
    diagonal = np.array([[bad, 0], [0, 0.5]], dtype=complex)
    off_diagonal = np.array([[0.5, bad], [0, 0.5]], dtype=complex)
    for matrix in (diagonal, off_diagonal, np.array([np.eye(2) / 2, off_diagonal])):
        with pytest.raises(NumericValidationError, match="non-finite"):
            validate_density(matrix)
    for matrix in (diagonal, off_diagonal):
        with pytest.raises(NumericValidationError, match="non-finite"):
            DensityOperator(matrix)


OVERFLOWING = {
    "residual": [[1e308, 1e308], [-1e308, 0]],
    "trace": np.diag([1e308, 1e308]),
    "hermitian_part": [[0.5, 1e308], [1e308, 0.5]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_finite_entries_whose_arithmetic_overflows_refused_without_warnings(matrix):
    with pytest.raises(NumericValidationError, match="invalid density operator"):
        DensityOperator(matrix)


BAD_AMPLITUDES = {**NON_FINITE, "overflow": 1e200}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD_AMPLITUDES.values(), ids=BAD_AMPLITUDES.keys())
def test_bad_amplitudes_refused_without_warnings(bad):
    with pytest.raises(NumericValidationError):
        PureState(np.array([bad, 0], dtype=complex))


def test_reduced_checks_its_result():
    # Tracing out qubit 0 doubles the -9e-11 eigenvalue past the -1e-10 floor.
    e = 0.9e-10
    rho = DensityOperator(np.diag([0.5 + e, -e, 0.5 + e, -e]))
    with pytest.raises(NumericValidationError, match="min eigenvalue -1.800e-10"):
        reduced(rho, (1,))


def test_reduced_wraps_partial_trace():
    rho = to_density(make_state("ghz_plus"))
    pair = reduced(rho, (0, 1))
    assert pair.qubit_count == 2
    np.testing.assert_allclose(pair.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


@pytest.mark.parametrize("keep", [(0.5,), [1.9], "01", (True,), 0])
def test_reduced_rejects_keep_that_is_not_int_indices(keep):
    with pytest.raises(ValueError, match="keep"):
        reduced(to_density(make_state("w")), keep)


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_pure_reductions_are_partial_traces_of_projectors_bit_for_bit(rng, qubits):
    # complex Haar rows on two leading axes; for three qubits also the transformed
    # named states, complex rows with real values, the sweep's input
    haar = rng.standard_normal((2, 8, 2**qubits, 2)).view(complex)[..., 0]
    stacks = [haar / np.linalg.norm(haar, axis=-1, keepdims=True)]
    if qubits == 3:
        rotations = [wigner_unitaries(rng.uniform(-4 * np.pi, 4 * np.pi, 64)) for _ in range(3)]
        stacks.append(np.stack([product_transform_batch(make_state(tag).amplitudes, *rotations) for tag in STATE_TAGS]))
    for k in range(1, qubits + 1):
        for keep in itertools.combinations(range(qubits), k):
            for rows in stacks:
                for stack in (rows, rows[0, :1], rows[0, 0]):  # leading axes, N = 1, one vector
                    # the bit patterns tell -0.0 from 0.0 and a real result from a complex one
                    got = np.ascontiguousarray(pure_reductions(stack, keep)).view(np.uint64)
                    assert np.array_equal(got, partial_trace(projectors(stack), keep).view(np.uint64)), keep

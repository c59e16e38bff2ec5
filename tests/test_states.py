import numpy as np
import pytest

from wignerqi.qmath import NumericValidationError
from wignerqi.states import (
    STATE_TAGS,
    DensityOperator,
    PureState,
    check_densities,
    make_state,
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
    assert validate_density(np.diag([0.5, 0.5])).ok
    assert not validate_density(np.diag([1.0, 1.0])).ok  # trace 2
    bad = validate_density(np.diag([1.2, -0.2]))
    assert not bad.ok
    assert bad.min_eigenvalue == pytest.approx(-0.2)


def test_validate_density_stack_reports_each_matrix():
    stack = np.array([np.diag([0.25, 0.25, 0.25, 0.25])] * 5, dtype=complex)
    stack[3] = np.diag([0.5, 0.2, 0.2, 0.2])  # trace 1.1
    diag = validate_density(stack)
    assert diag.ok.tolist() == [True, True, True, False, True]
    assert diag.trace_deviation[3] == pytest.approx(0.1)
    assert diag.min_eigenvalue.tolist() == pytest.approx([0.25, 0.25, 0.25, 0.2, 0.25])
    check_densities(stack[:3])
    with pytest.raises(NumericValidationError, match=r"matrix 3 of the stack\): .*trace deviation 1\.000e-01"):
        check_densities(stack)
    for bad in (np.ones((5, 4, 3)), np.ones(4)):
        with pytest.raises(ValueError):
            validate_density(bad)


def test_density_operator_rejects_invalid():
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
            check_densities(np.array([np.eye(2) / 2, bad, np.diag([1.25, -0.25])]))


def test_reduced_wraps_partial_trace():
    rho = to_density(make_state("ghz_plus"))
    pair = reduced(rho, (0, 1))
    assert pair.qubit_count == 2
    np.testing.assert_allclose(pair.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


@pytest.mark.parametrize("keep", [(0.5,), [1.9], "01", (True,), 0])
def test_reduced_rejects_keep_that_is_not_int_indices(keep):
    with pytest.raises(ValueError, match="keep"):
        reduced(to_density(make_state("w")), keep)


def test_describe_reports_the_worst_of_a_stack():
    stack = np.array([np.diag([0.25, 0.25, 0.25, 0.25])] * 4, dtype=complex)
    stack[1] = np.diag([0.3, 0.3, 0.3, 0.05])  # trace deviation -0.05
    stack[2] = np.diag([0.7, 0.2, 0.3, -0.2])  # trace deviation 0.0, eigenvalue -0.2
    stack[3] = np.diag([0.5, 0.2, 0.2, 0.2])  # trace deviation 0.1
    stack[0, 0, 1] = 1e-9  # asymmetry
    assert validate_density(stack).describe() == (
        "worst of 4 matrices: hermiticity violation 1.000e-09, trace deviation 1.000e-01, min eigenvalue -2.000e-01"
    )
    assert validate_density(stack.reshape(2, 2, 4, 4)).describe() == validate_density(stack).describe()
    # a single matrix keeps the text that check_densities puts in its errors
    assert validate_density(stack[3]).describe() == (
        "hermiticity violation 0.000e+00, trace deviation 1.000e-01, min eigenvalue 2.000e-01"
    )

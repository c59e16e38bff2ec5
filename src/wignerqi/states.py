"""Containers and constructors for pure states and density operators.

The four named three-qubit states swept by this library are built by
:func:`make_state`; everything else is generic plumbing around validated
amplitude vectors and density matrices. Projectors and reduced states of
amplitude vectors come from :func:`~wignerqi.qmath.pure_reductions`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qmath import NumericValidationError, partial_trace, pure_reductions

NORM_ATOL = 1e-12
TRACE_ATOL = 1e-10
# Largest asymmetry tolerated before a matrix stops counting as Hermitian.
HERMITIAN_ATOL = 1e-10
# Eigenvalues of a density operator may round slightly negative; values below
# this floor are rejected.
EIGENVALUE_FLOOR = -1e-10

# Registry of named initial states. |q0 q1 q2> maps to index 4*q0 + 2*q1 + q2.
STATE_TAGS = ("ghz_plus", "ghz_minus", "w", "w_prime")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over ``2**qubit_count`` basis kets; equality is identity."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        n = amps.size
        if n == 0 or n & (n - 1):
            raise NumericValidationError(f"amplitude count {n} is not a power of two")
        if not np.isfinite(amps).all():
            raise NumericValidationError("state amplitudes hold a non-finite entry")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which the check refuses
            check_unit_norms(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def qubit_count(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1


def check_unit_norms(amplitudes) -> None:
    """Raise unless every amplitude vector (the last axis) has unit norm.

    The tolerance is ``NORM_ATOL``; a non-finite norm fails too. The error
    names the first offending norm.
    """
    norms = np.sqrt(np.vecdot(amplitudes, amplitudes).real)
    ok = np.abs(norms - 1.0) <= NORM_ATOL
    if not ok.all():
        norm = float(norms[~ok][0])
        raise NumericValidationError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL:.0e}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, trace-one, positive-semidefinite matrix on ``qubit_count`` qubits.

    A caller-built operator gets the full :func:`validate_density` check.
    :func:`to_density` and :func:`~wignerqi.lorentz.momentum_traced_channel`
    return operators that checked norms certify instead (see
    :func:`~wignerqi.qmath.pure_reductions`); :func:`reduced` checks its
    result again. Equality is identity, and the hash is the default one.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        if n == 0 or n & (n - 1):
            raise ValueError(f"dimension {n} is not a power of two")
        validate_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def qubit_count(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1


def validate_density(matrices) -> None:
    """Raise unless every matrix of a stack is a valid density operator.

    ``matrices`` is one square matrix or a stack of them along leading axes.
    A non-finite entry raises before any arithmetic. Each matrix must then be
    Hermitian within ``HERMITIAN_ATOL``, of trace one within ``TRACE_ATOL``,
    and have no eigenvalue below ``EIGENVALUE_FLOOR`` (eigenvalues of the
    Hermitian part, so the check is meaningful even for slightly asymmetric
    input). The ``NumericValidationError`` gives the three residuals of the
    first failing matrix, in row-major order.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericValidationError("density matrix holds a non-finite entry")
    adjoint = m.conj().mT
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails every tolerance
        herm = np.abs(m - adjoint).max(axis=(-2, -1))
        trace_dev = (m.trace(axis1=-2, axis2=-1) - 1.0).real
        hermitian_part = 0.5 * (m + adjoint)
    min_eig = np.linalg.eigvalsh(hermitian_part)[..., 0]  # eigvalsh sorts ascending
    ok = (herm <= HERMITIAN_ATOL) & (np.abs(trace_dev) <= TRACE_ATOL) & (min_eig >= EIGENVALUE_FLOOR)
    if not ok.all():
        first = np.flatnonzero(~ok)[0]
        where = f" (matrix {first} of the stack)" if ok.ndim else ""
        raise NumericValidationError(
            f"invalid density operator{where}: hermiticity violation {np.ravel(herm)[first]:.3e}, "
            f"trace deviation {np.ravel(trace_dev)[first]:.3e}, min eigenvalue {np.ravel(min_eig)[first]:.3e}"
        )


def make_state(tag: str) -> PureState:
    """One of the named three-qubit states, built once and shared (its amplitudes are read-only).

    ``ghz_plus``  (|000> + |111>)/sqrt(2)
    ``ghz_minus`` (|000> - |111>)/sqrt(2)
    ``w``         (|100> + |010> + |001>)/sqrt(3)
    ``w_prime``   (|110> + |101> + |011>)/sqrt(3)
    """
    if not isinstance(tag, str) or tag not in STATE_TAGS:
        raise ValueError(f"unknown state tag {tag!r}; expected one of {STATE_TAGS}")
    return _named_state(tag)


@functools.cache
def _named_state(tag: str) -> PureState:
    amps = np.zeros(8, dtype=complex)
    if tag == "ghz_plus":
        amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    elif tag == "ghz_minus":
        amps[0] = 1.0 / math.sqrt(2.0)
        amps[7] = -1.0 / math.sqrt(2.0)
    elif tag == "w":
        amps[4] = amps[2] = amps[1] = 1.0 / math.sqrt(3.0)
    else:
        amps[3] = amps[5] = amps[6] = 1.0 / math.sqrt(3.0)
    return PureState(amps)


def _certified_density(matrix) -> DensityOperator:
    """Make a fresh matrix that checked norms certify (see ``pure_reductions``) read-only and wrap it, unchecked."""
    matrix.setflags(write=False)
    rho = object.__new__(DensityOperator)
    object.__setattr__(rho, "matrix", matrix)
    return rho


def to_density(psi: PureState) -> DensityOperator:
    """Rank-one projector |psi><psi| of a pure state.

    Certified by the checked norm of ``psi`` (see
    :func:`~wignerqi.qmath.pure_reductions`), so no eigensolve checks it.
    """
    return _certified_density(pure_reductions(psi.amplitudes, range(psi.qubit_count)))


def reduced(rho: DensityOperator, keep) -> DensityOperator:
    """Partial trace of a density operator down to the qubits in ``keep``.

    The result gets the full check: roundoff below the eigenvalue floor can
    grow by up to 2**k when k qubits are traced out.
    """
    return DensityOperator(partial_trace(rho.matrix, keep))

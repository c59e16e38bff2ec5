"""Containers and constructors for pure states and density operators.

The four named three-qubit states swept by this library are built by
:func:`make_state`; everything else is generic plumbing around validated
amplitude vectors and density matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qmath import NumericValidationError, partial_trace

NORM_ATOL = 1e-12
TRACE_ATOL = 1e-10
# Largest asymmetry tolerated before a matrix stops counting as Hermitian.
HERMITIAN_ATOL = 1e-10
# Eigenvalues of a density operator may round slightly negative; values below
# this floor are rejected.
EIGENVALUE_FLOOR = -1e-10

# Registry of named initial states. |q0 q1 q2> maps to index 4*q0 + 2*q1 + q2.
STATE_TAGS = ("ghz_plus", "ghz_minus", "w", "w_prime")


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over ``2**qubit_count`` basis kets."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        n = amps.size
        if n == 0 or n & (n - 1):
            raise NumericValidationError(f"amplitude count {n} is not a power of two")
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


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, trace-one, positive-semidefinite matrix on ``qubit_count`` qubits.

    A caller-built operator gets the full :func:`check_densities` check.
    :func:`to_density` and :func:`~wignerqi.lorentz.momentum_traced_channel`
    return operators that checked norms certify instead (see
    :func:`projectors`); :func:`reduced` checks its result again.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        if n == 0 or n & (n - 1):
            raise ValueError(f"dimension {n} is not a power of two")
        check_densities(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def qubit_count(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class DensityDiagnostics:
    """Violation magnitudes reported by :func:`validate_density`.

    Each field holds one value per matrix of the validated stack (a scalar
    for a single matrix).
    """

    hermiticity_violation: float | np.ndarray
    trace_deviation: float | np.ndarray
    min_eigenvalue: float | np.ndarray

    @property
    def ok(self):
        """Whether each matrix passes every check, with the fields' shape."""
        return (
            (self.hermiticity_violation <= HERMITIAN_ATOL)
            & (np.abs(self.trace_deviation) <= TRACE_ATOL)
            & (self.min_eigenvalue >= EIGENVALUE_FLOOR)
        )

    def describe(self) -> str:
        """The three fields as text; for a stack, the worst value of each and the stack size."""
        trace = np.ravel(self.trace_deviation)
        text = (
            f"hermiticity violation {np.max(self.hermiticity_violation):.3e}, "
            f"trace deviation {trace[np.abs(trace).argmax()]:.3e}, "
            f"min eigenvalue {np.min(self.min_eigenvalue):.3e}"
        )
        return text if np.ndim(self.trace_deviation) == 0 else f"worst of {trace.size} matrices: {text}"


def validate_density(matrix) -> DensityDiagnostics:
    """Measure how far ``matrix`` is from a valid density operator.

    Accepts any finite square matrix, or a stack of them along leading
    axes, and reports per matrix the worst Hermiticity violation, the trace
    deviation from one, and the most negative eigenvalue (of the Hermitian
    part, so the check is meaningful even for slightly asymmetric input).
    A non-finite entry raises ``NumericValidationError`` before any arithmetic.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericValidationError("density matrix holds a non-finite entry")
    adjoint = m.conj().mT
    herm = np.abs(m - adjoint).max(axis=(-2, -1))
    trace_dev = (m.trace(axis1=-2, axis2=-1) - 1.0).real
    hermitian_part = 0.5 * (m + adjoint)
    min_eig = np.linalg.eigvalsh(hermitian_part)[..., 0]  # eigvalsh sorts ascending
    return DensityDiagnostics(herm, trace_dev, min_eig)


def check_densities(matrices) -> None:
    """Raise unless every matrix of a stack is a valid density operator.

    ``matrices`` is one square matrix or a stack of them along leading axes
    (see :func:`validate_density`); the ``NumericValidationError`` gives the
    diagnostics of the first failing matrix, in row-major order.
    """
    diag = validate_density(matrices)
    ok = diag.ok
    if not ok.all():
        first = np.flatnonzero(~ok)[0]
        worst = DensityDiagnostics(*(float(np.ravel(v)[first]) for v in vars(diag).values()))
        where = f" (matrix {first} of the stack)" if ok.ndim else ""
        raise NumericValidationError(f"invalid density operator{where}: {worst.describe()}")


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


def projectors(amplitudes) -> np.ndarray:
    """Rank-one projectors |a><a| of amplitude vectors (the last axis).

    A stack of n vectors gives an (n, d, d) stack. Not validated: the
    projectors of unit-norm rows, their convex mixes and their partial traces
    are Hermitian and of unit trace up to rounding, with no eigenvalue below
    about -eps, so checked norms certify them. :class:`DensityOperator`
    applies the full check.
    """
    a = np.asarray(amplitudes)
    return a[..., :, None] * a.conj()[..., None, :]


def _certified_density(matrix) -> DensityOperator:
    """Make a fresh matrix that checked norms certify (see :func:`projectors`) read-only and wrap it, unchecked."""
    matrix.setflags(write=False)
    rho = object.__new__(DensityOperator)
    object.__setattr__(rho, "matrix", matrix)
    return rho


def to_density(psi: PureState) -> DensityOperator:
    """Rank-one projector |psi><psi| of a pure state.

    Certified by the checked norm of ``psi`` (see :func:`projectors`), so
    no eigensolve checks it.
    """
    return _certified_density(projectors(psi.amplitudes))


def reduced(rho: DensityOperator, keep) -> DensityOperator:
    """Partial trace of a density operator down to the qubits in ``keep``.

    The result gets the full check: roundoff below the eigenvalue floor can
    grow by up to 2**k when k qubits are traced out.
    """
    return DensityOperator(partial_trace(rho.matrix, keep))

"""Dense complex linear algebra for few-qubit operators.

All routines work on plain numpy arrays holding computational-basis data.
Qubit 0 is the leftmost tensor factor, so basis index ``i`` spells the bit
string of ``i`` most-significant bit first. Intended for dimensions up to
2**12; everything is dense and eager.
"""

from __future__ import annotations

import numpy as np

# Largest asymmetry tolerated before a matrix stops counting as Hermitian.
HERMITIAN_ATOL = 1e-10
# Eigenvalues of nominally PSD matrices may round slightly negative; values
# above this floor are clamped to zero, values below it are rejected.
EIGENVALUE_FLOOR = -1e-10


class NumericValidationError(ValueError):
    """A matrix or state violates a numeric invariant beyond tolerance."""


def hermiticity_violation(matrix) -> float:
    """Max entrywise deviation between ``matrix`` and its conjugate transpose."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m - m.conj().T)))


def partial_trace(rho, qubit_count: int, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Parameters
    ----------
    rho : array_like
        Square matrix of dimension ``2**qubit_count``.
    qubit_count : int
        Number of qubits the matrix acts on.
    keep : sequence of int
        Strictly increasing, nonempty qubit indices to retain.

    Returns
    -------
    numpy.ndarray
        Reduced matrix on the kept qubits; the trace is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 2 ** qubit_count
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for {qubit_count} qubits, got {rho.shape}")
    keep = tuple(int(q) for q in keep)
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if any(q < 0 or q >= qubit_count for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {qubit_count} qubits")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError(f"keep indices must be strictly increasing, got {keep}")

    work = rho.reshape((2,) * (2 * qubit_count))
    remaining = qubit_count
    # Tracing from the highest qubit down keeps lower row axes in place.
    for q in sorted(set(range(qubit_count)) - set(keep), reverse=True):
        work = np.trace(work, axis1=q, axis2=q + remaining)
        remaining -= 1
    out_dim = 2 ** len(keep)
    return work.reshape(out_dim, out_dim)


def eig_hermitian(matrix, atol: float = HERMITIAN_ATOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns ``(values, vectors)`` with real eigenvalues and the matching
    eigenvectors as columns, so ``matrix == vectors @ diag(values) @ vectors.conj().T``
    up to roundoff. Rejects input whose asymmetry exceeds ``atol``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = hermiticity_violation(m)
    if asym > atol:
        raise NumericValidationError(f"matrix is not Hermitian: max asymmetry {asym:.3e} > {atol:.0e}")
    values, vectors = np.linalg.eigh(m)
    return values[::-1].copy(), vectors[:, ::-1].copy()


def matrix_sqrt_psd(matrix) -> np.ndarray:
    """Hermitian square root of a Hermitian positive-semidefinite matrix.

    Eigenvalues in ``(EIGENVALUE_FLOOR, 0)`` are treated as rounding noise and
    clamped to zero; anything below the floor raises ``NumericValidationError``.
    """
    values, vectors = eig_hermitian(matrix)
    smallest = float(values.min())
    if smallest < EIGENVALUE_FLOOR:
        raise NumericValidationError(f"matrix is not PSD: eigenvalue {smallest:.3e} below {EIGENVALUE_FLOOR:.0e}")
    values = np.clip(values, 0.0, None)
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    # symmetrize away roundoff so the result is Hermitian to machine precision
    return 0.5 * (root + root.conj().T)

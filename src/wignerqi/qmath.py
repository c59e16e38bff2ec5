"""Dense complex linear algebra for few-qubit operators.

All routines work on plain numpy arrays holding computational-basis data.
Qubit 0 is the leftmost tensor factor, so basis index ``i`` spells the bit
string of ``i`` most-significant bit first. Intended for dimensions up to
2**12; everything is dense and eager. Every routine also accepts a stack
of matrices along leading axes and treats each matrix on its own; a single
matrix is the stack with no leading axis. The routines check at most shapes
and indices: :mod:`wignerqi.states` holds every density tolerance and
acceptance check.
"""

from __future__ import annotations

import numpy as np


class NumericValidationError(ValueError):
    """A matrix or state violates a numeric invariant beyond tolerance."""


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Parameters
    ----------
    rho : array_like
        Square matrix of dimension ``2**n`` with ``n >= 1`` qubits, or a
        stack of them along leading axes; ``n`` is read off the last axis.
    keep : sequence of int
        Strictly increasing, nonempty qubit indices to retain.

    Returns
    -------
    numpy.ndarray
        Reduced matrix on the kept qubits, with the same leading axes; the
        trace is preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[-1] if rho.ndim >= 2 else 0
    if dim < 2 or rho.shape[-2] != dim or dim & (dim - 1):
        raise ValueError(f"expected square 2**n x 2**n matrices with n >= 1, got shape {rho.shape}")
    qubit_count = dim.bit_length() - 1
    given = keep
    try:
        keep = tuple(keep)
    except TypeError:
        keep = ()
    if not keep or not all(isinstance(q, (int, np.integer)) and type(q) is not bool for q in keep):
        raise ValueError(f"keep must be a nonempty sequence of int qubit indices, got {given!r}")
    if keep[0] < 0 or keep[-1] >= qubit_count or any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError(f"keep must be strictly increasing qubit indices below {qubit_count}, got {keep}")

    lead = rho.shape[:-2]
    # From the highest qubit down, add two strided views per traced qubit in np.trace's
    # order; np.trace adds onto 0.0, and the last + 0.0 gives its +0.0 for a -0.0 total.
    for q in [q for q in range(qubit_count - 1, -1, -1) if q not in keep]:
        below = dim // 2 ** (q + 1)
        w = rho.reshape(lead + (2**q, 2, below, 2**q, 2, below))
        rho = w[..., 0, :, :, 0, :] + w[..., 1, :, :, 1, :]
        dim //= 2
    return rho if len(keep) == qubit_count else (rho + 0.0).reshape(lead + (dim, dim))


def matrix_sqrt_psd(matrix) -> np.ndarray:
    """Hermitian square root of a Hermitian positive-semidefinite matrix.

    Takes a validated or certified density stack (see :mod:`wignerqi.states`)
    and checks nothing itself: ``np.linalg.eigh`` refuses a non-square shape
    with ``LinAlgError``, a ``ValueError``. Eigenvalues that round below zero
    are clamped to zero. Leading axes hold a stack of matrices, each given its
    own root.
    """
    values, vectors = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    # eigh sorts ascending; the root sums its terms in descending order, and
    # ascending order would change the roundoff of the traced concurrences
    values = np.clip(values[..., ::-1], 0.0, None)
    vectors = vectors[..., ::-1]
    root = (vectors * np.sqrt(values)[..., None, :]) @ vectors.conj().mT
    # symmetrize away roundoff so the result is Hermitian to machine precision
    return 0.5 * (root + root.conj().mT)

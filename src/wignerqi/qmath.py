"""Dense complex linear algebra for few-qubit operators.

All routines work on plain numpy arrays holding computational-basis data.
Qubit 0 is the leftmost tensor factor, so basis index ``i`` spells the bit
string of ``i`` most-significant bit first. Intended for dimensions up to
2**12; everything is dense and eager. Every routine also accepts a stack
of matrices (or of amplitude rows) along leading axes and treats each on
its own; a single matrix is the stack with no leading axis. The routines
check at most shapes and indices: :mod:`wignerqi.states` holds every
density tolerance and acceptance check.
"""

from __future__ import annotations

import functools

import numpy as np


class NumericValidationError(ValueError):
    """A matrix or state violates a numeric invariant beyond tolerance."""


def _kept_first(dim: int, keep, shape, blocks: bool) -> np.ndarray:
    """Checked, cached basis indices with the kept qubits first: row r lists those whose kept qubits spell r.

    With ``blocks`` they index the flattened matrices at the diagonal blocks
    ``m[..., table[:, None, :], table[None, :, :]]`` instead.
    """
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"expected rows of 2**n entries or square 2**n x 2**n matrices with n >= 1, got shape {shape}")
    try:
        qubits = tuple(keep)
        # each element's type is part of the key: (True,), (1.0,) and (1,) are equal and hash alike
        return _index_table(dim.bit_length() - 1, blocks, qubits, *map(type, qubits))
    except TypeError:  # keep is not iterable, or holds an element that is no int index
        raise ValueError(f"keep must be a nonempty sequence of int qubit indices, got {keep!r}") from None


@functools.lru_cache(maxsize=64)
def _index_table(qubit_count: int, blocks: bool, keep: tuple, *types) -> np.ndarray:
    """The checked table of :func:`_kept_first`; ``types`` are those of ``keep``'s elements.

    A refused ``keep`` raises, so the cache never holds it: ``TypeError`` for
    an empty one or one with an element that is not a non-bool int.
    """
    if not keep or not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        raise TypeError
    keep = tuple(map(int, keep))
    if keep[0] < 0 or keep[-1] >= qubit_count or any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError(f"keep must be strictly increasing qubit indices below {qubit_count}, got {keep}")
    traced = [q for q in range(qubit_count) if q not in keep]
    table = np.arange(2**qubit_count).reshape((2,) * qubit_count).transpose(*keep, *traced).reshape(2 ** len(keep), -1)
    if blocks:
        table = table[:, None, :] * 2**qubit_count + table[None, :, :]
    table.setflags(write=False)
    return table


def _trace_last(m) -> np.ndarray:
    """Sum the last axis in pairs, highest traced qubit first, bit for bit as ``np.trace`` adds over each qubit."""
    traced = m.shape[-1] > 1
    while m.shape[-1] > 1:
        m = m[..., 0::2] + m[..., 1::2]
    # np.trace adds onto 0.0: + 0.0 turns a traced -0.0 total into +0.0; an untraced matrix keeps its zeros' signs
    return m[..., 0] + 0.0 if traced else m[..., 0]


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``, bit for bit as ``np.trace`` sums.

    ``rho`` is a square matrix of dimension ``2**n`` (``n >= 1``, read off the
    last axis) or a stack of them along leading axes; ``keep`` holds strictly
    increasing, nonempty qubit indices. Returns the reduced matrices on the
    kept qubits, with the same leading axes; keeping every qubit gives a copy.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[-1] if rho.ndim >= 2 and rho.shape[-2] == rho.shape[-1] else 0
    blocks = _kept_first(dim, keep, rho.shape, True)
    # take, unlike indexing with leading axes, gathers C-contiguous
    return _trace_last(rho.reshape(rho.shape[:-2] + (dim * dim,)).take(blocks, axis=-1))


def pure_reductions(amplitudes, keep) -> np.ndarray:
    """Bit for bit :func:`partial_trace` of the projectors |a><a| of amplitude rows (the last axis).

    ``keep`` is checked as there. Each row is gathered with the kept qubits
    first and the products of its pieces are summed, so no (..., d, d) stack
    is formed unless ``keep`` names every qubit: that gives the projectors.
    Not validated: projectors of unit-norm rows, their convex mixes and their
    partial traces are Hermitian and of unit trace up to rounding, with no
    eigenvalue below about -eps, so checked norms certify them.
    :class:`~wignerqi.states.DensityOperator` applies the full check.
    """
    a = np.asarray(amplitudes)
    y = a.take(_kept_first(a.shape[-1] if a.ndim else 0, keep, a.shape, False), axis=-1)
    return _trace_last(y[..., :, None, :] * y.conj()[..., None, :, :])


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
    values = np.maximum(values[..., ::-1], 0.0)
    vectors = vectors[..., ::-1]
    root = (vectors * np.sqrt(values)[..., None, :]) @ vectors.conj().mT
    del vectors
    # symmetrize away roundoff, in place as 0.5 * (root + root.conj().mT), for a Hermitian result
    root += root.conj().mT
    root *= 0.5
    return root

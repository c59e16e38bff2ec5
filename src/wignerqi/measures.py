"""Fidelity, channel capacity, and entanglement measures.

Conventions: all entropies and capacities are in bits (base-2 logarithms);
a two-qubit channel then has capacity 1 + S(rho_i) - S(rho_ij), bounded by 2
for a maximally entangled pair. The three-tangle is assembled as
C_1(23)**2 - C_12**2 - C_13**2 from the one-tangle 2*sqrt(det rho_1) and the
Wootters concurrences of the two-qubit reductions; it is defined for pure
three-qubit states only.

Each measure has one implementation, a ``*_batch`` kernel over a stack of
matrices (or amplitude vectors) along leading axes; the public function of
the same name calls it on its single matrix, a stack with no leading axis.
The average capacity has one formula and two kernels: :func:`average_capacity_batch`
over density stacks and :func:`pure_capacity_batch` over pure amplitude rows (by
Schmidt symmetry). Kernels over amplitude rows take their reductions from
:func:`~wignerqi.qmath.pure_reductions`, not from a projector stack. Qubit
spectra are taken in closed form, with no eigensolve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .qmath import NumericValidationError, matrix_sqrt_psd, partial_trace, pure_reductions
from .states import DensityOperator, PureState

# sigma_y x sigma_y is anti-diagonal: rho_tilde is rho* reversed on both axes, signed by this table
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
_MINUS_PLUS = np.array([-1.0, 1.0])
# Relative zero floor of the concurrence spectrum (see concurrence_batch).
_SPECTRUM_FLOOR = 128.0 * np.finfo(float).eps


class CapacityClampWarning(UserWarning):
    """A pair capacity fell outside [0, 2] and was clamped."""


@dataclass(frozen=True)
class CapacityBreakdown:
    """Per-pair channel capacities of a three-qubit state and their mean."""

    pair_ab: float
    pair_ac: float
    pair_bc: float
    average: float


@dataclass(frozen=True)
class TangleBreakdown:
    """Squared tangle components of a pure three-qubit state.

    ``three_tangle`` equals ``one_tangle_sq - c12_sq - c13_sq`` exactly; by
    monogamy it is nonnegative up to roundoff.
    """

    one_tangle_sq: float
    c12_sq: float
    c13_sq: float
    three_tangle: float


def fidelity_pure_batch(amplitudes, target) -> np.ndarray:
    """Overlap fidelities |<a_i|target>|**2 of each row of ``amplitudes``, shape (n,)."""
    return np.abs(np.vecdot(amplitudes, target)) ** 2


def fidelity_pure(a: PureState, b: PureState) -> float:
    """Overlap fidelity |<a|b>|**2 of two pure states (one row of :func:`fidelity_pure_batch`)."""
    if a.qubit_count != b.qubit_count:
        raise ValueError(f"qubit counts differ: {a.qubit_count} vs {b.qubit_count}")
    return float(fidelity_pure_batch(a.amplitudes[None], b.amplitudes)[0])


def fidelity_vs_target_batch(matrices, target) -> np.ndarray:
    """Fidelities <target|rho_i|target> of a (..., d, d) stack, clamped to [0, 1]."""
    return np.minimum(np.maximum(np.vecdot(target, matrices @ target).real, 0.0), 1.0)


def fidelity_vs_target(rho: DensityOperator, target: PureState) -> float:
    """Fidelity <target|rho|target> of a (possibly mixed) state to a pure target."""
    if rho.qubit_count != target.qubit_count:
        raise ValueError(f"qubit counts differ: {rho.qubit_count} vs {target.qubit_count}")
    return float(fidelity_vs_target_batch(rho.matrix, target.amplitudes))


def _qubit_spectra(a, b, c_abs) -> np.ndarray:
    """Ascending spectra (a + b)/2 -+ hypot((a - b)/2, |c|) of Hermitian [[a, c*], [c, b]], on a new last axis."""
    mean, radius = 0.5 * (a + b), np.hypot(0.5 * (a - b), c_abs)
    # mean + radius * -1 is mean - radius exactly; broadcasting beats np.stack on one matrix
    return mean[..., None] + radius[..., None] * _MINUS_PLUS


def batch_with_reuse(kernel, stacks) -> np.ndarray:
    """Values (k, n) of ``kernel`` on each matrix of a (k, n, d, d) stack, in one call.

    Row (i, p) equal bit for bit (+0.0 and -0.0 differ, a NaN equals itself)
    to row p of an earlier stack j < i copies the first such j's value;
    ``kernel`` gets the other rows in (stack, point) order, the whole stack
    reshaped with no copy if none matched. Exact for kernels that treat each
    matrix alone (``eigh``, ``eigvalsh``, ufuncs, sums over the last axis).
    """
    stacks = np.ascontiguousarray(stacks)
    k, n = stacks.shape[:2]
    bits = stacks.view(np.uint64)
    same = (bits[:, None] == bits).all(axis=(-2, -1))  # (k, k, n): stacks i and j equal at row p
    if np.count_nonzero(same) == k * n:  # each row equals only itself
        return kernel(stacks.reshape(k * n, *stacks.shape[2:])).reshape(k, n)
    source = same.argmax(axis=1)  # the first stack j <= i equal at row p
    new = source == np.arange(k)[:, None]
    computed = kernel(stacks[new])
    values = np.empty((k, n), computed.dtype)
    values[new] = computed
    return values[source, np.arange(n)]


def von_neumann_entropy_batch(matrices) -> np.ndarray:
    """Entropies -sum(p * log2(p)) of each spectrum of a (..., d, d) stack, with 0*log0 = 0.

    Qubit spectra (d = 2) are taken in closed form, larger ones by ``eigvalsh``;
    both read the lower triangle.
    """
    m = np.asarray(matrices)
    if m.shape[-2:] == (2, 2):
        spectra = _qubit_spectra(m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 1, 0]))
    else:
        spectra = np.linalg.eigvalsh(m)
    logs = np.log2(spectra, out=np.zeros_like(spectra), where=spectra > 0.0)
    # 0.0 - x is -x except at x = 0.0, a pure state's sum, where -x would be -0.0
    return 0.0 - (spectra * logs).sum(axis=-1)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -sum(p * log2(p)) of the spectrum, with 0*log0 = 0."""
    return float(von_neumann_entropy_batch(rho.matrix))


def clamp_capacity_batch(raw) -> np.ndarray:
    """Raw pair capacities clamped to [0, 2], one ``CapacityClampWarning`` per clamped value.

    A non-finite capacity is a fault, not roundoff: ``NumericValidationError``
    names the first one.
    """
    # Subadditivity keeps the exact value in [0, 2]; only roundoff can leave it.
    raw = np.asarray(raw, dtype=float)
    inside = (raw >= 0.0) & (raw <= 2.0)
    if inside.all():
        return raw
    outside = raw[~inside]
    finite = np.isfinite(outside)
    if not finite.all():
        raise NumericValidationError(f"pair capacity {float(outside[~finite][0])!r} is not finite")
    for value in outside.tolist():
        warnings.warn(f"pair capacity {value!r} outside [0, 2], clamped", CapacityClampWarning)
    return np.where(inside, raw, np.clip(raw, 0.0, 2.0))


def _capacities(sender, pair) -> np.ndarray:
    """Clamped capacities 1 + S(rho_i) - S(rho_ij) from sender and pair entropies."""
    return clamp_capacity_batch(1.0 + sender - pair)


def pair_capacity_batch(pairs) -> np.ndarray:
    """Capacities 1 + S(rho_i) - S(rho_ij) of a (..., 4, 4) stack of validated pair states."""
    return _capacities(von_neumann_entropy_batch(partial_trace(pairs, (0,))), von_neumann_entropy_batch(pairs))


def pair_capacity(rho_pair: DensityOperator) -> float:
    """Dense-coding capacity 1 + S(rho_i) - S(rho_ij) of a two-qubit state.

    The sender marginal rho_i is the pair's first qubit. The result is
    clamped to [0, 2]; clamping is reported via :class:`CapacityClampWarning`.
    """
    if rho_pair.qubit_count != 2:
        raise ValueError(f"pair_capacity expects 2 qubits, got {rho_pair.qubit_count}")
    return float(pair_capacity_batch(rho_pair.matrix))


def _with_mean(ab, ac, bc):
    """The three pair capacities followed by their mean."""
    return ab, ac, bc, (ab + ac + bc) / 3.0


def average_capacity_batch(matrices):
    """Pair capacities ab, ac, bc and their mean for a (..., 8, 8) stack of validated states.

    Returns four arrays with the stack's leading shape. A pair state equal bit
    for bit to an earlier pair's at its point shares that joint entropy
    (:func:`batch_with_reuse`); one state's three go to the kernel in one call.
    """
    pairs = np.stack([partial_trace(matrices, pair) for pair in ((0, 1), (0, 2), (1, 2))])
    senders = von_neumann_entropy_batch(partial_trace(pairs, (0,)))
    joint = batch_with_reuse(von_neumann_entropy_batch, pairs.reshape(3, -1, 4, 4))
    return _with_mean(*_capacities(senders, joint.reshape(senders.shape)))


def pure_capacity_batch(amplitudes):
    """Pair capacities ab, ac, bc and their mean for an (..., 8) stack of unit-norm amplitude rows.

    Returns what :func:`average_capacity_batch` returns for the rows'
    projectors, up to roundoff, with no eigensolve: for a pure three-qubit
    state S(rho_ij) = S(rho_k) (Schmidt symmetry), so pair (i, j) has capacity
    1 + S(rho_i) - S(rho_k). The one-qubit marginals rho_q come from
    :func:`~wignerqi.qmath.pure_reductions`, so no BLAS call sets their roundoff.
    """
    entropies = von_neumann_entropy_batch(np.stack([pure_reductions(amplitudes, (q,)) for q in range(3)]))
    # pairs ab, ac, bc: senders 0, 0, 1; S(rho_ab) = S(rho_2), S(rho_ac) = S(rho_1), S(rho_bc) = S(rho_0)
    return _with_mean(*_capacities(entropies[[0, 0, 1]], entropies[[2, 1, 0]]))


def average_capacity(state: PureState | DensityOperator) -> CapacityBreakdown:
    """Mean of the three pair capacities of a three-qubit state.

    A :class:`PureState` is one row of :func:`pure_capacity_batch`; a
    :class:`DensityOperator` takes :func:`average_capacity_batch`.
    """
    if state.qubit_count != 3:
        raise ValueError(f"average_capacity expects 3 qubits, got {state.qubit_count}")
    if isinstance(state, PureState):
        capacities = pure_capacity_batch(state.amplitudes)
    else:
        capacities = average_capacity_batch(state.matrix)
    return CapacityBreakdown(*map(float, capacities))


def concurrence_batch(pairs) -> np.ndarray:
    """Wootters concurrences of a (..., 4, 4) stack of validated two-qubit states.

    Uses the Hermitian route: the lambda_k are the square roots of the
    eigenvalues of sqrt(rho) @ rho_tilde @ sqrt(rho), which coincide with
    those of rho @ rho_tilde, where rho_tilde is the spin-flipped state
    (sigma_y x sigma_y) rho* (sigma_y x sigma_y).
    """
    root = matrix_sqrt_psd(pairs)
    rho_tilde = pairs[..., ::-1, ::-1].conj()
    rho_tilde *= _FLIP_SIGNS
    inner = root @ rho_tilde @ root
    del root, rho_tilde
    # in place, to hold fewer stack-sized arrays: the sum and halving of 0.5 * (inner + inner.conj().mT)
    inner += inner.conj().mT
    inner *= 0.5
    mu = np.linalg.eigvalsh(inner)
    # Exact rank deficiency shows up as eigenvalues of size ~eps*mu_max; the
    # relative floor keeps sqrt from amplifying that roundoff to ~1e-8.
    # (eigvalsh sorts ascending, so the last column is mu_max.)
    floor = np.maximum(mu[..., -1:], 0.0) * _SPECTRUM_FLOOR
    lam = np.sqrt(np.where(mu > floor, mu, 0.0))
    return np.maximum(0.0, 2.0 * lam.max(axis=-1) - lam.sum(axis=-1))


def concurrence(rho: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit state (see :func:`concurrence_batch`)."""
    if rho.qubit_count != 2:
        raise ValueError(f"concurrence expects 2 qubits, got {rho.qubit_count}")
    return float(concurrence_batch(rho.matrix))


def three_tangle_batch(amplitudes):
    """Squared tangle components of an (..., 8) stack of unit-norm amplitude rows.

    Returns the arrays ``(one_tangle_sq, c12_sq, c13_sq, three_tangle)``,
    each with the stack's leading shape; see :class:`TangleBreakdown`.
    """
    m = pure_reductions(amplitudes, (0,))
    a, b, c, d = m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], m[..., 1, 0]
    # Re(a*b - c*d) in real arithmetic: numpy's complex array product may fuse
    # multiply-adds, the real ufuncs round each product once
    det = (a.real * b.real - a.imag * b.imag) - (c.real * d.real - c.imag * d.imag)
    det = np.clip(det, 0.0, 0.25)  # p(1-p) for a qubit marginal; clamp roundoff
    one_tangle = 2.0 * np.sqrt(det)
    c_first, c_second = concurrence_batch(np.stack([pure_reductions(amplitudes, pair) for pair in ((0, 1), (0, 2))]))
    one_sq = one_tangle * one_tangle
    c12_sq = c_first * c_first
    c13_sq = c_second * c_second
    return one_sq, c12_sq, c13_sq, one_sq - c12_sq - c13_sq


def three_tangle(psi: PureState) -> TangleBreakdown:
    """Residual tripartite entanglement of a pure three-qubit state.

    Assembled as the squared one-tangle of qubit 0 minus the squared
    concurrences of the pairs (0, 1) and (0, 2). Any other focus qubit gives
    the same value (Coffman, Kundu & Wootters, PRA 61, 052306, 2000). Mixed
    states are out of scope (the convex-roof extension is not implemented).
    The one-row case of :func:`three_tangle_batch`.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"three_tangle expects 3 qubits, got {psi.qubit_count}")
    return TangleBreakdown(*map(float, three_tangle_batch(psi.amplitudes)))

"""Fidelity, channel capacity, and entanglement measures.

Conventions: all entropies and capacities are in bits (base-2 logarithms);
a two-qubit channel then has capacity 1 + S(rho_i) - S(rho_ij), bounded by 2
for a maximally entangled pair. The three-tangle is assembled as
C_1(23)**2 - C_12**2 - C_13**2 from the one-tangle 2*sqrt(det rho_1) and the
Wootters concurrences of the two-qubit reductions; it is defined for pure
three-qubit states only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qmath import det2, kron, matrix_sqrt_psd, partial_trace
from .states import DensityOperator, PureState, reduced, to_density

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = kron(_SIGMA_Y, _SIGMA_Y)


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


def fidelity_vs_target(rho: DensityOperator, target: PureState) -> float:
    """Fidelity <target|rho|target> of a (possibly mixed) state to a pure target."""
    if rho.qubit_count != target.qubit_count:
        raise ValueError(f"qubit counts differ: {rho.qubit_count} vs {target.qubit_count}")
    t = target.amplitudes
    value = np.vdot(t, rho.matrix @ t).real
    return float(min(max(value, 0.0), 1.0))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -sum(p * log2(p)) of the spectrum, with 0*log0 = 0."""
    eigenvalues = np.linalg.eigvalsh(rho.matrix)
    p = eigenvalues[eigenvalues > 0.0]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))


def _clamp_capacity(raw: float) -> tuple[float, bool]:
    # Subadditivity keeps the exact value in [0, 2]; only roundoff can leave it.
    if 0.0 <= raw <= 2.0:
        return raw, False
    return min(max(raw, 0.0), 2.0), True


def pair_capacity(rho_pair: DensityOperator, trace_out: int = 1) -> float:
    """Dense-coding capacity 1 + S(rho_i) - S(rho_ij) of a two-qubit state.

    ``trace_out`` selects which qubit of the pair is discarded to form the
    sender marginal rho_i (default: the second). The result is clamped to
    [0, 2]; clamping is reported via :class:`CapacityClampWarning`.
    """
    if rho_pair.qubit_count != 2:
        raise ValueError(f"pair_capacity expects 2 qubits, got {rho_pair.qubit_count}")
    if trace_out not in (0, 1):
        raise ValueError(f"trace_out must be 0 or 1, got {trace_out}")
    marginal = reduced(rho_pair, (1 - trace_out,))
    raw = 1.0 + von_neumann_entropy(marginal) - von_neumann_entropy(rho_pair)
    value, clamped = _clamp_capacity(raw)
    if clamped:
        warnings.warn(f"pair capacity {raw!r} outside [0, 2], clamped", CapacityClampWarning)
    return value


def average_capacity(rho_abc: DensityOperator) -> CapacityBreakdown:
    """Mean of the three pair capacities of a three-qubit state."""
    if rho_abc.qubit_count != 3:
        raise ValueError(f"average_capacity expects 3 qubits, got {rho_abc.qubit_count}")
    ab = pair_capacity(reduced(rho_abc, (0, 1)))
    ac = pair_capacity(reduced(rho_abc, (0, 2)))
    bc = pair_capacity(reduced(rho_abc, (1, 2)))
    return CapacityBreakdown(ab, ac, bc, (ab + ac + bc) / 3.0)


def concurrence(rho: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit state.

    Uses the Hermitian route: the lambda_k are the square roots of the
    eigenvalues of sqrt(rho) @ rho_tilde @ sqrt(rho), which coincide with
    those of rho @ rho_tilde, where rho_tilde is the spin-flipped state
    (sigma_y x sigma_y) rho* (sigma_y x sigma_y).
    """
    if rho.qubit_count != 2:
        raise ValueError(f"concurrence expects 2 qubits, got {rho.qubit_count}")
    m = rho.matrix
    rho_tilde = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    root = matrix_sqrt_psd(m)
    inner = root @ rho_tilde @ root
    mu = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    # Exact rank deficiency shows up as eigenvalues of size ~eps*mu_max; the
    # relative floor keeps sqrt from amplifying that roundoff to ~1e-8.
    floor = max(float(mu.max()), 0.0) * 128.0 * np.finfo(float).eps
    lam = np.sqrt(np.where(mu > floor, mu, 0.0))
    return float(max(0.0, 2.0 * lam.max() - lam.sum()))


def one_tangle(psi: PureState, pivot: int = 0) -> float:
    """Entanglement 2*sqrt(det rho_pivot) between one qubit and the rest."""
    if psi.qubit_count != 3:
        raise ValueError(f"one_tangle expects 3 qubits, got {psi.qubit_count}")
    if pivot not in (0, 1, 2):
        raise ValueError(f"pivot must be 0, 1 or 2, got {pivot}")
    rho = to_density(psi)
    marginal = partial_trace(rho.matrix, 3, (pivot,))
    det = det2(marginal).real
    det = min(max(det, 0.0), 0.25)  # p(1-p) for a qubit marginal; clamp roundoff
    return 2.0 * math.sqrt(det)


def three_tangle(psi: PureState, pivot: int = 0) -> TangleBreakdown:
    """Residual tripartite entanglement of a pure three-qubit state.

    Assembled as one_tangle**2 minus the squared concurrences of the two
    pair reductions containing ``pivot``. Mixed states are out of scope (the
    convex-roof extension is not implemented).
    """
    if psi.qubit_count != 3:
        raise ValueError(f"three_tangle expects 3 qubits, got {psi.qubit_count}")
    others = [q for q in (0, 1, 2) if q != pivot]
    rho = to_density(psi)
    ot = one_tangle(psi, pivot)
    c_first = concurrence(reduced(rho, tuple(sorted((pivot, others[0])))))
    c_second = concurrence(reduced(rho, tuple(sorted((pivot, others[1])))))
    one_sq = ot * ot
    c12_sq = c_first * c_first
    c13_sq = c_second * c_second
    return TangleBreakdown(one_sq, c12_sq, c13_sq, one_sq - c12_sq - c13_sq)

"""Wigner-rotation action of a Lorentz boost on three spin qubits.

A boost observed from a moving frame rotates the spin of each massive
particle through a momentum-dependent Wigner angle. With all momenta along
the z axis the per-particle action is a real rotation by half the Wigner
angle, and a product of three such rotations carries any three-qubit state
into its boosted form. This module provides that transform and the mixed
channel obtained when the boost acts on a two-branch momentum superposition
whose spin part is then read out alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmath import pure_reductions
from .states import DensityOperator, PureState, _certified_density, check_unit_norms

class WignerAngles(NamedTuple):
    """Per-qubit Wigner rotation angles, in radians."""

    omega1: float
    omega2: float
    omega3: float


@dataclass(frozen=True)
class MomentumConfig:
    """Weights of the two momentum branches.

    ``alpha`` sets the branch weights cos(alpha)**2 and sin(alpha)**2. The
    reversed branch sees the negated Wigner angles.
    """

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")


def _as_angles(angles) -> WignerAngles:
    o1, o2, o3 = angles
    return WignerAngles(float(o1), float(o2), float(o3))


def wigner_unitaries(omegas) -> np.ndarray:
    """Single-qubit Wigner rotations [[c, -s], [s, c]] at half angles omega/2, float64 of shape (n, 2, 2)."""
    rows = []
    for omega in omegas:
        omega = float(omega)
        if not math.isfinite(omega):
            raise ValueError(f"angle must be finite, got {omega!r}")
        c, s = math.cos(0.5 * omega), math.sin(0.5 * omega)
        rows.append((c, -s, s, c))
    return np.array(rows).reshape(-1, 2, 2)


def factor_table(stacks, first: int) -> np.ndarray:
    """Rotations of a run of qubits spread over the 8x8 Kronecker layout, float64 of shape (m, 8, 8).

    ``stacks`` holds one float64 (m, 2, 2) stack per qubit, for the qubits
    ``first``, ``first + 1``, ... Entry (i, j) of row v is the product, left
    to right, of ``stack[v][i_q, j_q]`` over the run, where i_q is qubit q's
    bit of i (qubit 0 the most significant, as in ``np.kron``). So the one-qubit
    tables of d0, d1 and d2 multiply, left to right, to
    ``np.kron(np.kron(d0, d1), d2)`` bit for bit, and so does the table of
    the run (d0, d1) times that of d2, as it holds the same first product;
    a run (d1, d2) would not, since float products do not associate.
    """
    table, m = stacks[0], len(stacks[0])
    for stack in stacks[1:]:
        k = table.shape[1]
        table = (table.reshape(m, k, 1, k, 1) * stack.reshape(m, 1, 2, 1, 2)).reshape(m, 2 * k, 2 * k)
    k = table.shape[1]
    if k == 8:
        return table
    before, after = 2**first, 8 // (2**first * k)
    spread = table.reshape(m, 1, k, 1, 1, k, 1)
    return np.broadcast_to(spread, (m, before, k, after, before, k, after)).reshape(m, 8, 8)


def product_transform_batch(amplitudes, factors, points, *, reversed_branch=False) -> np.ndarray:
    """Amplitudes of each point's rotation product applied to one three-qubit state, shape (n, 8).

    ``factors`` are float64 (m, 8, 8) tables (see :func:`factor_table`;
    any other dtype raises ``TypeError``) and
    ``points`` an (n,) index array into each; a point's 8x8 product is the
    left fold of its rows, ``(factors[0][i0] * factors[1][i1]) * ...``. The
    indices are not checked: each must lie in its table. ``amplitudes`` are
    the 8 input amplitudes, and the result is unvalidated (callers check it,
    e.g. with :func:`~wignerqi.states.check_unit_norms`). With
    ``reversed_branch`` the result is (2n, 8): the rows of the products, then
    those of their transposes. All rows come from one BLAS matrix-vector call
    over the point-major (8n, 8) stack, bit for bit the per-point
    kron-and-matvec route.
    """
    for table in factors:
        if table.dtype != np.float64:
            raise TypeError(f"factor tables must be float64, got {table.dtype}")
    n = len(points[0])
    # One (2, 8kn, 8) complex block holds every large buffer of the call: the
    # real products are gathered and multiplied in its first half and widened
    # into the second. So a chunk makes one large allocation, of one size each
    # time; large allocations of changing sizes move glibc's dynamic mmap
    # threshold, after which freed pages can be faulted in again on every chunk.
    block = np.empty((2, 8 * (2 if reversed_branch else 1) * n, 8), dtype=complex)
    work = block[0].view(float).reshape(-1, 8, 8)
    gathered, product = work[:n], work[n : 2 * n]
    # mode "clip": "raise" would buffer (allocate) the out array. It moves no
    # index the package passes: the sweep's come from np.unravel_index over
    # its grid's shape, and point_factors' from np.arange.
    factors[0].take(points[0], 0, product, "clip")
    for table, index in zip(factors[1:], points[1:]):
        table.take(index, 0, gathered, "clip")
        product *= gathered
    block[1, : 8 * n].reshape(n, 8, 8)[...] = product
    if reversed_branch:
        block[1, 8 * n :].reshape(n, 8, 8)[...] = product.mT
    return (block[1] @ amplitudes).reshape(-1, 8)


def point_factors(d1, d2, d3):
    """:func:`product_transform_batch` arguments that rotate point i by D1[i], D2[i] and D3[i].

    ``d1``..``d3`` are float64 (n, 2, 2) stacks of per-qubit rotations.
    Their one table holds the points' products, ``np.kron(np.kron(D1[i],
    D2[i]), D3[i])`` bit for bit, and is read at the indices 0..n-1.
    """
    return [factor_table((d1, d2, d3), 0)], [np.arange(len(d1))]


def product_transform(psi: PureState, angles) -> PureState:
    """Apply D(omega1) x D(omega2) x D(omega3) to a three-qubit state.

    The one-point case of :func:`product_transform_batch`, with the result
    validated as a :class:`PureState`.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"product_transform acts on 3 qubits, got {psi.qubit_count}")
    rotations = wigner_unitaries(_as_angles(angles))[:, None]
    return PureState(product_transform_batch(psi.amplitudes, *point_factors(*rotations))[0])


def momentum_traced_channel_batch(amplitudes, factors, points, alpha: float) -> np.ndarray:
    """Stack of :func:`momentum_traced_channel` outputs, shape (n, 8, 8).

    The branches weigh cos(alpha)**2 and sin(alpha)**2 for a finite ``alpha``,
    as in :class:`MomentumConfig`. ``factors`` and ``points`` give the forward
    branch's products as in :func:`product_transform_batch`. The reversed
    branch is rotated by their transposes: D(-omega) = D(omega)^T holds bit
    for bit, since negation is exact and the math library's cos is even and
    its sin odd. Both branches take one transform call, as (2n, 8) rows
    (forward, then reversed); their checked unit norms certify the mix of
    their projectors (:func:`~wignerqi.qmath.pure_reductions` keeping every
    qubit), so no eigensolve validates it.
    """
    n = len(points[0])
    branches = product_transform_batch(amplitudes, factors, points, reversed_branch=True)
    check_unit_norms(branches)
    p = pure_reductions(branches, range(3))
    return math.cos(alpha) ** 2 * p[:n] + math.sin(alpha) ** 2 * p[n:]


def momentum_traced_channel(psi: PureState, angles, config: MomentumConfig) -> DensityOperator:
    """Spin state left after boosting a two-branch momentum superposition.

    The forward branch (weight cos(alpha)**2) is transformed at the given
    angles and the reversed branch (weight sin(alpha)**2) at their
    negatives. Reading out the spin part alone mixes the two branch
    projectors, so for alpha not a multiple of pi/2 the output is generally
    mixed; at alpha = 0 it is the projector of :func:`product_transform`.
    The one-point case of :func:`momentum_traced_channel_batch`, whose checked
    branch norms certify the result, so no eigensolve checks it.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"momentum_traced_channel acts on 3 qubits, got {psi.qubit_count}")
    factors, points = point_factors(*wigner_unitaries(_as_angles(angles))[:, None])
    return _certified_density(momentum_traced_channel_batch(psi.amplitudes, factors, points, config.alpha)[0])

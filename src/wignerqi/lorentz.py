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
    """Single-qubit Wigner rotations [[c, -s], [s, c]] at half angles omega/2, shape (n, 2, 2)."""
    omegas = [float(omega) for omega in omegas]
    for omega in omegas:
        if not math.isfinite(omega):
            raise ValueError(f"angle must be finite, got {omega!r}")
    u = np.zeros((len(omegas), 2, 2), dtype=complex)
    real = u.real
    real[:, 0, 0] = real[:, 1, 1] = [math.cos(0.5 * omega) for omega in omegas]
    real[:, 1, 0] = [math.sin(0.5 * omega) for omega in omegas]
    np.negative(real[:, 1, 0], out=real[:, 0, 1])
    return u


def product_transform_batch(amplitudes, d1, d2, d3) -> np.ndarray:
    """Amplitudes of (D1[i] x D2[i] x D3[i]) applied to one three-qubit state.

    ``d1``..``d3`` are (n, 2, 2) stacks of per-qubit rotations (see
    :func:`wigner_unitaries`) and ``amplitudes`` the 8 input amplitudes; the
    result has shape (n, 8), unvalidated (callers check it, e.g. with
    :func:`~wignerqi.states.check_unit_norms`). The 8x8 products are built over
    the contiguous point axis and applied in one BLAS matrix-vector call, bit
    for bit the per-point kron-and-matvec route.
    """
    n = len(d1)
    t1, t2, t3 = (np.ascontiguousarray(d.transpose(1, 2, 0)) for d in (d1, d2, d3))
    u12 = (t1[:, None, :, None] * t2[None, :, None, :]).reshape(4, 4, n)
    # one allocation for both: with two, glibc trimmed the heap and re-faulted it every call
    block = np.empty((2, 8 * n, 8), dtype=complex)
    u = np.multiply(u12[:, None, :, None], t3[None, :, None, :], out=block[0].reshape(4, 2, 4, 2, n))
    block[1].reshape(n, 8, 8)[...] = u.reshape(8, 8, n).transpose(2, 0, 1)
    return (block[1] @ amplitudes).reshape(n, 8)


def product_transform(psi: PureState, angles) -> PureState:
    """Apply D(omega1) x D(omega2) x D(omega3) to a three-qubit state.

    The one-point case of :func:`product_transform_batch`, with the result
    validated as a :class:`PureState`.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"product_transform acts on 3 qubits, got {psi.qubit_count}")
    rotations = wigner_unitaries(_as_angles(angles))[:, None]
    return PureState(product_transform_batch(psi.amplitudes, *rotations)[0])


def momentum_traced_channel_batch(amplitudes, rotations, alpha: float) -> np.ndarray:
    """Stack of :func:`momentum_traced_channel` outputs, shape (n, 8, 8).

    The branches weigh cos(alpha)**2 and sin(alpha)**2 for a finite ``alpha``,
    as in :class:`MomentumConfig`. ``rotations`` are the forward branch's three
    (n, 2, 2) per-qubit rotation stacks (see :func:`wigner_unitaries`). The
    reversed branch is rotated by their transposes: D(-omega) = D(omega)^T
    holds bit for bit, since negation is exact and the math library's cos is
    even and its sin odd. Both branches take one transform call, as (2n, 8)
    rows (forward, then reversed); their checked unit norms certify the mix of
    their projectors (:func:`~wignerqi.qmath.pure_reductions` keeping every
    qubit), so no eigensolve validates it.
    """
    n = len(rotations[0])
    branches = product_transform_batch(amplitudes, *(np.concatenate([d, d.mT]) for d in rotations))
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
    rotations = wigner_unitaries(_as_angles(angles))[:, None]
    return _certified_density(momentum_traced_channel_batch(psi.amplitudes, rotations, config.alpha)[0])

"""Wigner-rotation action of a Lorentz boost on three spin qubits.

A boost observed from a moving frame rotates the spin of each massive
particle through a momentum-dependent Wigner angle. With all momenta along
the z axis the per-particle action is a real rotation by half the Wigner
angle, and a product of three such rotations carries any three-qubit state
into its boosted form. This module provides that transform and the mixed
channel obtained when the boost acts on a two-branch momentum superposition
whose spin part is then read out alone.

A note on the closed-form W table: a transcription of these eight
amplitudes circulates in which the entries are actually the expansion of
the bit-flipped partner state (``w_prime``) in five of eight slots, and the
remaining three slots carry typos that break normalization (two entries are
textually identical). :func:`audit_w_coefficient_table` evaluates that
variant literally and reports exactly which entries disagree with the
direct tensor computation. The corresponding GHZ table is sound except for
one garbled entry, whose corrected form ``(s1*c2*c3 + c1*s2*s3)/sqrt(2)``
is what :func:`wignerqi.oracle.ghz_coefficients` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import DensityOperator, PureState, check_unit_norms, make_state, projectors

#: Branch conventions for the momentum-superposed channel: ``opposite`` flips
#: the sign of every Wigner angle on the reversed-momentum branch, ``same``
#: applies identical angles to both branches (and so stays pure).
OPPOSITE = "opposite"
SAME = "same"
BRANCH_CONVENTIONS = (OPPOSITE, SAME)


class WignerAngles(NamedTuple):
    """Per-qubit Wigner rotation angles, in radians."""

    omega1: float
    omega2: float
    omega3: float


@dataclass(frozen=True)
class MomentumConfig:
    """Weight and sign convention of the two momentum branches.

    ``alpha`` sets the branch weights cos(alpha)**2 and sin(alpha)**2;
    ``branch_sign_convention`` picks how the Wigner angles depend on the
    momentum direction of the second branch.
    """

    alpha: float
    branch_sign_convention: str = OPPOSITE

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if self.branch_sign_convention not in BRANCH_CONVENTIONS:
            raise ValueError(
                f"unknown branch convention {self.branch_sign_convention!r}; "
                f"expected one of {BRANCH_CONVENTIONS}"
            )


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


def wigner_unitary(omega: float) -> np.ndarray:
    """Single-qubit Wigner rotation at half angle omega/2; the one-angle case of :func:`wigner_unitaries`."""
    return wigner_unitaries([omega])[0]


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row by row np.kron of two (n, p, q) and (n, r, s) stacks.
    n, p, q = a.shape
    _, r, s = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, p * r, q * s)


def product_transform_batch(amplitudes, d1, d2, d3) -> np.ndarray:
    """Amplitudes of (D1[i] x D2[i] x D3[i]) applied to one three-qubit state.

    ``d1``..``d3`` are (n, 2, 2) stacks of per-qubit rotations (see
    :func:`wigner_unitaries`) and ``amplitudes`` the 8 input amplitudes; the
    result has shape (n, 8). Its rows are not validated: callers check them
    (e.g. with :func:`~wignerqi.states.check_unit_norms`).
    """
    u = _kron_stack(_kron_stack(d1, d2), d3)
    return np.matmul(u, amplitudes)


def product_transform(psi: PureState, angles) -> PureState:
    """Apply D(omega1) x D(omega2) x D(omega3) to a three-qubit state.

    The one-point case of :func:`product_transform_batch`, with the result
    validated as a :class:`PureState`.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"product_transform acts on 3 qubits, got {psi.qubit_count}")
    rotations = wigner_unitaries(_as_angles(angles))[:, None]
    return PureState(product_transform_batch(psi.amplitudes, *rotations)[0])


def w_variant_coefficients(angles) -> np.ndarray:
    """The erratic transcription of the boosted-w amplitude table, verbatim.

    Rows 1 and 2 repeat the same expression twice (the literal duplicated
    term is preserved here) and row 4 breaks normalization. Exists only so
    :func:`audit_w_coefficient_table` can diff it against the direct
    transform; do not use it for physics.
    """
    u = wigner_unitaries(_as_angles(angles))
    c1, c2, c3 = u[:, 0, 0].real.tolist()
    s1, s2, s3 = u[:, 1, 0].real.tolist()
    r = 1.0 / math.sqrt(3.0)
    return np.array(
        [
            (s1 * c2 * s3 + s1 * s2 * c3 + c1 * s2 * s3) * r,
            (s1 * s2 * s3 - s1 * c2 * c3 - s1 * c2 * c3) * r,
            (s1 * s2 * s3 - s1 * c2 * c3 - s1 * c2 * c3) * r,
            (c1 * c2 * c3 - s1 * s2 * c3 - s1 * c2 * s3) * r,
            (s1 * s2 * s3 - c1 * s2 * c3 - c1 * c2 * c3) * r,
            (c1 * c2 * c3 - s1 * s2 * c3 - c1 * s2 * s3) * r,
            (c1 * c2 * c3 - s1 * c2 * s3 - c1 * s2 * s3) * r,
            (s1 * c2 * c3 + c1 * s2 * c3 + c1 * c2 * s3) * r,
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class WTableReport:
    """Outcome of diffing the erratic w table against direct transforms."""

    angles: WignerAngles
    mismatched_indices: tuple[int, ...]
    matches_flipped_partner: tuple[int, ...]
    max_abs_deviation: float


# Largest deviation at which a table entry still matches a direct transform.
_W_TABLE_ATOL = 1e-12


def audit_w_coefficient_table(angles) -> WTableReport:
    """Compare the erratic w table entry by entry against direct transforms.

    ``mismatched_indices`` lists the amplitude slots where the variant table
    disagrees with ``product_transform`` of the w state at these angles (at
    generic angles: all eight). ``matches_flipped_partner`` lists the slots
    where it instead reproduces the transform of ``w_prime`` (at generic
    angles: slots 0, 3, 5, 6, 7; the other three carry typos).
    """
    angles = _as_angles(angles)
    variant = w_variant_coefficients(angles)
    direct_w = product_transform(make_state("w"), angles).amplitudes
    direct_wp = product_transform(make_state("w_prime"), angles).amplitudes
    dev = np.abs(variant - direct_w)
    mism = tuple(int(i) for i in range(8) if dev[i] > _W_TABLE_ATOL)
    flipped = tuple(int(i) for i in range(8) if abs(variant[i] - direct_wp[i]) <= _W_TABLE_ATOL)
    return WTableReport(angles, mism, flipped, float(dev.max()))


def momentum_traced_channel_batch(amplitudes, rotations, config: MomentumConfig) -> np.ndarray:
    """Stack of :func:`momentum_traced_channel` outputs, shape (n, 8, 8).

    ``rotations`` are the forward branch's three (n, 2, 2) per-qubit rotation
    stacks (see :func:`wigner_unitaries`). The ``opposite`` convention rotates
    the reversed branch by their transposes: D(-omega) = D(omega)^T holds bit
    for bit, since negation is exact and the math library's cos is even and its
    sin odd. Every row of both branches is checked to unit norm, which
    certifies the mix (see :func:`~wignerqi.states.projectors`); no eigensolve
    validates it.
    """
    forward = product_transform_batch(amplitudes, *rotations)
    check_unit_norms(forward)
    forward_projectors = projectors(forward)
    if config.branch_sign_convention == OPPOSITE:
        reversed_branch = product_transform_batch(amplitudes, *(d.mT for d in rotations))
        check_unit_norms(reversed_branch)
        reversed_projectors = projectors(reversed_branch)
    else:
        reversed_projectors = forward_projectors
    w_forward = math.cos(config.alpha) ** 2
    w_reversed = math.sin(config.alpha) ** 2
    return w_forward * forward_projectors + w_reversed * reversed_projectors


def momentum_traced_channel(psi: PureState, angles, config: MomentumConfig) -> DensityOperator:
    """Spin state left after boosting a two-branch momentum superposition.

    The forward branch (weight cos(alpha)**2) is transformed at the given
    angles; the reversed branch (weight sin(alpha)**2) at the same angles or
    their negatives depending on ``config.branch_sign_convention``. Reading
    out the spin part alone mixes the two branch projectors, so for the
    ``opposite`` convention and alpha not a multiple of pi/2 the output is
    generally mixed. The one-point case of :func:`momentum_traced_channel_batch`.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"momentum_traced_channel acts on 3 qubits, got {psi.qubit_count}")
    rotations = wigner_unitaries(_as_angles(angles))[:, None]
    return DensityOperator(momentum_traced_channel_batch(psi.amplitudes, rotations, config)[0])

"""Slow reference implementations that check the fast paths.

Each routine recomputes a result from its bare definition with explicit
index loops and scalar math, sharing no code with the fast paths it checks.
The closed-form GHZ and W amplitude tables live here for the same reason,
with an audit of an erratic W table that circulates.
Performance is a non-goal.
"""

from __future__ import annotations

import math

import numpy as np

from .states import DensityOperator, PureState


def _rotation_entry(omega: float, row: int, col: int) -> float:
    # [[cos, -sin], [sin, cos]] at half angle, one scalar at a time
    half = 0.5 * omega
    if row == col:
        return math.cos(half)
    if row == 0:
        return -math.sin(half)
    return math.sin(half)


def oracle_transform(psi: PureState, angles) -> PureState:
    """Boost a three-qubit state by building the 8x8 matrix entry by entry."""
    if psi.qubit_count != 3:
        raise ValueError(f"oracle_transform expects 3 qubits, got {psi.qubit_count}")
    omegas = [float(o) for o in angles]
    amps = psi.amplitudes
    out = np.zeros(8, dtype=complex)
    for i in range(8):
        total = 0.0 + 0.0j
        for j in range(8):
            entry = 1.0
            for q in range(3):
                row_bit = (i >> (2 - q)) & 1
                col_bit = (j >> (2 - q)) & 1
                entry *= _rotation_entry(omegas[q], row_bit, col_bit)
            total += entry * amps[j]
        out[i] = total
    return PureState(out)


def oracle_traced_channel(psi: PureState, angles, alpha: float) -> DensityOperator:
    """Momentum-traced channel cos(alpha)**2 |f><f| + sin(alpha)**2 |r><r|, entry by entry.

    |f> is ``psi`` boosted at ``angles`` and |r> at their negatives; each
    branch is an :func:`oracle_transform`.
    """
    omegas = [float(o) for o in angles]
    f = oracle_transform(psi, omegas).amplitudes
    r = oracle_transform(psi, [-o for o in omegas]).amplitudes
    w_f = math.cos(alpha) ** 2
    w_r = math.sin(alpha) ** 2
    out = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        for j in range(8):
            out[i, j] = w_f * f[i] * f[j].conjugate() + w_r * r[i] * r[j].conjugate()
    return DensityOperator(out)


def oracle_entropy(rho: DensityOperator) -> float:
    """Entropy -sum(p * log2(p)) of a 40-digit mpmath spectrum, with 0*log0 = 0."""
    import mpmath  # only this oracle needs it, so the module loads without it

    with mpmath.workdps(40):
        spectrum = mpmath.eighe(mpmath.matrix(rho.matrix.tolist()), eigvals_only=True)
        return float(-sum(p * mpmath.log(p, 2) for p in spectrum if p > 0))


def _half_trig(angles):
    # c1, s1, c2, s2, c3, s3: the cos and sin entries of each qubit's rotation
    o1, o2, o3 = (float(o) for o in angles)
    return tuple(_rotation_entry(omega, row, 0) for omega in (o1, o2, o3) for row in (0, 1))


def ghz_coefficients(angles) -> np.ndarray:
    """Closed-form amplitudes of the boosted ghz_plus state.

    Componentwise equal to ``product_transform(make_state("ghz_plus"), angles)``
    of :mod:`wignerqi.lorentz`; an explicit trigonometric expansion so the two
    routes check each other.
    """
    c1, s1, c2, s2, c3, s3 = _half_trig(angles)
    r = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            (c1 * c2 * c3 - s1 * s2 * s3) * r,
            (c1 * c2 * s3 + s1 * s2 * c3) * r,
            (c1 * s2 * c3 + s1 * c2 * s3) * r,
            (c1 * s2 * s3 - s1 * c2 * c3) * r,
            (s1 * c2 * c3 + c1 * s2 * s3) * r,
            (s1 * c2 * s3 - c1 * s2 * c3) * r,
            (s1 * s2 * c3 - c1 * c2 * s3) * r,
            (c1 * c2 * c3 + s1 * s2 * s3) * r,
        ],
        dtype=complex,
    )


def w_coefficients(angles) -> np.ndarray:
    """Closed-form amplitudes of the boosted w state (direct expansion)."""
    c1, s1, c2, s2, c3, s3 = _half_trig(angles)
    r = 1.0 / math.sqrt(3.0)
    return np.array(
        [
            -(s1 * c2 * c3 + c1 * s2 * c3 + c1 * c2 * s3) * r,
            (c1 * c2 * c3 - s1 * c2 * s3 - c1 * s2 * s3) * r,
            (c1 * c2 * c3 - s1 * s2 * c3 - c1 * s2 * s3) * r,
            (c1 * c2 * s3 + c1 * s2 * c3 - s1 * s2 * s3) * r,
            (c1 * c2 * c3 - s1 * s2 * c3 - s1 * c2 * s3) * r,
            (c1 * c2 * s3 + s1 * c2 * c3 - s1 * s2 * s3) * r,
            (c1 * s2 * c3 + s1 * c2 * c3 - s1 * s2 * s3) * r,
            (c1 * s2 * s3 + s1 * c2 * s3 + s1 * s2 * c3) * r,
        ],
        dtype=complex,
    )


def w_variant_coefficients(angles) -> np.ndarray:
    """A circulating transcription of the boosted w table, evaluated verbatim.

    Slots 0, 3, 5, 6 and 7 hold the boosted ``w_prime`` rather than w. Slots
    1, 2 and 4 carry typos that break normalization; rows 1 and 2 are the
    same text, duplicated term included. For :func:`audit_w_coefficient_table`,
    not for physics.
    """
    c1, s1, c2, s2, c3, s3 = _half_trig(angles)
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


def audit_w_coefficient_table(angles) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Slots where the variant w table misses the boosted w, and slots where it equals the boosted w_prime.

    Entries match within 1e-12. At generic angles every slot misses and
    slots 0, 3, 5, 6, 7 equal w_prime. As X D(omega) X = D(-omega), and
    X x X x X maps w to w_prime and slot i to 7 - i, the boosted w_prime is
    ``w_coefficients`` at the negated angles, read backwards.
    """
    variant = w_variant_coefficients(angles)
    w = w_coefficients(angles)
    w_prime = w_coefficients([-float(o) for o in angles])[::-1]
    mismatched = tuple(i for i in range(8) if abs(variant[i] - w[i]) > 1e-12)
    partner = tuple(i for i in range(8) if abs(variant[i] - w_prime[i]) <= 1e-12)
    return mismatched, partner


def traced_overlap(tag: str, angles) -> float:
    """Closed-form overlap g = <f|r> of the traced channel's two branches, for a named state.

    U = D(omega1) x D(omega2) x D(omega3) is real orthogonal, so a real state
    psi has branches f = U psi and r = U^T psi, and g = <psi|U^2|psi> is the
    overlap at doubled angles. The nonzero traced spectrum is then
    (1 +- sqrt(1 - sin(2 alpha)**2 * (1 - g**2))) / 2.
    """
    c1, s1, c2, s2, c3, s3 = _half_trig([2.0 * float(o) for o in angles])
    if tag.startswith("ghz"):
        return c1 * c2 * c3
    return c1 * c2 * c3 - 2.0 / 3.0 * (s1 * s2 * c3 + s1 * c2 * s3 + c1 * s2 * s3)


def traced_entropy_a(tag: str, angles, alpha: float) -> float:
    """Closed-form entropy of qubit a after the traced channel, for a named state.

    Each GHZ branch leaves qubit a at I/2. The w and w_prime marginal has
    Bloch vector (0, 0, +-1/3); the branches turn it about y by +-omega1 and
    mix with weights cos(alpha)**2 and sin(alpha)**2, which leaves the radius
    r = sqrt(cos(omega1)**2 + cos(2 alpha)**2 * sin(omega1)**2) / 3.
    """
    if tag.startswith("ghz"):
        return 1.0
    omega1 = float(angles[0])
    r = math.sqrt(math.cos(omega1) ** 2 + math.cos(2.0 * alpha) ** 2 * math.sin(omega1) ** 2) / 3.0
    return -sum(p * math.log2(p) for p in ((1.0 + r) / 2.0, (1.0 - r) / 2.0))


def _embed_bits(value: int, positions, qubit_count: int) -> int:
    # scatter the bits of value (msb first over positions) into a basis index
    index = 0
    for rank, q in enumerate(positions):
        bit = (value >> (len(positions) - 1 - rank)) & 1
        index |= bit << (qubit_count - 1 - q)
    return index


def oracle_partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Partial trace by direct index summation, no reshaping tricks."""
    n = rho.qubit_count
    keep = tuple(int(q) for q in keep)
    traced = tuple(q for q in range(n) if q not in keep)
    dim_keep = 2 ** len(keep)
    dim_traced = 2 ** len(traced)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)
    m = rho.matrix
    for a in range(dim_keep):
        for b in range(dim_keep):
            acc = 0.0 + 0.0j
            for t in range(dim_traced):
                i = _embed_bits(a, keep, n) | _embed_bits(t, traced, n)
                j = _embed_bits(b, keep, n) | _embed_bits(t, traced, n)
                acc += m[i, j]
            out[a, b] = acc
    return DensityOperator(out)


def oracle_pair_capacity(rho_pair: DensityOperator) -> float:
    """Dense-coding capacity 1 + S(rho_first) - S(rho_pair), unclamped, from the oracle trace and entropy."""
    if rho_pair.qubit_count != 2:
        raise ValueError(f"oracle_pair_capacity expects 2 qubits, got {rho_pair.qubit_count}")
    return 1.0 + oracle_entropy(oracle_partial_trace(rho_pair, (0,))) - oracle_entropy(rho_pair)


def oracle_three_tangle(psi: PureState) -> float:
    """Three-tangle via the degree-4 hyperdeterminant of the amplitude cube.

    tau = 4*|d1 - 2*d2 + 4*d3| over the eight amplitudes a[ijk], with the
    three symmetric degree-4 combinations d1, d2, d3 written out below.
    """
    if psi.qubit_count != 3:
        raise ValueError(f"oracle_three_tangle expects 3 qubits, got {psi.qubit_count}")
    amps = psi.amplitudes

    def a(i, j, k):
        return amps[4 * i + 2 * j + k]

    d1 = (
        a(0, 0, 0) ** 2 * a(1, 1, 1) ** 2
        + a(0, 0, 1) ** 2 * a(1, 1, 0) ** 2
        + a(0, 1, 0) ** 2 * a(1, 0, 1) ** 2
        + a(1, 0, 0) ** 2 * a(0, 1, 1) ** 2
    )
    d2 = (
        a(0, 0, 0) * a(1, 1, 1) * a(0, 1, 1) * a(1, 0, 0)
        + a(0, 0, 0) * a(1, 1, 1) * a(1, 0, 1) * a(0, 1, 0)
        + a(0, 0, 0) * a(1, 1, 1) * a(1, 1, 0) * a(0, 0, 1)
        + a(0, 1, 1) * a(1, 0, 0) * a(1, 0, 1) * a(0, 1, 0)
        + a(0, 1, 1) * a(1, 0, 0) * a(1, 1, 0) * a(0, 0, 1)
        + a(1, 0, 1) * a(0, 1, 0) * a(1, 1, 0) * a(0, 0, 1)
    )
    d3 = (
        a(0, 0, 0) * a(1, 1, 0) * a(1, 0, 1) * a(0, 1, 1)
        + a(1, 1, 1) * a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0)
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def oracle_concurrence_pure(psi: PureState) -> float:
    """Concurrence 2*|a01*a10 - a00*a11| of a pure two-qubit state."""
    if psi.qubit_count != 2:
        raise ValueError(f"oracle_concurrence_pure expects 2 qubits, got {psi.qubit_count}")
    a = psi.amplitudes
    return float(2.0 * abs(a[1] * a[2] - a[0] * a[3]))


def oracle_concurrence_mixed(rho_pair: DensityOperator) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state, from a 40-digit mpmath spectrum.

    The l_k are the square roots, in decreasing order, of the eigenvalues of
    rho @ rho_tilde, where rho_tilde = (sy x sy) rho* (sy x sy) is built from
    the Pauli matrix entry by entry (Wootters, PRL 80, 2245, 1998).
    """
    if rho_pair.qubit_count != 2:
        raise ValueError(f"oracle_concurrence_mixed expects 2 qubits, got {rho_pair.qubit_count}")
    import mpmath  # only the spectral oracles need it, so the module loads without it

    sigma_y = ((0, -1j), (1j, 0))
    with mpmath.workdps(40):
        flip = mpmath.matrix([[sigma_y[i >> 1][j >> 1] * sigma_y[i & 1][j & 1] for j in range(4)] for i in range(4)])
        rho = mpmath.matrix(rho_pair.matrix.tolist())
        spectrum = mpmath.eig(rho * flip * rho.conjugate() * flip, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(mu), 0)) for mu in spectrum), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def haar_random_state(qubit_count: int, rng: np.random.Generator) -> PureState:
    """Haar-uniform pure state: normalized i.i.d. complex Gaussian amplitudes."""
    dim = 2 ** qubit_count
    amps = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    return PureState(amps / np.linalg.norm(amps))

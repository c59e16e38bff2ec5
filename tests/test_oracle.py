import numpy as np
import pytest

from wignerqi.lorentz import (
    BRANCH_CONVENTIONS,
    MomentumConfig,
    WignerAngles,
    momentum_traced_channel,
    product_transform,
)
from wignerqi.oracle import (
    haar_random_state,
    oracle_partial_trace,
    oracle_three_tangle,
    oracle_traced_channel,
    oracle_transform,
)
from wignerqi.qmath import partial_trace
from wignerqi.states import STATE_TAGS, DensityOperator, PureState, make_state, to_density


def random_density(rng, qubit_count):
    # rank-3 mixture of random pure states
    dim = 2 ** qubit_count
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
        rho += w * np.outer(amps, amps.conj())
    return DensityOperator(rho)


class TestOracleTransform:
    def test_identity_angles(self):
        ghz = make_state("ghz_plus")
        np.testing.assert_allclose(oracle_transform(ghz, (0, 0, 0)).amplitudes, ghz.amplitudes, atol=1e-15)

    def test_w_half_turns_match_fast_path(self):
        w = make_state("w")
        angles = (np.pi, np.pi, np.pi)
        np.testing.assert_allclose(
            oracle_transform(w, angles).amplitudes,
            product_transform(w, angles).amplitudes,
            atol=1e-12,
        )

    def test_specific_angles_match_fast_path(self):
        ghz = make_state("ghz_plus")
        angles = (np.pi / 2, np.pi / 3, np.pi / 5)
        np.testing.assert_allclose(
            oracle_transform(ghz, angles).amplitudes,
            product_transform(ghz, angles).amplitudes,
            atol=1e-12,
        )

    def test_random_equivalence(self, rng):
        for i in range(1000):
            psi = make_state(("ghz_plus", "ghz_minus", "w", "w_prime")[i % 4]) if i % 2 else haar_random_state(3, rng)
            angles = WignerAngles(*rng.uniform(-2 * np.pi, 2 * np.pi, 3))
            dev = np.abs(oracle_transform(psi, angles).amplitudes - product_transform(psi, angles).amplitudes)
            assert dev.max() < 1e-12


class TestOraclePartialTrace:
    def test_ghz_pair(self):
        rho = to_density(make_state("ghz_plus"))
        np.testing.assert_allclose(
            oracle_partial_trace(rho, (0, 1)).matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12
        )

    def test_product_state_factorizes(self, rng):
        a = haar_random_state(1, rng).amplitudes
        b = haar_random_state(1, rng).amplitudes
        psi = PureState(np.kron(a, b))
        rho = to_density(psi)
        np.testing.assert_allclose(
            oracle_partial_trace(rho, (0,)).matrix, np.outer(a, a.conj()), atol=1e-12
        )
        np.testing.assert_allclose(
            oracle_partial_trace(rho, (1,)).matrix, np.outer(b, b.conj()), atol=1e-12
        )

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 3)
        red = oracle_partial_trace(rho, (1,))
        assert abs(np.trace(red.matrix) - 1.0) < 1e-12

    def test_random_equivalence_with_fast_path(self, rng):
        keeps = {2: [(0,), (1,), (0, 1)], 3: [(0,), (2,), (0, 1), (0, 2), (1, 2)], 4: [(1,), (0, 3), (1, 2, 3)]}
        comparisons = 0
        while comparisons < 1000:
            n = int(rng.integers(2, 5))
            rho = random_density(rng, n)
            for keep in keeps[n]:
                slow = oracle_partial_trace(rho, keep).matrix
                fast = partial_trace(rho.matrix, keep)
                np.testing.assert_allclose(slow, fast, atol=1e-12)
                comparisons += 1


class TestOracleTracedChannel:
    @pytest.mark.parametrize("convention", BRANCH_CONVENTIONS)
    @pytest.mark.parametrize("tag", STATE_TAGS)
    def test_fast_channel_matches_entrywise(self, rng, tag, convention):
        psi = make_state(tag)
        for _ in range(50):
            alpha = rng.uniform(-np.pi, np.pi)
            angles = rng.uniform(-4 * np.pi, 4 * np.pi, 3)
            fast = momentum_traced_channel(psi, angles, MomentumConfig(alpha, convention)).matrix
            slow = oracle_traced_channel(psi, angles, alpha, convention).matrix
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_branch_weights_and_conventions(self):
        psi = make_state("w")
        angles = (0.4, -1.3, 2.2)
        forward = to_density(oracle_transform(psi, angles)).matrix
        backward = to_density(oracle_transform(psi, (-0.4, 1.3, -2.2))).matrix
        cases = ((0.0, "opposite", forward), (np.pi / 2, "opposite", backward), (0.7, "same", forward))
        for alpha, convention, expected in cases:
            channel = oracle_traced_channel(psi, angles, alpha, convention).matrix
            np.testing.assert_allclose(channel, expected, atol=1e-15)
        with pytest.raises(ValueError, match="convention"):
            oracle_traced_channel(psi, angles, 0.7, "momentum_traced")


class TestOracleThreeTangle:
    def test_ghz(self):
        assert oracle_three_tangle(make_state("ghz_plus")) == pytest.approx(1.0, abs=1e-12)

    def test_w(self):
        assert oracle_three_tangle(make_state("w")) == pytest.approx(0.0, abs=1e-12)

    def test_product_states_vanish(self, rng):
        for _ in range(50):
            a, b, c = (haar_random_state(1, rng).amplitudes for _ in range(3))
            amps = np.kron(np.kron(a, b), c)
            psi = PureState(amps / np.linalg.norm(amps))
            assert oracle_three_tangle(psi) < 1e-10


def test_haar_random_state_normalized(rng):
    for n in (1, 2, 3):
        psi = haar_random_state(n, rng)
        assert psi.qubit_count == n
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

import math

import numpy as np
import pytest

from wignerqi.lorentz import (
    MomentumConfig,
    WignerAngles,
    momentum_traced_channel,
    product_transform,
)
from wignerqi.measures import average_capacity, concurrence, pair_capacity, von_neumann_entropy
from wignerqi.oracle import (
    haar_random_state,
    oracle_concurrence_mixed,
    oracle_concurrence_pure,
    oracle_entropy,
    oracle_pair_capacity,
    oracle_partial_trace,
    oracle_three_tangle,
    oracle_traced_channel,
    oracle_transform,
)
from wignerqi.qmath import partial_trace
from wignerqi.states import STATE_TAGS, DensityOperator, PureState, make_state, reduced, to_density
from wignerqi.sweep import FIGURE_NAMES, SweepGrid, run_figure


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
    @pytest.mark.parametrize("tag", STATE_TAGS)
    def test_fast_channel_matches_entrywise(self, rng, tag):
        psi = make_state(tag)
        for _ in range(50):
            alpha = rng.uniform(-np.pi, np.pi)
            angles = rng.uniform(-4 * np.pi, 4 * np.pi, 3)
            fast = momentum_traced_channel(psi, angles, MomentumConfig(alpha)).matrix
            slow = oracle_traced_channel(psi, angles, alpha).matrix
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_branch_weights_and_conventions(self):
        psi = make_state("w")
        angles = (0.4, -1.3, 2.2)
        forward = to_density(oracle_transform(psi, angles)).matrix
        backward = to_density(oracle_transform(psi, (-0.4, 1.3, -2.2))).matrix
        mixed = np.cos(0.7) ** 2 * forward + np.sin(0.7) ** 2 * backward
        for alpha, expected in ((0.0, forward), (np.pi / 2, backward), (0.7, mixed)):
            channel = oracle_traced_channel(psi, angles, alpha).matrix
            np.testing.assert_allclose(channel, expected, atol=1e-15)
        with pytest.raises(TypeError):
            oracle_traced_channel(psi, angles, 0.7, "opposite")


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


class TestOracleEntropy:
    """von_neumann_entropy against a 40-digit mpmath spectrum."""

    @pytest.fixture(autouse=True)
    def _needs_mpmath(self):
        pytest.importorskip("mpmath")

    @pytest.mark.parametrize("qubit_count, samples", [(1, 12), (2, 12), (3, 10)])
    def test_random_densities(self, rng, qubit_count, samples):
        for _ in range(samples):
            rho = random_density(rng, qubit_count)
            assert abs(von_neumann_entropy(rho) - oracle_entropy(rho)) <= 1e-12

    def test_traced_channel_outputs_and_their_reductions(self, rng):
        # what entropy_a and avg_capacity read: the channel output and its one- and two-qubit marginals
        states = [make_state(tag) for tag in STATE_TAGS] + [haar_random_state(3, rng) for _ in range(2)]
        for psi in states:
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            rho = momentum_traced_channel(psi, angles, MomentumConfig(rng.uniform(0, np.pi)))
            for keep in [(0, 1, 2), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                part = rho if len(keep) == 3 else reduced(rho, keep)
                assert abs(von_neumann_entropy(part) - oracle_entropy(part)) <= 1e-12, (keep, angles)


class TestOraclePairCapacity:
    """pair_capacity and average_capacity against oracle traces and 40-digit entropies."""

    @pytest.fixture(autouse=True)
    def _needs_mpmath(self):
        pytest.importorskip("mpmath")

    @pytest.mark.parametrize("tag", STATE_TAGS)
    def test_traced_channel_outputs(self, rng, tag):
        # the traced avg_capacity carries the decay claim of presets 3a and 3b
        for _ in range(6):
            angles = rng.uniform(-4 * np.pi, 4 * np.pi, 3)
            rho = momentum_traced_channel(make_state(tag), angles, MomentumConfig(rng.uniform(-np.pi, np.pi)))
            expected = {}
            for name, pair in (("pair_ab", (0, 1)), ("pair_ac", (0, 2)), ("pair_bc", (1, 2))):
                expected[name] = oracle_pair_capacity(oracle_partial_trace(rho, pair))
                assert abs(pair_capacity(reduced(rho, pair)) - expected[name]) <= 1e-12, (pair, angles)
            expected["average"] = sum(expected.values()) / 3.0
            breakdown = average_capacity(rho)
            for name, value in expected.items():
                assert abs(getattr(breakdown, name) - value) <= 1e-12, (name, angles)


class TestOracleConcurrenceMixed:
    """concurrence of traced-channel pairs against oracle traces and a 40-digit spectrum of rho @ rho_tilde."""

    # Derived, not fitted: the fast spectrum of rho @ rho_tilde errs by at
    # most its zero floor, 128*eps*mu_max, which is at most 128*eps since
    # mu_max <= 1 for a density operator. |sqrt(a) - sqrt(b)| <= sqrt(|a - b|)
    # then puts each lambda_k within sqrt(128*eps), and the 1-Lipschitz
    # max(0, l1 - l2 - l3 - l4) adds four such errors: 4*sqrt(128*eps) ~ 6.7e-7.
    TOLERANCE = 4.0 * math.sqrt(128.0 * np.finfo(float).eps)

    @pytest.fixture(autouse=True)
    def _needs_mpmath(self):
        pytest.importorskip("mpmath")

    @pytest.mark.parametrize("tag", STATE_TAGS)
    def test_traced_channel_outputs(self, rng, tag):
        # the traced concurrences carry the decay claim of presets 4a and 4b
        for _ in range(6):
            angles = rng.uniform(-4 * np.pi, 4 * np.pi, 3)
            rho = momentum_traced_channel(make_state(tag), angles, MomentumConfig(rng.uniform(-np.pi, np.pi)))
            for pair in ((0, 1), (0, 2), (1, 2)):
                expected = oracle_concurrence_mixed(oracle_partial_trace(rho, pair))
                assert abs(concurrence(reduced(rho, pair)) - expected) <= self.TOLERANCE, (pair, angles)


def printed(values):
    """Each value keyed by its CSV text, so that a printed angle maps back to its grid value."""
    return {format(float(v), ".12g"): float(v) for v in values}


SURFACE_AXES = (printed(SweepGrid(0.0, 2 * math.pi, 129).values()),) * 3
SLICE_AXES = (printed(SweepGrid(0.0, 2 * math.pi, 257).values()),) * 3
FAMILY_AXES = (*SLICE_AXES[:2], printed((0.0, math.pi / 3, math.pi / 4, math.pi / 6)))
# omega1, omega2 and omega3 of each preset: surfaces tie omega2 to omega1, slices tie all three,
# and families sweep the tied pair at four fixed omega3
PRESET_AXES = {
    **dict.fromkeys(("1a", "1b", "2a", "2b"), SURFACE_AXES),
    **dict.fromkeys(("1c", "2c"), SLICE_AXES),
    **dict.fromkeys(("3a", "3b", "4a", "4b"), FAMILY_AXES),
}
PRESET_ALPHAS = printed((0.0, math.pi / 4))  # .pure rows and .traced rows
FIDELITY_TARGETS = {
    "fidelity_gplus": "ghz_plus",
    "fidelity_gminus": "ghz_minus",
    "fidelity_w": "w",
    "fidelity_wprime": "w_prime",
}
PAIRS = {"concurrence_ab": (0, 1), "concurrence_ac": (0, 2), "concurrence_bc": (1, 2)}


def oracle_row_value(state, alpha, angles, measure):
    """A preset row's value through oracle routes only, and the route's error bound."""
    psi = make_state(state)
    name = measure.split(".")[0]
    if name in FIDELITY_TARGETS or name == "three_tangle":
        assert alpha == 0.0, measure  # the presets print these of the pure transform only
        boosted = oracle_transform(psi, angles)
        if name == "three_tangle":
            return oracle_three_tangle(boosted), 1e-12
        return abs(np.vdot(make_state(FIDELITY_TARGETS[name]).amplitudes, boosted.amplitudes)) ** 2, 1e-12
    rho = oracle_traced_channel(psi, angles, alpha)  # the projector of the boosted state at alpha 0
    if name == "avg_capacity":
        return sum(oracle_pair_capacity(oracle_partial_trace(rho, pair)) for pair in PAIRS.values()) / 3.0, 1e-12
    return oracle_concurrence_mixed(oracle_partial_trace(rho, PAIRS[name])), TestOracleConcurrenceMixed.TOLERANCE


def half_unit(text):
    """Half a unit in the 12th significant digit of a printed value, the most its rounding moved it."""
    value = float(text)
    return 0.5 * 10.0 ** (int(format(value, ".11e").split("e")[1]) - 11) if value else 0.0


class TestPresetRows:
    """Sampled rows of every preset CSV against oracle routes, from the row's printed state, alpha and angles."""

    @pytest.fixture(autouse=True)
    def _needs_mpmath(self):
        pytest.importorskip("mpmath")

    def test_sampled_rows_match_the_oracles(self, tmp_path, rng):
        checked = []
        for name in FIGURE_NAMES:
            for path, count in run_figure(name, tmp_path):
                lines = path.read_text().splitlines()[1:]
                for index in (0, count - 1, *rng.choice(np.arange(1, count - 1), 6, replace=False)):
                    state, alpha, *angles, measure, value = lines[index].split(",")
                    angles = [axis[text] for axis, text in zip(PRESET_AXES[name], angles)]
                    expected, route_error = oracle_row_value(state, PRESET_ALPHAS[alpha], angles, measure)
                    assert abs(float(value) - expected) <= half_unit(value) + route_error, (path.name, lines[index])
                checked.append(path.name)
        assert len(checked) == 20


BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
WRONG_QUBIT_COUNTS = {
    "oracle_transform": (oracle_transform, (BELL, (0.1, 0.2, 0.3)), "expects 3 qubits, got 2"),
    "oracle_pair_capacity": (oracle_pair_capacity, (to_density(make_state("w")),), "expects 2 qubits, got 3"),
    "oracle_three_tangle": (oracle_three_tangle, (BELL,), "expects 3 qubits, got 2"),
    "oracle_concurrence_pure": (oracle_concurrence_pure, (make_state("w"),), "expects 2 qubits, got 3"),
    "oracle_concurrence_mixed": (oracle_concurrence_mixed, (to_density(make_state("w")),), "expects 2 qubits, got 3"),
}


@pytest.mark.parametrize(("function", "args", "message"), WRONG_QUBIT_COUNTS.values(), ids=WRONG_QUBIT_COUNTS.keys())
def test_wrong_qubit_count_refused(function, args, message):
    with pytest.raises(ValueError, match=message):
        function(*args)


def test_haar_random_state_normalized(rng):
    for n in (1, 2, 3):
        psi = haar_random_state(n, rng)
        assert psi.qubit_count == n
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

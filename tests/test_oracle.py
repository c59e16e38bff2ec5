import math

import numpy as np
import pytest

from wignerqi.lorentz import (
    MomentumConfig,
    WignerAngles,
    momentum_traced_channel,
    momentum_traced_channel_batch,
    point_factors,
    product_transform,
    wigner_unitaries,
)
from wignerqi.measures import (
    average_capacity,
    concurrence,
    pair_capacity,
    von_neumann_entropy,
    von_neumann_entropy_batch,
)
from wignerqi.oracle import (
    audit_w_coefficient_table,
    ghz_coefficients,
    haar_random_state,
    oracle_concurrence_mixed,
    oracle_concurrence_pure,
    oracle_entropy,
    oracle_pair_capacity,
    oracle_partial_trace,
    oracle_three_tangle,
    oracle_traced_channel,
    oracle_transform,
    traced_entropy_a,
    traced_overlap,
    w_coefficients,
    w_variant_coefficients,
)
from wignerqi.qmath import partial_trace
from wignerqi.states import STATE_TAGS, DensityOperator, PureState, make_state, reduced, to_density
from wignerqi.sweep import FIDELITY_TARGETS, FIGURE_NAMES, PAIRS, run_figure

from conftest import preset_values, random_angles

SQ2 = 1 / np.sqrt(2)


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


class TestCoefficientTables:
    def test_ghz_at_zero(self):
        np.testing.assert_allclose(ghz_coefficients((0, 0, 0)), [SQ2, 0, 0, 0, 0, 0, 0, SQ2], atol=1e-15)

    def test_ghz_first_half_turn(self):
        # Only |011> and |100> survive: (0,0,0,-1,1,0,0,0)/sqrt(2).
        np.testing.assert_allclose(
            ghz_coefficients((np.pi, 0, 0)), [0, 0, 0, -SQ2, SQ2, 0, 0, 0], atol=1e-12
        )

    def test_ghz_matches_direct_transform(self, rng):
        ghz = make_state("ghz_plus")
        for _ in range(200):
            angles = random_angles(rng)
            np.testing.assert_allclose(
                ghz_coefficients(angles), product_transform(ghz, angles).amplitudes, atol=1e-12
            )

    def test_w_at_zero(self):
        sq3 = 1 / np.sqrt(3)
        np.testing.assert_allclose(w_coefficients((0, 0, 0)), [0, sq3, sq3, 0, sq3, 0, 0, 0], atol=1e-15)

    def test_w_matches_direct_transform(self, rng):
        w = make_state("w")
        for _ in range(200):
            angles = random_angles(rng)
            np.testing.assert_allclose(
                w_coefficients(angles), product_transform(w, angles).amplitudes, atol=1e-12
            )

    def test_variant_table_not_normalized(self):
        norm = np.linalg.norm(w_variant_coefficients((0.7, 1.3, 2.1)))
        assert abs(norm - 1.0) > 1e-3

    def test_w_prime_is_the_w_table_at_negated_angles_read_backwards(self, rng):
        # X D(omega) X = D(-omega), and X x X x X maps w to w_prime and slot i to 7 - i
        w_prime = make_state("w_prime")
        for _ in range(200):
            angles = rng.uniform(-4 * np.pi, 4 * np.pi, 3)
            np.testing.assert_allclose(
                w_coefficients(-angles)[::-1], product_transform(w_prime, angles).amplitudes, rtol=0, atol=1e-15
            )

    def test_variant_table_audit_at_generic_angles(self):
        angles = (0.3, 0.7, 1.1)
        assert audit_w_coefficient_table(angles) == ((0, 1, 2, 3, 4, 5, 6, 7), (0, 3, 5, 6, 7))
        w = product_transform(make_state("w"), angles).amplitudes
        assert np.abs(w_variant_coefficients(angles) - w).max() > 0.1

    def test_variant_table_audit_over_random_angles(self, rng):
        seen = set()
        for _ in range(100):
            mismatched, partner = audit_w_coefficient_table(random_angles(rng))
            seen.update(mismatched)
            assert {0, 3, 5, 6, 7} <= set(partner)
        assert seen == set(range(8))

    def test_variant_table_matches_direct_w_nowhere_generic(self, rng):
        w = make_state("w")
        for _ in range(50):
            angles = random_angles(rng)
            dev = np.abs(w_variant_coefficients(angles) - product_transform(w, angles).amplitudes)
            assert np.all(dev > 1e-12)


# Derived, not fitted: each entry of a traced density carries a few
# roundings (half-angle cos and sin, three-factor products, an 8-term sum,
# the branch weights), eigvalsh adds a backward error of order 8*eps*||rho||
# with ||rho|| <= 1, and the binary entropy has slope at most 1 for the
# radii r <= 1/3 here. So each compared value is good to a few tens of eps;
# the worst seen over these points is 7 eps.
CLOSED_FORM_ATOL = 64 * np.finfo(float).eps


class TestTracedClosedForms:
    """The traced channel against its Gram closed forms (see traced_overlap and traced_entropy_a)."""

    @pytest.mark.parametrize("tag", STATE_TAGS)
    def test_batch_spectrum_and_marginal_entropy(self, rng, tag):
        angles = rng.uniform(-4 * np.pi, 4 * np.pi, (2000, 3))
        alphas = rng.uniform(-np.pi, np.pi, 50)
        # the batch kernel takes one alpha, so each alpha gets 40 of the points
        rho = np.concatenate(
            [
                momentum_traced_channel_batch(make_state(tag).amplitudes, *point_factors(*map(wigner_unitaries, chunk.T)), alpha)
                for chunk, alpha in zip(np.split(angles, len(alphas)), alphas)
            ]
        )
        alpha = np.repeat(alphas, len(angles) // len(alphas))
        g = np.array([traced_overlap(tag, point) for point in angles.tolist()])
        lam = np.linalg.eigvalsh(rho)
        # compare the invariants, not (1 +- sqrt(...))/2, whose root of a cancelling difference loses digits
        assert np.abs(lam[:, :6]).max() <= CLOSED_FORM_ATOL
        assert np.abs(lam[:, 6] + lam[:, 7] - 1.0).max() <= CLOSED_FORM_ATOL
        assert np.abs(lam[:, 6] * lam[:, 7] - np.sin(2 * alpha) ** 2 * (1 - g**2) / 4).max() <= CLOSED_FORM_ATOL
        entropy_a = von_neumann_entropy_batch(partial_trace(rho, (0,)))
        expected = [traced_entropy_a(tag, point, a) for point, a in zip(angles.tolist(), alpha.tolist())]
        assert np.abs(entropy_a - expected).max() <= CLOSED_FORM_ATOL

    @pytest.mark.parametrize("tag", STATE_TAGS)
    def test_scalar_api(self, rng, tag):
        for _ in range(5):
            angles, alpha = rng.uniform(-4 * np.pi, 4 * np.pi, 3), rng.uniform(-np.pi, np.pi)
            rho = momentum_traced_channel(make_state(tag), angles, MomentumConfig(alpha))
            lam = np.linalg.eigvalsh(rho.matrix)
            product = math.sin(2 * alpha) ** 2 * (1 - traced_overlap(tag, angles) ** 2) / 4
            assert abs(lam[6] * lam[7] - product) <= CLOSED_FORM_ATOL
            entropy_a = von_neumann_entropy(reduced(rho, (0,)))
            assert abs(entropy_a - traced_entropy_a(tag, angles, alpha)) <= CLOSED_FORM_ATOL


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
                    state, *columns, measure, value = lines[index].split(",")
                    alpha, *angles = (values[text] for values, text in zip(preset_values(name), columns))
                    expected, route_error = oracle_row_value(state, alpha, angles, measure)
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

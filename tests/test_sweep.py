import collections
import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerqi import lorentz, measures, states, sweep
from wignerqi.lorentz import MomentumConfig, momentum_traced_channel, product_transform
from wignerqi.measures import (
    average_capacity,
    concurrence,
    fidelity_pure,
    fidelity_vs_target,
    three_tangle,
    von_neumann_entropy,
)
from wignerqi.qmath import NumericValidationError, partial_trace
from wignerqi.states import STATE_TAGS, PureState, make_state, reduced, to_density, validate_density
from wignerqi.sweep import (
    CSV_HEADER,
    MAX_SWEEP_ROWS,
    MeasureRecord,
    SweepGrid,
    parse_angle,
    parse_axis,
    parse_tie,
    run_figure,
    run_sweep,
    write_csv,
)

TWO_PI = 2 * math.pi


class TestParseAngle:
    def test_examples(self):
        assert parse_angle("0") == 0.0
        assert parse_angle("2pi") == pytest.approx(6.283185307179586, abs=0)
        assert parse_angle("0.375pi") == pytest.approx(3 * math.pi / 8, abs=0)
        assert parse_angle("-0.5pi") == pytest.approx(-math.pi / 2)
        assert parse_angle("1.5e-3") == pytest.approx(1.5e-3, abs=0)

    @pytest.mark.parametrize("bad", ["", "pi", "2 pi", "abc", "1.2.3", "pi2", "2pipi"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="malformed"):
            parse_angle(bad)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_plain_floats(self, value):
        assert parse_angle(repr(value)) == value

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_pi_suffix_multiplies(self, value):
        assert parse_angle(f"{value!r}pi") == value * math.pi


class TestGrid:
    def test_values_inclusive(self):
        grid = SweepGrid(0.0, TWO_PI, 257)
        values = grid.values()
        assert values.size == 257
        assert values[0] == 0.0
        assert values[-1] == TWO_PI
        assert values[128] == pytest.approx(math.pi, abs=0)

    def test_single_point(self):
        np.testing.assert_array_equal(SweepGrid(1.5, 1.5, 1).values(), [1.5])
        # integer endpoints give float angles at every count, as a scalar axis does; a -0.0 start stays -0.0
        for count in (1, 2, 3):
            assert SweepGrid(1, 2, count).values().dtype == np.float64
        assert math.copysign(1.0, SweepGrid(-0.0, 1.0, 1).values()[0]) == -1.0
        records = run_sweep("w", ["fidelity_w"], omega1=SweepGrid(1, 2, 1))
        assert type(records[0].omega1) is float and records[0] == run_sweep("w", ["fidelity_w"], omega1=1)[0]

    def test_integral_float_count_is_stored_as_int(self):
        grid = SweepGrid(0.0, 1.0, 3.0)
        assert type(grid.count) is int and grid == SweepGrid(0.0, 1.0, 3)
        np.testing.assert_array_equal(grid.values(), [0.0, 0.5, 1.0])
        records = run_sweep("w", ["fidelity_w"], omega1=SweepGrid(0, 1, 3.0))
        assert [r.omega1 for r in records] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "args",
        [(0.0, -1.0, 5), (0.0, 1.0, 0), (0.0, 1.0, 2.5), (math.nan, 1.0, 3), (0.0, 1.0, True), (0.0, 1.0, math.inf), (-1e308, 1e308, 3)],
    )
    def test_rejects_bad_specs(self, args):
        with pytest.raises(ValueError):
            SweepGrid(*args)

    def test_parse_axis(self):
        grid = parse_axis("0:2pi:257")
        assert grid == SweepGrid(0.0, TWO_PI, 257)
        assert parse_axis("0.25pi") == pytest.approx(math.pi / 4)
        with pytest.raises(ValueError, match="malformed"):
            parse_axis("0:2pi")
        with pytest.raises(ValueError, match="malformed"):
            parse_axis("0:2pi:many")

    def test_parse_tie(self):
        assert parse_tie("omega2=omega1") == ("omega2", "omega1")
        for bad in ("omega2", "omega2=omega2", "omega2=theta", "a=b=c", ("omega2", "omega1"), None):
            with pytest.raises(ValueError):
                parse_tie(bad)


class TestRunSweep:
    def test_equal_angle_ghz_fidelity_column(self):
        records = run_sweep(
            "ghz_plus",
            ["fidelity_gplus"],
            omega1=SweepGrid(0.0, TWO_PI, 257),
            ties=("omega2=omega1", "omega3=omega1"),
        )
        assert len(records) == 257
        grid = np.linspace(0.0, TWO_PI, 257)
        values = np.array([r.value for r in records])
        np.testing.assert_allclose(values, np.cos(grid / 2) ** 6, atol=1e-12)
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        assert values[128] == pytest.approx(0.0, abs=1e-9)  # the omega = pi row

    def test_w_fidelity_zero_crossing_bracketed(self):
        records = run_sweep(
            "w",
            ["fidelity_w"],
            omega1=SweepGrid(0.0, TWO_PI, 257),
            ties=("omega2=omega1", "omega3=omega1"),
        )
        values = np.array([r.value for r in records])
        grid = np.linspace(0.0, TWO_PI, 257)
        first_zero = 2 * math.atan(1 / math.sqrt(2))
        below = grid[grid < first_zero]
        above = grid[grid > first_zero]
        # strictly positive on one side of the touch point, tiny at the nodes
        # bracketing it
        assert np.all(values[: below.size] > 1e-6)
        k = below.size
        assert min(values[k - 1], values[k]) < 1e-3
        assert above.size > 0

    def test_pure_capacity_column_constant(self):
        records = run_sweep(
            "ghz_plus",
            ["avg_capacity"],
            omega1=SweepGrid(0.0, TWO_PI, 33),
            ties=("omega2=omega1", "omega3=omega1"),
        )
        values = np.array([r.value for r in records])
        np.testing.assert_allclose(values, 1.0, atol=1e-9)

    def test_record_count_is_grid_product(self):
        records = run_sweep(
            "w",
            ["entropy_a", "fidelity_w"],
            omega1=SweepGrid(0.0, 1.0, 5),
            omega2=0.3,
            omega3=SweepGrid(0.0, 2.0, 7),
        )
        assert len(records) == 5 * 7 * 2

    def test_row_major_order_and_tied_axis_copies(self):
        records = run_sweep(
            "w",
            ["entropy_a"],
            omega1=SweepGrid(0.0, 1.0, 2),
            omega3=SweepGrid(0.0, 2.0, 3),
            ties=("omega2=omega1",),
        )
        coords = [(r.omega1, r.omega2, r.omega3) for r in records]
        assert coords == [
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, 0.0, 2.0),
            (1.0, 1.0, 0.0),
            (1.0, 1.0, 1.0),
            (1.0, 1.0, 2.0),
        ]

    def test_transitive_tie(self, tmp_path):
        # a leader must be free: a chain is refused with its direct spelling, in either order
        for ties in (("omega2=omega1", "omega3=omega2"), ("omega3=omega2", "omega2=omega1")):
            message = "tie 'omega3=omega2' leads to the tied axis omega2; tie to a free axis, as in 'omega3=omega1'"
            with pytest.raises(ValueError, match=re.escape(message)):
                run_sweep("w", ["entropy_a"], omega1=SweepGrid(0.0, 1.0, 3), ties=ties)
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep.write_sweep(tmp_path / "chain.csv", "w", ["entropy_a"], omega1=SweepGrid(0.0, 1.0, 3), ties=ties)
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self):
        kwargs = dict(
            alpha=math.pi / 4,
            omega1=SweepGrid(0.0, TWO_PI, 9),
            omega3=0.7,
            ties=("omega2=omega1",),
        )
        first = run_sweep("w", ["avg_capacity", "entropy_a"], **kwargs)
        second = run_sweep("w", ["avg_capacity", "entropy_a"], **kwargs)
        assert first == second

    def test_spot_check_against_direct_calls(self, rng):
        records = run_sweep(
            "w",
            ["fidelity_w", "avg_capacity", "concurrence_ab"],
            alpha=0.6,
            omega1=SweepGrid(0.0, TWO_PI, 21),
            omega2=SweepGrid(0.0, TWO_PI, 5),
            omega3=1.1,
        )
        picks = rng.choice(len(records), size=max(1, len(records) // 100), replace=False)
        from wignerqi.measures import concurrence, fidelity_vs_target
        from wignerqi.states import reduced

        for index in picks:
            r = records[index]
            rho = momentum_traced_channel(
                make_state(r.state), (r.omega1, r.omega2, r.omega3), MomentumConfig(r.alpha)
            )
            if r.measure == "fidelity_w":
                expected = fidelity_vs_target(rho, make_state("w"))
            elif r.measure == "avg_capacity":
                expected = average_capacity(rho).average
            else:
                expected = concurrence(reduced(rho, (0, 1)))
            assert r.value == expected

    def test_pure_mode_fidelity_matches_direct_call(self):
        records = run_sweep("ghz_plus", ["fidelity_gminus"], omega1=SweepGrid(0.0, 3.0, 4))
        for r in records:
            psi = product_transform(make_state("ghz_plus"), (r.omega1, r.omega2, r.omega3))
            assert r.value == fidelity_pure(psi, make_state("ghz_minus"))

    def test_rejections(self, tmp_path):
        with pytest.raises(ValueError, match="unknown measure"):
            run_sweep("w", ["sparkle"], omega1=0.0)
        with pytest.raises(ValueError, match="unknown state"):
            run_sweep("bell", ["entropy_a"])
        with pytest.raises(ValueError, match="three_tangle is undefined"):
            run_sweep("w", ["three_tangle"], alpha=0.5)
        with pytest.raises(ValueError, match="tied twice"):
            run_sweep("w", ["entropy_a"], ties=("omega2=omega1", "omega2=omega3"))
        with pytest.raises(ValueError, match="leads to the tied axis omega1; tie to a free axis$"):
            run_sweep("w", ["entropy_a"], ties=("omega2=omega1", "omega1=omega2"))
        with pytest.raises(ValueError, match="malformed tie"):
            run_sweep("w", ["entropy_a"], ties=[("omega2", "omega1")])
        with pytest.raises(ValueError, match="at least one measure"):
            run_sweep("w", [])
        # a bare string is refused whole, not split into one-character ids
        grid = SweepGrid(0, 1, 3)
        for measure_ids, ties, message in (
            ("fidelity_w", (), "measures must be a sequence of strings, got the string 'fidelity_w'"),
            (["fidelity_w"], "omega2=omega1", "ties must be a sequence of strings, got the string 'omega2=omega1'"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                run_sweep("w", measure_ids, omega1=grid, ties=ties)
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep.write_sweep(tmp_path / "bare.csv", "w", measure_ids, omega1=grid, ties=ties)
        assert list(tmp_path.iterdir()) == []

    def test_takes_no_branch_convention(self, tmp_path):
        # the traced channel always negates the reversed branch's angles, and
        # alpha alone chooses between it and the pure transform
        for keyword, value in (("convention", "opposite"), ("mode", "traced"), ("mode", "pure")):
            with pytest.raises(TypeError, match=keyword):
                run_sweep("w", ["entropy_a"], alpha=0.5, omega1=0.3, **{keyword: value})
            with pytest.raises(TypeError, match=keyword):
                sweep.write_sweep(tmp_path / "x.csv", "w", ["entropy_a"], alpha=0.5, **{keyword: value})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_plan_rejects_a_non_finite_traced_alpha(self, tmp_path, alpha):
        # refused while planning, before any chunk is evaluated or file staged
        with pytest.raises(ValueError, match="alpha must be finite"):
            sweep._plan("w", ["entropy_a"], alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            sweep.write_sweep(tmp_path / "inf.csv", "w", ["entropy_a"], alpha=alpha, omega1=0.3)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_a_value_on_a_tied_axis(self, tmp_path):
        # a tied axis copies its leader, so a grid or angle given for it would be dropped
        out = tmp_path / "tied.csv"
        for ties, axis in ((["omega2=omega1"], "omega2"), (["omega2=omega1", "omega3=omega1"], "omega3")):
            for value in (SweepGrid(0.0, 3.0, 7), 0.4, 0.0):
                kwargs = {"omega1": SweepGrid(0.0, 1.0, 2), axis: value, "ties": ties}
                with pytest.raises(ValueError, match=f"axis {axis} is tied"):
                    run_sweep("w", ["fidelity_w"], **kwargs)
                with pytest.raises(ValueError, match=f"axis {axis} is tied"):
                    sweep.write_sweep(out, "w", ["fidelity_w"], **kwargs)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_duplicate_measures(self):
        with pytest.raises(ValueError, match="duplicate measure"):
            run_sweep("w", ["fidelity_w", "entropy_a", "fidelity_w"], omega1=0.3)

    def test_rejects_sweeps_beyond_the_row_cap(self, monkeypatch):
        def no_grid(self):
            raise AssertionError("the grid was built before the size check")

        monkeypatch.setattr(SweepGrid, "values", no_grid)
        huge = SweepGrid(0.0, TWO_PI, 100_000)
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_sweep("w", ["fidelity_w"], omega1=huge, omega2=huge, omega3=huge)
        # the cap counts rows, so a grid that fits with one measure can overflow with two
        side = math.isqrt(MAX_SWEEP_ROWS)
        grid = SweepGrid(0.0, 1.0, side)
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_sweep("w", ["fidelity_w", "fidelity_wprime"], omega1=grid, omega3=grid, ties=("omega2=omega1",))

    def test_rows_span_chunk_boundaries_in_grid_order(self):
        count = sweep.CHUNK_POINTS + 3
        records = run_sweep("ghz_plus", ["fidelity_gminus", "three_tangle"], omega1=SweepGrid(0.0, 1.0, count))
        assert len(records) == 2 * count
        grid = SweepGrid(0.0, 1.0, count).values()
        assert [r.omega1 for r in records[::2]] == grid.tolist()
        assert [r.measure for r in records[:4]] == ["fidelity_gminus", "three_tangle"] * 2
        psi = product_transform(make_state("ghz_plus"), (grid[-1], 0.0, 0.0))
        assert records[-2].value == fidelity_pure(psi, make_state("ghz_minus"))

    def test_density_operator_only_for_measures_that_read_one(self, monkeypatch):
        # At alpha 0 every measure reads the amplitude rows: no projector stack
        # is built and nothing is partial-traced. Reductions of the rows are
        # formed only for measures that read one.
        def refuse(*args):
            raise AssertionError("the pure sweep formed a projector stack or a partial trace")

        reductions = []

        def recording(kernel):
            def run(rows, keep):
                reductions.append(keep)
                return kernel(rows, keep)

            return run

        for module in (states, lorentz):  # their reductions keep every qubit: projectors
            monkeypatch.setattr(module, "pure_reductions", refuse)
        for module in (sweep, measures):
            monkeypatch.setattr(module, "partial_trace", refuse)
            monkeypatch.setattr(module, "pure_reductions", recording(module.pure_reductions))
        records = run_sweep("w", ["fidelity_w", "fidelity_wprime"], omega1=SweepGrid(0.0, TWO_PI, 9))
        assert len(records) == 18 and reductions == []
        records = run_sweep("w", sweep.MEASURE_IDS, omega1=SweepGrid(0.0, TWO_PI, 9))
        assert len(records) == 9 * len(sweep.MEASURE_IDS)
        capacity, tangle, pairs = [(0,), (1,), (2,)], [(0,), (0, 1), (0, 2)], [(0, 1), (0, 2), (1, 2)]
        assert reductions == capacity + tangle + pairs + [(0,)]  # the last is entropy_a

    def test_batched_norm_check(self, monkeypatch):
        transform = sweep.product_transform_batch
        monkeypatch.setattr(sweep, "product_transform_batch", lambda *args: transform(*args) * (1.0 + 1e-9))
        with pytest.raises(NumericValidationError, match="norm"):
            run_sweep("w", ["fidelity_w"], omega1=SweepGrid(0.0, TWO_PI, 9))

    def test_batched_density_checks(self, monkeypatch):
        # no density stack is eigensolved: the checked norms of its factors
        # certify it, so a corrupted factor (a norm off, or a NaN) stops both routes
        grid = SweepGrid(0.0, TWO_PI, 9)
        transform = lorentz.product_transform_batch

        def scaled(*args, **kwargs):
            return transform(*args, **kwargs) * (1.0 + 1e-9)

        def with_nan(*args, **kwargs):
            rows = transform(*args, **kwargs)
            rows[-1, 0] = np.nan
            return rows

        for fault in (scaled, with_nan):
            monkeypatch.setattr(lorentz, "product_transform_batch", fault)
            with pytest.raises(NumericValidationError, match="norm"):
                run_sweep("w", ["fidelity_w", "entropy_a"], alpha=0.5, omega1=grid)
        monkeypatch.setattr(sweep, "product_transform_batch", with_nan)
        with pytest.raises(NumericValidationError, match="norm nan"):
            run_sweep("w", ["fidelity_w", "entropy_a"], omega1=grid)


def per_point_value(measure, psi, rho):
    """One measure at one point through the public scalar functions."""
    if measure in FIDELITY_TARGETS:
        target = make_state(FIDELITY_TARGETS[measure])
        return fidelity_pure(psi, target) if psi is not None else fidelity_vs_target(rho, target)
    if measure == "avg_capacity":  # a pure state takes the Schmidt-symmetry kernel, as the pure sweep does
        return average_capacity(rho if psi is None else psi).average
    if measure == "three_tangle":
        return three_tangle(psi).three_tangle
    if measure in PAIRS:
        return concurrence(reduced(rho, PAIRS[measure]))
    return von_neumann_entropy(reduced(rho, (0,)))  # entropy_a


PAIRS = {"concurrence_ab": (0, 1), "concurrence_ac": (0, 2), "concurrence_bc": (1, 2)}
TRACED_MEASURES = [m for m in sweep.MEASURE_IDS if m != "three_tangle"]


class TestStackedEqualsPerPoint:
    """run_sweep evaluates whole chunks; every value must equal, bit for bit,
    the one-point public call at that point."""

    @staticmethod
    def _grid_axes(rng):
        # one free axis longer than a chunk, two seeded fixed angles
        omega2, omega3 = rng.uniform(-TWO_PI, TWO_PI, 2)
        return dict(omega1=SweepGrid(-1.0, 7.0, sweep.CHUNK_POINTS + 3), omega2=float(omega2), omega3=float(omega3))

    @pytest.mark.parametrize(
        "state, alpha",
        [("w", math.pi / 4), ("ghz_plus", 0.6), ("w_prime", math.pi / 4), ("ghz_minus", 0.6)],
    )
    def test_traced(self, rng, state, alpha):
        records = run_sweep(state, TRACED_MEASURES, alpha=alpha, **self._grid_axes(rng))
        assert len(records) == len(TRACED_MEASURES) * (sweep.CHUNK_POINTS + 3)
        config = MomentumConfig(alpha)
        for point in range(0, len(records), len(TRACED_MEASURES)):
            row = records[point : point + len(TRACED_MEASURES)]
            rho = momentum_traced_channel(make_state(state), (row[0].omega1, row[0].omega2, row[0].omega3), config)
            for r in row:
                assert r.value == per_point_value(r.measure, None, rho), r

    @pytest.mark.parametrize("state", ["ghz_plus", "w"])
    def test_pure(self, rng, state):
        measures = ["avg_capacity", "three_tangle", "concurrence_ab", "concurrence_ac", "concurrence_bc", "entropy_a"]
        records = run_sweep(state, measures, **self._grid_axes(rng))
        assert len(records) == len(measures) * (sweep.CHUNK_POINTS + 3)
        for point in range(0, len(records), len(measures)):
            row = records[point : point + len(measures)]
            psi = product_transform(make_state(state), (row[0].omega1, row[0].omega2, row[0].omega3))
            rho = to_density(psi)
            for r in row:
                assert r.value == per_point_value(r.measure, psi, rho), r


#: Every kernel through which the chunk core forms a density stack: the
#: traced mix and its two branch projectors (reductions that keep every
#: qubit), the reductions of amplitude rows (pairs, one-qubit marginals) and
#: the partial traces of the traced mix.
DENSITY_KERNELS = (
    (lorentz, "pure_reductions"),
    (sweep, "momentum_traced_channel_batch"),
    (sweep, "pure_reductions"),
    (measures, "pure_reductions"),
    (sweep, "partial_trace"),
    (measures, "partial_trace"),
)


def check_formed_densities(patch):
    """Send every stack a density kernel returns through the full check; count the matrices per kernel."""
    counts = collections.Counter()

    def checked(kernel, key):
        def run(*args):
            stack = kernel(*args)
            validate_density(stack)
            counts[key] += math.prod(stack.shape[:-2])
            return stack

        return run

    for module, name in DENSITY_KERNELS:
        patch.setattr(module, name, checked(getattr(module, name), f"{module.__name__}.{name}"))
    return counts


class TestDensityCertificate:
    """The chunk core checks the norms of its factors and no density it forms:
    on those factors the full eigensolve check cannot fail. These tests run
    the core with that check, at its own tolerances, on every stack it forms."""

    def test_preset_stacks_pass_the_full_check(self, tmp_path, monkeypatch):
        counts = check_formed_densities(monkeypatch)
        for name in sweep.FIGURE_NAMES:
            run_figure(name, tmp_path)
        # presets 3a-4b: 257 points for each of four omega3 values, pure and traced
        points = 4 * 257
        assert counts == {
            "wignerqi.lorentz.pure_reductions": 2 * 4 * points,  # both branches of every traced point
            "wignerqi.sweep.momentum_traced_channel_batch": 4 * points,
            "wignerqi.sweep.partial_trace": 2 * 3 * points,  # traced pair concurrences of 4a, 4b
            "wignerqi.measures.partial_trace": 2 * 6 * points,  # traced capacities: three pairs and their marginals
            # pure capacities: three one-qubit marginals; pure tangles: one one-qubit marginal and two pairs
            "wignerqi.measures.pure_reductions": 2 * 3 * points + 2 * 3 * points,
        }

    @settings(max_examples=100, deadline=None)
    @given(
        state=st.sampled_from(STATE_TAGS),
        alpha=st.one_of(st.just(0.0), st.floats(min_value=-math.pi, max_value=math.pi)),
        angles=st.lists(st.floats(min_value=-4 * math.pi, max_value=4 * math.pi), min_size=3, max_size=3),
    )
    def test_stacks_pass_the_full_check(self, state, alpha, angles):
        # alpha 0 (or -0.0) takes the pure route, which alone measures the three-tangle
        traced = alpha != 0.0
        axes = dict(zip(("omega1", "omega2", "omega3"), angles))
        measures = TRACED_MEASURES if traced else sweep.MEASURE_IDS
        with pytest.MonkeyPatch.context() as patch:
            counts = check_formed_densities(patch)
            run_sweep(state, measures, alpha=alpha, **axes)
        # one point's reductions: the sweep's three pairs and entropy_a, and six
        # in measures (the capacity's three pairs and marginals, or at alpha 0
        # its three marginals and the tangle's marginal and two pairs)
        kernel = "partial_trace" if traced else "pure_reductions"
        expected = {f"sweep.{kernel}": 4, f"measures.{kernel}": 6}
        if traced:  # the mix and its two branch projectors
            expected.update({"sweep.momentum_traced_channel_batch": 1, "lorentz.pure_reductions": 2})
        assert counts == {f"wignerqi.{key}": count for key, count in expected.items()}

    @settings(max_examples=100, deadline=None)
    @given(
        state=st.one_of(st.sampled_from(STATE_TAGS), st.integers(min_value=0, max_value=2**32 - 1)),
        alpha=st.floats(min_value=-math.pi, max_value=math.pi),
        angles=st.lists(st.floats(min_value=-4 * math.pi, max_value=4 * math.pi), min_size=3, max_size=3),
    )
    def test_scalar_outputs_pass_the_full_check(self, state, alpha, angles):
        """to_density and momentum_traced_channel return operators no eigensolve checks."""
        if isinstance(state, str):
            psi = make_state(state)
        else:  # a Haar-random state, seeded by the drawn integer
            amps = np.random.default_rng(state).standard_normal(16).view(complex)
            psi = PureState(amps / np.linalg.norm(amps))
        validate_density(to_density(product_transform(psi, angles)).matrix)
        validate_density(momentum_traced_channel(psi, angles, MomentumConfig(alpha)).matrix)


class TestPairReuse:
    """Each family preset ties omega2 to omega1 and all four states are
    symmetric under qubit exchange, so rho_ac and rho_bc of a traced point are
    one state, and often equal bit for bit. A pair matrix equal bit for bit to
    an earlier pair's at the same point is not eigensolved again, and the
    others reach the kernel in one call per chunk."""

    @pytest.mark.parametrize("name", ["3a", "3b", "4a", "4b"])
    def test_traced_pair_kernels_see_each_matrix_once(self, tmp_path, monkeypatch, name):
        states, seen, clamped = [], [], []
        channel, clamp = sweep.momentum_traced_channel_batch, measures.clamp_capacity_batch
        concurrences, entropies = measures.concurrence_batch, measures.von_neumann_entropy_batch

        def recording(kernel, log, keep=lambda x: True):  # logs the first argument
            def run(x, *args):
                if keep(x):
                    log.append(x.copy())
                return kernel(x, *args)

            return run

        def traced(*args):  # logs the output
            states.append(channel(*args))
            return states[-1]

        monkeypatch.setattr(sweep, "momentum_traced_channel_batch", traced)
        monkeypatch.setattr(measures, "clamp_capacity_batch", recording(clamp, clamped))
        if name.startswith("3"):  # the joint entropies; the sender marginals are qubits
            joint = recording(entropies, seen, lambda x: x.shape[-1] == 4)
            monkeypatch.setattr(measures, "von_neumann_entropy_batch", joint)
        else:  # the traced pair concurrences (the pure tangles call measures.concurrence_batch)
            monkeypatch.setattr(sweep, "concurrence_batch", recording(concurrences, seen))
        run_figure(name, tmp_path)
        assert len(states) == 4 and all(len(state) == 257 for state in states)  # one chunk per traced plan
        expected = []
        for state in states:
            ab, ac, bc = (partial_trace(state, pair) for pair in PAIRS.values())
            bits = [stack.view(np.uint64) for stack in (ab, ac, bc)]

            def equal(i, j):
                return (bits[i] == bits[j]).all(axis=(-2, -1))

            new_ac, new_bc = ~equal(1, 0), ~(equal(2, 0) | equal(2, 1))
            if name.endswith("a"):  # GHZ: every bc equals its ac
                assert not new_bc.any()
            expected.append(np.concatenate([ab, ac[new_ac], bc[new_bc]]))
        # one kernel call per traced plan, on ab and then the new ac and bc rows
        assert [len(stack) for stack in seen] == [len(stack) for stack in expected]
        for got, want in zip(seen, expected):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        rows = sum(map(len, seen))
        if name.endswith("a"):  # at most 2 x 257 matrices a plan, of the 3 x 257 pair states
            assert rows <= 2 * 257 * 4
        else:  # W: bc reuses some of its rows
            assert 2 * 257 * 4 < rows < 3 * 257 * 4
        if name.startswith("3"):
            # the capacities and their clamp warnings are formed from the full arrays,
            # bit for bit the values of eigensolving every pair
            traced = clamped[1::2]  # each omega3 runs the pure plan, then the traced one
            assert len(traced) == 4
            for state, raw in zip(states, traced):
                pairs = np.stack([partial_trace(state, pair) for pair in PAIRS.values()])
                full = 1.0 + entropies(partial_trace(pairs, (0,))) - entropies(pairs)
                assert np.array_equal(raw.view(np.uint64), full.view(np.uint64))


class TestWriteCsv:
    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_csv([], path) == 0
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_single_record_exact_bytes(self, tmp_path):
        path = tmp_path / "one.csv"
        record = MeasureRecord("ghz_plus", 0.0, 0.0, 0.0, 0.0, "fidelity_gplus", 1.0)
        assert write_csv([record], path) == 1
        assert path.read_text() == CSV_HEADER + "\nghz_plus,0,0,0,0,fidelity_gplus,1\n"

    def test_row_count_preserved(self, tmp_path):
        records = run_sweep(
            "ghz_plus",
            ["fidelity_gplus"],
            omega1=SweepGrid(0.0, TWO_PI, 257),
            ties=("omega2=omega1", "omega3=omega1"),
        )
        path = tmp_path / "curve.csv"
        assert write_csv(records, path) == 257
        assert len(path.read_text().splitlines()) == 258

    def test_reruns_byte_identical(self, tmp_path):
        kwargs = dict(omega1=SweepGrid(0.0, TWO_PI, 33), ties=("omega2=omega1", "omega3=omega1"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(run_sweep("w", ["fidelity_w"], **kwargs), a)
        write_csv(run_sweep("w", ["fidelity_w"], **kwargs), b)
        assert a.read_bytes() == b.read_bytes()

    def test_failure_leaves_no_file_and_keeps_the_old_one(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous contents\n")

        def records():
            yield MeasureRecord("w", 0.0, 0.0, 0.0, 0.0, "fidelity_w", 1.0)
            raise NumericValidationError("synthetic failure mid-write")

        with pytest.raises(NumericValidationError):
            write_csv(records(), path)
        assert path.read_text() == "previous contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        write_csv([MeasureRecord("w", 0.0, math.pi, 0.0, 0.0, "entropy_a", 1 / 3)], path)
        row = path.read_text().splitlines()[1]
        assert row == "w,0,3.14159265359,0,0,entropy_a,0.333333333333"


def figure_columns(name, out_dir):
    """The value column of each CSV that run_figure writes, keyed by measure id."""
    columns = {}
    for path, count in run_figure(name, out_dir):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == count
        (measure,) = {row[5] for row in rows}
        columns[measure] = np.array([float(row[6]) for row in rows])
    return columns


class TestFigurePresets:
    def test_slice_preset_groups(self, tmp_path):
        columns = figure_columns("1c", tmp_path)
        assert sorted(columns) == ["fidelity_gminus", "fidelity_gplus"]
        assert all(column.size == 257 for column in columns.values())

    def test_family_preset_groups(self, tmp_path):
        columns = figure_columns("4a", tmp_path)
        assert sorted(columns) == [
            "concurrence_ab.traced",
            "concurrence_ac.traced",
            "concurrence_bc.traced",
            "three_tangle.pure",
        ]
        assert columns["three_tangle.pure"].size == 4 * 257
        # constant by local-unitary invariance
        np.testing.assert_allclose(columns["three_tangle.pure"], 1.0, atol=1e-9)
        # ghz pair reductions are separable and the traced mixture keeps them so
        np.testing.assert_allclose(columns["concurrence_ab.traced"], 0.0, atol=1e-9)

    def test_family_preset_traced_decay_for_w(self, tmp_path):
        columns = figure_columns("4b", tmp_path)
        np.testing.assert_allclose(columns["three_tangle.pure"], 0.0, atol=1e-8)
        traced = columns["concurrence_ab.traced"]
        assert traced.max() > 0.6 and traced.min() < 0.4  # angle-dependent decay

    @pytest.mark.parametrize("name", sweep.FIGURE_NAMES)
    def test_preset_bytes_match_the_golden_hashes(self, tmp_path, name):
        # bench/golden.json holds the SHA-256 of every preset CSV; a change
        # that alters any byte on purpose rewrites it (bench/run.py --regen-golden).
        golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())[name]
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path, _ in run_figure(name, tmp_path)}
        assert written == golden

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure preset"):
            run_figure("9z", tmp_path)


class TestStreamedFigures:
    def test_streamed_surface_equals_list_route(self, tmp_path):
        (path, count), = run_figure("1a", tmp_path / "streamed")
        records = run_sweep(
            "ghz_plus",
            ["fidelity_gplus"],
            omega1=SweepGrid(0.0, TWO_PI, 129),
            omega3=SweepGrid(0.0, TWO_PI, 129),
            ties=("omega2=omega1",),
        )
        listed = tmp_path / "listed.csv"
        assert write_csv(records, listed) == count == 129 * 129
        assert path.read_bytes() == listed.read_bytes()

    def test_streamed_family_equals_grouped_records(self, tmp_path):
        written = run_figure("4a", tmp_path)
        # The list route: one run_sweep per omega3 and alpha, measure ids
        # suffixed with the model and grouped in order of first appearance.
        groups = {}
        sweeps = (
            (".pure", 0.0, ["three_tangle"]),
            (".traced", math.pi / 4, ["concurrence_ab", "concurrence_ac", "concurrence_bc"]),
        )
        for omega3 in (0.0, math.pi / 3, math.pi / 4, math.pi / 6):
            for suffix, alpha, measures in sweeps:
                axes = dict(omega1=SweepGrid(0.0, TWO_PI, 257), omega3=omega3, ties=("omega2=omega1",))
                for r in run_sweep("ghz_plus", measures, alpha=alpha, **axes):
                    measure = r.measure + suffix
                    groups.setdefault(measure, []).append(dataclasses.replace(r, measure=measure))
        assert [path.name for path, _ in written] == [
            f"fig4a_{measure.replace('.', '_')}.csv" for measure in groups
        ]
        for (path, count), records in zip(written, groups.values()):
            listed = tmp_path / "listed.csv.txt"
            assert write_csv(records, listed) == count
            assert path.read_bytes() == listed.read_bytes()

    def test_streamed_bytes_equal_write_csv_on_edge_values(self, tmp_path, monkeypatch):
        edges = np.array([-0.0, 5e-324, 1e16, 1e-5, 9.9999999999995e-5, 123456789012.5, -1.5, math.inf, math.nan])

        def edge_column(amplitudes, target):
            # a different rotation of the edge values for each target
            return np.roll(np.resize(edges, len(amplitudes)), int(np.abs(target).argmax()))

        monkeypatch.setattr(sweep, "fidelity_pure_batch", edge_column)
        # two measures share one file, and the grid spans a chunk boundary
        options = dict(omega1=SweepGrid(-1.0, 1.0, sweep.CHUNK_POINTS + 3), omega2=-0.0, omega3=1e-5)
        streamed, listed = tmp_path / "streamed.csv", tmp_path / "listed.csv"
        count = sweep.write_sweep(streamed, "w", ["fidelity_w", "fidelity_gplus"], **options)
        assert write_csv(run_sweep("w", ["fidelity_w", "fidelity_gplus"], **options), listed) == count
        assert count == 2 * (sweep.CHUNK_POINTS + 3)
        assert streamed.read_bytes() == listed.read_bytes()
        assert b",0,1e-05,fidelity_w,0\n" in streamed.read_bytes()  # -0.0 is written as 0

    @pytest.mark.parametrize(("name", "calls"), [("1a", 1), ("4a", 5)])
    def test_grid_rotations_are_shared_within_one_call_only(self, tmp_path, monkeypatch, name, calls):
        # 1a: both free axes read the same 129-node grid; 4a: the 257-node
        # grid and the four omega3 values, shared by its eight sweeps
        counted = []

        def counting(omegas):
            counted.append(len(omegas))
            return lorentz.wigner_unitaries(omegas)

        monkeypatch.setattr(sweep, "wigner_unitaries", counting)
        for _ in range(2):
            counted.clear()
            run_figure(name, tmp_path)
            assert len(counted) == calls

    @pytest.mark.parametrize("name", ["1a", "1b", "2a", "2b", "1c", "2c"])
    def test_batched_fidelity_text_equals_per_point_vdot(self, tmp_path, name, per_point_amplitudes):
        # Recompute every row the per-point way: one transform and one np.vdot per point.
        for path, _ in run_figure(name, tmp_path):
            lines = path.read_text().splitlines()
            assert lines[0] == CSV_HEADER
            for line in lines[1:]:
                state, alpha, o1, o2, o3, measure, value = line.split(",")
                angles = tuple(AXIS_VALUES[name][text] for text in (o1, o2, o3))
                target = make_state(FIDELITY_TARGETS[measure]).amplitudes
                expected = abs(np.vdot(per_point_amplitudes(state, angles), target)) ** 2
                assert value == format(expected, ".12g"), line


FIDELITY_TARGETS = {
    "fidelity_gplus": "ghz_plus",
    "fidelity_gminus": "ghz_minus",
    "fidelity_w": "w",
    "fidelity_wprime": "w_prime",
}
AXIS_VALUES = {
    name: {format(float(v), ".12g"): float(v) for v in SweepGrid(0.0, TWO_PI, count).values()}
    for name, count in {"1a": 129, "1b": 129, "2a": 129, "2b": 129, "1c": 257, "2c": 257}.items()
}


@pytest.fixture(scope="module")
def per_point_amplitudes():
    """product_transform per point, memoized for the module (1a/1b and 2a/2b share their states)."""
    cache = {}

    def amplitudes(state, angles):
        if (state, angles) not in cache:
            cache[state, angles] = product_transform(make_state(state), angles).amplitudes
        return cache[state, angles]

    return amplitudes

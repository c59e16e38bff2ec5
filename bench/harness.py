"""Workloads, tracing and correctness checks of the wignerqi benchmark.

This module runs inside the workload's child process (see ``run.py``),
imports ``wignerqi`` from the checkout's ``src/`` and drives it only through
its public entry points: ``wignerqi.cli.main`` for the preset workloads and
the scalar functions of ``lorentz``, ``states`` and ``measures`` for the
point-query stream and the traced replay. ``wignerqi.oracle`` is used to
check answers, never inside a timed region.

Run as a script it executes one workload and prints one JSON object::

    PYTHONPATH=src python3 bench/harness.py --workload point_queries \\
        --seed 1 --seconds 5 --trace 0 --workdir .bench_work/x
"""

from __future__ import annotations

import argparse
import array
import contextlib
import functools
import gzip
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import reference
import wignerqi
from wignerqi import cli, lorentz, measures, oracle, qmath, states, sweep

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

PRESET_WORKLOADS = {
    "surfaces_pure": ("1a", "1b", "2a", "2b", "1c", "2c"),
    "families_traced": ("3a", "3b", "4a", "4b"),
}
WORKLOADS = (*PRESET_WORKLOADS, "point_queries")

FIDELITY_TARGETS = {
    "fidelity_gplus": "ghz_plus",
    "fidelity_gminus": "ghz_minus",
    "fidelity_w": "w",
    "fidelity_wprime": "w_prime",
}
PAIRS = {"concurrence_ab": (0, 1), "concurrence_ac": (0, 2), "concurrence_bc": (1, 2)}
QUERY_ALPHA = math.pi / 4.0
TRACED_MEASURES = tuple(m for m in sweep.MEASURE_IDS if m != "three_tangle")

# Public functions whose calls the traced replay records as spans, by the
# metric prefix they report under.
LAYER_FUNCTIONS = {
    "lorentz.product_transform": lorentz.product_transform,
    "lorentz.momentum_traced_channel": lorentz.momentum_traced_channel,
    "states.make_state": states.make_state,
    "states.to_density": states.to_density,
    "states.reduced": states.reduced,
    "states.validate_density": states.validate_density,
    "qmath.partial_trace": qmath.partial_trace,
    "qmath.matrix_sqrt_psd": qmath.matrix_sqrt_psd,
    "measures.fidelity_pure": measures.fidelity_pure,
    "measures.fidelity_vs_target": measures.fidelity_vs_target,
    "measures.von_neumann_entropy": measures.von_neumann_entropy,
    "measures.average_capacity": measures.average_capacity,
    "measures.concurrence": measures.concurrence,
    "measures.three_tangle": measures.three_tangle,
    "sweep.write_csv": sweep.write_csv,
}
LINALG_FUNCTIONS = ("eigh", "eigvalsh", "svd")

# Size of the seeded point stream that times the layers a preset workload
# never calls, so every per-layer name carries a measured value.
PROBE_QUERIES = 2000
# Queries between two reference-loop samples; in a traced point_queries run
# also the size of each untraced / counted / traced block.
QUERY_BLOCK = 200
CHECK_TOL = 1e-9


class Failures:
    """Attempted and failed operations, with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans around calls into the layers' public functions.

    Each span is ``(name, start_ns, end_ns, parent_index, request)``; the
    parent is the enclosing traced call (-1 at top level) and ``request``
    numbers the replayed row or query that caused it.
    """

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its direct children cover."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def durations_ns(self, first: int = 0) -> list[float]:
        """Inclusive durations, from span ``first`` on, less the cost of
        recording the spans nested in them. ``first`` must be a top-level span."""
        spans = self.spans[first:]
        nested = [0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0:
                nested[parent - first] += nested[i] + 1
        cost = span_cost_ns()
        return [end - start - nested[i] * cost for i, (_, start, end, _, _) in enumerate(spans)]

    def totals(self) -> dict[str, list]:
        """Per name: [calls, inclusive ns]."""
        out: dict[str, list] = {}
        for (name, *_), duration in zip(self.spans, self.durations_ns()):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        return out

    def top_level_ns(self, first: int = 0, exclude: str = "") -> float:
        """Inclusive time of the top-level spans from index ``first`` on."""
        return sum(
            duration
            for (name, _, _, parent, _), duration in zip(self.spans[first:], self.durations_ns(first))
            if parent < 0 and name != exclude
        )

    def write(self, path: Path):
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start_ns,end_ns,parent,request\n")
            for span in self.spans:
                handle.write("%s,%d,%d,%d,%d\n" % span)


def _noop():
    return None


@functools.cache
def span_cost_ns() -> float:
    """Time one traced call adds over a bare call, median of five batches."""
    wrapped = Tracer().wrap("calibration", _noop)
    clock = time.perf_counter_ns
    batches = []
    for _ in range(5):
        t0 = clock()
        for _ in range(20000):
            wrapped()
        t1 = clock()
        for _ in range(20000):
            _noop()
        t2 = clock()
        batches.append(((t1 - t0) - (t2 - t1)) / 20000)
    return float(np.median(batches))


def _wignerqi_modules():
    return [m for n, m in list(sys.modules.items()) if n == "wignerqi" or n.startswith("wignerqi.")]


@contextlib.contextmanager
def patched(replacements: dict[int, object]):
    """Rebind, in every wignerqi module, each name bound to a replaced function.

    ``replacements`` maps ``id(original)`` to its wrapper. Module globals are
    looked up at call time, so calls between the package's own modules go
    through the wrappers too; the originals are restored on exit.
    """
    undo = []
    for module in _wignerqi_modules():
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def traced_layers(tracer: Tracer):
    return patched({id(fn): tracer.wrap(name, fn) for name, fn in LAYER_FUNCTIONS.items()})


@contextlib.contextmanager
def counted_linalg(counts: dict[str, int]):
    """Count calls to the numpy.linalg spectra while the block runs."""
    originals = {name: getattr(np.linalg, name) for name in LINALG_FUNCTIONS}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in originals.items():
        setattr(np.linalg, name, counting(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)


# ---------------------------------------------------------------- evaluation


def evaluate(measure: str, psi, rho) -> float:
    """One measure value through the scalar API, as a sweep row computes it.

    ``psi`` is the boosted pure state (None in traced mode) and ``rho`` the
    density operator (None where the measure does not need it).
    """
    if measure in FIDELITY_TARGETS:
        target = states.make_state(FIDELITY_TARGETS[measure])
        if psi is not None:
            return measures.fidelity_pure(psi, target)
        return measures.fidelity_vs_target(rho, target)
    if measure == "three_tangle":
        return measures.three_tangle(psi).three_tangle
    if measure == "avg_capacity":
        return measures.average_capacity(rho).average
    if measure in PAIRS:
        return measures.concurrence(states.reduced(rho, PAIRS[measure]))
    if measure == "entropy_a":
        return measures.von_neumann_entropy(states.reduced(rho, (0,)))
    raise ValueError(f"unknown measure {measure!r}")


def answer(query) -> float:
    """A single-point query, as in the README quick start."""
    tag, angles, mode, measure = query
    psi0 = states.make_state(tag)
    if mode == "pure":
        psi = lorentz.product_transform(psi0, angles)
        needs_rho = measure not in FIDELITY_TARGETS and measure != "three_tangle"
        return float(evaluate(measure, psi, states.to_density(psi) if needs_rho else None))
    rho = lorentz.momentum_traced_channel(psi0, angles, lorentz.MomentumConfig(QUERY_ALPHA))
    return float(evaluate(measure, None, rho))


def point_stream(seed: int, chunk: int = 1024):
    """Endless seeded stream of (tag, angles, mode, measure) queries."""
    rng = np.random.default_rng(seed)
    pure_ids = sweep.MEASURE_IDS
    while True:
        tags = rng.integers(0, len(states.STATE_TAGS), chunk)
        angles = rng.uniform(0.0, 2.0 * math.pi, (chunk, 3))
        traced = rng.integers(0, 2, chunk)
        picks = rng.random(chunk)
        for i in range(chunk):
            ids = TRACED_MEASURES if traced[i] else pure_ids
            yield (
                states.STATE_TAGS[int(tags[i])],
                lorentz.WignerAngles(*(float(a) for a in angles[i])),
                "traced" if traced[i] else "pure",
                ids[int(picks[i] * len(ids))],
            )


class QueryChecker:
    """Independent checks of point-query answers, run outside timed regions."""

    def __init__(self):
        self._unboosted: dict[tuple[str, str], float] = {}

    def unboosted(self, tag: str, measure: str) -> float:
        key = (tag, measure)
        if key not in self._unboosted:
            self._unboosted[key] = answer((tag, (0.0, 0.0, 0.0), "pure", measure))
        return self._unboosted[key]

    def check(self, query, value: float) -> str:
        """Empty string if ``value`` is right for ``query``, else the reason."""
        tag, angles, mode, measure = query
        if not math.isfinite(value):
            return f"{query}: non-finite {value!r}"
        psi0 = states.make_state(tag)
        if mode == "pure":
            if measure in FIDELITY_TARGETS:
                boosted = oracle.oracle_transform(psi0, angles).amplitudes
                target = states.make_state(FIDELITY_TARGETS[measure]).amplitudes
                expected = abs(np.vdot(target, boosted)) ** 2
            elif measure == "three_tangle":
                expected = oracle.oracle_three_tangle(oracle.oracle_transform(psi0, angles))
            else:  # local-unitary invariance: the boost leaves these unchanged
                expected = self.unboosted(tag, measure)
            if abs(value - expected) > CHECK_TOL:
                return f"{query}: {value!r} != reference {expected!r}"
            return ""
        if measure in FIDELITY_TARGETS:
            target = states.make_state(FIDELITY_TARGETS[measure]).amplitudes
            forward = oracle.oracle_transform(psi0, angles).amplitudes
            reverse = oracle.oracle_transform(psi0, tuple(-a for a in angles)).amplitudes
            expected = (
                math.cos(QUERY_ALPHA) ** 2 * abs(np.vdot(target, forward)) ** 2
                + math.sin(QUERY_ALPHA) ** 2 * abs(np.vdot(target, reverse)) ** 2
            )
            if abs(value - expected) > CHECK_TOL:
                return f"{query}: {value!r} != two-branch reference {expected!r}"
            return ""
        upper = 2.0 if measure == "avg_capacity" else 1.0
        if not -1e-12 <= value <= upper + 1e-12:
            return f"{query}: {value!r} outside [0, {upper}]"
        return ""


# ---------------------------------------------------------------- presets


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text())


def csv_hashes(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob("*.csv"))}


def csv_rows(directory: Path) -> int:
    return sum(p.read_bytes().count(b"\n") - 1 for p in directory.glob("*.csv"))


def run_preset(name: str, out_dir: Path, failures: Failures, golden) -> float | None:
    """``wignerqi figure <name>`` in-process; returns its wall time.

    The output directory is emptied before the timed call. Every CSV is
    compared with its golden SHA-256 afterwards, outside the timed region;
    a mismatch is a counted failure. Returns None if the command raised or
    exited nonzero.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    sink = io.StringIO()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["figure", name, "--out-dir", str(out_dir)])
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a crashing command is a counted failure
        failures.record(False, f"figure {name}: {type(exc).__name__}: {exc}")
        return None
    if code != 0:
        failures.record(False, f"figure {name}: exit {code}")
        return None
    failures.record(csv_hashes(out_dir) == golden[name], f"figure {name}: CSV hashes differ from golden")
    return elapsed


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".12g")


def _lookup(values) -> dict[str, float]:
    return {_fmt(v): float(v) for v in values}


def _preset_axes(name: str) -> dict[str, dict[str, float]]:
    """Exact floats behind the angle and alpha texts of a preset's CSVs.

    The CSVs hold 12 significant digits; replaying a row needs the exact
    grid value to reproduce its bytes. The grids are those documented in
    ``wignerqi.sweep.figure_records``.
    """
    grid_2d = _lookup(sweep.SweepGrid(0.0, 2.0 * math.pi, 129).values())
    grid_1d = _lookup(sweep.SweepGrid(0.0, 2.0 * math.pi, 257).values())
    alpha = _lookup((0.0, math.pi / 4.0))
    if name in ("1a", "1b", "2a", "2b"):
        return {"alpha": alpha, "omega1": grid_2d, "omega2": grid_2d, "omega3": grid_2d}
    if name in ("1c", "2c"):
        return {"alpha": alpha, "omega1": grid_1d, "omega2": grid_1d, "omega3": grid_1d}
    family = _lookup((0.0, math.pi / 3.0, math.pi / 4.0, math.pi / 6.0))
    return {"alpha": alpha, "omega1": grid_1d, "omega2": grid_1d, "omega3": family}


def parse_preset_rows(name: str, directory: Path):
    """Rows of a preset's CSVs as ``{file: [(state, alpha, o1, o2, o3, measure)]}``."""
    axes = _preset_axes(name)
    files = {}
    for path in sorted(directory.glob("*.csv")):
        lines = path.read_text().splitlines()
        if lines[0] != sweep.CSV_HEADER:
            raise ValueError(f"{path.name}: unexpected header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            state, alpha, o1, o2, o3, measure, _ = line.split(",")
            rows.append(
                (
                    state,
                    axes["alpha"][alpha],
                    axes["omega1"][o1],
                    axes["omega2"][o2],
                    axes["omega3"][o3],
                    measure,
                )
            )
        files[path.name] = rows
    return files


def replay_preset(files, out_dir: Path, tracer: Tracer | None = None):
    """Recompute every row through the scalar API and write it with write_csv.

    Rows of one point (same state, alpha, angles and mode, across the
    preset's files) share one transform, as in ``run_sweep``. Returns the
    wall time and the row count. Run it under :func:`traced_layers` to
    record the layer spans; ``tracer.request`` then numbers the points.
    """
    points: dict[tuple, list] = {}
    values = {}
    for fname, rows in files.items():
        values[fname] = [0.0] * len(rows)
        for index, (state, alpha, o1, o2, o3, measure) in enumerate(rows):
            base, _, suffix = measure.partition(".")
            key = (state, alpha, o1, o2, o3, suffix == "traced")
            points.setdefault(key, []).append((fname, index, base))
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    initial = {}
    for (state, alpha, o1, o2, o3, traced), rows in points.items():
        if tracer is not None:
            tracer.request += 1
        psi0 = initial.get(state)
        if psi0 is None:
            psi0 = initial[state] = states.make_state(state)
        angles = lorentz.WignerAngles(o1, o2, o3)
        if traced:
            psi = None
            rho = lorentz.momentum_traced_channel(psi0, angles, lorentz.MomentumConfig(alpha))
        else:
            psi = lorentz.product_transform(psi0, angles)
            rho = states.to_density(psi)
        for fname, index, base in rows:
            values[fname][index] = float(evaluate(base, psi, rho))
    for fname, rows in files.items():
        records = [
            sweep.MeasureRecord(state, alpha, o1, o2, o3, measure, value)
            for (state, alpha, o1, o2, o3, measure), value in zip(rows, values[fname])
        ]
        sweep.write_csv(records, out_dir / fname)
    return time.perf_counter() - start, sum(len(rows) for rows in files.values())


# ---------------------------------------------------------------- workloads


def percentile_us(samples_ns, q: float) -> float:
    return float(np.percentile(np.asarray(samples_ns, dtype=float), q)) / 1e3


def presets_untraced(workload: str, seconds: float, workdir: Path, failures: Failures, golden, speed) -> dict:
    """Closed loop over the workload's presets, one ``wignerqi figure`` at a time.

    Repeats whole passes over the presets until ``seconds`` have passed, so
    every preset has the same number of samples. Throughput divides one
    pass's rows by the sum of each preset's median time. The reference loop
    runs between commands, its times appended to ``speed``.
    """
    presets = PRESET_WORKLOADS[workload]
    times: dict[str, list[float]] = {name: [] for name in presets}
    rows: dict[str, int] = {}
    out = workdir / "csv"
    start = time.perf_counter()
    while True:
        for name in presets:
            speed.append(reference.measure())
            elapsed = run_preset(name, out, failures, golden)
            if elapsed is not None:
                times[name].append(elapsed)
                rows[name] = csv_rows(out)
        if time.perf_counter() - start >= seconds:
            break
    measured = [name for name in presets if times[name]]
    if not measured:
        return {}
    latencies_ns = [t * 1e9 for name in measured for t in times[name]]
    return {
        "rows_per_s": sum(rows[n] for n in measured) / sum(float(np.median(times[n])) for n in measured),
        "query_us_p50": percentile_us(latencies_ns, 50),
        "query_us_p99": percentile_us(latencies_ns, 99),
    }


def timed_answer(query):
    start = time.perf_counter_ns()
    value = answer(query)
    return value, time.perf_counter_ns() - start


def checked_answer(query, failures: Failures, checker: QueryChecker):
    """Time one query, then check it outside the timed region.

    Returns ``(value, ns)``, or None if the query raised or failed its check.
    """
    try:
        value, elapsed = timed_answer(query)
    except Exception as exc:  # a raising query is a counted failure
        failures.record(False, f"{query}: {type(exc).__name__}: {exc}")
        return None
    reason = checker.check(query, value)
    return (value, elapsed) if failures.record(not reason, reason) else None


def queries_untraced(seed: int, seconds: float, failures: Failures, speed) -> array.array:
    """Closed loop of single-point queries; latencies in ns of the correct ones.

    The reference loop runs between blocks of queries, its times appended
    to ``speed``.
    """
    checker = QueryChecker()
    latencies = array.array("q")
    stream = point_stream(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        speed.append(reference.measure())
        for _ in range(QUERY_BLOCK):
            answered = checked_answer(next(stream), failures, checker)
            if answered is not None:
                latencies.append(answered[1])
    return latencies


def query_metrics(latencies) -> dict:
    return {
        "rows_per_s": len(latencies) / (sum(latencies) / 1e9),
        "query_us_p50": percentile_us(latencies, 50),
        "query_us_p99": percentile_us(latencies, 99),
    }


def probe_totals(seed: int, failures: Failures) -> dict[str, list[int]]:
    """Layer totals of a short traced point stream, for layers a workload never calls."""
    tracer = Tracer()
    checker = QueryChecker()
    stream = point_stream(seed)
    results = []
    with traced_layers(tracer):
        for _ in range(PROBE_QUERIES):
            query = next(stream)
            tracer.request += 1
            results.append((query, answer(query)))
    for query, value in results:
        reason = checker.check(query, value)
        failures.record(not reason, reason)
    return tracer.totals()


class LayerRun:
    """What a traced run accumulates besides the spans themselves."""

    def __init__(self):
        self.tracer = Tracer()
        self.linalg: dict[str, int] = {}
        self.linalg_rows = 0
        self.rows = 0
        self.untraced_s = 0.0
        self.replay_s = 0.0
        self.glue_ns = 0
        self.csv_bytes = 0

    def metrics(self, totals, probe) -> dict:
        """Per-layer metrics from this run's span totals; layers it never
        called take their per-call time from the ``probe`` totals."""
        out = {}
        for name in LAYER_FUNCTIONS:
            if name != "sweep.write_csv":
                calls, ns = totals.get(name) or probe[name]
                out[f"{name}.us_per_call"] = ns / calls / 1e3
        _, write_ns = totals["sweep.write_csv"]
        validate_calls, validate_ns = totals.get("states.validate_density", (0, 0))
        out.update(
            {
                "sweep.write_csv.us_per_row": write_ns / 1e3 / self.rows,
                "sweep.write_csv.mb_per_s": self.csv_bytes / 1e6 / (write_ns / 1e9),
                "sweep.glue.us_per_row": self.glue_ns / 1e3 / self.rows,
                "states.validate_density.calls_per_row": validate_calls / self.rows,
                "states.validate_share": validate_ns / self.tracer.top_level_ns(),
                "qmath.linalg_calls_per_row": sum(self.linalg.values()) / self.linalg_rows,
                "trace.overhead_ratio": self.replay_s / self.untraced_s,
            }
        )
        return out


def presets_traced(workload: str, seconds: float, workdir: Path, failures: Failures, golden, speed) -> LayerRun:
    """Linalg-counted pass, untraced pass and traced replay, preset by preset.

    The untraced pass and the replay run back to back so that machine drift
    between them stays small. Repeats whole rounds over the workload's
    presets until ``seconds`` have passed. The replay must render the same
    CSV bytes as the untraced pass.
    """
    run = LayerRun()
    tracer = run.tracer
    untraced, counted, replayed = workdir / "untraced", workdir / "counted", workdir / "replay"
    start = time.perf_counter()
    while True:
        for name in PRESET_WORKLOADS[workload]:
            speed.append(reference.measure())
            with counted_linalg(run.linalg):
                if run_preset(name, counted, failures, golden) is not None:
                    run.linalg_rows += csv_rows(counted)
            untraced_s = run_preset(name, untraced, failures, golden)
            if untraced_s is None:
                continue
            try:
                files = parse_preset_rows(name, untraced)
            except (KeyError, ValueError) as exc:
                failures.record(False, f"replay {name}: unparsable row: {exc}")
                continue
            shutil.rmtree(replayed, ignore_errors=True)
            first = len(tracer.spans)
            try:
                with traced_layers(tracer):
                    replay_s, rows = replay_preset(files, replayed, tracer)
            except Exception as exc:  # a raising replay is a counted failure
                failures.record(False, f"replay {name}: {type(exc).__name__}: {exc}")
                continue
            if not failures.record(
                csv_hashes(replayed) == csv_hashes(untraced), f"replay {name}: CSV text differs from untraced pass"
            ):
                continue
            run.rows += rows
            run.untraced_s += untraced_s
            run.replay_s += replay_s
            run.glue_ns += untraced_s * 1e9 - tracer.top_level_ns(first)
            run.csv_bytes += sum(p.stat().st_size for p in replayed.glob("*.csv"))
        if time.perf_counter() - start >= seconds:
            return run


def queries_traced(seed: int, seconds: float, workdir: Path, failures: Failures, speed) -> LayerRun:
    """Blocks of queries, each answered untraced, then linalg-counted, then
    replayed under spans; all three must agree. Blocks last a fraction of a
    second, so machine drift cancels between the untraced and traced times.
    The replay then writes all answers as one CSV through ``write_csv``.
    """
    run = LayerRun()
    tracer = run.tracer
    checker = QueryChecker()
    stream = point_stream(seed)
    records = []
    untraced_ns = replay_ns = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        speed.append(reference.measure())
        block = []
        for _ in range(QUERY_BLOCK):
            query = next(stream)
            answered = checked_answer(query, failures, checker)
            if answered is not None:
                block.append((query, answered[0]))
                untraced_ns += answered[1]
        with counted_linalg(run.linalg):
            for query, value in block:
                failures.record(answer(query) == value, f"{query}: counted pass differs")
        with traced_layers(tracer):
            for query, value in block:
                tracer.request += 1
                again, elapsed = timed_answer(query)
                replay_ns += elapsed
                failures.record(again == value, f"{query}: replay differs")
        records += [
            sweep.MeasureRecord(tag, QUERY_ALPHA if mode == "traced" else 0.0, *angles, measure, value)
            for (tag, angles, mode, measure), value in block
        ]
    path = workdir / "queries.csv"
    with traced_layers(tracer):
        sweep.write_csv(records, path)
    run.rows = run.linalg_rows = len(records)
    run.untraced_s = untraced_ns / 1e9
    run.replay_s = replay_ns / 1e9
    run.glue_ns = untraced_ns - tracer.top_level_ns(exclude="sweep.write_csv")
    run.csv_bytes = path.stat().st_size
    return run


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, golden_path: Path) -> dict:
    """One run: raw metrics, failures, and the median reference-loop time."""
    failures = Failures()
    golden = load_golden(golden_path)
    speed: list[float] = []
    if workload in PRESET_WORKLOADS:
        if trace:
            run = presets_traced(workload, seconds, workdir, failures, golden, speed)
        else:
            metrics = presets_untraced(workload, seconds, workdir, failures, golden, speed)
    elif trace:
        run = queries_traced(seed, seconds, workdir, failures, speed)
    else:
        metrics = query_metrics(queries_untraced(seed, seconds, failures, speed))
    if trace:
        totals = run.tracer.totals()
        probe = probe_totals(seed, failures) if set(LAYER_FUNCTIONS) - set(totals) else {}
        metrics = run.metrics(totals, probe) if run.rows else {}
        run.tracer.write(workdir.parent / f"spans_{workload}.csv.gz")
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": failures.attempted,
        "failed": failures.failed,
        "reasons": failures.reasons,
        "metrics": metrics,
        "reference_ns": float(np.median(speed)),
        "context": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_version(),
            "wignerqi": wignerqi.__file__,
        },
    }


def regenerate_golden(workdir: Path, golden_path: Path = GOLDEN_PATH) -> None:
    """Rerun all ten presets and rewrite the golden hashes, printing old and new."""
    old = load_golden(golden_path) if golden_path.exists() else {}
    new = {}
    for name in sweep.FIGURE_NAMES:
        out = workdir / name
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["figure", name, "--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"figure {name} exited {code}; golden hashes left unchanged")
        new[name] = csv_hashes(out)
        for fname in sorted(set(new[name]) | set(old.get(name, {}))):
            print(f"{fname}  old {old.get(name, {}).get(fname, '-')}  new {new[name].get(fname, '-')}")
    golden_path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {golden_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.regen_golden:
        regenerate_golden(args.workdir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir, GOLDEN_PATH)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Parameter sweeps over Wigner-angle grids with deterministic CSV output.

A sweep walks the Cartesian product of inclusive linear grids over the free
angle axes (row-major, omega1 outermost), optionally tying axes together
("omega2=omega1" makes omega2 copy omega1), and evaluates a list of named
measures at each point. Records are emitted in a fixed order so repeated
runs are byte-identical.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lorentz import (
    MomentumConfig,
    factor_table,
    momentum_traced_channel_batch,
    product_transform_batch,
    wigner_unitaries,
)
from .measures import (
    average_capacity_batch,
    batch_with_reuse,
    concurrence_batch,
    fidelity_pure_batch,
    fidelity_vs_target_batch,
    pure_capacity_batch,
    three_tangle_batch,
    von_neumann_entropy_batch,
)
from .qmath import partial_trace, pure_reductions
from .states import STATE_TAGS, check_unit_norms, make_state

TWO_PI = 2.0 * math.pi

AXES = ("omega1", "omega2", "omega3")

FIDELITY_TARGETS = {
    "fidelity_gplus": "ghz_plus",
    "fidelity_gminus": "ghz_minus",
    "fidelity_w": "w",
    "fidelity_wprime": "w_prime",
}
PAIRS = {
    "concurrence_ab": (0, 1),
    "concurrence_ac": (0, 2),
    "concurrence_bc": (1, 2),
}
MEASURE_IDS = (*FIDELITY_TARGETS, "avg_capacity", "three_tangle", *PAIRS, "entropy_a")

# Grid points evaluated as one batch. run_figure streams each batch to disk,
# so this also bounds its working memory; of 256-2048, 512 ran the 129x129
# surfaces fastest.
CHUNK_POINTS = 512
# Largest sweep run_sweep and write_sweep accept, in rows (grid points x
# measures). It bounds run_sweep's record list, a few hundred bytes a row, at
# a few hundred MB; write_sweep streams in chunks but keeps the same cap, so
# both entry points accept the same sweeps.
MAX_SWEEP_ROWS = 2**20


_ANGLE_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(pi)?\s*$")


def parse_angle(text: str) -> float:
    """Parse '<float>' or '<float>pi' into radians, e.g. '0.375pi', '2pi', '1.5'."""
    match = _ANGLE_RE.match(text)
    if not match:
        raise ValueError(f"malformed angle token {text!r} (expected e.g. '1.5', '0.5pi', '2pi')")
    value = float(match.group(1))
    if match.group(2):
        value *= math.pi
    return value


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive linear grid: ``count`` samples from ``start`` to ``stop``.

    ``count == 1`` means the single value ``start``.
    """

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"grid endpoints must be finite, got {self.start!r}:{self.stop!r}")
        try:
            count = int(self.count)
        except (TypeError, ValueError, OverflowError):
            count = 0
        if isinstance(self.count, (bool, np.bool_)) or count != self.count or count < 1:
            raise ValueError(f"grid count must be an integer >= 1, got {self.count!r}")
        if self.stop < self.start:
            raise ValueError(f"grid stop {self.stop!r} is below start {self.start!r}")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"grid span {self.start!r}:{self.stop!r} overflows a float")
        # an integral float such as 3.0 is stored as the int np.linspace needs
        object.__setattr__(self, "count", count)

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start], dtype=float)
        return np.linspace(self.start, self.stop, self.count)


def parse_axis(text: str):
    """Parse an axis token: either a single angle or 'start:stop:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed grid token {text!r} (expected start:stop:count)")
        start = parse_angle(parts[0])
        stop = parse_angle(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"malformed grid count {parts[2]!r} in {text!r}") from None
        return SweepGrid(start, stop, count)
    return parse_angle(text)


@dataclass(frozen=True)
class MeasureRecord:
    """One sweep sample: which state and angles, which measure, what value."""

    state: str
    alpha: float
    omega1: float
    omega2: float
    omega3: float
    measure: str
    value: float


def parse_tie(text: str) -> tuple[str, str]:
    """Parse 'follower=leader' into an axis pair; anything else raises ``ValueError``."""
    parts = text.split("=") if isinstance(text, str) else []
    if len(parts) != 2 or parts[0] not in AXES or parts[1] not in AXES:
        raise ValueError(f"malformed tie {text!r} (expected e.g. omega2=omega1)")
    follower, leader = parts
    if follower == leader:
        raise ValueError(f"tie {text!r} binds an axis to itself")
    return follower, leader


def _resolve_ties(ties) -> dict[str, str]:
    """Map each tied axis to its leader, which must be a free axis."""
    tie_map: dict[str, str] = {}
    for tie in ties:
        follower, leader = parse_tie(tie)
        if follower in tie_map:
            raise ValueError(f"axis {follower!r} is tied twice")
        tie_map[follower] = leader
    for follower, leader in tie_map.items():
        if leader in tie_map:
            root = tie_map[leader]
            direct = f", as in '{follower}={root}'" if root not in tie_map else ""
            raise ValueError(f"tie '{follower}={leader}' leads to the tied axis {leader}; tie to a free axis{direct}")
    return tie_map


class _Plan(NamedTuple):
    """A validated sweep: what to evaluate and over which grid."""

    state: str
    measures: tuple[str, ...]
    alpha: float  # checked finite when planned; 0 is the pure transform
    grids: tuple[np.ndarray, ...]  # grid values of each free axis, in AXES order
    sources: tuple[int, int, int]  # the free axis that omega1..omega3 each read


def _plan(state, measures, *, alpha=0.0, omega1=None, omega2=None, omega3=None, ties=()) -> _Plan:
    if state not in STATE_TAGS:
        raise ValueError(f"unknown state {state!r}; expected one of {STATE_TAGS}")
    alpha = MomentumConfig(float(alpha)).alpha
    for name, value in (("measures", measures), ("ties", ties)):
        if isinstance(value, str):  # iterating it would read one-character ids
            raise ValueError(f"{name} must be a sequence of strings, got the string {value!r}")
    measures = tuple(measures)
    if not measures:
        raise ValueError("at least one measure is required")
    for measure in measures:
        if measure not in MEASURE_IDS:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURE_IDS}")
    duplicates = sorted({m for m in measures if measures.count(m) > 1})
    if duplicates:
        raise ValueError(f"duplicate measure ids {duplicates}; request each measure once")
    if alpha != 0.0 and "three_tangle" in measures:
        raise ValueError(f"three_tangle is undefined for the mixed states of alpha {alpha!r}; use alpha 0")

    leaders = _resolve_ties(ties)
    specs = dict(zip(AXES, (omega1, omega2, omega3)))
    for follower, leader in leaders.items():
        if specs[follower] is not None:
            raise ValueError(f"axis {follower} is tied to {leader}; give it no grid or angle")
    # a free axis left None is the fixed angle 0
    specs = {axis: 0.0 if spec is None else spec for axis, spec in specs.items() if axis not in leaders}
    free_axes = list(specs)
    counts = (specs[axis].count if isinstance(specs[axis], SweepGrid) else 1 for axis in free_axes)
    rows = math.prod(counts) * len(measures)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {rows} rows (grid points x measures) exceeds the cap of {MAX_SWEEP_ROWS} rows")
    grids = tuple(
        specs[axis].values() if isinstance(specs[axis], SweepGrid) else np.array([float(specs[axis])])
        for axis in free_axes
    )
    sources = tuple(free_axes.index(leaders.get(axis, axis)) for axis in AXES)
    return _Plan(state, measures, alpha, grids, sources)


def _factors(plan: _Plan, rotations, tables) -> list[tuple[np.ndarray, int]]:
    """The plan's factor tables, each with the free axis whose grid indexes it.

    ``rotations`` holds ``wigner_unitaries`` of each of ``plan.grids``. A
    point's product is the left fold ((D1 D2) D3), and float products do not
    associate, so only the leading run of qubits that read one axis shares a
    table (omega1 and omega2 in every preset, all three in a slice); each
    other qubit has its own. ``tables`` caches them by grid and qubits.
    """
    s = plan.sources
    lead = next((q for q in (1, 2) if s[q] != s[0]), 3)
    factors = []
    for qubits in (tuple(range(lead)), *((q,) for q in range(lead, 3))):
        source = s[qubits[0]]
        key = (plan.grids[source].tobytes(), qubits)
        if key not in tables:
            tables[key] = factor_table([rotations[source]] * len(qubits), qubits[0])
        factors.append((tables[key], source))
    return factors


def _chunks(plan: _Plan, factors):
    """Evaluate the plan in blocks of up to CHUNK_POINTS grid points, in row-major order.

    The grid is the product of ``plan.grids``, whose lengths give its shape,
    and ``factors`` pairs each of its factor tables with the free axis that
    indexes it (see :func:`_factors`). Yields
    ``(indices, values)`` per block: ``indices`` holds each point's grid
    index on every free axis, and ``values`` maps each measure to its n
    values as a float64 array.
    Every measure is a kernel over the whole block. At alpha 0 the block is
    the pure transform, and every measure reads its (n, 8) amplitudes, whose
    reductions ``pure_reductions`` forms with no (n, 8, 8) stack. At any other
    alpha every measure reads the block's traced-channel output and its
    partial traces. The requested pair concurrences are one call over their
    reductions stacked in plan order, reusing the value of a point whose pair
    state equals an earlier pair's bit for bit (:func:`batch_with_reuse`).
    Every transformed row is checked to unit norm, which certifies every
    density formed from it (see :func:`~wignerqi.qmath.pure_reductions`), so
    no stack is eigensolved to validate it.
    """
    psi0 = make_state(plan.state)
    targets = {m: make_state(FIDELITY_TARGETS[m]).amplitudes for m in plan.measures if m in FIDELITY_TARGETS}
    pairs = [m for m in plan.measures if m in PAIRS]
    tables, sources = zip(*factors)
    shape = tuple(map(len, plan.grids))
    total = math.prod(shape)
    for start in range(0, total, CHUNK_POINTS):
        indices = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, total)), shape)
        points = [indices[s] for s in sources]
        if plan.alpha == 0.0:
            state = product_transform_batch(psi0.amplitudes, tables, points)
            check_unit_norms(state)
            values = {m: fidelity_pure_batch(state, t) for m, t in targets.items()}
            capacities, reduce = pure_capacity_batch, pure_reductions
        else:
            state = momentum_traced_channel_batch(psi0.amplitudes, tables, points, plan.alpha)
            values = {m: fidelity_vs_target_batch(state, t) for m, t in targets.items()}
            capacities, reduce = average_capacity_batch, partial_trace
        if "avg_capacity" in plan.measures:
            values["avg_capacity"] = capacities(state)[3]
        if "three_tangle" in plan.measures:  # planned at alpha 0 only
            values["three_tangle"] = three_tangle_batch(state)[3]
        if pairs:
            stacks = np.stack([reduce(state, PAIRS[m]) for m in pairs])
            values.update(zip(pairs, batch_with_reuse(concurrence_batch, stacks)))
        if "entropy_a" in plan.measures:
            values["entropy_a"] = von_neumann_entropy_batch(reduce(state, (0,)))
        yield indices, values


def run_sweep(state: str, measures, **options) -> list[MeasureRecord]:
    """Evaluate measures over an angle grid and return records in grid order.

    The options and their defaults are ``alpha=0.0``,
    ``omega1=omega2=omega3=None`` and ``ties=()``.
    Each axis is a fixed angle in radians, a :class:`SweepGrid`, or ``None``
    (the fixed angle 0). ``ties`` holds ``"follower=leader"`` strings such as
    ``"omega2=omega1"``; a follower copies its leader's current value, so a
    value given for it raises ``ValueError``, as does a leader that is tied
    itself (beside ``omega2=omega1``, write ``omega3=omega1``). Free axes
    iterate row-major with omega1 outermost. ``alpha`` chooses the model: at
    0 (or -0.0) each point is the boosted pure state; any other ``alpha``
    sends it through the momentum-traced channel at that branch weight before
    measuring, and refuses ``three_tangle``, which is undefined for the mixed
    output. Each measure may be named once, ``alpha`` must be finite, and
    sweeps of more than ``MAX_SWEEP_ROWS`` rows (grid points x measures) are
    refused with ``ValueError`` before anything is allocated.
    """
    plan = _plan(state, measures, **options)
    records = []
    factors = _factors(plan, [wigner_unitaries(grid) for grid in plan.grids], {})
    for indices, values in _chunks(plan, factors):
        angles = [plan.grids[s][indices[s]].tolist() for s in plan.sources]
        for o1, o2, o3, *row in zip(*angles, *(values[m].tolist() for m in plan.measures)):
            records.extend(
                MeasureRecord(plan.state, plan.alpha, o1, o2, o3, m, v) for m, v in zip(plan.measures, row)
            )
    return records


CSV_HEADER = "state,alpha,omega1,omega2,omega3,measure,value"
# Every CSV float, here and in _write_plans, is "%.12g" % (x + 0.0): the + 0.0 turns -0.0 into 0.0.
_ROW = "%s,%.12g,%.12g,%.12g,%.12g,%s,%.12g\n"


@contextlib.contextmanager
def _staged_csvs():
    """Yield an opener of CSV files that reach their final names only together.

    Each file is written to a sibling temporary name (not ending in .csv) and
    moved into place with ``os.replace`` once the block completes, after every
    destination has been checked not to be a directory; if the block or that
    check raises, every temporary file is removed and no destination is touched.
    A destination whose last component is empty (it ends in a separator),
    ``.`` or ``..`` names a directory: opening it raises IsADirectoryError.
    """
    staged: dict[Path, tuple[Path, object]] = {}

    def open_csv(destination):
        path = Path(destination)
        if path not in staged:
            if os.path.basename(os.fspath(destination)) in ("", ".", ".."):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(destination))
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                handle = open(temp, "w", encoding="ascii", newline="\n")
            except OSError as error:  # name the destination, not the hidden temporary file
                raise type(error)(error.errno, error.strerror, os.fspath(destination)) from error
            staged[path] = (temp, handle)
            handle.write(CSV_HEADER + "\n")
        return staged[path][1]

    try:
        yield open_csv
        for _, handle in staged.values():
            handle.close()
        for path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, (temp, _) in staged.items():
            os.replace(temp, path)
    except BaseException:
        for temp, handle in staged.values():
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(OSError):
                os.unlink(temp)
        raise


def write_csv(records, destination) -> int:
    """Write records as CSV with a fixed header; returns the data row count.

    Floats are rendered with 12 significant digits, '.' decimal separator,
    LF line endings; identical inputs produce byte-identical files. The file
    appears only once complete: an error leaves no file behind.
    """
    count = 0
    with _staged_csvs() as open_csv:
        handle = open_csv(destination)
        for count, r in enumerate(records, 1):
            angles = r.alpha + 0.0, r.omega1 + 0.0, r.omega2 + 0.0, r.omega3 + 0.0
            handle.write(_ROW % (r.state, *angles, r.measure, r.value + 0.0))
    return count


def _chunk_rows(first, second, thirds, points, columns) -> str:
    """One chunk's CSV rows of the measures that share a file, interleaved per grid point.

    Measure k's row at point p joins ``first[i1]``, ``second[i2]``,
    ``thirds[k][i3]`` and ``columns[k][p]``, where ``(i1, i2, i3)`` are the
    point's ``points``. A function, so its buffers die before the next chunk
    is computed: held across that, they fragmented the heap (+0.8 MB peak RSS
    on the surfaces).
    """
    i1, i2, i3 = points
    n, step = len(i1), 4 * len(columns)
    firsts, seconds = first[i1].tolist(), second[i2].tolist()
    rows = [""] * (step * n)
    for at, third, column in zip(range(0, step, 4), thirds, columns):
        rows[at::step] = firsts
        rows[at + 1 :: step] = seconds
        rows[at + 2 :: step] = third[i3].tolist()
        rows[at + 3 :: step] = (("%.12g\n" * n) % tuple((column + 0.0).tolist())).splitlines(True)
    return "".join(rows)


def _write_plans(sweeps, path_of) -> list[tuple[Path | str, int]]:
    """Stream the rows of ``(suffix, plan)`` sweeps to CSV files; returns each file's row count.

    A measure's rows carry the id ``measure + suffix`` and go to the file
    ``path_of(measure_id)``, a path or str. Measures of one plan that share a
    file interleave per grid point in plan order, as ``run_sweep`` orders its
    records, so each file has the bytes ``write_csv`` gives those records.
    Rows are formatted and written a chunk at a time. The files appear
    together once every sweep has been computed; an error leaves none.
    """
    counts: dict[Path | str, int] = {}
    # shared by this call's plans: rotations and texts per grid, factor tables per grid and qubits
    per_grid: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    tables: dict[tuple[bytes, tuple[int, ...]], np.ndarray] = {}
    with _staged_csvs() as open_csv:
        for suffix, plan in sweeps:
            for grid in plan.grids:
                key = grid.tobytes()
                if key not in per_grid:
                    texts = ("%.12g\n" * len(grid) % tuple((grid + 0.0).tolist())).split()
                    per_grid[key] = (wigner_unitaries(grid), np.array(texts, dtype=object))
            rotations, texts = zip(*(per_grid[grid.tobytes()] for grid in plan.grids))
            files: dict[Path | str, list[str]] = {}
            for measure in plan.measures:
                files.setdefault(path_of(measure + suffix), []).append(measure)
            # a row is four pieces: first, second, third[measure] and the value's text
            s1, s2, s3 = plan.sources
            first = "%s,%.12g," % (plan.state, plan.alpha + 0.0) + texts[s1] + ","
            second = texts[s2] + ","
            third = {m: texts[s3] + f",{m}{suffix}," for m in plan.measures}
            for indices, values in _chunks(plan, _factors(plan, rotations, tables)):
                points = (indices[s1], indices[s2], indices[s3])
                for path, measures in files.items():
                    thirds, columns = [third[m] for m in measures], [values[m] for m in measures]
                    open_csv(path).write(_chunk_rows(first, second, thirds, points, columns))
                    counts[path] = counts.get(path, 0) + len(measures) * len(points[0])
    return list(counts.items())


def write_sweep(destination, state: str, measures, **options) -> int:
    """Evaluate a sweep as :func:`run_sweep` does and write it as CSV; returns the row count.

    The file has the bytes ``write_csv(run_sweep(state, measures, **options),
    destination)`` gives, but rows are formatted and written a chunk at a
    time, so no record list is built. The file appears only once complete.
    """
    return _write_plans([("", _plan(state, measures, **options))], lambda _: destination)[0][1]


# Preset sweep configurations. 1D slices use 257 points over [0, 2pi]
# (256 intervals, so 0, pi/2, pi, 3pi/2, 2pi land exactly on nodes); 2D
# surfaces use 129x129 for the same landmark property at a sane file size.
_GRID_1D = SweepGrid(0.0, TWO_PI, 257)
_GRID_2D = SweepGrid(0.0, TWO_PI, 129)
_OMEGA3_FAMILY = (0.0, math.pi / 3.0, math.pi / 4.0, math.pi / 6.0)
_TRACED_ALPHA = math.pi / 4.0

_SURFACE = dict(omega1=_GRID_2D, omega3=_GRID_2D, ties=("omega2=omega1",))
_SLICE = dict(omega1=_GRID_1D, ties=("omega2=omega1", "omega3=omega1"))


def _family(state: str, pure: tuple[str, ...], traced: tuple[str, ...]) -> list:
    """A family preset's sweeps: at each fixed omega3, the pure measures, then the traced ones."""
    return [
        (suffix, state, measures, dict(alpha=alpha, omega1=_GRID_1D, omega3=omega3, ties=("omega2=omega1",)))
        for omega3 in _OMEGA3_FAMILY
        for suffix, measures, alpha in ((".pure", pure, 0.0), (".traced", traced, _TRACED_ALPHA))
    ]


# each preset: its sweeps as (measure id suffix, state, measures, _plan options)
_PRESETS = {
    "1a": [("", "ghz_plus", ("fidelity_gplus",), _SURFACE)],
    "1b": [("", "ghz_plus", ("fidelity_gminus",), _SURFACE)],
    "1c": [("", "ghz_plus", ("fidelity_gplus", "fidelity_gminus"), _SLICE)],
    "2a": [("", "w", ("fidelity_w",), _SURFACE)],
    "2b": [("", "w", ("fidelity_wprime",), _SURFACE)],
    "2c": [("", "w", ("fidelity_w", "fidelity_wprime"), _SLICE)],
    "3a": _family("ghz_plus", ("avg_capacity",), ("avg_capacity",)),
    "3b": _family("w", ("avg_capacity",), ("avg_capacity",)),
    "4a": _family("ghz_plus", ("three_tangle",), tuple(PAIRS)),
    "4b": _family("w", ("three_tangle",), tuple(PAIRS)),
}
FIGURE_NAMES = tuple(_PRESETS)


def run_figure(name: str, out_dir) -> list[tuple[Path, int]]:
    """Run a preset and write one CSV per measure id into ``out_dir``.

    ``name`` is one of ``FIGURE_NAMES``; any other name raises ``ValueError``
    before ``out_dir`` is made. Surface presets (1a, 1b, 2a, 2b) sweep omega1
    and omega3 over a 129x129 grid with omega2 tied to omega1. Slice presets
    (1c, 2c) tie all three angles and sweep 257 points. Family presets (3a,
    3b, 4a, 4b) sweep the tied pair over 257 points for each fixed omega3 in
    {0, pi/3, pi/4, pi/6}, at alpha 0, the pure transform (suffix '.pure';
    constant in the angles by local-unitary invariance), and through the
    momentum-traced channel at alpha = pi/4 (suffix '.traced';
    angle-dependent). The traced runs of 4a/4b report pairwise concurrences
    since the three-tangle is undefined for mixed states.

    Rows are streamed to disk chunk by chunk, with the same bytes that
    ``write_csv`` gives the records of each sweep with its suffixed measure
    ids. The files appear together once the whole preset has been computed;
    an error leaves none.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; expected one of {FIGURE_NAMES}")
    sweeps = [(suffix, _plan(state, measures, **options)) for suffix, state, measures, options in _PRESETS[name]]
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return _write_plans(sweeps, lambda measure_id: out_path / f"fig{name}_{measure_id.replace('.', '_')}.csv")

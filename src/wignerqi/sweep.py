"""Parameter sweeps over Wigner-angle grids with deterministic CSV output.

A sweep walks the Cartesian product of inclusive linear grids over the free
angle axes (row-major, omega1 outermost), optionally tying axes together
("omega2=omega1" makes omega2 copy omega1), and evaluates a list of named
measures at each point. Records are emitted in a fixed order so repeated
runs are byte-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lorentz import MomentumConfig, WignerAngles, momentum_traced_channel, product_transform_batch, wigner_unitaries
from .measures import (
    average_capacity,
    concurrence,
    fidelity_pure_batch,
    fidelity_vs_target,
    three_tangle,
    von_neumann_entropy,
)
from .states import STATE_TAGS, PureState, check_unit_norms, make_state, reduced, to_density

TWO_PI = 2.0 * math.pi

AXES = ("omega1", "omega2", "omega3")

MEASURE_IDS = (
    "fidelity_gplus",
    "fidelity_gminus",
    "fidelity_w",
    "fidelity_wprime",
    "avg_capacity",
    "three_tangle",
    "concurrence_ab",
    "concurrence_ac",
    "concurrence_bc",
    "entropy_a",
)

_FIDELITY_TARGETS = {
    "fidelity_gplus": "ghz_plus",
    "fidelity_gminus": "ghz_minus",
    "fidelity_w": "w",
    "fidelity_wprime": "w_prime",
}
_PAIRS = {
    "concurrence_ab": (0, 1),
    "concurrence_ac": (0, 2),
    "concurrence_bc": (1, 2),
}

MODES = ("pure", "traced")

# Grid points evaluated as one batch. run_figure streams each batch to disk,
# so this also bounds its working memory; of 256-2048, 512 ran the 129x129
# surfaces fastest.
CHUNK_POINTS = 512
# Largest sweep run_sweep accepts, in rows (grid points x measures). Its
# record list costs a few hundred bytes a row, so this bounds it at a few
# hundred MB.
MAX_SWEEP_ROWS = 2**20


class AngleParseError(ValueError):
    """An angle or grid token could not be parsed."""


_ANGLE_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(pi)?\s*$")


def parse_angle(text: str) -> float:
    """Parse '<float>' or '<float>pi' into radians, e.g. '0.375pi', '2pi', '1.5'."""
    match = _ANGLE_RE.match(text)
    if not match:
        raise AngleParseError(f"malformed angle token {text!r} (expected e.g. '1.5', '0.5pi', '2pi')")
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
        if int(self.count) != self.count or self.count < 1:
            raise ValueError(f"grid count must be an integer >= 1, got {self.count!r}")
        if self.stop < self.start:
            raise ValueError(f"grid stop {self.stop!r} is below start {self.start!r}")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.count)


def parse_axis(text: str):
    """Parse an axis token: either a single angle or 'start:stop:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise AngleParseError(f"malformed grid token {text!r} (expected start:stop:count)")
        start = parse_angle(parts[0])
        stop = parse_angle(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise AngleParseError(f"malformed grid count {parts[2]!r} in {text!r}") from None
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
    """Parse 'follower=leader' into an axis pair."""
    parts = text.split("=")
    if len(parts) != 2 or parts[0] not in AXES or parts[1] not in AXES:
        raise ValueError(f"malformed tie {text!r} (expected e.g. omega2=omega1)")
    follower, leader = parts
    if follower == leader:
        raise ValueError(f"tie {text!r} binds an axis to itself")
    return follower, leader


def _resolve_ties(ties) -> dict[str, str]:
    """Map each tied axis to the free axis it ends up copying."""
    tie_map: dict[str, str] = {}
    for tie in ties:
        follower, leader = parse_tie(tie if isinstance(tie, str) else "=".join(tie))
        if follower in tie_map:
            raise ValueError(f"axis {follower!r} is tied twice")
        tie_map[follower] = leader
    roots = {}
    for follower in tie_map:
        seen = {follower}
        leader = tie_map[follower]
        while leader in tie_map:
            if leader in seen:
                raise ValueError(f"tie cycle involving {follower!r}")
            seen.add(leader)
            leader = tie_map[leader]
        roots[follower] = leader
    return roots


class _Plan(NamedTuple):
    """A validated sweep: what to evaluate and over which grid."""

    state: str
    measures: tuple[str, ...]
    mode: str
    alpha: float
    convention: str
    shape: tuple[int, ...]  # grid size of each free axis, in AXES order
    grids: tuple[np.ndarray, ...]  # grid values of each free axis
    sources: tuple[int, int, int]  # the free axis that omega1..omega3 each read


def _plan(state, measures, mode, alpha, omegas, ties, convention) -> _Plan:
    if state not in STATE_TAGS:
        raise ValueError(f"unknown state {state!r}; expected one of {STATE_TAGS}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "pure" and alpha != 0.0:
        raise ValueError(f"alpha {alpha!r} has no effect in pure mode; use the traced mode or alpha 0")
    measures = tuple(measures)
    if not measures:
        raise ValueError("at least one measure is required")
    for measure in measures:
        if measure not in MEASURE_IDS:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURE_IDS}")
    duplicates = sorted({m for m in measures if measures.count(m) > 1})
    if duplicates:
        raise ValueError(f"duplicate measure ids {duplicates}; request each measure once")
    if mode == "traced" and "three_tangle" in measures:
        raise ValueError("three_tangle is undefined for the traced (mixed) mode; request it in pure mode")

    roots = _resolve_ties(ties)
    specs = dict(zip(AXES, omegas))
    free_axes = [axis for axis in AXES if axis not in roots]
    shape = tuple(int(specs[axis].count) if isinstance(specs[axis], SweepGrid) else 1 for axis in free_axes)
    rows = math.prod(shape) * len(measures)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {rows} rows (grid points x measures) exceeds the cap of {MAX_SWEEP_ROWS} rows")
    grids = tuple(
        specs[axis].values() if isinstance(specs[axis], SweepGrid) else np.array([float(specs[axis])])
        for axis in free_axes
    )
    sources = tuple(free_axes.index(roots.get(axis, axis)) for axis in AXES)
    return _Plan(state, measures, mode, float(alpha), convention, shape, grids, sources)


def _evaluate(measure: str, psi, rho, targets) -> float:
    """One measure at one point through the scalar API."""
    if measure in targets:
        return fidelity_vs_target(rho, targets[measure])
    if measure == "avg_capacity":
        return average_capacity(rho).average
    if measure == "three_tangle":
        return three_tangle(psi).three_tangle
    if measure in _PAIRS:
        return concurrence(reduced(rho, _PAIRS[measure]))
    return von_neumann_entropy(reduced(rho, (0,)))  # entropy_a


def _chunks(plan: _Plan):
    """Evaluate the plan in blocks of up to CHUNK_POINTS grid points, in row-major order.

    Yields ``(indices, angles, values)`` per block: ``indices`` holds each
    point's grid index on every free axis, ``angles`` is the (n, 3) array of
    its angles, and ``values`` maps each measure to its n values as floats.
    Pure-mode fidelities come from the batched amplitudes; every other
    measure is a per-point call into the scalar API, and a density operator
    is built only for the measures that read one.
    """
    psi0 = make_state(plan.state)
    targets = {m: make_state(_FIDELITY_TARGETS[m]) for m in plan.measures if m in _FIDELITY_TARGETS}
    if plan.mode == "pure":
        rotations = [wigner_unitaries(grid) for grid in plan.grids]
        needs_rho = any(m not in targets and m != "three_tangle" for m in plan.measures)
    else:
        config = MomentumConfig(plan.alpha, plan.convention)
    total = math.prod(plan.shape)
    for start in range(0, total, CHUNK_POINTS):
        indices = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, total)), plan.shape)
        angles = np.stack([plan.grids[s][indices[s]] for s in plan.sources], axis=1)
        if plan.mode == "pure":
            amps = product_transform_batch(psi0.amplitudes, *(rotations[s][indices[s]] for s in plan.sources))
            check_unit_norms(amps)
            values = {m: fidelity_pure_batch(amps, t.amplitudes).tolist() for m, t in targets.items()}
            points = ((psi, to_density(psi) if needs_rho else None) for psi in map(PureState, amps))
        else:
            values = {}
            points = (
                (None, momentum_traced_channel(psi0, WignerAngles(*point), config)) for point in angles.tolist()
            )
        pending = [m for m in plan.measures if m not in values]
        if pending:
            for measure in pending:
                values[measure] = []
            for psi, rho in points:
                for measure in pending:
                    values[measure].append(float(_evaluate(measure, psi, rho, targets)))
        yield indices, angles, values


def run_sweep(
    state: str,
    measures,
    *,
    mode: str = "pure",
    alpha: float = 0.0,
    omega1=0.0,
    omega2=0.0,
    omega3=0.0,
    ties=(),
    convention: str = "opposite",
) -> list[MeasureRecord]:
    """Evaluate measures over an angle grid and return records in grid order.

    Each of ``omega1``..``omega3`` is either a fixed angle in radians or a
    :class:`SweepGrid`; axes named as tie followers take their leader's
    current value instead. Free axes iterate row-major with omega1 outermost.
    In ``traced`` mode the state is sent through the momentum-superposed
    channel at weight ``alpha`` before measuring; the pure mode refuses a
    nonzero ``alpha``, and ``three_tangle`` is only defined for the pure
    mode. Each measure may be named once, and sweeps of
    more than ``MAX_SWEEP_ROWS`` rows (grid points x measures) are refused
    with ``ValueError`` before anything is allocated.
    """
    plan = _plan(state, measures, mode, alpha, (omega1, omega2, omega3), ties, convention)
    records = []
    for _, angles, values in _chunks(plan):
        columns = [values[m] for m in plan.measures]
        for (o1, o2, o3), row in zip(angles.tolist(), zip(*columns)):
            records.extend(
                MeasureRecord(plan.state, plan.alpha, o1, o2, o3, m, v) for m, v in zip(plan.measures, row)
            )
    return records


CSV_HEADER = "state,alpha,omega1,omega2,omega3,measure,value"


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".12g")  # + 0.0 turns -0.0 into 0.0


@contextlib.contextmanager
def _staged_csvs():
    """Yield an opener of CSV files that reach their final names only together.

    Each file is written to a sibling temporary name (not ending in .csv) and
    moved into place with ``os.replace`` once the block completes; if it
    raises, every temporary file is removed and no destination is touched.
    """
    staged: dict[Path, tuple[Path, object]] = {}

    def open_csv(path: Path):
        if path not in staged:
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            handle = open(temp, "w", encoding="ascii", newline="\n")
            staged[path] = (temp, handle)
            handle.write(CSV_HEADER + "\n")
        return staged[path][1]

    try:
        yield open_csv
        for _, handle in staged.values():
            handle.close()
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
        handle = open_csv(Path(destination))
        for record in records:
            handle.write(
                f"{record.state},{_fmt(record.alpha)},{_fmt(record.omega1)},"
                f"{_fmt(record.omega2)},{_fmt(record.omega3)},{record.measure},{_fmt(record.value)}\n"
            )
            count += 1
    return count


# Preset sweep configurations. 1D slices use 257 points over [0, 2pi]
# (256 intervals, so 0, pi/2, pi, 3pi/2, 2pi land exactly on nodes); 2D
# surfaces use 129x129 for the same landmark property at a sane file size.
_GRID_1D = SweepGrid(0.0, TWO_PI, 257)
_GRID_2D = SweepGrid(0.0, TWO_PI, 129)
_OMEGA3_FAMILY = (0.0, math.pi / 3.0, math.pi / 4.0, math.pi / 6.0)
_TRACED_ALPHA = math.pi / 4.0

_SURFACES = {
    "1a": ("ghz_plus", "fidelity_gplus"),
    "1b": ("ghz_plus", "fidelity_gminus"),
    "2a": ("w", "fidelity_w"),
    "2b": ("w", "fidelity_wprime"),
}
_SLICES = {
    "1c": ("ghz_plus", ("fidelity_gplus", "fidelity_gminus")),
    "2c": ("w", ("fidelity_w", "fidelity_wprime")),
}
_FAMILIES = {
    "3a": ("ghz_plus", "capacity"),
    "3b": ("w", "capacity"),
    "4a": ("ghz_plus", "tangle"),
    "4b": ("w", "tangle"),
}

FIGURE_NAMES = ("1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "4a", "4b")


def _figure_sweeps(name: str) -> list[tuple[str, _Plan]]:
    """The sweeps behind a preset, each with the suffix its measure ids get."""
    pair = ("omega2=omega1",)
    if name in _SURFACES:
        state, measure = _SURFACES[name]
        return [("", _plan(state, [measure], "pure", 0.0, (_GRID_2D, 0.0, _GRID_2D), pair, "opposite"))]
    if name in _SLICES:
        state, measures = _SLICES[name]
        line = ("omega2=omega1", "omega3=omega1")
        return [("", _plan(state, measures, "pure", 0.0, (_GRID_1D, 0.0, 0.0), line, "opposite"))]
    if name in _FAMILIES:
        state, family = _FAMILIES[name]
        pure_measures = ["avg_capacity"] if family == "capacity" else ["three_tangle"]
        traced_measures = (
            ["avg_capacity"] if family == "capacity" else ["concurrence_ab", "concurrence_ac", "concurrence_bc"]
        )
        sweeps = []
        for omega3 in _OMEGA3_FAMILY:
            axes = (_GRID_1D, 0.0, omega3)
            sweeps.append((".pure", _plan(state, pure_measures, "pure", 0.0, axes, pair, "opposite")))
            sweeps.append((".traced", _plan(state, traced_measures, "traced", _TRACED_ALPHA, axes, pair, "opposite")))
        return sweeps
    raise ValueError(f"unknown figure preset {name!r}; expected one of {FIGURE_NAMES}")


def run_figure(name: str, out_dir) -> list[tuple[Path, int]]:
    """Run a preset and write one CSV per measure id into ``out_dir``.

    Surface presets (1a, 1b, 2a, 2b) sweep omega1 and omega3 over a 129x129
    grid with omega2 tied to omega1. Slice presets (1c, 2c) tie all three
    angles and sweep 257 points. Family presets (3a, 3b, 4a, 4b) sweep the
    tied pair over 257 points for each fixed omega3 in {0, pi/3, pi/4, pi/6},
    in both pure mode (suffix '.pure'; constant in the angles by local-unitary
    invariance) and the momentum-traced mode at alpha = pi/4 (suffix
    '.traced'; angle-dependent). The traced runs of 4a/4b report pairwise
    concurrences since the three-tangle is undefined for mixed states.

    Rows are streamed to disk chunk by chunk, with the same bytes that
    ``write_csv`` gives the records of each sweep with its suffixed measure
    ids. The files appear together once the whole preset has been computed;
    an error leaves none.
    """
    sweeps = _figure_sweeps(name)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    counts: dict[Path, int] = {}
    with _staged_csvs() as open_csv:
        for suffix, plan in sweeps:
            texts = [np.array([_fmt(v) for v in grid], dtype=object) for grid in plan.grids]
            head = f"{plan.state},{_fmt(plan.alpha)},"
            for indices, _, values in _chunks(plan):
                o1, o2, o3 = (texts[s][indices[s]] for s in plan.sources)
                for measure in plan.measures:
                    measure_id = measure + suffix
                    path = out_path / f"fig{name}_{measure_id.replace('.', '_')}.csv"
                    column = values[measure]
                    # the values are floats already: {v + 0.0:.12g} is _fmt(v) inlined
                    open_csv(path).write(
                        "".join(
                            f"{head}{a},{b},{c},{measure_id},{v + 0.0:.12g}\n" for a, b, c, v in zip(o1, o2, o3, column)
                        )
                    )
                    counts[path] = counts.get(path, 0) + len(column)
    return list(counts.items())

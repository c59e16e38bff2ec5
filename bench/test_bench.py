"""Self-tests of the benchmark harness.

Run from the repository root (about half a minute)::

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def declared(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


@pytest.fixture
def only_1c(monkeypatch):
    """Shrink the surfaces workload to its cheapest preset."""
    monkeypatch.setitem(harness.PRESET_WORKLOADS, "surfaces_pure", ("1c",))


@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_exactly_the_declared_names(trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_queries", "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = set(result["metrics"])
    assert names == declared("per_layer" if trace else "end_to_end")
    assert all(NAME_RE.match(name) for name in names)


@pytest.mark.parametrize("trace", [False, True])
def test_preset_workload_names_are_declared(tmp_path, only_1c, trace):
    result = harness.run_workload("surfaces_pure", 0, 0.0, trace, tmp_path / "w", harness.GOLDEN_PATH)
    assert result["failed"] == 0
    added_by_run_py = {"import.wignerqi_s"} if trace else {"setup_s"}
    assert set(result["metrics"]) | added_by_run_py == declared("per_layer" if trace else "end_to_end")
    assert all(value > 0 for name, value in result["metrics"].items() if name != "sweep.glue.us_per_row")


def test_flipped_golden_byte_is_a_failure(tmp_path, only_1c):
    golden = tmp_path / "golden.json"
    shutil.copy(harness.GOLDEN_PATH, golden)
    clean = harness.run_workload("surfaces_pure", 0, 0.0, False, tmp_path / "a", golden)
    assert clean["failed"] == 0
    text = golden.read_text()
    digest = json.loads(text)["1c"]["fig1c_fidelity_gplus.csv"]
    flipped = digest[:10] + ("0" if digest[10] != "0" else "1") + digest[11:]
    golden.write_text(text.replace(digest, flipped))
    broken = harness.run_workload("surfaces_pure", 0, 0.0, False, tmp_path / "b", golden)
    assert broken["failed"] / broken["attempted"] > 0


def test_point_stream_depends_only_on_seed():
    first = list(itertools.islice(harness.point_stream(7), 300))
    assert first == list(itertools.islice(harness.point_stream(7), 300))
    assert first != list(itertools.islice(harness.point_stream(8), 300))
    assert {mode for _, _, mode, _ in first} == {"pure", "traced"}
    assert not any(mode == "traced" and measure == "three_tangle" for _, _, mode, measure in first)


def test_checker_rejects_a_wrong_answer():
    checker = harness.QueryChecker()
    for query in itertools.islice(harness.point_stream(3), 200):
        value = harness.answer(query)
        assert checker.check(query, value) == ""
        if query[2] == "pure" or query[3].startswith("fidelity"):
            assert checker.check(query, value + 1e-6) != ""


@pytest.mark.parametrize("preset", ["1c", "3a"])
def test_replay_renders_the_untraced_csv_text(tmp_path, preset):
    failures = harness.Failures()
    untraced = tmp_path / "untraced"
    assert harness.run_preset(preset, untraced, failures, harness.load_golden()) is not None
    tracer = harness.Tracer()
    with harness.traced_layers(tracer):
        _, rows = harness.replay_preset(harness.parse_preset_rows(preset, untraced), tmp_path / "replay", tracer)
    assert rows == harness.csv_rows(untraced)
    for path in untraced.glob("*.csv"):
        assert (tmp_path / "replay" / path.name).read_text() == path.read_text()
    assert failures.failed == 0


def test_span_self_times_are_nonnegative(tmp_path):
    failures = harness.Failures()
    untraced = tmp_path / "untraced"
    harness.run_preset("3a", untraced, failures, harness.load_golden())
    tracer = harness.Tracer()
    with harness.traced_layers(tracer):
        harness.replay_preset(harness.parse_preset_rows("3a", untraced), tmp_path / "replay", tracer)
    assert any(parent >= 0 for _, _, _, parent, _ in tracer.spans)
    assert min(tracer.self_times_ns()) >= 0

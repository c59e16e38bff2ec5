import os

import numpy as np
import pytest

from wignerqi import cli, lorentz, sweep
from wignerqi.qmath import NumericValidationError
from wignerqi.sweep import CSV_HEADER


def run(argv):
    return cli.main(argv)


def test_basic_sweep(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run(
        [
            "sweep",
            "--state", "ghz_plus",
            "--omega1", "0:2pi:257",
            "--tie", "omega2=omega1",
            "--tie", "omega3=omega1",
            "--measure", "fidelity_gplus,fidelity_gminus",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 257
    assert "wrote 514 rows" in capsys.readouterr().out


def test_traced_sweep_with_alpha(tmp_path):
    out = tmp_path / "traced.csv"
    code = run(
        [
            "sweep",
            "--state", "w",
            "--mode", "traced",
            "--alpha", "0.25pi",
            "--omega1", "0.5pi",
            "--omega2", "0.5pi",
            "--omega3", "0.5pi",
            "--measure", "entropy_a",
            "--out", str(out),
        ]
    )
    assert code == 0
    value = float(out.read_text().splitlines()[1].split(",")[-1])
    assert value > 0.0


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["sweep", "--state", "w", "--out", out]
    assert run(base + ["--measure", "nope"]) == 2
    assert run(base + ["--measure", "entropy_a", "--omega1", "2qi"]) == 2
    assert run(base + ["--measure", "entropy_a", "--tie", "omega2-omega1"]) == 2
    assert run(base + ["--measure", "entropy_a", "--tie", "omega2=omega1", "--omega2", "1"]) == 2
    assert run(base + ["--measure", "three_tangle", "--mode", "traced"]) == 2
    assert run(base + ["--measure", "fidelity_w", "--alpha", "1e400", "--omega1", "0"]) == 2  # alpha is traced-only
    assert not os.path.exists(out)
    # argparse-level failures (unknown flag, bad choice) also exit 2
    assert run(["sweep", "--state", "nope", "--measure", "entropy_a", "--out", out]) == 2
    assert run(["figure", "7q", "--out-dir", out]) == 2


def test_duplicate_measures_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    base = ["sweep", "--state", "w", "--omega1", "0:1:3", "--out", str(out)]
    assert run(base + ["--measure", "fidelity_w,entropy_a,fidelity_w"]) == 2
    assert run(base + ["--measure", "entropy_a", "--measure", "entropy_a"]) == 2
    assert "duplicate measure" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_grid_exit_2(tmp_path, capsys, monkeypatch):
    def no_grid(self):
        raise AssertionError("the grid was built before the size check")

    monkeypatch.setattr(sweep.SweepGrid, "values", no_grid)
    out = tmp_path / "x.csv"
    axes = ["--omega1", "0:2pi:100000", "--omega2", "0:2pi:100000", "--omega3", "0:2pi:100000"]
    assert run(["sweep", "--state", "w", "--measure", "fidelity_w", *axes, "--out", str(out)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


def test_io_error_exit_3(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = run(
        ["sweep", "--state", "w", "--measure", "entropy_a", "--out", str(missing)]
    )
    assert code == 3


def test_numeric_failure_exit_4(tmp_path, monkeypatch):
    fidelities = sweep.fidelity_pure_batch
    calls = []

    def failing_after_first_chunk(*args):
        calls.append(None)
        if len(calls) > 1:
            raise NumericValidationError("synthetic invariant violation")
        return fidelities(*args)

    monkeypatch.setattr(sweep, "fidelity_pure_batch", failing_after_first_chunk)
    out = tmp_path / "x.csv"
    out.write_text("old contents\n")
    grid = f"0:1:{sweep.CHUNK_POINTS + 3}"
    assert run(["sweep", "--state", "w", "--omega1", grid, "--measure", "fidelity_w", "--out", str(out)]) == 4
    assert len(calls) == 2
    assert out.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["x.csv"]


def test_traced_factor_fault_exit_4(tmp_path, monkeypatch):
    # a branch row off unit norm in the second chunk: exit 4 and no file, as
    # the factor's norm check is what certifies the traced densities
    transform = lorentz.product_transform_batch
    calls = []

    def scaled_after_first_chunk(*args):
        calls.append(None)
        return transform(*args) * (1.0 + 1e-9 if len(calls) > 2 else 1.0)

    monkeypatch.setattr(lorentz, "product_transform_batch", scaled_after_first_chunk)
    out = tmp_path / "x.csv"
    grid = f"0:1:{sweep.CHUNK_POINTS + 3}"
    argv = ["sweep", "--state", "w", "--mode", "traced", "--alpha", "0.25pi", "--omega1", grid]
    assert run(argv + ["--measure", "fidelity_w,concurrence_ab", "--out", str(out)]) == 4
    assert len(calls) == 3
    assert os.listdir(tmp_path) == []


TRACED_FOUR = ["fidelity_w", "concurrence_ac", "entropy_a", "avg_capacity"]
# each case: the sweep flags, then the same sweep as run_sweep arguments
SWEEP_CASES = {
    "pure": (
        ["--state", "ghz_plus", "--measure", "fidelity_gminus,three_tangle"],
        ("ghz_plus", ["fidelity_gminus", "three_tangle"], {}),
    ),
    "traced_opposite": (
        ["--state", "w", "--mode", "traced", "--alpha", "0.3pi", "--measure", ",".join(TRACED_FOUR)],
        ("w", TRACED_FOUR, dict(mode="traced", alpha=0.3 * np.pi, convention="opposite")),
    ),
    "traced_same": (
        ["--state", "w", "--mode", "traced", "--alpha", "0.3pi", "--convention", "same",
         "--measure", ",".join(TRACED_FOUR)],
        ("w", TRACED_FOUR, dict(mode="traced", alpha=0.3 * np.pi, convention="same")),
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_bytes_equal_write_csv_of_run_sweep(tmp_path, case):
    # the streamed rows interleave the measures per grid point across chunk boundaries
    flags, (state, measures, options) = SWEEP_CASES[case]
    count = sweep.CHUNK_POINTS + 3
    out = tmp_path / "streamed.csv"
    axes = [f"--omega1=-1:7:{count}", "--omega2=0.4", "--omega3=-1.1"]
    assert run(["sweep", *flags, *axes, "--out", str(out)]) == 0
    grid = sweep.SweepGrid(-1.0, 7.0, count)
    records = sweep.run_sweep(state, measures, omega1=grid, omega2=0.4, omega3=-1.1, **options)
    assert len(records) == len(measures) * count
    listed = tmp_path / "listed.csv"
    sweep.write_csv(records, listed)
    assert out.read_bytes() == listed.read_bytes()


def test_sweep_builds_no_records(tmp_path, monkeypatch):
    def no_record(*args):
        raise AssertionError("wignerqi sweep built a MeasureRecord")

    monkeypatch.setattr(sweep, "MeasureRecord", no_record)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--state", "w", "--omega1", f"0:1:{sweep.CHUNK_POINTS + 3}", "--measure", "fidelity_w,entropy_a"]
    assert run([*argv, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * (sweep.CHUNK_POINTS + 3)


def test_figure_rename_failure_replaces_no_file(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    (out_dir / "fig1c_fidelity_gminus.csv").mkdir(parents=True)
    old = out_dir / "fig1c_fidelity_gplus.csv"
    old.write_text("old contents\n")
    assert run(["figure", "1c", "--out-dir", str(out_dir)]) == 3
    assert "Is a directory" in capsys.readouterr().err
    assert old.read_text() == "old contents\n"
    assert sorted(os.listdir(out_dir)) == ["fig1c_fidelity_gminus.csv", "fig1c_fidelity_gplus.csv"]


def test_figure_numeric_failure_leaves_no_file(tmp_path, monkeypatch):
    fidelities = sweep.fidelity_pure_batch
    calls = []

    def failing_after_first_chunk(*args):
        calls.append(None)
        if len(calls) > 1:
            raise NumericValidationError("synthetic invariant violation")
        return fidelities(*args)

    monkeypatch.setattr(sweep, "fidelity_pure_batch", failing_after_first_chunk)
    out_dir = tmp_path / "figs"
    assert run(["figure", "1a", "--out-dir", str(out_dir)]) == 4
    assert len(calls) == 2
    assert os.listdir(out_dir) == []


def test_figure_1c(tmp_path):
    out_dir = tmp_path / "figs"
    assert run(["figure", "1c", "--out-dir", str(out_dir)]) == 0
    plus = out_dir / "fig1c_fidelity_gplus.csv"
    minus = out_dir / "fig1c_fidelity_gminus.csv"
    for path in (plus, minus):
        assert path.exists()
        assert len(path.read_text().splitlines()) == 258

    rows = plus.read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[-1]) for r in rows])
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert values[128] == pytest.approx(0.0, abs=1e-9)
    assert values[256] == pytest.approx(1.0, abs=1e-9)


def test_figure_reruns_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert run(["figure", "2c", "--out-dir", str(dir_a)]) == 0
    assert run(["figure", "2c", "--out-dir", str(dir_b)]) == 0
    for path_a in sorted(dir_a.iterdir()):
        path_b = dir_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()

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


def sweep_argv(*flags, out="x.csv"):
    return ["sweep", "--state", "w", *flags, "--out", out]


# (argv, exit code, stderr fragment) of every refusal the CLI can reach without a monkeypatch.
# Each runs in a directory holding the regular file afile and the empty directory d.
REFUSALS = {
    # usage errors of the sweep plan and its tokens
    "unknown_measure": (sweep_argv("--measure", "nope"), 2, "unknown measure 'nope'"),
    "no_measure": (sweep_argv("--measure", ","), 2, "at least one measure is required"),
    "duplicate_in_one_flag": (
        sweep_argv("--omega1", "0:1:3", "--measure", "fidelity_w,entropy_a,fidelity_w"),
        2,
        "duplicate measure ids ['fidelity_w']",
    ),
    "duplicate_across_flags": (
        sweep_argv("--omega1", "0:1:3", "--measure", "entropy_a", "--measure", "entropy_a"),
        2,
        "duplicate measure ids ['entropy_a']",
    ),
    "malformed_angle": (sweep_argv("--measure", "entropy_a", "--omega1", "2qi"), 2, "malformed angle token '2qi'"),
    "malformed_grid_token": (sweep_argv("--measure", "entropy_a", "--omega1", "0:1"), 2, "malformed grid token '0:1'"),
    "malformed_grid_count": (
        sweep_argv("--measure", "entropy_a", "--omega1", "0:1:3.5"),
        2,
        "malformed grid count '3.5'",
    ),
    "zero_grid_count": (
        sweep_argv("--measure", "entropy_a", "--omega1", "0:1:0"),
        2,
        "grid count must be an integer >= 1, got 0",
    ),
    "grid_stop_below_start": (
        sweep_argv("--measure", "entropy_a", "--omega1", "1:0:2"),
        2,
        "grid stop 0.0 is below start 1.0",
    ),
    "infinite_grid_endpoint": (
        sweep_argv("--measure", "entropy_a", "--omega1", "1e400:2:3"),
        2,
        "grid endpoints must be finite, got inf:2.0",
    ),
    # finite endpoints whose difference overflows are refused before linspace warns
    "overflowing_grid_span": (
        sweep_argv("--measure", "fidelity_w", "--omega1=-1e308:1e308:3", "--tie", "omega2=omega1"),
        2,
        "grid span -1e+308:1e+308 overflows",
    ),
    # parse_angle reads 1e999 as inf; a fixed angle is refused like a grid endpoint
    "infinite_fixed_angle": (
        sweep_argv("--measure", "fidelity_w", "--omega1", "0:1:3", "--omega3", "1e999"),
        2,
        "angle must be finite, got inf",
    ),
    "infinite_alpha": (
        sweep_argv("--measure", "fidelity_w", "--alpha", "1e400", "--omega1", "0"),
        2,
        "alpha must be finite, got inf",
    ),
    "three_tangle_traced_w": (
        sweep_argv("--measure", "three_tangle", "--alpha", "0.3pi"),
        2,
        "three_tangle is undefined",
    ),
    "three_tangle_traced_ghz": (
        ["sweep", "--state", "ghz_plus", "--omega1", "0:1:3", "--measure", "three_tangle", "--alpha", "0.3pi"]
        + ["--out", "x.csv"],
        2,
        "three_tangle is undefined for the mixed states of alpha",
    ),
    "malformed_tie": (
        sweep_argv("--measure", "entropy_a", "--tie", "omega2-omega1"),
        2,
        "malformed tie 'omega2-omega1'",
    ),
    "self_tie": (sweep_argv("--measure", "entropy_a", "--tie", "omega1=omega1"), 2, "binds an axis to itself"),
    "axis_tied_twice": (
        sweep_argv("--measure", "entropy_a", "--tie", "omega2=omega1", "--tie", "omega2=omega3"),
        2,
        "axis 'omega2' is tied twice",
    ),
    "tie_cycle": (
        sweep_argv("--measure", "entropy_a", "--tie", "omega2=omega1", "--tie", "omega1=omega2"),
        2,
        "tie 'omega2=omega1' leads to the tied axis omega1; tie to a free axis",
    ),
    # a leader must be free; the refusal names the direct spelling of the chain
    "tie_chain": (
        sweep_argv("--measure", "entropy_a", "--tie", "omega3=omega2", "--tie", "omega2=omega1"),
        2,
        "leads to the tied axis omega2; tie to a free axis, as in 'omega3=omega1'",
    ),
    "value_on_tied_axis": (
        sweep_argv("--measure", "entropy_a", "--tie", "omega2=omega1", "--omega2", "1"),
        2,
        "axis omega2 is tied to omega1; give it no grid or angle",
    ),
    # argparse refusals: a bad choice or an unknown flag
    "unknown_state": (
        ["sweep", "--state", "nope", "--measure", "entropy_a", "--out", "x.csv"],
        2,
        "invalid choice: 'nope'",
    ),
    "unknown_preset": (["figure", "7q", "--out-dir", "out"], 2, "invalid choice: '7q'"),
    # the traced channel has one branch rule, so there is no flag to choose one
    "convention_flag": (
        sweep_argv("--alpha", "0.3pi", "--omega1", "0.3", "--convention", "same", "--measure", "entropy_a"),
        2,
        "unrecognized arguments: --convention same",
    ),
    # --alpha alone chooses the model: 0 is the pure transform, any other value the traced channel
    "mode_traced_flag": (
        sweep_argv("--alpha", "0.3pi", "--omega1", "0.3", "--measure", "entropy_a", "--mode", "traced"),
        2,
        "unrecognized arguments: --mode traced",
    ),
    "mode_pure_flag": (
        sweep_argv("--alpha", "0.3pi", "--omega1", "0.3", "--measure", "entropy_a", "--mode", "pure"),
        2,
        "unrecognized arguments: --mode pure",
    ),
    # I/O errors: a missing parent, a file where a directory must go, a destination naming a directory
    "missing_parent": (
        sweep_argv("--measure", "entropy_a", out="no/such/dir/out.csv"),
        3,
        "No such file or directory",
    ),
    "out_dir_is_a_file": (["figure", "1c", "--out-dir", "afile"], 3, "File exists: 'afile'"),
    "out_existing_directory": (sweep_argv("--measure", "fidelity_w", out="d"), 3, "Is a directory: 'd'"),
    "out_dot": (sweep_argv("--measure", "fidelity_w", out="."), 3, "Is a directory: '.'"),
    "out_dot_slash": (sweep_argv("--measure", "fidelity_w", out="./"), 3, "Is a directory: './'"),
    "out_dot_dot": (sweep_argv("--measure", "fidelity_w", out=".."), 3, "Is a directory: '..'"),
    # pathlib drops a trailing separator, which would name the regular file afile
    "out_file_with_slash": (sweep_argv("--measure", "fidelity_w", out="afile/"), 3, "Is a directory: 'afile/'"),
}


def tree(root):
    """Every path under ``root``, mapped to its bytes (None for a directory)."""
    return {str(path.relative_to(root)): None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


@pytest.mark.parametrize(("argv", "code", "fragment"), REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_exits_with_its_code_and_changes_no_file(argv, code, fragment, tmp_path, monkeypatch, capsys):
    # no CSV, no .<name>.<pid>.tmp, no new directory, and afile keeps its bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"old contents\n")
    (tmp_path / "d").mkdir()
    before = tree(tmp_path)
    assert run(argv) == code
    assert fragment in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_measure_ids_and_preset_names_keep_their_order(capsys):
    assert sweep.MEASURE_IDS == (
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
    assert sweep.FIGURE_NAMES == ("1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "4a", "4b")
    # the CLI offers the presets as FIGURE_NAMES orders them
    assert run(["figure", "--help"]) == 0
    assert "{1a,1b,1c,2a,2b,2c,3a,3b,4a,4b}" in capsys.readouterr().out


def test_three_tangle_only_at_alpha_zero(tmp_path):
    # the refusal at a nonzero alpha is the REFUSALS row three_tangle_traced_ghz
    out = tmp_path / "x.csv"
    argv = ["sweep", "--state", "ghz_plus", "--omega1", "0:1:3", "--measure", "three_tangle", "--out", str(out)]
    for alpha in ("0", "-0", "0pi"):
        assert run(argv + ["--alpha", alpha]) == 0
        assert len(out.read_text().splitlines()) == 4
        out.unlink()


def test_oversized_grid_exit_2(tmp_path, capsys, monkeypatch):
    def no_grid(self):
        raise AssertionError("the grid was built before the size check")

    monkeypatch.setattr(sweep.SweepGrid, "values", no_grid)
    out = tmp_path / "x.csv"
    axes = ["--omega1", "0:2pi:100000", "--omega2", "0:2pi:100000", "--omega3", "0:2pi:100000"]
    assert run(["sweep", "--state", "w", "--measure", "fidelity_w", *axes, "--out", str(out)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


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
    # reversed-branch rows off unit norm in the second chunk: exit 4 and no
    # file, as the factor's norm check is what certifies the traced densities
    transform = lorentz.product_transform_batch
    calls = []

    def reversed_half_scaled_in_second_chunk(*args, **kwargs):
        # one call per chunk: the forward rows, then the reversed ones
        rows = transform(*args, **kwargs)
        calls.append(len(rows))
        if len(calls) == 2:
            rows[len(rows) // 2 :] *= 1.0 + 1e-9
        return rows

    monkeypatch.setattr(lorentz, "product_transform_batch", reversed_half_scaled_in_second_chunk)
    out = tmp_path / "x.csv"
    grid = f"0:1:{sweep.CHUNK_POINTS + 3}"
    argv = ["sweep", "--state", "w", "--alpha", "0.25pi", "--omega1", grid]
    assert run(argv + ["--measure", "fidelity_w,concurrence_ab", "--out", str(out)]) == 4
    assert len(calls) == 2
    assert calls[1] == 2 * 3  # the scaled call was the 3-point second chunk, both branches
    assert os.listdir(tmp_path) == []


TRACED_FOUR = ["fidelity_w", "concurrence_ac", "entropy_a", "avg_capacity"]
# each case: the sweep flags, then the same sweep as run_sweep arguments
SWEEP_CASES = {
    "pure": (
        ["--state", "ghz_plus", "--measure", "fidelity_gminus,three_tangle"],
        ("ghz_plus", ["fidelity_gminus", "three_tangle"], {}),
    ),
    "traced_opposite": (
        ["--state", "w", "--alpha", "0.3pi", "--measure", ",".join(TRACED_FOUR)],
        ("w", TRACED_FOUR, dict(alpha=0.3 * np.pi)),
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

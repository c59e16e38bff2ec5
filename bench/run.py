"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload surfaces_pure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --regen-golden

The workload runs in a child interpreter with one BLAS thread and the
checkout's ``src/`` on its path (``harness.py``). With ``--trace 0`` the
last line of stdout carries the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The line before it holds the run context.
``--regen-golden`` rewrites ``golden.json`` from a fresh run of all ten
presets and prints each file's old and new SHA-256.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Fresh interpreters per run for the set-up metrics; the median is reported.
SETUP_SAMPLES = 15
# Every run must end within this many seconds, set-up included.
RUN_BUDGET_S = 170.0

# Each probe measures the reference loop first, then times its imports.
SETUP_CODE = """\
import reference, time
speed = reference.measure()
start = time.perf_counter()
import wignerqi
from wignerqi.cli import build_parser
build_parser()
print(time.perf_counter() - start, speed, wignerqi.__file__)
"""
IMPORT_CODE = """\
import reference, time
import numpy
speed = reference.measure()
start = time.perf_counter()
import wignerqi
print(time.perf_counter() - start, speed, wignerqi.__file__)
"""

GLUE_NOTE = "estimate: untraced run_figure (or query) time minus the replayed layer time, per row"
SHARE_NOTE = "base: inclusive time of the replay's top-level layer calls"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH_DIR)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"wignerqi was imported from {path}, not from {SRC}")


def fresh_import_s(code: str, env: dict[str, str], deadline: float) -> tuple[float, float]:
    """Median seconds fresh interpreters report for ``code``, raw and scaled
    by each interpreter's own reference-loop time."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        seconds, speed, path = out.stdout.split(maxsplit=2)
        check_source(path.strip())
        raw.append(float(seconds))
        scaled.append(float(seconds) * reference.NOMINAL_NS / float(speed))
    return statistics.median(raw), statistics.median(scaled)


def run_child(args, workdir: Path, env: dict[str, str], deadline: float) -> dict:
    command = [sys.executable, str(BENCH_DIR / "harness.py"), "--workdir", str(workdir)]
    if args.regen_golden:
        command.append("--regen-golden")
    else:
        command += [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    try:
        out = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload exceeded the run budget") from None
    if out.returncode != 0:
        raise BenchError(f"workload child exited {out.returncode}")
    if args.regen_golden:
        print(out.stdout, end="")
        return {}
    return json.loads(out.stdout.splitlines()[-1])


def at_nominal_speed(value: float, unit: str, scale: float) -> float:
    """Scale a time (s, us) or a rate (x/s) measured at the run's reference
    speed to the nominal one; other units are not times."""
    if unit in ("s", "us"):
        return value * scale
    if unit.endswith("/s"):
        return value / scale
    return value


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unavailable"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (context, result line)."""
    if not (SRC / "wignerqi" / "__init__.py").is_file():
        raise BenchError(f"no wignerqi sources under {SRC}")
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    workdir = WORK / f"{args.workload or 'golden'}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.regen_golden:
            run_child(args, workdir, env, deadline)
            return {}, {}
        units = declared_metrics(args.trace)
        setup_name, code = ("import.wignerqi_s", IMPORT_CODE) if args.trace else ("setup_s", SETUP_CODE)
        setup_raw, setup_scaled = fresh_import_s(code, env, deadline)
        child = run_child(args, workdir, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_source(child["context"]["wignerqi"])
    raw = {**child["metrics"], setup_name: setup_raw}
    scale = reference.NOMINAL_NS / child["reference_ns"]
    values = {name: at_nominal_speed(value, units.get(name, ""), scale) for name, value in child["metrics"].items()}
    values[setup_name] = setup_scaled
    bad = sorted(n for n in values if n not in units or not NAME_RE.match(n))
    missing = sorted(set(units) - set(values))
    if bad or missing:
        raise BenchError(f"metric names differ from BENCHMARK.json: extra {bad}, missing {missing}")
    context = {
        **child["context"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "reference_loop_ns": {"nominal": reference.NOMINAL_NS, "run_median": child["reference_ns"]},
        "raw_metrics": raw,
        "failure_reasons": child["reasons"],
        "notes": {"sweep.glue.us_per_row": GLUE_NOTE, "states.validate_share": SHARE_NOTE} if args.trace else {},
    }
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one wignerqi benchmark workload.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-golden", action="store_true", help="rewrite golden.json, printing old and new hashes")
    args = parser.parse_args(argv)
    if args.workload is None and not args.regen_golden:
        parser.error("--workload is required")
    try:
        context, result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if result:
        print(json.dumps({"context": context}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

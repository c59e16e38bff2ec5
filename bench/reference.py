"""How fast this machine runs right now, from a fixed pure-Python loop.

The machine the benchmark was written on (2 shared vCPUs) changes speed by
20-40 % within minutes, and every workload moves with it: over 15-second
windows the median point-query latency and the time of this loop had a
correlation of 0.96. ``run.py`` therefore scales every reported time to the
loop's nominal speed; the raw values go into the run context.

Only ``time`` is imported, so a fresh interpreter can measure the loop
before it imports anything that the set-up metrics time.
"""

import time

LOOP_ITERATIONS = 20000
# Loop time, in ns, of the speed all reported times are scaled to; about
# the median on the machine the benchmark was written on.
NOMINAL_NS = 1_300_000.0


def loop_ns() -> int:
    start = time.perf_counter_ns()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter_ns() - start


def measure(repeats: int = 3) -> float:
    """Median loop time in ns over ``repeats`` loops."""
    samples = sorted(loop_ns() for _ in range(repeats))
    middle = len(samples) // 2
    return float(samples[middle]) if len(samples) % 2 else (samples[middle - 1] + samples[middle]) / 2.0

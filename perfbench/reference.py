"""A fixed pure-Python reference workload that measures machine speed.

On a small shared machine the speed of the same code swings by tens of
percent from one second to the next, from load the benchmark cannot see or
control.  Every worker process runs this reference right after set-up and
after each op, for 10% of that op's time but at least 10 ms, so it samples
the machine in step with the program.  Timings are then scaled to the
speed at which one chunk takes REFERENCE_CHUNK_S: the program and the
reference slow down together, so the ratio holds steady while the raw
times drift.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one chunk takes at the median speed measured on a 2-core x86-64
# machine with Python 3.11.
REFERENCE_CHUNK_S = 0.00035


def chunk() -> int:
    """Dict, tuple, int and str work, like the interpreter-bound program."""
    table: dict[tuple[int, int], int] = {}
    for i in range(1000):
        key = (i % 97, i * 7 % 13)
        table[key] = table.get(key, 0) + len(str(i))
    return len(table)


def sample(seconds: float) -> tuple[float, int]:
    """Run whole chunks for about `seconds`; return (elapsed, chunks)."""
    start = perf_counter()
    count = 0
    while True:
        chunk()
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed, count

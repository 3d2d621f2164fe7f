"""Host-speed sampler: one process pinned to one CPU.

    python3 perfbench/speed.py CPU

The shared host runs the same code up to 2x slower for stretches of a
second to minutes, and not on every CPU at once.  While a benchmark run
lasts, run.py keeps one sampler on each CPU it uses.  Every PERIOD_S the
sampler runs a fixed chunk of the program's kinds of work (interpreter
loops and many small numpy calls) and then a half-size chunk, and records
the CPU time of each.  The first, *cold*, finds its code and data evicted
by the work timed since, so it pays for cache misses as well; the second,
*warm*, finds them cached and measures the CPU's speed alone.  Workloads
whose code is held up by its caches as much as the cold chunk is follow
the cold reading best, the others the warm one (workloads.CALIBRATION).
CPU time leaves out the time the sampler waited for the CPU.  The chunks
never call the program, so a change to the program cannot move them.

The sampler prints ``ready`` once it has started, stops when its standard
input is closed, and then prints one line per sample: ``start end cold
warm`` (``time.monotonic``, which every process of the run shares; CPU
seconds).  It sleeps between samples, so it takes about 6 % of its CPU.
"""

from __future__ import annotations

import os
import select
import sys
import time

import numpy as np

PERIOD_S = 0.025   # a chunk starts every PERIOD_S
LOOPS = 1000       # interpreter part of the cold chunk (the warm one is half)
CALLS = 40         # numpy part; on a 2-vCPU Xeon VM with a fast host the cold
                   # chunk takes about 1.1 ms of CPU and the warm one 0.33 ms


def chunk(v: np.ndarray, loops: int, calls: int) -> float:
    """A fixed mix: integer arithmetic on a dict and a list, then small numpy calls."""
    table: dict[int, int] = {}
    items = []
    for i in range(loops):
        table[i & 63] = table.get((i * 7) & 63, 0) + i % 13
        items.append(i * 0.5)
    acc = float(len(table) + len(items))
    for i in range(calls):
        x = np.cumsum(v * (i % 5 + 1))
        acc += float(np.max(np.abs(x)))
    return acc


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    v = np.random.default_rng(12345).standard_normal(64)
    samples = []
    print("ready", flush=True)
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):
            break
        start, t0 = time.monotonic(), time.thread_time()
        chunk(v, LOOPS, CALLS)
        t1 = time.thread_time()
        chunk(v, LOOPS // 2, CALLS // 2)
        t2 = time.thread_time()
        samples.append((start, time.monotonic(), t1 - t0, t2 - t1))
    sys.stdout.write("".join(f"{a:.6f} {b:.6f} {c:.7f} {w:.7f}\n" for a, b, c, w in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())

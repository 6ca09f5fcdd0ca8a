"""Self-test of the benchmark's tracing on tiny inputs.

    python3 bench/selftest.py

For each workload, runs the tiny input traced twice at 1 worker and checks
that every span and layer self time is non-negative, that the layer self
times add up to the traced wall time, that every library call passes its
correctness check, that the counts in ``spans.REPEATABLE_COUNTS`` repeat
exactly, and that both passes produce the same output digests. Exits 0
when every check holds, 1 otherwise.
"""
from __future__ import annotations

import sys

from run import load_package, traced_pass
from spans import REPEATABLE_COUNTS, check_self_times
from workloads import WORKLOADS


def checked_pass(sp, wl, size):
    tracer, wall, out = traced_pass(sp, wl, 1, size, f"selftest-{wl.name}")
    return tracer, wall, wl.check(sp, out, size).ops


def main() -> int:
    sp = load_package()
    problems = []
    for wl in WORKLOADS.values():
        size = wl.sizes["tiny"]
        runs = [checked_pass(sp, wl, size) for _ in range(2)]
        for i, (tracer, wall, ops) in enumerate(runs, start=1):
            problems += [f"{wl.name} run {i}: {p}" for p in check_self_times(tracer, wall)]
            # A count hook that raises fails the call it wraps.
            problems += [f"{wl.name} run {i}: {op.name} failed ({op.note})"
                         for op in ops if not op.ok]
        counts = [{k: t.counts[k] for k in REPEATABLE_COUNTS} for t, _, _ in runs]
        if counts[0] != counts[1]:
            problems.append(f"{wl.name}: counts differ between runs: {counts}")
        if [op.digest for op in runs[0][2]] != [op.digest for op in runs[1][2]]:
            problems.append(f"{wl.name}: output digests differ between runs")
        print(f"{wl.name}: traced {runs[0][1]:.3f} s and {runs[1][1]:.3f} s, "
              f"{len(runs[0][0].spans)} spans, counts {counts[0]}")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

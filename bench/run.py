"""symmpoly benchmark: one workload per process, timed or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy.

--trace 0 measures the end-to-end metrics. It repeats the workload at 2
workers for about S seconds (at least one pass; it stops when the next pass
would end more than half a pass after S) and reports the median pass and
the peak memory through the first pass. It then starts the interpreter
SETUP_REPEATS times to time set-up (interpreter start until ``import
symmpoly`` is done and a first call returns) and reports the median start.

--trace 1 measures the per-layer metrics. It runs the workload once traced
at 1 worker, so every chunk runs in-process, then once untraced at 1 worker
(the tracing overhead is the difference) and once untraced at 2 workers
(for the parallel efficiency). The spans and counts are written to
``.bench_out/`` at the end.

Every pass checks each library call's output and digest; within a run all
digests must match the first pass, so outputs are also compared across
worker counts. The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import (Tracer, check_self_times, install,  # noqa: E402
                   per_layer_metrics)
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKERS = 2
# Set-up is timed after the passes, so that these interpreters are not among
# the children whose memory peak_rss_mb reads.
SETUP_REPEATS = 5

# ROADMAP baseline (2 cores, one run each): ms per 4096-sample chunk at
# n = 100 for samplers and kernels, n = 10 for the Haar block.
BASELINE_MS = {
    "polygons.chunk_ms.arm2": (42, 42), "polygons.chunk_ms.pol2": (58, 58),
    "polygons.chunk_ms.arm3": (78, 78), "polygons.chunk_ms.pol3": (129, 129),
    "functionals.turning_chunk_ms": (28, 33),
    "functionals.torsion_chunk_ms": (100, 122),
    "haar.chunk_ms": (75, 75),
}

SETUP_CODE = ("import time, symmpoly; symmpoly.b2(1, 100); "
              "print(time.monotonic())")


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return p.stdout.strip() if p.returncode == 0 else "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    """Per-core size of the unified cache at this level, as the kernel reports it."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return "unknown"


def print_environment(seed: int) -> None:
    import numpy
    import scipy
    print("environment:")
    print(f"  nproc: {len(os.sched_getaffinity(0))}")
    print(f"  cpu: {_cpu_model()}")
    print(f"  l2: {_cache_size(2)}  l3: {_cache_size(3)}")
    print(f"  python: {platform.python_version()}  numpy: {numpy.__version__}"
          f"  scipy: {scipy.__version__}")
    print(f"  commit: {_git_commit()}")
    print(f"  seed: {seed}")


def measure_setup() -> float:
    """Seconds from interpreter start until symmpoly is imported and usable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=120, check=True)
    return float(p.stdout.split()[-1]) - t0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the pool workers.
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Tally:
    """Attempted and failed operations, digests compared to the first pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.notes = []

    def add(self, label: str, ops) -> None:
        if self.reference is None:
            self.reference = [op.digest for op in ops]
        for i, op in enumerate(ops):
            self.attempted += 1
            same = i < len(self.reference) and op.digest == self.reference[i]
            if not op.ok or not same:
                self.failed += 1
                why = op.note if not op.ok else "digest differs from the first pass"
                self.notes.append(f"{label}: {op.name} FAILED ({why})")

    def digest(self) -> str:
        return hashlib.sha256("".join(self.reference or []).encode()).hexdigest()


def load_package():
    """Import symmpoly from src/ beside this directory, or exit with code 2."""
    if not (SRC / "symmpoly" / "__init__.py").is_file():
        print(f"bench: no symmpoly package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import symmpoly
    if Path(symmpoly.__file__).resolve().parent != (SRC / "symmpoly").resolve():
        print(f"bench: imported symmpoly from {symmpoly.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    OUT_DIR.mkdir(exist_ok=True)
    return symmpoly


def timed(sp, wl, seed: int, seconds: int, size: dict, tally: Tally) -> dict:
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()  # the previous pass's garbage is not this pass's cost
        t0 = time.perf_counter()
        out = wl.run(sp, seed, WORKERS, size, OUT_DIR)
        wall = time.perf_counter() - t0
        walls.append(wall)
        tally.add(f"pass {len(walls)}", wl.check(sp, out, size).ops)
        print(f"pass {len(walls)}: {wall:.4f} s")
        if len(walls) == 1:
            # Read after the first pass, as a one-off command would use it:
            # the allocator keeps freed memory, so later passes would make
            # the peak grow with the number of passes.
            peak = peak_rss_mb()
        # Stop when the next pass would end more than half a pass after the
        # window: the measured time is then S on average, and a run's length
        # does not grow by a whole pass of a slow workload.
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(walls)) >= seconds:
            break
    wall_s = statistics.median(walls)
    print(f"passes: {len(walls)}, median {wall_s:.4f} s, "
          f"range {min(walls):.4f}-{max(walls):.4f} s")
    return {
        "wall_s": (wall_s, "s"),
        "samples_per_s": (wl.samples(size) / wall_s, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }


def traced_pass(sp, wl, seed: int, size: dict, run_id: str):
    """One pass at 1 worker with every layer boundary wrapped.

    Returns (tracer, wall seconds measured around the root span, outputs).
    """
    tracer = Tracer(run_id)
    try:
        install(tracer, sp)
        t0 = time.perf_counter()
        out = tracer.root(lambda: wl.run(sp, seed, 1, size, OUT_DIR))
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, wall, out


def traced(sp, wl, seed: int, size: dict, tally: Tally) -> dict:
    tracer, traced_wall, out = traced_pass(
        sp, wl, seed, size, f"{wl.name}-seed{seed}-pid{os.getpid()}")
    checked = wl.check(sp, out, size)
    tally.add("traced workers=1", checked.ops)
    walls = {}
    for workers in (1, WORKERS):
        t0 = time.perf_counter()
        out = wl.run(sp, seed, workers, size, OUT_DIR)
        walls[workers] = time.perf_counter() - t0
        tally.add(f"untraced workers={workers}", wl.check(sp, out, size).ops)
    # Trace defects are the benchmark's, not the program's: they are
    # reported here and fail the self-test, not the run.
    for problem in check_self_times(tracer, traced_wall):
        print(f"trace warning: {problem}")
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(path)
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"traced wall {traced_wall:.4f} s, untraced workers=1 {walls[1]:.4f} s, "
          f"workers={WORKERS} {walls[WORKERS]:.4f} s")
    return per_layer_metrics(tracer, walls[1], walls[WORKERS], checked.counts)


def print_cross_check(metrics: dict) -> None:
    print("baseline cross-check (ms per 4096-sample chunk):")
    for name, (lo, hi) in BASELINE_MS.items():
        value = metrics[name][0]
        base = f"{lo}" if lo == hi else f"{lo}-{hi}"
        if value == 0:
            print(f"  {name}: not drawn by this workload (baseline {base})")
            continue
        gap = max(0.0, lo - value, value - hi) / (lo if value < lo else hi)
        flag = "  GAP > 25%" if gap > 0.25 else ""
        print(f"  {name}: {value:.1f} vs baseline {base} ({100 * gap:.0f}% outside){flag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    sp = load_package()
    print_environment(args.seed)
    wl = WORKLOADS[args.workload]
    size = wl.sizes["full"]
    print(f"workload: {wl.name} ({wl.why})  size: {size}")

    tally = Tally()
    if args.trace == 0:
        metrics = timed(sp, wl, args.seed, args.seconds, size, tally)
        setup = [measure_setup() for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(setup), "s")
        print(f"setup runs: {[round(s, 4) for s in setup]}")
    else:
        metrics = traced(sp, wl, args.seed, size, tally)
        print_cross_check(metrics)

    for note in tally.notes:
        print(note)
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"error_rate = {tally.failed / tally.attempted:.4g}")
    print(f"output digest: {tally.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

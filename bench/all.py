"""Run every workload, each in a fresh process, and print all metrics.

    python3 bench/all.py [--seed N] [--seconds S]

For each workload this runs ``bench/run.py`` once traced (--trace 1)
and once timed (--trace 0), prints every metric with its unit, and exits 1
if any run failed, reported an incorrect output or printed no result.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: exit {p.returncode}, no result\n{p.stderr}")
                ok = False
                continue
            ok &= p.returncode == 0 and result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines:
                if "FAILED" in line or "warning" in line or "GAP" in line:
                    print(f"  {line.strip()}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

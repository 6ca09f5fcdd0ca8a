"""scipy stays off the import path: the samplers, kernels, TV estimates and
bounds load numpy and the standard library only, and the checks that need
scipy import it when they run."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints, after each step, which of the scipy modules the package could
# load are in sys.modules. Each step runs in the one fresh interpreter, as
# a user's process would.
PROBE = """
import json, sys
SCIPY = ("scipy.stats", "scipy.integrate", "scipy.special")
loaded = {}
def note(step):
    loaded[step] = [m for m in SCIPY if m in sys.modules]
import symmpoly
note("import")
from symmpoly import cli, verify
assert cli.run(["sample", "--space", "pol3", "--n", "12", "--count", "40",
                "--workers", "2", "--out", "s.jsonl"]) == 0
note("sample")
assert cli.run(["tv", "--space", "arm2", "--n", "20", "--count", "2000",
                "--bins", "4", "--out", "tv.csv"]) == 0
note("tv")
assert cli.run(["stats", "--space", "arm3", "--n", "10", "--count", "200",
                "--out", "stats.csv"]) == 0
note("stats")
assert cli.run(["bounds", "--dim", "3", "--n", "100", "--out", "b.csv"]) == 0
note("bounds")
assert all(r.passed for r in verify.density_checks(7, 20000))
note("density_checks")
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_the_checks_that_use_it(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "sample", "tv", "stats", "bounds"):
        assert loaded[step] == [], step
    assert loaded["density_checks"] == ["scipy.stats", "scipy.integrate",
                                        "scipy.special"]

"""scipy stays off the import path: the samplers, kernels, TV estimates and
bounds load numpy and the standard library only, and the checks that need
scipy import it when they run. No module imports a name it does not use."""
import ast
import json
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


def test_scipy_loads_only_for_the_checks_that_use_it(tmp_path, src_env):
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path,
                          env=src_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "sample", "tv", "stats", "bounds"):
        assert loaded[step] == [], step
    assert loaded["density_checks"] == ["scipy.stats", "scipy.integrate",
                                        "scipy.special"]


# Imported and never used, on purpose: the benchmark's tracers wrap these
# names on these modules, so they stay importable there until the benchmark
# reads the library's events instead (ROADMAP item 6).
BENCH_PINNED_IMPORTS = {("cli", "segment_samples"),
                        ("verify", "covariance_partition"),
                        ("verify", "_haar_unitary_batch")}


def _unused_imports(path: Path):
    """The names a module imports and never reads, __future__ aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    unused = {(path.stem, name)
              for path in sorted((SRC / "symmpoly").glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(path)}
    assert unused == BENCH_PINNED_IMPORTS

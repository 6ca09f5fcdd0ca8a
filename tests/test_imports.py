"""The package loads submodules on first use: `import symmpoly` imports
none, the bounds import only `bounds` and `errors`, and the samplers none
of `verify`, `cli`, `io` or `densities`. scipy stays off the import path:
the samplers, kernels, TV estimates and bounds load numpy and the standard
library only, and the checks that need scipy import it when they run,
scipy.special alone. No module imports a name it does not use."""
import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "symmpoly").glob("*.py")
                    if not p.name.startswith("__"))


def _fresh(code, tmp_path, env):
    """Run code in a fresh interpreter; return the JSON of its last line."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Prints the symmpoly submodules in sys.modules after the statements given.
LOADED = """
import json, sys
{}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("symmpoly."))))
"""


def test_import_loads_no_submodule(tmp_path, src_env):
    assert _fresh(LOADED.format("import symmpoly"), tmp_path, src_env) == []


def test_bounds_load_only_bounds_and_errors(tmp_path, src_env):
    code = LOADED.format("import symmpoly; symmpoly.b2(1, 100)")
    assert _fresh(code, tmp_path, src_env) == ["symmpoly.bounds", "symmpoly.errors"]


def test_tv_estimate_loads_no_checks_cli_io_or_densities(tmp_path, src_env):
    code = LOADED.format('import symmpoly; symmpoly.estimate_tv('
                         '"pol2", "arm2", 20, 1, 2000, 4, seed=7)')
    loaded = _fresh(code, tmp_path, src_env)
    assert "symmpoly.ensembles" in loaded
    for name in ("verify", "cli", "io", "densities"):
        assert f"symmpoly.{name}" not in loaded, name


def test_public_names_are_their_modules_objects(tmp_path, src_env):
    # each name read from the package is its home module's object, and a
    # function or class is defined there, not re-exported from elsewhere
    code = """
import importlib, json, symmpoly
bad = []
for name in symmpoly.__all__:
    home = "symmpoly." + symmpoly._HOME[name]
    value = getattr(symmpoly, name)
    if value is not getattr(importlib.import_module(home), name):
        bad.append(name)
    if getattr(value, "__module__", home) != home and callable(value):
        bad.append(name)
    if symmpoly.__dict__.get(name) is not value:
        bad.append(name)
print(json.dumps(bad))
"""
    assert _fresh(code, tmp_path, src_env) == []


def test_dir_lists_every_public_name_and_submodule(tmp_path, src_env):
    code = """
import json, sys, symmpoly
names = dir(symmpoly)
print(json.dumps([names, symmpoly.__all__,
                  [m for m in sys.modules if m.startswith("symmpoly.")]]))
"""
    names, public, loaded = _fresh(code, tmp_path, src_env)
    assert set(public) | set(SUBMODULES) <= set(names)
    assert names == sorted(names)
    assert loaded == []  # listing the names imports nothing


def test_unknown_attribute_raises_attribute_error(tmp_path, src_env):
    code = """
import json, symmpoly
try:
    symmpoly.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), hasattr(symmpoly, "no_such_name")]))
"""
    message, found = _fresh(code, tmp_path, src_env)
    assert message == "module 'symmpoly' has no attribute 'no_such_name'"
    assert found is False


def test_star_import_binds_every_public_name(tmp_path, src_env):
    code = """
import json
from symmpoly import *
import symmpoly
print(json.dumps([n for n in symmpoly.__all__
                  if globals().get(n) is not getattr(symmpoly, n)]))
"""
    assert _fresh(code, tmp_path, src_env) == []


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
assert all(r.passed for r in verify.extended_density_checks(7, 20000))
note("extended_density_checks")
verify.DESK_N, verify.DESK_N_TV, verify.DESK_N_STRUCT = 8192, 32768, 64
verify.run_verify("desk", 7)
note("run_verify")
print(json.dumps(loaded))
"""


def test_scipy_loads_only_for_the_checks_that_use_it(tmp_path, src_env):
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path,
                          env=src_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "sample", "tv", "stats", "bounds"):
        assert loaded[step] == [], step
    # the density checks need betainc and gammaln; their quadrature is numpy's
    for step in ("density_checks", "extended_density_checks", "run_verify"):
        assert loaded[step] == ["scipy.special"], step


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

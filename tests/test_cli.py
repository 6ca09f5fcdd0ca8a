"""Command-line interface: outputs, determinism, and exit codes."""
import csv
import io
import subprocess
import sys

import pytest

from symmpoly import b2, closure_residual, perimeter, read_ensemble
from symmpoly.cli import run

SEED_ARGS = ["--seed", "7"]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sample_writes_valid_closed_polygons(tmp_path, capsys):
    out = tmp_path / "pol.jsonl"
    code = run(["sample", "--space", "pol2", "--n", "12", "--count", "3",
                "--out", str(out), *SEED_ARGS])
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n")
    polys = read_ensemble(str(out))
    assert len(polys) == 3
    for p in polys:
        assert p.closed and p.n == 12
        assert closure_residual(p) <= 1e-10
        assert abs(perimeter(p) - 2.0) <= 1e-10


def test_sample_stdout_and_determinism(capsys):
    assert run(["sample", "--space", "arm3", "--n", "5", "--count", "2",
                *SEED_ARGS]) == 0
    first = capsys.readouterr().out
    assert run(["sample", "--space", "arm3", "--n", "5", "--count", "2",
                *SEED_ARGS]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(first.splitlines()) == 2
    polys = read_ensemble(io.StringIO(first))
    assert all(not p.closed and p.dim == 3 for p in polys)


def test_sample_worker_count_is_invisible(tmp_path):
    a = tmp_path / "w1.jsonl"
    b = tmp_path / "w4.jsonl"
    for path, workers in ((a, "1"), (b, "4")):
        assert run(["sample", "--space", "pol3", "--n", "8", "--count", "20",
                    "--workers", workers, "--out", str(path), *SEED_ARGS]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stats_csv(tmp_path):
    out = tmp_path / "stats.csv"
    assert run(["stats", "--space", "arm2", "--n", "20", "--count", "2000",
                "--out", str(out), *SEED_ARGS]) == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["space", "n", "count", "seed", "functional", "mean",
                       "variance", "std_error", "excluded"]
    assert [r[4] for r in rows[1:]] == ["theta1", "total_curvature"]
    assert rows[1][:4] == ["arm2", "20", "2000", "7"]
    assert 0.0 < float(rows[1][5]) < 3.15
    assert rows[1][8] == "0"


def test_stats_spatial_functionals(tmp_path):
    out = tmp_path / "stats3.csv"
    assert run(["stats", "--space", "pol3", "--n", "10", "--count", "500",
                "--out", str(out), *SEED_ARGS]) == 0
    rows = _read_csv(str(out))
    assert [r[4] for r in rows[1:]] == ["theta1", "tau1", "total_curvature",
                                        "total_torsion"]


def test_tv_csv_and_cells(tmp_path):
    out = tmp_path / "tv.csv"
    cells = tmp_path / "cells.csv"
    assert run(["tv", "--space", "pol2", "--n", "20", "--count", "20000",
                "--k", "1", "--bins", "8", "--out", str(out),
                "--cells-out", str(cells), *SEED_ARGS]) == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["space_a", "space_b", "n", "k", "count",
                       "bins_per_axis", "seed", "tv_estimate",
                       "null_calibration"]
    assert rows[1][:2] == ["pol2", "arm2"]  # counterpart space by default
    assert 0.0 <= float(rows[1][7]) <= 1.0
    cell_rows = _read_csv(str(cells))
    assert cell_rows[0] == ["cell", "axis0", "axis1", "count_a", "count_b"]
    assert len(cell_rows) == 1 + 64
    assert sum(int(r[3]) for r in cell_rows[1:]) == 20000


def test_tv_explicit_space_b(tmp_path):
    out = tmp_path / "tv2.csv"
    assert run(["tv", "--space", "arm2", "--space-b", "arm2", "--n", "20",
                "--count", "10000", "--bins", "8", "--out", str(out),
                *SEED_ARGS]) == 0
    rows = _read_csv(str(out))
    assert rows[1][:2] == ["arm2", "arm2"]
    assert float(rows[1][7]) < 0.1


def test_bounds_single_value(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--dim", "2", "--k", "2", "--n", "100",
                "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["family", "k", "n", "value", "clipped",
                       "asymptote_coeff"]
    # the CSV carries the library value verbatim (shortest exact repr)
    value = repr(b2(2, 100))
    assert rows[1] == ["b2", "2", "100", value, value, "31.0"]


def test_bounds_sweep_and_clipping(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bounds", "--dim", "3", "--n", "100", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert len(rows) == 1 + 10  # k = 1..10
    assert rows[1][0] == "b3"
    assert rows[1][5] == ""  # k = 1 has no 1/n asymptote coefficient
    assert rows[2][5] == "37.5"
    values = [float(r[3]) for r in rows[1:]]
    assert values == sorted(values)
    out2 = tmp_path / "clip.csv"
    assert run(["bounds", "--dim", "2", "--n", "10", "--out", str(out2)]) == 0
    rows2 = _read_csv(str(out2))
    assert len(rows2) == 1 + 5
    assert float(rows2[1][3]) > 2.0
    assert float(rows2[1][4]) == 2.0


def test_density_check_small_count_fails(tmp_path, capsys):
    out = tmp_path / "den.csv"
    code = run(["density-check", "--count", "400", "--out", str(out),
                *SEED_ARGS])
    assert code == 1
    rows = _read_csv(str(out))
    assert rows[0] == ["check", "statistic", "threshold", "pass"]
    verdicts = {r[0]: r[3] for r in rows[1:]}
    # arithmetic checks hold at any count; the sampled-law KS checks do not
    assert verdicts["block_normalization"] == "true"
    assert verdicts["cbi_normalization"] == "true"
    assert "false" in {r[3] for r in rows[1:]}


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["sample", "--space", "ring", "--n", "10"]) == 2
    assert run(["sample", "--space", "arm2"]) == 2
    assert run(["bounds", "--dim", "2", "--n", "abc"]) == 2
    capsys.readouterr()
    # an output path that cannot be opened is reported, not raised
    missing = tmp_path / "missing" / "x.csv"
    assert run(["bounds", "--dim", "2", "--n", "100", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("symmpoly: ")
    assert not missing.parent.exists()


def test_domain_errors_exit_two(tmp_path, capsys):
    # n below the minimum polygon size
    assert run(["sample", "--space", "arm2", "--n", "2", *SEED_ARGS]) == 2
    # segment length outside the bound's validity range
    assert run(["bounds", "--dim", "2", "--k", "9", "--n", "12"]) == 2
    # no valid sweep range at all
    assert run(["bounds", "--dim", "2", "--n", "5"]) == 2
    # negative seed rejected by the stream constructor
    assert run(["stats", "--space", "arm2", "--n", "10", "--count", "100",
                "--seed", "-3"]) == 2
    # histogram too fine for the sample count
    assert run(["tv", "--space", "pol2", "--n", "20", "--count", "1000",
                "--k", "2", "--bins", "8", *SEED_ARGS]) == 2
    # no workers to run on
    assert run(["tv", "--space", "pol2", "--n", "20", "--count", "20000",
                "--workers", "0", *SEED_ARGS]) == 2
    # no samples to check the matrix laws on
    for count in ("0", "-5"):
        assert run(["density-check", "--count", count, *SEED_ARGS]) == 2
    err = capsys.readouterr().err
    assert "symmpoly:" in err


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "symmpoly", "bounds", "--dim", "2", "--k", "2",
         "--n", "100", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert repr(b2(2, 100)) in out.read_text()

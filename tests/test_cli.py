"""Command-line interface: outputs, determinism, and exit codes."""
import csv
import hashlib
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import types

import pytest

from symmpoly import (Polygon, b2, closure_residual, perimeter, read_ensemble,
                      segment_samples, write_ensemble)
from symmpoly import cli, ensembles
from symmpoly.cli import run
from symmpoly.polygons import space_dim
from symmpoly.verify import CheckResult, write_results_csv

SEED_ARGS = ["--seed", "7"]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """The temp dir that `sample` makes its spill directory in."""
    root = tmp_path / "spill"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


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


def test_small_sample_forks_no_pool(tmp_path, monkeypatch):
    # 5000 polygons of 10 edges are two chunks and 50,000 drawn edges, under
    # the in-process cut that list runs follow too: no pool at 2 workers
    opened = []

    def counting_pool(processes):
        opened.append(processes)
        return multiprocessing.get_context().Pool(processes)

    monkeypatch.setattr(ensembles, "_new_pool", counting_pool)
    outs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.jsonl"
        assert run(["sample", "--space", "pol3", "--n", "10", "--count", "5000",
                    "--workers", workers, "--out", str(path), *SEED_ARGS]) == 0
        outs.append(path.read_bytes())
    assert opened == []
    assert outs[0] == outs[1]
    assert len(read_ensemble(io.StringIO(outs[0].decode()))) == 5000


# `sample` output, pinned by digest: the block formatter must write the
# bytes of "%.17g" per coordinate. In the arm2 file about 13% of the
# coordinates fall outside [1e-4, 1) and take the "%.17g" fallback.
SAMPLE_JSONL_SHA256 = {
    ("pol3", "100", "300"): "3ca7050a83956c76c8174532bb43f14fe36b47555de27d0f2f168648b6d53c0e",
    ("arm2", "1000", "50"): "265e8c1cda197a90503a3a13709fb354eb99013ff81eda3222f347e2e9344c38",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("space,n,count", sorted(SAMPLE_JSONL_SHA256))
def test_sample_digest_is_pinned(space, n, count, workers, tmp_path):
    out = tmp_path / "s.jsonl"
    assert run(["sample", "--space", space, "--n", n, "--count", count,
                "--workers", workers, "--out", str(out), *SEED_ARGS]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SAMPLE_JSONL_SHA256[(space, n, count)]


@pytest.mark.parametrize("space", ["arm2", "pol2", "arm3", "pol3"])
def test_sample_streams_chunks_in_order(space, tmp_path, monkeypatch,
                                        spill_root, dispatch_every_run):
    # 20 samples in chunks of 7 are three chunks, the last one short; the
    # file must be the whole ensemble, as one segment_samples draw gives it
    monkeypatch.setattr(ensembles, "CHUNK_SIZE", 7)
    copy = shutil.copyfileobj
    spilled = []

    def counting_copy(src, dst, length):
        spilled.append(len(os.listdir(os.path.dirname(src.name))))
        copy(src, dst, length)

    monkeypatch.setattr(shutil, "copyfileobj", counting_copy)
    n = 6
    outs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.jsonl"
        spilled.clear()
        assert run(["sample", "--space", space, "--n", str(n), "--count", "20",
                    "--workers", workers, "--out", str(path), *SEED_ARGS]) == 0
        outs.append(path.read_bytes())
        # one spill file per chunk, at most 2 * workers of them at once, and
        # none left afterwards
        assert len(spilled) == 3 and max(spilled) <= 2 * int(workers)
        assert not any(spill_root.iterdir())
    dim = space_dim(space)
    flat = segment_samples(space, n, n, 20, 7)
    buf = io.StringIO()
    write_ensemble(buf, [Polygon(dim=dim, closed=space.startswith("pol"),
                                 edges=row.reshape(n, dim)) for row in flat])
    assert outs[0] == outs[1] == buf.getvalue().encode()


def test_sample_errors_leave_the_output_alone(tmp_path, capsys, spill_root):
    out = tmp_path / "keep.jsonl"
    out.write_text("earlier contents\n")
    for bad in (["--count", "0"], ["--n", "2"], ["--workers", "0"]):
        argv = ["sample", "--space", "arm2", "--n", "10", "--count", "5",
                "--out", str(out), *SEED_ARGS]
        # later flags win over the defaults above
        assert run(argv + bad) == 2, bad
        assert out.read_text() == "earlier contents\n", bad
        assert not any(spill_root.iterdir()), bad
    assert "symmpoly:" in capsys.readouterr().err


def test_sample_opens_its_output_before_drawing(tmp_path, monkeypatch, capsys):
    drawn = []
    eval_chunk = ensembles._eval_chunk

    def logged(args):
        drawn.append(args[4])
        return eval_chunk(args)

    monkeypatch.setattr(ensembles, "_eval_chunk", logged)
    missing = tmp_path / "missing" / "x.jsonl"
    assert run(["sample", "--space", "pol3", "--n", "20", "--count", "100",
                "--out", str(missing), *SEED_ARGS]) == 2
    assert capsys.readouterr().err.startswith("symmpoly: ")
    assert drawn == []


def test_sample_without_a_spill_directory_leaves_the_output_alone(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "keep.jsonl"
    out.write_text("earlier contents\n")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert run(["sample", "--space", "arm2", "--n", "10", "--count", "5",
                "--out", str(out), *SEED_ARGS]) == 2
    assert out.read_text() == "earlier contents\n"
    assert capsys.readouterr().err.startswith("symmpoly: ")


def test_sample_failing_after_its_first_chunk(tmp_path, monkeypatch, capsys,
                                             spill_root):
    # chunks of 7, and the copy of the second fails: an existing file holds
    # the first chunk and nothing of its earlier, longer contents; a new
    # file is removed
    monkeypatch.setattr(ensembles, "CHUNK_SIZE", 7)
    copy = shutil.copyfileobj
    copied = []

    def failing_copy(src, dst, length):
        if copied:
            raise OSError("disk full")
        copied.append(src.name)
        copy(src, dst, length)

    monkeypatch.setattr(shutil, "copyfileobj", failing_copy)
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("earlier contents\n" * 10_000)
    for out in (old, new):
        copied.clear()
        assert run(["sample", "--space", "pol2", "--n", "5", "--count", "20",
                    "--out", str(out), *SEED_ARGS]) == 2
    assert len(read_ensemble(str(old))) == 7
    assert not new.exists()
    assert "disk full" in capsys.readouterr().err


def test_sample_write_error_closes_the_stream(monkeypatch, capsys, spill_root,
                                               dispatch_every_run):
    # a failed write ends the run with exit 2, terminates the pool that the
    # chunk stream opened, and then removes the spill directory
    monkeypatch.setattr(ensembles, "CHUNK_SIZE", 7)
    pools = []

    class Pool:
        def __init__(self, processes):
            self.terminated = False
            pools.append(self)

        def terminate(self):
            # the pool ends while its workers' spill directory still exists
            self.terminated = any(spill_root.iterdir())

        def apply_async(self, fn, args):
            result = fn(*args)
            return types.SimpleNamespace(get=lambda: result)

    class Broken:
        def write(self, text):
            raise OSError("disk full")

    monkeypatch.setattr(ensembles, "_new_pool", Pool)
    monkeypatch.setattr(sys, "stdout", Broken())
    assert run(["sample", "--space", "pol2", "--n", "5", "--count", "40",
                "--workers", "2", *SEED_ARGS]) == 2
    assert "disk full" in capsys.readouterr().err
    assert len(pools) == 1 and pools[0].terminated
    assert ensembles._BLOCK is None
    assert not any(spill_root.iterdir())


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
    # a device takes the output too, though it cannot be truncated
    assert run(["bounds", "--dim", "2", "--k", "2", "--n", "100",
                "--out", os.devnull]) == 0


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


DENSITY_CHECK_SHA256 = "9b4e792baf6c0d9b5e8612d61ab6f592168fa7007fe51d30809a2afba86d8b28"


def test_density_check_digest_is_pinned(tmp_path):
    out = tmp_path / "den.csv"
    assert run(["density-check", "--count", "40000", "--out", str(out),
                *SEED_ARGS]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DENSITY_CHECK_SHA256


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


# Each CSV command with the library call that does its work; the call must
# not run when --out cannot be opened.
OUTPUT_COMMANDS = {
    "stats": (["stats", "--space", "pol3", "--n", "100", "--count", "50000"],
              cli, "run_ensemble"),
    "tv": (["tv", "--space", "pol2", "--n", "20", "--count", "20000"],
           cli, "estimate_tv"),
    "bounds": (["bounds", "--dim", "2", "--n", "100"], cli.bounds, "b2"),
    "verify": (["verify"], cli, "run_verify"),
    "density-check": (["density-check", "--count", "100000"],
                      cli, "extended_density_checks"),
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_verify_checks_its_output_path_first(command, tmp_path, monkeypatch,
                                             capsys):
    argv, module, call = OUTPUT_COMMANDS[command]

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{call} called before --out was opened")

    monkeypatch.setattr(module, call, must_not_run)
    missing = tmp_path / "missing" / "out.csv"
    assert run(argv + ["--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("symmpoly: ")
    assert not missing.parent.exists()


def test_verify_keeps_an_earlier_csv_until_it_has_results(tmp_path, monkeypatch,
                                                         capsys):
    out = tmp_path / "v.csv"
    out.write_text("an earlier, longer results file\n" * 20)
    assert run(["verify", "--workers", "0", "--out", str(out)]) == 2
    assert out.read_text() == "an earlier, longer results file\n" * 20
    # ... and a failed run leaves no file where there was none
    new = tmp_path / "new.csv"
    assert run(["verify", "--workers", "0", "--out", str(new)]) == 2
    assert not new.exists()
    results = [CheckResult(1, "fake_check", 0.5, 1.0, "<=", True)]
    monkeypatch.setattr(cli, "run_verify", lambda level, seed, workers: results)
    assert run(["verify", "--out", str(out)]) == 0
    buf = io.StringIO()
    write_results_csv(buf, results)
    assert out.read_text() == buf.getvalue()
    capsys.readouterr()


def test_tv_opens_both_outputs_before_writing(tmp_path, capsys):
    out = tmp_path / "tv.csv"
    cells = tmp_path / "missing" / "cells.csv"
    assert run(["tv", "--space", "pol2", "--n", "20", "--count", "20000",
                "--out", str(out), "--cells-out", str(cells), *SEED_ARGS]) == 2
    assert capsys.readouterr().err.startswith("symmpoly: ")
    assert not out.exists()


def test_tv_refuses_one_file_for_both_outputs(tmp_path, capsys, monkeypatch):
    # an existing file named two ways, and a new one: exit 2 before any
    # sampling, the existing file left as it was and no new one made
    monkeypatch.setattr(cli, "estimate_tv", None)
    old = tmp_path / "old.csv"
    old.write_text("earlier contents\n")
    (tmp_path / "sub").mkdir()
    new = tmp_path / "new.csv"
    for out, cells in ((old, tmp_path / "sub" / ".." / "old.csv"),
                       (new, tmp_path / "sub" / ".." / "new.csv")):
        assert run(["tv", "--space", "pol2", "--n", "20", "--k", "1",
                    "--count", "2000", "--bins", "4", "--out", str(out),
                    "--cells-out", str(cells), *SEED_ARGS]) == 2
        assert "--cells-out" in capsys.readouterr().err
    assert old.read_text() == "earlier contents\n"
    assert not new.exists()


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
    # a segment longer than the polygon, however many cells it would need
    for k in ("101", "5000"):
        assert run(["tv", "--space", "pol2", "--n", "100", "--k", k,
                    "--bins", "4", "--count", "1000", *SEED_ARGS]) == 2
        assert ("segment length must satisfy 1 <= k <= n, got k=" + k
                in capsys.readouterr().err)
    # no samples to check the matrix laws on
    for count in ("0", "-5"):
        assert run(["density-check", "--count", count, *SEED_ARGS]) == 2
    err = capsys.readouterr().err
    assert "symmpoly:" in err


def test_module_entry_point(tmp_path, src_env):
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "symmpoly", "bounds", "--dim", "2", "--k", "2",
         "--n", "100", "--out", str(out)],
        env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert repr(b2(2, 100)) in out.read_text()

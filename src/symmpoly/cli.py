"""Command-line front end.

Subcommands: sample (JSONL polygons), stats (moment CSV), tv (binned TV
CSV, optional grid-cell CSV), bounds (bound-value CSV), verify (the full
check suite), density-check (matrix-density checks CSV).

Every command takes --seed (default 7) and is byte-deterministic given its
flags; --workers only changes scheduling. Exit codes: 0 success, 1 failed
verification checks, 2 usage or domain errors and output files that cannot
be written.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import sys
import tempfile

import numpy as np

from . import bounds
from .errors import BoundUndefinedError, SymmpolyError
# segment_samples has no caller here; it stays importable from this module
# because benchmark tracers wrap it by name.
from .ensembles import _iter_chunks, estimate_tv, run_ensemble, segment_samples
from .io import write_csv, write_ensemble
from .polygons import SPACES, Polygon, space_dim
from .verify import (extended_density_checks, format_check_line, run_verify,
                     write_results_csv)

DEFAULT_SEED = 7

_COUNTERPART = {"arm2": "pol2", "pol2": "arm2", "arm3": "pol3", "pol3": "arm3"}

STATS_HEADER = ("space", "n", "count", "seed", "functional", "mean",
                "variance", "std_error", "excluded")
TV_HEADER = ("space_a", "space_b", "n", "k", "count", "bins_per_axis", "seed",
             "tv_estimate", "null_calibration")
BOUNDS_HEADER = ("family", "k", "n", "value", "clipped", "asymptote_coeff")
DENSITY_HEADER = ("check", "statistic", "threshold", "pass")


@contextlib.contextmanager
def _out_stream(path):
    """Stdout for None or "-", else the file at ``path``: opened, not
    truncated, before the block's work, and cut to what the block wrote when
    it ends. A failed block removes a new file; an existing one is left as it
    was unless the block had begun to write it."""
    if path is None or path == "-":
        yield sys.stdout
        return
    existed = os.path.exists(path)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8", newline="") as handle:
        try:
            yield handle
        except BaseException:
            if not existed:
                os.remove(path)
            elif os.path.isfile(path) and handle.tell():
                handle.truncate()
            raise
        if os.path.isfile(path):  # /dev/null and pipes cannot be truncated
            handle.truncate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmpoly",
        description="Random polygons from the symmetric measure: sampling, "
                    "functionals, TV bounds, and their verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, space=False, n=False, count=None, k=False,
                   bins=None, workers=False, out_default=None):
        if space:
            p.add_argument("--space", required=True, choices=SPACES,
                           help="polygon space to sample")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="number of edges")
        if count is not None:
            p.add_argument("--count", type=int, default=count,
                           help=f"number of samples (default {count})")
        if k:
            p.add_argument("--k", type=int, default=1,
                           help="segment length in edges (default 1)")
        if bins is not None:
            p.add_argument("--bins", type=int, default=bins,
                           help=f"histogram bins per axis (default {bins})")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"master seed (default {DEFAULT_SEED})")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes; never changes output bytes")
        p.add_argument("--out", default=out_default,
                       help="output path (default stdout)" if out_default is None
                       else f"output path (default {out_default})")

    p = sub.add_parser("sample", help="write sampled polygons as JSONL")
    add_common(p, space=True, n=True, count=10, workers=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="moment estimates of the builtin functionals")
    add_common(p, space=True, n=True, count=10_000, workers=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("tv", help="binned TV between k-segment marginals")
    add_common(p, space=True, n=True, count=100_000, k=True, bins=8,
               workers=True)
    p.add_argument("--space-b", choices=SPACES, default=None,
                   help="second space (default: the open/closed counterpart)")
    p.add_argument("--cells-out", default=None,
                   help="optional CSV path for per-cell grid counts")
    p.set_defaults(func=_cmd_tv)

    p = sub.add_parser("bounds", help="closed-form segment TV bound values")
    p.add_argument("--dim", type=int, required=True, choices=(2, 3),
                   help="ambient dimension")
    p.add_argument("--k", type=int, default=None,
                   help="segment length (default: sweep k = 1..min(10, n-5))")
    p.add_argument("--n", type=int, required=True, help="number of edges")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--level", choices=("desk", "deep"), default="desk",
                   help="desk: default sample counts; deep: 10x")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; never changes output bytes")
    p.add_argument("--out", default="verify_results.csv",
                   help="CSV path for check results (default verify_results.csv)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("density-check",
                       help="matrix-density normalization and law checks")
    p.add_argument("--count", type=int, default=100_000,
                   help="samples per law-agreement check (default 100000)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_density_check)

    return parser


def _spill_chunk(spill_dir, space, chunk, edges) -> str:
    """Write one chunk's polygons, an edge array (count, n, dim), as JSONL
    records to the spill file ``spill_dir/<chunk>.jsonl``; return its path.
    ``write_ensemble`` is this module's, looked up at call time, so that a
    wrapper installed on the name sees each chunk's write."""
    dim, closed = space_dim(space), space.startswith("pol")
    path = os.path.join(spill_dir, f"{chunk}.jsonl")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_ensemble(fh, (Polygon(dim=dim, closed=closed, edges=e) for e in edges))
    return path


def _cmd_sample(args) -> int:
    # The whole polygons of stream 0 are drawn and formatted chunk by chunk,
    # in the workers or here, and each chunk's records go to a spill file in
    # the process that drew them. The files are copied into the output in
    # chunk order and deleted; a pooled run keeps at most 2 * workers chunks
    # in flight, so memory does not grow with --count. The output is opened
    # first, as by the CSV commands, so that a bad path fails before any
    # draw.
    with _out_stream(args.out) as fh, \
            tempfile.TemporaryDirectory(prefix="symmpoly-") as spill_dir:
        task = ("polygons", functools.partial(_spill_chunk, spill_dir, args.space))
        chunks = _iter_chunks(args.space, args.n, args.count, args.seed, 0,
                              task, args.workers)
        # Closing the chunks terminates the pool before the directory goes,
        # so that no worker still writes into it.
        with contextlib.closing(chunks):
            for path, _ in chunks:
                with open(path, encoding="utf-8", newline="") as spill:
                    shutil.copyfileobj(spill, fh, 1 << 20)
                os.remove(path)
    return 0


def _cmd_stats(args) -> int:
    if space_dim(args.space) == 2:
        functionals = ["theta1", "total_curvature"]
    else:
        functionals = ["theta1", "tau1", "total_curvature", "total_torsion"]
    with _out_stream(args.out) as fh:
        summary = run_ensemble(args.space, args.n, args.count, functionals,
                               args.seed, workers=args.workers)
        rows = [(summary.space, summary.n, summary.count, summary.seed, rec.name,
                 rec.mean, rec.variance, rec.std_error, summary.excluded)
                for rec in summary.records]
        write_csv(fh, STATS_HEADER, rows)
    return 0


def _same_file(a, b) -> bool:
    """Whether output paths ``a`` and ``b`` name one regular file."""
    if None in (a, b) or "-" in (a, b):
        return False
    if os.path.exists(a) and os.path.exists(b):
        return os.path.isfile(a) and os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_tv(args) -> int:
    space_b = args.space_b or _COUNTERPART[args.space]
    if _same_file(args.out, args.cells_out):
        raise SymmpolyError(f"--out and --cells-out name one file: {args.out}")
    cells = (_out_stream(args.cells_out) if args.cells_out is not None
             else contextlib.nullcontext())
    with _out_stream(args.out) as out_fh, cells as cells_fh:
        hist = estimate_tv(args.space, space_b, args.n, args.k, args.count,
                           args.bins, args.seed, workers=args.workers)
        row = (args.space, space_b, args.n, args.k, args.count,
               hist.bins_per_axis, args.seed, hist.tv_estimate,
               hist.null_calibration)
        write_csv(out_fh, TV_HEADER, [row])
        if cells_fh is not None:
            header = (["cell"] + [f"axis{i}" for i in range(hist.dim)]
                      + ["count_a", "count_b"])
            flat_a = hist.counts_a.ravel()
            flat_b = hist.counts_b.ravel()
            rows = [[cell] + list(idx) + [int(flat_a[cell]), int(flat_b[cell])]
                    for cell, idx in enumerate(np.ndindex(hist.counts_a.shape))]
            write_csv(cells_fh, header, rows)
    return 0


def _cmd_bounds(args) -> int:
    family = "b2" if args.dim == 2 else "b3"
    with _out_stream(args.out) as fh:
        if args.k is not None:
            ks = [args.k]
        else:
            top = min(10, args.n - 5)
            if top < 1:
                raise SymmpolyError(f"no valid segment length for n={args.n}; needs n >= 6")
            ks = list(range(1, top + 1))
        rows = []
        for k in ks:
            try:
                value = getattr(bounds, family)(k, args.n)
            except BoundUndefinedError as exc:
                raise SymmpolyError(
                    f"{family}(k={k}, n={args.n}) is outside the bound's validity range") from exc
            # b3 at k = 1 is the assembly form, which has no c/n asymptote
            coeff = bounds.asymptotic_slope(args.dim, k) if args.dim == 2 or k >= 2 else None
            rows.append((family, k, args.n, value, min(value, 2.0), coeff))
        write_csv(fh, BOUNDS_HEADER, rows)
    return 0


def _cmd_verify(args) -> int:
    with _out_stream(args.out) as fh:
        results = run_verify(args.level, args.seed, args.workers)
        for r in results:
            print(format_check_line(r))
        failed = [r for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        write_results_csv(fh, results)
    return 1 if failed else 0


def _cmd_density_check(args) -> int:
    with _out_stream(args.out) as fh:
        results = extended_density_checks(args.seed, args.count)
        rows = [(r.name, r.measured, r.threshold, r.passed) for r in results]
        write_csv(fh, DENSITY_HEADER, rows)
    return 1 if any(not r.passed for r in results) else 0


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (SymmpolyError, RuntimeError, OSError) as exc:
        print(f"symmpoly: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))

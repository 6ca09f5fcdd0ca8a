"""Seeded Monte Carlo ensembles over the polygon spaces.

Sampling is split into fixed-size chunks; chunk c of logical stream
(seed, stream_id) always draws from the generator keyed by spawn key
(stream_id, c), and per-chunk results are concatenated in chunk order
before any statistic is computed. Worker processes only change how chunks
are scheduled, never which generator produced which sample, so every
estimate here is bit-identical for a fixed (seed, N) regardless of the
worker count. CHUNK_SIZE is a fixed constant, and the chunk layout is part
of the output contract: another size would draw other samples.

Functionals are named builtins, listed with their values and the leading
edges each reads in the README table "Builtin functionals" and parsed only
by ``_build_plan``, or LocalFunctional instances, whose ``eval`` takes the
first k-edge windows of a chunk in one call; a NaN value excludes its
sample. Custom functionals must be picklable (module-level callables) when
workers > 1; ``functional_samples`` checks that before any chunk runs and
raises DomainError otherwise.

Segment draws (``segment_samples``, and ``estimate_tv``'s) cost O(k) per
sample for a length-k segment of an n-edge polygon: only the k leading
edges are built, from a chi-square (arm) or Wishart (pol) summary of the
rest. A length-k draw is therefore not a prefix of a longer segment draw on
the same stream. Window plans, functionals that read only the first k < n
edges ("theta<i>" reads i+1, "tau<i>" reads i+2, a LocalFunctional its k),
are drawn the same way at O(k) cost, so their samples are not those of a
full plan on the same stream. Plans that read a total or a closed angle
that wraps around, and full-length segments (k = n), draw whole polygons.

Every chunk run goes through one ordered generator, ``_iter_chunks``,
which yields each chunk's own result in chunk order: (values, excluded)
for functionals, the flattened (count, dim*k) array for segments. The
estimators take them as a list (``_run_chunks``). ``estimate_tv`` reduces
its two lists chunk by chunk, grid extrema and cell counts alike, so it
holds the chunks and nothing else the size of a sample. ``symmpoly
sample`` consumes the generator directly with the task
``("polygons", fn)``, which draws each chunk's whole polygons and yields
``fn(chunk, edges)``, returned by the process that drew them (a pooled
run needs a picklable ``fn``). What ``fn`` does with them, such
as writing them to a file, is the caller's: this module opens no file.

Which runs go to the worker pool depends only on the run, by one rule,
``_dispatches``; every other run is drawn in-process. Chunk runs inside
``_worker_pool(workers)`` share one process pool, forked when the first of
them dispatches. Every pooled run goes through one loop: it keeps at most
2 x the block's worker count of chunks submitted and not yet yielded, and
yields them in chunk order. A caller in such a block may ``_prefetch`` a
list run: its chunks go to the pool at once, without waiting, and the
later ``_iter_chunks`` call of the same run takes their results instead
of submitting them again.
``verify`` prefetches every plan it reads, so the ones that dispatch are
drawn while the parent draws and checks everything else.
"""
from __future__ import annotations

import collections
import contextlib
import math
import multiprocessing
import re
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from .errors import (DomainError, InvalidDimensionError, InvalidSizeError,
                     ReliabilityError, ResolutionError, _check_int)
from .functionals import (LocalFunctional, _batch_torsion, _batch_turning,
                          _eval_windows)
from .haar import SeedStream, StreamLike, ensure_generator
from .polygons import _check_segment_length, space_dim, space_edges_batch

CHUNK_SIZE = 4096

# The drawn-edge cut of ``_dispatches``, which says what it measured.
_IN_PROCESS_EDGES = 2 ** 18

# Worker pools fork where the platform can, so that each worker starts with
# the package imported; under spawn or forkserver (the Linux default from
# Python 3.14) every worker of every pool would import it again. Tests
# replace this to count the pools or to run them under spawn.
_new_pool = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None).Pool

FunctionalSpec = Union[str, LocalFunctional]

_THETA_RE = re.compile(r"^theta([1-9][0-9]*)$")
_TAU_RE = re.compile(r"^tau([1-9][0-9]*)$")


@dataclass(frozen=True)
class FunctionalStats:
    """Moment estimates for one functional over an ensemble."""

    name: str
    mean: float
    variance: float
    std_error: float


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-functional moment estimates from N seeded samples of a space."""

    space: str
    n: int
    count: int
    seed: int
    records: Tuple[FunctionalStats, ...]
    excluded: int

    def record(self, name: str) -> FunctionalStats:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class GridHistogram:
    """Shared-grid histograms of two segment samples and their binned TV.

    dim is the number of grid axes, one per coordinate of a flattened
    k-segment: dim x k for ambient dimension dim, not the ambient dimension
    itself. counts_a and counts_b have that many axes, and ranges one pair
    per axis.

    tv_estimate = 0.5 * sum_cells |p_a - p_b| over cell frequencies, so it
    lies in [0, 1]; by data processing it underestimates (in expectation)
    the TV of the underlying laws in the same convention.
    null_calibration is the identical statistic between the two halves of
    sample A and gauges the finite-N positive bias.

    The bounds in ``bounds`` (``b2``, ``b3``) use the integral convention
    |mu - nu|(whole space), maximum 2, which is twice this one: compare
    2 * (tv_estimate - null_calibration) with them.
    """

    dim: int
    bins_per_axis: int
    ranges: Tuple[Tuple[float, float], ...]
    counts_a: np.ndarray
    counts_b: np.ndarray
    tv_estimate: float
    null_calibration: float


class CovariancePartition(NamedTuple):
    c_self: float
    c_adjacent: float
    c_distant: float
    assembled_variance: float


class _Op(NamedTuple):
    name: str
    reads: int  # leading edges read; more than n when it wraps around
    kernel: str  # "turning", "torsion" or "edges", the batch output it reads
    read: Callable  # that output -> one value per sample, NaN if degenerate


class _Plan(NamedTuple):
    ops: Tuple[_Op, ...]
    window: int  # leading edges read, n when a total or wrapping angle is read


def _angle(i: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda angles: angles[:, i - 1]


def _total(angles: np.ndarray) -> np.ndarray:
    return angles.sum(axis=1)


def _build_plan(space: str, n: int, functionals: Sequence[FunctionalSpec]) -> _Plan:
    dim = space_dim(space)
    closed = space.startswith("pol")
    max_theta = n if closed else n - 1
    max_tau = n if closed else n - 2
    if isinstance(functionals, str):
        raise DomainError(f"functionals must be a list, got the string "
                          f"{functionals!r}; pass [{functionals!r}]")
    if not functionals:
        raise DomainError("at least one functional is required")
    ops: List[_Op] = []
    for f in functionals:
        if isinstance(f, LocalFunctional):
            _check_segment_length(n, f.k, f"window of functional {f.name!r}")
            ops.append(_Op(f.name, f.k, "edges",
                           lambda edges, f=f: _eval_windows(f, edges[:, :f.k])))
            continue
        if not isinstance(f, str):
            raise DomainError(f"functional must be a name or LocalFunctional, got {f!r}")
        if f == "total_curvature":
            ops.append(_Op(f, n, "turning", _total))
            continue
        if f == "total_torsion" or _TAU_RE.match(f):
            if dim != 3:
                raise InvalidDimensionError(f"{f!r} needs a spatial space, got {space}")
            if f == "total_torsion":
                ops.append(_Op(f, n, "torsion", _total))
            else:
                idx = int(_TAU_RE.match(f).group(1))
                if idx > max_tau:
                    raise InvalidSizeError(
                        f"{f!r} out of range: {space}(n={n}) has {max_tau} torsion angles")
                ops.append(_Op(f, idx + 2, "torsion", _angle(idx)))
            continue
        if f == "theta1^2":
            ops.append(_Op(f, 2, "turning", lambda angles: angles[:, 0] ** 2))
            continue
        if f == "theta1*theta2":
            if max_theta < 2:
                raise InvalidSizeError(f"{f!r} needs at least 2 turning angles")
            ops.append(_Op(f, 3, "turning", lambda angles: angles[:, 0] * angles[:, 1]))
            continue
        m = _THETA_RE.match(f)
        if m:
            idx = int(m.group(1))
            if idx > max_theta:
                raise InvalidSizeError(
                    f"{f!r} out of range: {space}(n={n}) has {max_theta} turning angles")
            ops.append(_Op(f, idx + 1, "turning", _angle(idx)))
            continue
        raise DomainError(f"unknown functional name {f!r}")
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise DomainError(f"duplicate functional names in {names}")
    return _Plan(tuple(ops), min(n, max(op.reads for op in ops)))


def _chunk_functionals(space: str, n: int, count: int, rng: np.random.Generator,
                       plan: _Plan) -> Tuple[Dict[str, np.ndarray], int]:
    # At window n this is the full draw. A shorter window does not wrap, so
    # the open-chain kernels on the head give the angles at the same indices
    # as the closed ones.
    edges = space_edges_batch(rng, count, space, n, k=plan.window)
    edges.flags.writeable = False  # every op, custom evals included, reads this draw
    closed = plan.window == n and space.startswith("pol")
    ok = np.ones(count, dtype=bool)
    outputs = {"edges": edges}
    # The kernels are looked up here, not bound at import, so that a wrapper
    # installed on the module attribute sees every call.
    for kernel, batch in (("turning", _batch_turning), ("torsion", _batch_torsion)):
        if any(op.kernel == kernel for op in plan.ops):
            outputs[kernel], ok_k = batch(edges, closed)
            ok &= ok_k
    values = {op.name: op.read(outputs[op.kernel]) for op in plan.ops}
    for vals in values.values():
        ok &= ~np.isnan(vals)
    out = {name: np.ascontiguousarray(arr[ok]) for name, arr in values.items()}
    return out, int(count - int(ok.sum()))


def _eval_chunk(args):
    space, n, seed, stream_id, chunk, count, task = args
    rng = SeedStream(seed, stream_id).chunk_generator(chunk)
    if task[0] == "functionals":
        return _chunk_functionals(space, n, count, rng, _build_plan(space, n, task[1]))
    if task[0] == "polygons":
        return task[1](chunk, space_edges_batch(rng, count, space, n))
    return space_edges_batch(rng, count, space, n, task[1]).reshape(count, -1)


def _chunk_counts(N: int) -> List[int]:
    """Sample counts of the chunks of an N-sample stream. CHUNK_SIZE is
    looked up at call time: tests shrink it to get multi-chunk runs cheaply."""
    N = _check_int("sample count", N, 1, error=DomainError)
    return [min(CHUNK_SIZE, N - start) for start in range(0, N, CHUNK_SIZE)]


class _Block:
    """The open ``_worker_pool`` block: its worker count, its pool (None
    until a chunk run in the block first dispatches) and its prefetched list
    runs, (seed, stream_id) -> (chunk args, result handles)."""

    def __init__(self, workers: int):
        self.workers, self.pool, self.prefetched = workers, None, {}

    def submit(self, args):
        """Hand one chunk to the pool, forked on first use."""
        if self.pool is None:
            self.pool = _new_pool(processes=self.workers)
        return self.pool.apply_async(_eval_chunk, (args,))


_BLOCK: Optional[_Block] = None


@contextlib.contextmanager
def _worker_pool(workers: int) -> Iterator[None]:
    """A block whose chunk runs share one pool of ``workers`` processes.

    The pool is lazy: it is forked when the first chunk run in the block
    dispatches (``_dispatches``), and a block whose runs all stay in-process
    forks none. Later runs reuse it, and the block terminates it on exit,
    prefetched runs still pending included. A block opened inside an open
    block is that block, whatever its worker count, so a caller that wraps
    many sampling calls in one block starts its workers at most once.
    """
    global _BLOCK
    _check_int("worker count", workers, 1, error=DomainError)
    if _BLOCK is not None:
        yield
        return
    _BLOCK = _Block(workers)
    try:
        yield
    finally:
        block, _BLOCK = _BLOCK, None
        if block.pool is not None:
            block.pool.terminate()


def _chunk_args(space: str, n: int, N: int, seed: int, stream_id: int,
                task) -> list:
    return [(space, n, seed, stream_id, chunk, count, task)
            for chunk, count in enumerate(_chunk_counts(N))]


def _dispatches(space: str, n: int, N: int, task, workers: int) -> bool:
    """Whether a chunk run, listed or streamed, goes to the worker pool.

    Never at one worker, for a single chunk, or for a ``("segments", k)``
    run at any k: a segment chunk sends back every edge it draws, and the
    parent takes longer to receive them than to draw them. On 2 cores, 1M
    one-edge heads of pol2 n = 100 took 0.14-0.18 s in-process and
    0.27-0.32 s when sent to 2 workers, and 100k whole pol2 20-gons
    0.12-0.17 s and 0.22-0.32 s (5 runs each). Functional and
    ``("polygons", fn)`` runs send back a reduction, and dispatch when they
    draw more than ``_IN_PROCESS_EDGES`` edges (N x window), head plans and
    whole plans alike: in-process, head draws of up to 200k edges took
    0.75-1.14x their time on an open 2-worker pool (arm2 n = 100 theta1,
    100k samples, 5 runs), and whole-polygon draws of 410k edges and more
    1.7-2x theirs. This is the only rule; no caller adds its own.
    """
    workers = _check_int("worker count", workers, 1, error=DomainError)
    if workers == 1 or N <= CHUNK_SIZE or task[0] == "segments":
        return False
    window = _build_plan(space, n, task[1]).window if task[0] == "functionals" else n
    return N * window > _IN_PROCESS_EDGES


def _prefetch(space: str, n: int, N: int, seed: int, stream_id: int, task,
              workers: int) -> None:
    """Submit the chunks of a list run that would dispatch to the pool of
    the open ``_worker_pool`` block, without waiting for them.

    The ``_iter_chunks`` call of the same run in the block takes their
    results; runs dispatched later in the block queue behind them. A run
    that would stay in-process, or a call outside a block, submits nothing.
    """
    if _BLOCK is not None and _dispatches(space, n, N, task, workers):
        args = _chunk_args(space, n, N, seed, stream_id, task)
        _BLOCK.prefetched[(seed, stream_id)] = (args, [_BLOCK.submit(a) for a in args])


def _iter_chunks(space: str, n: int, N: int, seed: int, stream_id: int, task,
                 workers: int) -> Iterator:
    """The results of the chunks of one stream, in chunk order.

    ``task`` is ``("functionals", specs)``, ``("segments", k)`` or
    ``("polygons", fn)``, and each chunk yields its task's own result: the
    chunk's (values, excluded), its (count, dim*k) flattened segments, or
    fn(chunk, edges) on its whole polygons' edge array (count, n, dim).
    Chunks are evaluated in-process, each when it is asked for, unless
    ``_dispatches`` sends the run to the pool of the enclosing
    ``_worker_pool`` block. A pooled run keeps at most 2 x the block's
    worker count of chunks submitted and not yet yielded: the workers stay
    busy while the consumer takes a result, and a consumer that writes each
    result as it comes holds a bounded number of them. A list run
    prefetched in the block starts from the handles it already has.
    """
    args = _chunk_args(space, n, N, seed, stream_id, task)
    if not _dispatches(space, n, N, task, workers):
        yield from map(_eval_chunk, args)
        return
    with _worker_pool(workers):
        ready = _BLOCK.prefetched.pop((seed, stream_id), None)
        pending = collections.deque(ready[1] if ready and ready[0] == args else ())
        for a in args[len(pending):]:
            if len(pending) == 2 * _BLOCK.workers:
                yield pending.popleft().get()
            pending.append(_BLOCK.submit(a))
        while pending:
            yield pending.popleft().get()


def _run_chunks(space: str, n: int, N: int, seed: int, stream_id: int, task,
                workers: int) -> list:
    return list(_iter_chunks(space, n, N, seed, stream_id, task, workers))


def _check_picklable(functionals: Sequence[FunctionalSpec]) -> None:
    """Raise DomainError for a custom functional that cannot be sent to a
    worker process. It is checked at any N, so that a call with workers > 1
    does not pass or fail by whether its run is small enough to stay
    in-process."""
    import pickle

    for f in functionals:
        if isinstance(f, LocalFunctional):
            try:
                pickle.dumps(f)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise DomainError(
                    f"functional {f.name!r} does not pickle, so it cannot run in "
                    f"worker processes: its eval must be a module-level callable "
                    f"(or use workers=1); {exc}") from exc


def functional_samples(space: str, n: int, N: int,
                       functionals: Sequence[FunctionalSpec], seed: int, *,
                       stream_id: int = 0, workers: int = 1
                       ) -> Tuple[Dict[str, np.ndarray], int]:
    """Per-sample functional values over a seeded ensemble.

    Returns (values, excluded) where values maps each functional name to an
    array over the non-degenerate samples, in chunk order. Degenerate
    geometry is excluded sample-wise; more than 0.01% exclusions raises
    ReliabilityError.

    A window plan, one whose functionals read only the first k < n edges
    (no total and no angle that wraps around a closed polygon), draws just
    those k edges at O(k) cost per sample. Its samples therefore differ
    from those of a full plan on the same stream, though their law is the
    same.
    """
    plan = _build_plan(space, n, functionals)
    if _check_int("worker count", workers, 1, error=DomainError) > 1:
        _check_picklable(functionals)
    results = _run_chunks(space, n, N, seed, stream_id,
                          ("functionals", tuple(functionals)), workers)
    values = {op.name: np.concatenate([chunk[0][op.name] for chunk in results])
              for op in plan.ops}
    excluded = sum(chunk[1] for chunk in results)
    if excluded > 1e-4 * N:
        raise ReliabilityError(
            f"{excluded} of {N} samples were degenerate (> 0.01%); "
            "the ensemble is unreliable")
    return values, excluded


def run_ensemble(space: str, n: int, N: int,
                 functionals: Sequence[FunctionalSpec], seed: int, *,
                 stream_id: int = 0, workers: int = 1) -> EnsembleSummary:
    """Sample N polygons and estimate mean/variance/SE of each functional.

    Deterministic for fixed (seed, stream_id, N): the worker count never
    changes any output value.
    """
    _check_int("moment estimation sample count", N, 2, error=DomainError)
    values, excluded = functional_samples(space, n, N, functionals, seed,
                                          stream_id=stream_id, workers=workers)
    records = tuple(FunctionalStats(name, *_moments(arr)) for name, arr in values.items())
    return EnsembleSummary(space, n, N, seed, records, excluded)


def _moments(arr: np.ndarray) -> Tuple[float, float, float]:
    """Mean, unbiased variance and standard error of the mean."""
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1))
    return mean, variance, math.sqrt(variance / arr.size)


def segment_samples(space: str, n: int, k: int, N: int, seed: int, *,
                    stream_id: int = 0, workers: int = 1) -> np.ndarray:
    """N flattened k-edge segments (shape (N, dim*k)) from a seeded ensemble.

    Each sample is the first k edges of an n-edge polygon, drawn at O(k)
    cost (see ``space_edges_batch``). For k < n the draw consumes the
    stream differently from a full draw, so a length-k sample is not the
    prefix of a longer segment sample on the same stream. At k = n it is
    the full polygon, drawn exactly as by the full sampler.

    ``workers`` must be a positive integer, but the draw runs in-process at
    any worker count: a segment run never goes to the pool (``_dispatches``).
    """
    space_dim(space)
    _check_segment_length(n, k)
    results = _run_chunks(space, n, N, seed, stream_id, ("segments", k), workers)
    return np.concatenate(results, axis=0)


def estimate_tv(space_a: str, space_b: str, n: int, k: int, N: int,
                bins_per_axis: int, seed: int, *,
                stream_ids: Tuple[int, int] = (0, 1), workers: int = 1
                ) -> GridHistogram:
    """Binned total-variation estimate between k-segment marginals.

    Draws N k-segments from each space, bins both on a shared grid spanning
    the pooled per-axis min/max expanded by 1%, and returns the histogram
    TV together with a same-law null calibration (first half of sample A
    vs second half, same grid). The two samples use distinct substreams of
    the given seed.

    The two samples stay the chunk lists ``_run_chunks`` returns; they are
    never concatenated. The grid's extrema are taken per chunk and column,
    each chunk is binned on its own by ``np.histogramdd``'s rules, and its
    cells are counted into int64 totals for A's first half (rows below
    N // 2), A's second half and B; counts_a is the sum of the halves. So
    past the samples it holds one chunk's temporaries and three cell-count
    arrays, and the counts, ranges and both TV values are those of
    ``np.histogramdd`` on the whole samples, bit for bit.

    ``workers`` must be a positive integer, but both draws run in-process at
    any worker count: a segment run never goes to the pool (``_dispatches``).
    """
    dim = space_dim(space_a)
    if space_dim(space_b) != dim:
        raise InvalidDimensionError(
            f"segment grids need one ambient dimension, got {space_a} vs {space_b}")
    _check_int("bins_per_axis", bins_per_axis, 4, error=ResolutionError)
    # k first: it sizes the cell count, and 4**(2 * 5000) is too long to print
    _check_segment_length(n, k)
    N = _check_int("sample count", N, 1, error=DomainError)
    d = dim * k
    cells = bins_per_axis ** d
    if cells > N / 50:
        raise ResolutionError(
            f"{cells} cells would be bias-dominated at N={N}; "
            f"need N >= {50 * cells} (50 samples per cell on average)")
    try:
        id_a, id_b = stream_ids
    except (TypeError, ValueError):
        raise DomainError(f"stream_ids must be a pair, got {stream_ids!r}") from None
    if id_a == id_b and space_a == space_b:
        raise DomainError("same-law comparison needs distinct stream ids")
    task = ("segments", k)
    chunks_a = _run_chunks(space_a, n, N, seed, id_a, task, workers)
    chunks_b = _run_chunks(space_b, n, N, seed, id_b, task, workers)
    # Column by column: min(axis=0) on a (rows, d) chunk is ten times slower.
    both = chunks_a + chunks_b
    lo = np.array([min(c[:, j].min() for c in both) for j in range(d)])
    hi = np.array([max(c[:, j].max() for c in both) for j in range(d)])
    pad = np.maximum(0.005 * (hi - lo), 1e-12)
    ranges = tuple((float(l), float(h)) for l, h in zip(lo - pad, hi + pad))
    # np.histogramdd's edges. Every sample lies inside the grid, so its bin
    # is the number of interior edges at or below it: a sample on the last
    # edge falls in the last bin, as np.histogramdd puts it.
    inner = [np.linspace(l, h, bins_per_axis + 1)[1:-1] for l, h in ranges]
    shape = (bins_per_axis,) * d

    def cells_of(rows: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(
            [np.searchsorted(e, rows[:, j], side="right") for j, e in enumerate(inner)],
            shape)

    # Counted by add.at, not bincount: a cell-long bincount per chunk would
    # cost cells x chunks, which grows as N**2 at the finest grid allowed.
    half1, half2, counts_b = (np.zeros(cells, dtype=np.int64) for _ in range(3))
    start = 0
    for chunk in chunks_a:
        flat = cells_of(chunk)
        cut = min(max(N // 2 - start, 0), len(flat))
        np.add.at(half1, flat[:cut], 1)
        np.add.at(half2, flat[cut:], 1)
        start += len(flat)
    for chunk in chunks_b:
        np.add.at(counts_b, cells_of(chunk), 1)

    def tv(x: np.ndarray, y: np.ndarray) -> float:
        # every sample is in a cell, so a count total is its sample's size
        return 0.5 * float(np.abs(x / x.sum() - y / y.sum()).sum())

    counts_a = half1 + half2
    return GridHistogram(d, bins_per_axis, ranges,
                         counts_a.astype(np.float64).reshape(shape),
                         counts_b.astype(np.float64).reshape(shape),
                         tv(counts_a, counts_b), tv(half1, half2))


def covariance_partition(space: str, n: int, N: int, seed: int, *,
                         stream_id: int = 0, workers: int = 1
                         ) -> CovariancePartition:
    """Partition the variance of total curvature by angle separation.

    Draws theta1, theta2, theta3 as a window plan (four leading edges per
    sample) and assembles them with ``assemble_partition``.
    """
    if space_dim(space) != 2:
        raise DomainError(f"covariance partition applies to planar spaces, got {space!r}")
    _check_int("covariance partition n", n, 7, error=InvalidSizeError)
    values, _ = functional_samples(space, n, N, ["theta1", "theta2", "theta3"],
                                   seed, stream_id=stream_id, workers=workers)
    return assemble_partition(n, values["theta1"], values["theta2"], values["theta3"])


def assemble_partition(n: int, t1: np.ndarray, t2: np.ndarray,
                       t3: np.ndarray) -> CovariancePartition:
    """Covariance partition from samples of theta1, theta2, theta3.

    Estimates C(theta1,theta1), C(theta1,theta2), C(theta1,theta3) and
    assembles n*c_self + 2n*c_adjacent + (n^2-3n)*c_distant, which for a
    closed planar n-gon equals Var(total curvature) by exchangeability of
    the turning angles. n is an integer >= 7, as in ``covariance_partition``,
    and the three samples have one length.
    """
    n = _check_int("covariance partition n", n, 7, error=InvalidSizeError)
    if not len(t1) == len(t2) == len(t3):
        raise DomainError(f"theta samples differ in length: {len(t1)}, {len(t2)}, {len(t3)}")
    c_self = float(t1.var(ddof=1))
    c_adjacent = float(np.cov(t1, t2, ddof=1)[0, 1])
    c_distant = float(np.cov(t1, t3, ddof=1)[0, 1])
    assembled = n * c_self + 2 * n * c_adjacent + (n * n - 3 * n) * c_distant
    return CovariancePartition(c_self, c_adjacent, c_distant, assembled)


def _finite_samples(samples, what: str) -> np.ndarray:
    """The samples as a flat float array: nonempty, and every value finite,
    since a NaN would pass through a comparison or a sort unseen."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError(f"{what} needs a nonempty sample list")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} needs finite samples, got a NaN or infinity")
    return arr


def chebyshev_coverage(samples, interval: Tuple[float, float]) -> float:
    """Fraction of samples strictly outside [lo, hi]."""
    arr = _finite_samples(samples, "coverage")
    try:
        lo, hi = interval
    except (TypeError, ValueError):
        raise DomainError(f"interval must be a pair (lo, hi), got {interval!r}") from None
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise DomainError(f"interval must satisfy lo <= hi, got ({lo}, {hi})")
    return float(np.mean((arr < lo) | (arr > hi)))


def ks_distance(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov distance sup_x |F_N(x) - cdf(x)|.

    Over the sorted samples x_(1) <= ... <= x_(N) this is the larger of
    D+ = max_i (i/N - cdf(x_(i))) and D- = max_i (cdf(x_(i)) - (i-1)/N).
    """
    arr = np.sort(_finite_samples(samples, "KS distance"))
    try:
        fitted = np.asarray(cdf(arr), dtype=float)
        if fitted.shape != arr.shape:
            raise ValueError(f"got shape {fitted.shape} for {arr.shape}")
    except (TypeError, ValueError) as exc:
        raise DomainError(f"the cdf must map an array to an array: {exc}") from exc
    if not np.isfinite(fitted).all():
        raise DomainError("the cdf returned a NaN or infinity")
    steps = np.arange(arr.size + 1) / arr.size
    return float(max(np.max(steps[1:] - fitted), np.max(fitted - steps[:-1])))


def bootstrap_stat_se(size: int, stat: Callable[[np.ndarray], float],
                      s: StreamLike, n_resamples: int = 200) -> float:
    """Bootstrap SE of a statistic defined on index arrays of length size."""
    _check_int("bootstrap sample count", size, 2, error=DomainError)
    n_resamples = _check_int("bootstrap resample count", n_resamples, 2,
                             error=DomainError)
    rng = ensure_generator(s)
    out = np.empty(n_resamples)
    for i in range(n_resamples):
        out[i] = stat(rng.integers(0, size, size))
    return float(out.std(ddof=1))


def bootstrap_se(values, stat: Callable[[np.ndarray], float], s: StreamLike,
                 n_resamples: int = 200) -> float:
    """Bootstrap SE of stat(values) under resampling with replacement."""
    arr = _finite_samples(values, "bootstrap")
    return bootstrap_stat_se(arr.size, lambda idx: float(stat(arr[idx])), s,
                             n_resamples)

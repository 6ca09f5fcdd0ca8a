"""Seeded Monte Carlo ensembles over the polygon spaces.

Sampling is split into fixed-size chunks; chunk c of logical stream
(seed, stream_id) always draws from the generator keyed by spawn key
(stream_id, c), and per-chunk results are concatenated in chunk order
before any statistic is computed. Worker processes only change how chunks
are scheduled, never which generator produced which sample, so every
estimate here is bit-identical for a fixed (seed, N, CHUNK_SIZE)
regardless of the worker count.

Functionals are named builtins ("total_curvature", "total_torsion",
"theta<i>", "tau<i>", plus the window products "theta1^2" and
"theta1*theta2") or LocalFunctional instances, which are evaluated on the
first k-edge window. Custom functionals must be picklable (module-level
callables) when workers > 1.

Segment draws (``segment_samples``, hence ``estimate_tv``) cost O(k) per
sample for a length-k segment of an n-edge polygon: only the k leading
edges are built, from a chi-square (arm) or Wishart (pol) summary of the
rest. A length-k draw is therefore not a prefix of a longer segment draw on
the same stream. Window plans, functionals that read only the first k < n
edges ("theta<i>" reads i+1, "tau<i>" reads i+2, a LocalFunctional its k),
are drawn the same way at O(k) cost, so their samples are not those of a
full plan on the same stream. Plans that read a total or a closed angle
that wraps around, and full-length segments (k = n), draw whole polygons.

Chunk runs inside ``_worker_pool(workers)`` share its one process pool.
"""
from __future__ import annotations

import contextlib
import math
import multiprocessing
import re
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple,
                    Union)

import numpy as np

from .errors import (DegenerateEdgeError, DegenerateTorsionError, DomainError,
                     InvalidDimensionError, InvalidSizeError, ReliabilityError,
                     ResolutionError)
from .functionals import LocalFunctional, _batch_torsion, _batch_turning
from .haar import SeedStream, StreamLike, ensure_generator
from .polygons import SPACES, space_dim, space_edges_batch

CHUNK_SIZE = 4096

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

    tv_estimate = 0.5 * sum_cells |p_a - p_b| over cell frequencies, so it
    lies in [0, 1]; by data processing it underestimates (in expectation)
    the TV of the underlying laws in the same convention.
    null_calibration is the identical statistic between the two halves of
    sample A and gauges the finite-N positive bias.
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


class _Plan(NamedTuple):
    ops: Tuple[Tuple[str, str, object], ...]  # (name, kind, payload)
    need_turning: bool
    need_torsion: bool
    window: int  # leading edges read, n when a total or wrapping angle is read


def _build_plan(space: str, n: int, functionals: Sequence[FunctionalSpec]) -> _Plan:
    if space not in SPACES:
        raise DomainError(f"unknown space {space!r}; expected one of {SPACES}")
    dim = space_dim(space)
    closed = space.startswith("pol")
    max_theta = n if closed else n - 1
    max_tau = n if closed else n - 2
    if not functionals:
        raise DomainError("at least one functional is required")
    ops: List[Tuple[str, str, object]] = []
    for f in functionals:
        if isinstance(f, LocalFunctional):
            if not 1 <= f.k <= n:
                raise InvalidSizeError(
                    f"functional {f.name!r} needs a window of {f.k} edges, polygon has {n}")
            ops.append((f.name, "custom", f))
            continue
        if not isinstance(f, str):
            raise DomainError(f"functional must be a name or LocalFunctional, got {f!r}")
        if f == "total_curvature":
            ops.append((f, "total_curvature", None))
            continue
        if f == "total_torsion" or _TAU_RE.match(f):
            if dim != 3:
                raise InvalidDimensionError(f"{f!r} needs a spatial space, got {space}")
            if f == "total_torsion":
                ops.append((f, "total_torsion", None))
            else:
                idx = int(_TAU_RE.match(f).group(1))
                if idx > max_tau:
                    raise InvalidSizeError(
                        f"{f!r} out of range: {space}(n={n}) has {max_tau} torsion angles")
                ops.append((f, "tau", idx))
            continue
        if f == "theta1^2":
            ops.append((f, "theta_sq", 1))
            continue
        if f == "theta1*theta2":
            if max_theta < 2:
                raise InvalidSizeError(f"{f!r} needs at least 2 turning angles")
            ops.append((f, "theta_prod", (1, 2)))
            continue
        m = _THETA_RE.match(f)
        if m:
            idx = int(m.group(1))
            if idx > max_theta:
                raise InvalidSizeError(
                    f"{f!r} out of range: {space}(n={n}) has {max_theta} turning angles")
            ops.append((f, "theta", idx))
            continue
        raise DomainError(f"unknown functional name {f!r}")
    names = [name for name, _, _ in ops]
    if len(set(names)) != len(names):
        raise DomainError(f"duplicate functional names in {names}")
    need_turning = any(kind in ("theta", "theta_sq", "theta_prod", "total_curvature")
                       for _, kind, _ in ops)
    need_torsion = any(kind in ("tau", "total_torsion") for _, kind, _ in ops)
    return _Plan(tuple(ops), need_turning, need_torsion,
                 min(n, max(_edges_read(kind, payload, n) for _, kind, payload in ops)))


def _edges_read(kind: str, payload, n: int) -> int:
    """Leading edges an op reads; more than n means it wraps around."""
    if kind in ("theta", "theta_sq"):
        return payload + 1
    if kind == "theta_prod":
        return payload[1] + 1
    if kind == "tau":
        return payload + 2
    if kind == "custom":
        return payload.k
    return n


def _chunk_functionals(space: str, n: int, count: int, stream: SeedStream,
                       chunk: int, plan: _Plan) -> Tuple[Dict[str, np.ndarray], int]:
    rng = stream.chunk_generator(chunk)
    if plan.window < n:
        # The window does not wrap, so the open-chain kernels on the head
        # give the angles at the same indices as the closed ones.
        edges = space_edges_batch(rng, count, space, n, k=plan.window)
        closed = False
    else:
        edges = space_edges_batch(rng, count, space, n)
        closed = space.startswith("pol")
    ok = np.ones(count, dtype=bool)
    angles = taus = None
    if plan.need_turning:
        angles, ok_t = _batch_turning(edges, closed)
        ok &= ok_t
    if plan.need_torsion:
        taus, ok_s = _batch_torsion(edges, closed)
        ok &= ok_s
    custom_vals: Dict[str, np.ndarray] = {}
    for name, kind, payload in plan.ops:
        if kind != "custom":
            continue
        vals = np.full(count, np.nan)
        for i in np.nonzero(ok)[0]:
            try:
                vals[i] = payload.eval(edges[i, :payload.k])
            except (DegenerateEdgeError, DegenerateTorsionError):
                ok[i] = False
        custom_vals[name] = vals
    out: Dict[str, np.ndarray] = {}
    for name, kind, payload in plan.ops:
        if kind == "theta":
            arr = angles[:, payload - 1]
        elif kind == "tau":
            arr = taus[:, payload - 1]
        elif kind == "total_curvature":
            arr = angles.sum(axis=1)
        elif kind == "total_torsion":
            arr = taus.sum(axis=1)
        elif kind == "theta_sq":
            arr = angles[:, payload - 1] ** 2
        elif kind == "theta_prod":
            arr = angles[:, payload[0] - 1] * angles[:, payload[1] - 1]
        else:
            arr = custom_vals[name]
        out[name] = np.ascontiguousarray(arr[ok])
    return out, int(count - int(ok.sum()))


def _eval_chunk(args):
    space, n, seed, stream_id, chunk, count, task = args
    stream = SeedStream(seed, stream_id)
    if task[0] == "functionals":
        plan = _build_plan(space, n, task[1])
        return _chunk_functionals(space, n, count, stream, chunk, plan)
    rng = stream.chunk_generator(chunk)
    return space_edges_batch(rng, count, space, n, task[1]).reshape(count, -1), 0


def _chunk_counts(N: int, chunk_size: int) -> List[int]:
    return [min(chunk_size, N - start) for start in range(0, N, chunk_size)]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


def _check_positive(what: str, value) -> None:
    if not _is_int(value) or value < 1:
        raise DomainError(f"{what} must be a positive integer, got {value!r}")


# (workers, pool) of the innermost open _worker_pool block, if any.
_ACTIVE_POOL = None


@contextlib.contextmanager
def _worker_pool(workers: int) -> Iterator:
    """A process pool of ``workers`` processes for the chunk runs in the block.

    A block inside another at the same worker count reuses the outer pool,
    so a caller that wraps many sampling calls in one block starts its
    workers once. One worker needs no pool and yields None.
    """
    global _ACTIVE_POOL
    _check_positive("worker count", workers)
    if workers == 1:
        yield None
    elif _ACTIVE_POOL is not None and _ACTIVE_POOL[0] == workers:
        yield _ACTIVE_POOL[1]
    else:
        outer = _ACTIVE_POOL
        with multiprocessing.Pool(processes=int(workers)) as pool:
            _ACTIVE_POOL = (workers, pool)
            try:
                yield pool
            finally:
                _ACTIVE_POOL = outer


def _run_chunks(space: str, n: int, N: int, seed: int, stream_id: int, task,
                workers: int, chunk_size: int) -> list:
    for what, value in (("sample count", N), ("chunk size", chunk_size),
                        ("worker count", workers)):
        _check_positive(what, value)
    args = [(space, n, seed, stream_id, chunk, count, task)
            for chunk, count in enumerate(_chunk_counts(int(N), int(chunk_size)))]
    if workers == 1 or len(args) == 1:
        return [_eval_chunk(a) for a in args]
    with _worker_pool(workers) as pool:
        return pool.map(_eval_chunk, args)


def functional_samples(space: str, n: int, N: int,
                       functionals: Sequence[FunctionalSpec], seed: int, *,
                       stream_id: int = 0, workers: int = 1,
                       chunk_size: int = CHUNK_SIZE
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
    results = _run_chunks(space, n, N, seed, stream_id,
                          ("functionals", tuple(functionals)), workers, chunk_size)
    names = [name for name, _, _ in plan.ops]
    values = {name: np.concatenate([chunk[0][name] for chunk in results])
              for name in names}
    excluded = sum(chunk[1] for chunk in results)
    if excluded > 1e-4 * N:
        raise ReliabilityError(
            f"{excluded} of {N} samples were degenerate (> 0.01%); "
            "the ensemble is unreliable")
    return values, excluded


def run_ensemble(space: str, n: int, N: int,
                 functionals: Sequence[FunctionalSpec], seed: int, *,
                 stream_id: int = 0, workers: int = 1,
                 chunk_size: int = CHUNK_SIZE) -> EnsembleSummary:
    """Sample N polygons and estimate mean/variance/SE of each functional.

    Deterministic for fixed (seed, stream_id, N, chunk_size): the worker
    count never changes any output value.
    """
    if not _is_int(N) or N < 2:
        raise DomainError(f"moment estimation needs N >= 2 samples, got {N!r}")
    values, excluded = functional_samples(space, n, N, functionals, seed,
                                          stream_id=stream_id, workers=workers,
                                          chunk_size=chunk_size)
    records = []
    for name, arr in values.items():
        mean = float(arr.mean())
        variance = float(arr.var(ddof=1))
        records.append(FunctionalStats(name, mean, variance,
                                       math.sqrt(variance / arr.size)))
    return EnsembleSummary(space, n, N, seed, tuple(records), excluded)


def segment_samples(space: str, n: int, k: int, N: int, seed: int, *,
                    stream_id: int = 0, workers: int = 1,
                    chunk_size: int = CHUNK_SIZE) -> np.ndarray:
    """N flattened k-edge segments (shape (N, dim*k)) from a seeded ensemble.

    Each sample is the first k edges of an n-edge polygon, drawn at O(k)
    cost (see ``space_edges_batch``). For k < n the draw consumes the
    stream differently from a full draw, so a length-k sample is not the
    prefix of a longer segment sample on the same stream. At k = n it is
    the full polygon, drawn exactly as by the full sampler.
    """
    if space not in SPACES:
        raise DomainError(f"unknown space {space!r}; expected one of {SPACES}")
    if not _is_int(k) or not 1 <= k <= n:
        raise InvalidSizeError(f"segment length must satisfy 1 <= k <= n, got k={k!r}")
    results = _run_chunks(space, n, N, seed, stream_id, ("segments", k),
                          workers, chunk_size)
    return np.concatenate([chunk[0] for chunk in results], axis=0)


def estimate_tv(space_a: str, space_b: str, n: int, k: int, N: int,
                bins_per_axis: int, seed: int, *,
                stream_ids: Tuple[int, int] = (0, 1), workers: int = 1,
                chunk_size: int = CHUNK_SIZE) -> GridHistogram:
    """Binned total-variation estimate between k-segment marginals.

    Draws N k-segments from each space, bins both on a shared grid spanning
    the pooled per-axis min/max expanded by 1%, and returns the histogram
    TV together with a same-law null calibration (first half of sample A
    vs second half, same grid). The two samples use distinct substreams of
    the given seed.
    """
    dim = space_dim(space_a)
    if space_dim(space_b) != dim:
        raise InvalidDimensionError(
            f"segment grids need one ambient dimension, got {space_a} vs {space_b}")
    if not _is_int(bins_per_axis) or bins_per_axis < 4:
        raise ResolutionError(f"bins_per_axis must be an integer >= 4, got {bins_per_axis!r}")
    d = dim * k
    cells = bins_per_axis ** d
    if cells > N / 50:
        raise ResolutionError(
            f"{cells} cells would be bias-dominated at N={N}; "
            f"need N >= {50 * cells} (50 samples per cell on average)")
    if stream_ids[0] == stream_ids[1] and space_a == space_b:
        raise DomainError("same-law comparison needs distinct stream ids")
    with _worker_pool(workers):
        seg_a = segment_samples(space_a, n, k, N, seed, stream_id=stream_ids[0],
                                workers=workers, chunk_size=chunk_size)
        seg_b = segment_samples(space_b, n, k, N, seed, stream_id=stream_ids[1],
                                workers=workers, chunk_size=chunk_size)
    lo = np.minimum(seg_a.min(axis=0), seg_b.min(axis=0))
    hi = np.maximum(seg_a.max(axis=0), seg_b.max(axis=0))
    pad = np.maximum(0.005 * (hi - lo), 1e-12)
    ranges = tuple((float(l), float(h)) for l, h in zip(lo - pad, hi + pad))
    counts_a, _ = np.histogramdd(seg_a, bins=bins_per_axis, range=ranges)
    counts_b, _ = np.histogramdd(seg_b, bins=bins_per_axis, range=ranges)
    tv = 0.5 * float(np.abs(counts_a / N - counts_b / N).sum())
    half = N // 2
    counts_1, _ = np.histogramdd(seg_a[:half], bins=bins_per_axis, range=ranges)
    counts_2, _ = np.histogramdd(seg_a[half:], bins=bins_per_axis, range=ranges)
    null = 0.5 * float(np.abs(counts_1 / half - counts_2 / (N - half)).sum())
    return GridHistogram(d, bins_per_axis, ranges, counts_a, counts_b, tv, null)


def covariance_partition(space: str, n: int, N: int, seed: int, *,
                         stream_id: int = 0, workers: int = 1,
                         chunk_size: int = CHUNK_SIZE) -> CovariancePartition:
    """Partition the variance of total curvature by angle separation.

    Draws theta1, theta2, theta3 as a window plan (four leading edges per
    sample) and assembles them with ``assemble_partition``.
    """
    if space not in ("pol2", "arm2"):
        raise DomainError(f"covariance partition applies to planar spaces, got {space!r}")
    if not _is_int(n) or n < 7:
        raise InvalidSizeError(f"covariance partition needs n >= 7, got {n!r}")
    values, _ = functional_samples(space, n, N, ["theta1", "theta2", "theta3"],
                                   seed, stream_id=stream_id, workers=workers,
                                   chunk_size=chunk_size)
    return assemble_partition(n, values["theta1"], values["theta2"], values["theta3"])


def assemble_partition(n: int, t1: np.ndarray, t2: np.ndarray,
                       t3: np.ndarray) -> CovariancePartition:
    """Covariance partition from samples of theta1, theta2, theta3.

    Estimates C(theta1,theta1), C(theta1,theta2), C(theta1,theta3) and
    assembles n*c_self + 2n*c_adjacent + (n^2-3n)*c_distant, which for a
    closed planar n-gon equals Var(total curvature) by exchangeability of
    the turning angles.
    """
    c_self = float(t1.var(ddof=1))
    c_adjacent = float(np.cov(t1, t2, ddof=1)[0, 1])
    c_distant = float(np.cov(t1, t3, ddof=1)[0, 1])
    assembled = n * c_self + 2 * n * c_adjacent + (n * n - 3 * n) * c_distant
    return CovariancePartition(c_self, c_adjacent, c_distant, assembled)


def chebyshev_coverage(samples, interval: Tuple[float, float]) -> float:
    """Fraction of samples strictly outside [lo, hi]."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("coverage needs a nonempty sample list")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise DomainError(f"interval must satisfy lo <= hi, got ({lo}, {hi})")
    return float(np.mean((arr < lo) | (arr > hi)))


def ks_distance(samples, cdf: Callable[[float], float]) -> float:
    """Two-sided Kolmogorov-Smirnov distance sup_x |F_N(x) - cdf(x)|.

    Over the sorted samples x_(1) <= ... <= x_(N) this is the larger of
    D+ = max_i (i/N - cdf(x_(i))) and D- = max_i (cdf(x_(i)) - (i-1)/N).
    """
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    if arr.size == 0:
        raise DomainError("KS distance needs a nonempty sample list")
    try:
        fitted = np.asarray(cdf(arr), dtype=float)
        if fitted.shape != arr.shape:
            raise TypeError
    except (TypeError, ValueError):
        # scalar-only cdf callables (math-based or branching) land here
        fitted = np.array([float(cdf(x)) for x in arr])
    steps = np.arange(arr.size + 1) / arr.size
    return float(max(np.max(steps[1:] - fitted), np.max(fitted - steps[:-1])))


def bootstrap_stat_se(size: int, stat: Callable[[np.ndarray], float],
                      s: StreamLike, n_resamples: int = 200) -> float:
    """Bootstrap SE of a statistic defined on index arrays of length size."""
    if size < 2:
        raise DomainError(f"bootstrap needs at least 2 samples, got {size}")
    rng = ensure_generator(s)
    out = np.empty(n_resamples)
    for i in range(n_resamples):
        out[i] = stat(rng.integers(0, size, size))
    return float(out.std(ddof=1))


def bootstrap_se(values, stat: Callable[[np.ndarray], float], s: StreamLike,
                 n_resamples: int = 200) -> float:
    """Bootstrap SE of stat(values) under resampling with replacement."""
    arr = np.asarray(values, dtype=float).ravel()
    return bootstrap_stat_se(arr.size, lambda idx: float(stat(arr[idx])), s,
                             n_resamples)

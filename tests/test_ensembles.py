"""Seeded ensemble engine: determinism, functional plans, window draws,
the shared worker pool, TV estimation, covariance partition, coverage, KS,
and bootstrap helpers."""
import math
import multiprocessing

import numpy as np
import pytest
from scipy import stats

from symmpoly import (CHUNK_SIZE, DegenerateEdgeError, DomainError,
                      InvalidDimensionError, InvalidSizeError,
                      LocalFunctional, ReliabilityError, ResolutionError,
                      SeedStream, assemble_partition, b2, b3, bootstrap_se,
                      bootstrap_stat_se, chebyshev_coverage,
                      covariance_partition, estimate_tv, functional_samples,
                      ks_distance, run_ensemble, segment_samples)
from symmpoly import cli, ensembles
from symmpoly.ensembles import _build_plan, _worker_pool
from symmpoly.functionals import _batch_torsion, _batch_turning
from symmpoly.polygons import SPACES, space_edges_batch

SEED = 7


def _first_edge_length(window):
    return float(np.linalg.norm(window[0]))


def _always_degenerate(window):
    raise DegenerateEdgeError("forced degeneracy for testing")


EDGE_LENGTH = LocalFunctional(k=1, bound_M=2.0, eval=_first_edge_length,
                              name="edge_length")
BROKEN = LocalFunctional(k=1, bound_M=1.0, eval=_always_degenerate,
                         name="broken")


def test_run_ensemble_repeats_exactly():
    a = run_ensemble("arm2", 20, 5000, ["theta1"], SEED, stream_id=0)
    b = run_ensemble("arm2", 20, 5000, ["theta1"], SEED, stream_id=0)
    assert a.records == b.records
    c = run_ensemble("arm2", 20, 5000, ["theta1"], SEED, stream_id=1)
    assert c.record("theta1").mean != a.record("theta1").mean


def _chunk_size(monkeypatch, size):
    # chunked draws read ensembles.CHUNK_SIZE at call time; a small size
    # gives multi-chunk runs at a small N
    monkeypatch.setattr(ensembles, "CHUNK_SIZE", size)


def test_worker_count_never_changes_values(monkeypatch):
    _chunk_size(monkeypatch, 1024)
    kwargs = dict(seed=SEED, stream_id=2)
    v1, _ = functional_samples("pol3", 20, 5000, ["tau1", "total_curvature"],
                               workers=1, **kwargs)
    v2, _ = functional_samples("pol3", 20, 5000, ["tau1", "total_curvature"],
                               workers=2, **kwargs)
    assert np.array_equal(v1["tau1"], v2["tau1"])
    assert np.array_equal(v1["total_curvature"], v2["total_curvature"])


def test_worker_count_never_changes_segments(monkeypatch):
    _chunk_size(monkeypatch, 512)
    s1 = segment_samples("pol2", 15, 2, 3000, SEED, stream_id=3, workers=1)
    s2 = segment_samples("pol2", 15, 2, 3000, SEED, stream_id=3, workers=3)
    assert np.array_equal(s1, s2)


def test_chunk_size_partitions_not_values(monkeypatch):
    # values depend on the chunk layout only through the documented scheme:
    # the same layout gives the same values, and the layout is part of the
    # output contract, so another chunk size is another (equally valid)
    # ensemble. The size is the constant CHUNK_SIZE.
    assert CHUNK_SIZE == ensembles.CHUNK_SIZE == 4096
    fixed = segment_samples("arm2", 10, 1, 5000, SEED, stream_id=4)
    _chunk_size(monkeypatch, 256)
    base = segment_samples("arm2", 10, 1, 5000, SEED, stream_id=4)
    again = segment_samples("arm2", 10, 1, 5000, SEED, stream_id=4)
    assert np.array_equal(base, again)
    assert not np.array_equal(base, fixed)


def test_custom_functional_with_workers():
    vals, excluded = functional_samples("pol2", 12, 3000, [EDGE_LENGTH], SEED,
                                        stream_id=5, workers=2)
    assert excluded == 0
    lengths = vals["edge_length"]
    assert lengths.shape == (3000,)
    se = lengths.std(ddof=1) / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 2.0 / 12.0) < 4 * se


def test_degenerate_exclusion_gate():
    with pytest.raises(ReliabilityError):
        functional_samples("arm2", 10, 200, [BROKEN], SEED, stream_id=6)


def test_plan_validation():
    with pytest.raises(InvalidDimensionError):
        functional_samples("arm2", 10, 100, ["tau1"], SEED)
    with pytest.raises(InvalidDimensionError):
        functional_samples("pol2", 10, 100, ["total_torsion"], SEED)
    with pytest.raises(InvalidSizeError):
        functional_samples("arm2", 100, 100, ["theta100"], SEED)
    with pytest.raises(InvalidSizeError):
        functional_samples("arm3", 100, 100, ["tau99"], SEED)
    with pytest.raises(DomainError):
        functional_samples("arm2", 10, 100, ["theta0"], SEED)
    with pytest.raises(DomainError):
        functional_samples("arm2", 10, 100, ["curvature"], SEED)
    with pytest.raises(DomainError):
        functional_samples("arm2", 10, 100, ["theta1", "theta1"], SEED)
    with pytest.raises(DomainError):
        functional_samples("arm2", 10, 100, [], SEED)
    with pytest.raises(DomainError):
        functional_samples("ring2", 10, 100, ["theta1"], SEED)
    # closed polygons have n angles of each kind, open chains fewer
    functional_samples("pol2", 10, 100, ["theta10"], SEED, stream_id=7)
    functional_samples("pol3", 10, 100, ["tau10"], SEED, stream_id=7)
    with pytest.raises(InvalidSizeError):
        functional_samples("arm3", 10, 100, ["tau9"], SEED)
    # a window is a whole number of edges
    for k in (2.0, 0, 11):
        wide = LocalFunctional(k=k, bound_M=1.0, eval=_first_edge_length, name="w")
        with pytest.raises(InvalidSizeError, match="needs a window"):
            functional_samples("arm2", 10, 100, [wide, "total_curvature"], SEED)


def test_run_ensemble_summary_fields():
    summary = run_ensemble("arm2", 50, 4000, ["theta1", "theta1^2"], SEED,
                           stream_id=8)
    assert (summary.space, summary.n, summary.count, summary.seed) \
        == ("arm2", 50, 4000, SEED)
    assert summary.excluded == 0
    rec = summary.record("theta1")
    assert rec.std_error == pytest.approx(math.sqrt(rec.variance / 4000),
                                          rel=1e-12)
    with pytest.raises(KeyError):
        summary.record("theta2")
    with pytest.raises(DomainError):
        run_ensemble("arm2", 50, 1, ["theta1"], SEED)


def test_open_chain_moments():
    summary = run_ensemble("arm2", 100, 20_000, ["theta1", "theta1^2"], SEED,
                           stream_id=9)
    t = summary.record("theta1")
    assert abs(t.mean - math.pi / 2) < 4 * t.std_error
    tsq = summary.record("theta1^2")
    assert abs(tsq.mean - math.pi**2 / 3) < 4 * tsq.std_error
    # uniform [0, pi] variance
    assert abs(t.variance - math.pi**2 / 12) < 0.01


def test_window_product_moments():
    # theta1 and theta2 are independent uniform [0, pi] on an open chain
    summary = run_ensemble("arm2", 50, 20_000, ["theta1*theta2"], SEED,
                           stream_id=10)
    rec = summary.record("theta1*theta2")
    assert abs(rec.mean - (math.pi / 2) ** 2) < 4 * rec.std_error


def test_closed_curvature_mean_spatial():
    # E[total curvature; closed spatial 50-gon] = 25 pi + (pi/4)(100/97)
    summary = run_ensemble("pol3", 50, 20_000, ["total_curvature"], SEED,
                           stream_id=11)
    rec = summary.record("total_curvature")
    expected = 25 * math.pi + (math.pi / 4) * (100 / 97)
    assert abs(rec.mean - expected) < 4 * rec.std_error


def test_expectation_transfer_within_bound():
    # |E_closed f - E_open f| <= M * b_dim(k, n) for a k-window functional
    # bounded by M; theta1 uses 2 edges (M = pi), tau1 uses 3 (M = pi).
    n, N = 50, 10_000
    closed = run_ensemble("pol2", n, N, ["theta1"], SEED, stream_id=12)
    open_ = run_ensemble("arm2", n, N, ["theta1"], SEED, stream_id=13)
    c, o = closed.record("theta1"), open_.record("theta1")
    assert abs(c.mean - o.mean) \
        <= math.pi * b2(2, n) + 4 * (c.std_error + o.std_error)
    closed3 = run_ensemble("pol3", n, N, ["tau1"], SEED, stream_id=14)
    open3 = run_ensemble("arm3", n, N, ["tau1"], SEED, stream_id=15)
    c3, o3 = closed3.record("tau1"), open3.record("tau1")
    assert abs(c3.mean - o3.mean) \
        <= math.pi * b3(3, n) + 4 * (c3.std_error + o3.std_error)


def test_closed_angle_mean_approaches_open():
    # the closed-chain mean turning angle exceeds pi/2 and the excess
    # shrinks with n, consistent with the vanishing TV bound
    ratios = {}
    for n, sid in ((50, 16), (200, 17)):
        summary = run_ensemble("pol2", n, 100_000, ["theta1"], SEED,
                               stream_id=sid)
        ratios[n] = summary.record("theta1").mean / (math.pi / 2)
    assert ratios[200] - 1 < ratios[50] - 1
    assert abs(ratios[200] - 1) < 0.02


def test_segment_samples_shapes():
    seg = segment_samples("arm3", 10, 2, 500, SEED, stream_id=18)
    assert seg.shape == (500, 6)
    seg2 = segment_samples("pol2", 10, 10, 100, SEED, stream_id=18)
    assert seg2.shape == (100, 20)
    # full-width segments of a closed polygon sum to zero coordinatewise
    assert np.max(np.abs(seg2.reshape(100, 10, 2).sum(axis=1))) <= 1e-10
    with pytest.raises(InvalidSizeError):
        segment_samples("arm2", 10, 11, 100, SEED)
    with pytest.raises(DomainError):
        segment_samples("blob", 10, 1, 100, SEED)
    with pytest.raises(DomainError):
        segment_samples("arm2", 10, 1, 0, SEED)


def test_sample_counts_accept_numpy_integers(monkeypatch):
    _chunk_size(monkeypatch, 128)
    a = segment_samples("arm2", 10, np.int64(2), np.int64(300), SEED,
                        stream_id=18)
    b = segment_samples("arm2", 10, 2, 300, SEED, stream_id=18)
    assert np.array_equal(a, b)
    v, _ = functional_samples("pol2", 10, np.int32(300), ["theta1"], SEED,
                              stream_id=18, workers=np.int64(1))
    assert v["theta1"].shape == (300,)
    summary = run_ensemble("pol2", 10, np.int64(300), ["theta1"], SEED)
    assert summary.count == 300
    h = estimate_tv("pol2", "arm2", 10, 1, 2000, np.int64(4), SEED)
    assert h.tv_estimate == estimate_tv("pol2", "arm2", 10, 1, 2000, 4,
                                        SEED).tv_estimate
    assert covariance_partition("pol2", np.int64(10), 300, SEED) \
        == covariance_partition("pol2", 10, 300, SEED)


def test_worker_count_must_be_positive():
    for workers in (0, -2, 1.5):
        with pytest.raises(DomainError):
            segment_samples("arm2", 10, 1, 100, SEED, workers=workers)
        with pytest.raises(DomainError):
            functional_samples("arm2", 10, 100, ["theta1"], SEED,
                               workers=workers)


def test_plan_window_counts_leading_edges():
    def window(space, n, fns):
        return _build_plan(space, n, fns).window

    assert window("arm2", 100, ["theta1", "theta1^2"]) == 2
    assert window("pol2", 100, ["theta1*theta2"]) == 3
    assert window("arm3", 50, ["tau1", "tau3"]) == 5
    assert window("pol2", 12, [EDGE_LENGTH]) == 1
    assert window("pol2", 100, ["theta3", "total_curvature"]) == 100
    assert window("arm3", 20, ["tau1", "total_torsion"]) == 20
    # closed angles that wrap around read the whole polygon
    assert window("pol2", 10, ["theta9"]) == 10
    assert window("pol2", 10, ["theta10"]) == 10
    assert window("pol3", 10, ["tau8"]) == 10
    assert window("pol3", 10, ["tau9"]) == 10
    assert window("pol3", 10, ["tau10"]) == 10
    assert window("arm2", 10, ["theta9"]) == 10


# Window plans against full plans: two-sample KS on independent streams.
# 20 comparisons; a family-wise level of 1e-3 split Bonferroni gives each
# one the p-value floor below, declared before the test was first run.
WINDOW_KS_N = 20_000
WINDOW_KS_P_FLOOR = 1e-3 / 20


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("n", [10, 100])
def test_window_plan_matches_full_plan_in_law(space, n):
    window = ["theta1", "theta1*theta2"]
    if space.endswith("3"):
        window.append("tau1")
    sid = 40 + 2 * SPACES.index(space) + (n == 100) * 8
    heads, _ = functional_samples(space, n, WINDOW_KS_N, window, SEED,
                                  stream_id=sid)
    full, _ = functional_samples(space, n, WINDOW_KS_N,
                                 window + ["total_curvature"], SEED,
                                 stream_id=sid + 1)
    for name in window:
        p = stats.ks_2samp(heads[name], full[name]).pvalue
        assert p > WINDOW_KS_P_FLOOR, (space, n, name, p)


def _plan_reference(fns, edges, closed, space):
    # every op kind, read off the kernels directly
    angles = _batch_turning(edges, closed)[0]
    taus = _batch_torsion(edges, closed)[0] if space.endswith("3") else None
    out = {}
    for f in fns:
        if isinstance(f, LocalFunctional):
            out[f.name] = np.array([f.eval(w[:f.k]) for w in edges])
        elif f == "total_curvature":
            out[f] = angles.sum(axis=1)
        elif f == "total_torsion":
            out[f] = taus.sum(axis=1)
        elif f == "theta1^2":
            out[f] = angles[:, 0] ** 2
        elif f == "theta1*theta2":
            out[f] = angles[:, 0] * angles[:, 1]
        elif f.startswith("theta"):
            out[f] = angles[:, int(f[5:]) - 1]
        else:
            out[f] = taus[:, int(f[3:]) - 1]
    return out


def _chunked_reference(space, n, N, chunk_size, sid, fns, k, closed):
    stream = SeedStream(SEED, sid)
    parts = []
    for c, start in enumerate(range(0, N, chunk_size)):
        edges = space_edges_batch(stream.chunk_generator(c),
                                  min(chunk_size, N - start), space, n, k=k)
        parts.append(_plan_reference(fns, edges, closed, space))
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


@pytest.mark.parametrize("space,n,fns", [
    ("pol2", 10, ["theta10"]),
    ("pol2", 12, ["theta1", "total_curvature"]),
    ("arm2", 10, ["theta9", "theta1^2"]),
    ("pol3", 10, ["tau9", "theta2"]),
    ("pol3", 10, ["tau10"]),
    ("arm3", 10, ["tau1", "total_torsion"]),
    ("pol2", 12, ["theta1*theta2", EDGE_LENGTH, "theta12"]),
    ("arm3", 10, [EDGE_LENGTH, "theta1*theta2", "total_curvature"]),
])
def test_full_plans_keep_full_draws(monkeypatch, space, n, fns):
    # bit for bit the kernels on whole polygons from each chunk's generator
    N, chunk_size, sid = 300, 128, 60
    _chunk_size(monkeypatch, chunk_size)
    vals, excluded = functional_samples(space, n, N, fns, SEED, stream_id=sid)
    assert excluded == 0
    ref = _chunked_reference(space, n, N, chunk_size, sid, fns, None,
                             space.startswith("pol"))
    assert list(vals) == list(ref)
    for name in ref:
        assert np.array_equal(vals[name], ref[name]), name


def test_window_plan_reads_open_kernels_on_heads(monkeypatch):
    # pol3 theta2 and tau2 read four leading edges: the open-chain kernels
    # on a four-edge head from each chunk's generator, bit for bit
    N, chunk_size, sid = 300, 128, 61
    _chunk_size(monkeypatch, chunk_size)
    fns = ["theta2", "tau2", "theta1*theta2", EDGE_LENGTH]
    vals, _ = functional_samples("pol3", 30, N, fns, SEED, stream_id=sid)
    ref = _chunked_reference("pol3", 30, N, chunk_size, sid, fns, 4, False)
    assert list(vals) == list(ref)
    for name in ref:
        assert np.array_equal(vals[name], ref[name]), name


def _count_pools(monkeypatch):
    opened = []
    real = multiprocessing.Pool

    def counting(*args, **kwargs):
        opened.append(kwargs.get("processes", args[0] if args else None))
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    return opened


def test_estimate_tv_opens_one_pool(monkeypatch):
    opened = _count_pools(monkeypatch)
    a = estimate_tv("pol2", "arm2", 20, 1, 20_000, 8, SEED,
                    stream_ids=(24, 25), workers=2)
    assert opened == [2]
    b = estimate_tv("pol2", "arm2", 20, 1, 20_000, 8, SEED,
                    stream_ids=(24, 25), workers=1)
    assert opened == [2]
    assert np.array_equal(a.counts_a, b.counts_a)
    assert np.array_equal(a.counts_b, b.counts_b)


def test_worker_pool_is_shared_by_nested_blocks(monkeypatch):
    opened = _count_pools(monkeypatch)
    _chunk_size(monkeypatch, 1024)
    kwargs = dict(stream_id=2)
    with _worker_pool(2):
        v2, _ = functional_samples("pol2", 20, 5000, ["total_curvature"],
                                   SEED, workers=2, **kwargs)
        with _worker_pool(2):
            s2 = segment_samples("arm3", 20, 2, 3000, SEED, workers=2,
                                 **kwargs)
    assert opened == [2]
    v1, _ = functional_samples("pol2", 20, 5000, ["total_curvature"], SEED,
                               workers=1, **kwargs)
    s1 = segment_samples("arm3", 20, 2, 3000, SEED, workers=1, **kwargs)
    assert opened == [2]
    assert np.array_equal(v1["total_curvature"], v2["total_curvature"])
    assert np.array_equal(s1, s2)
    with pytest.raises(DomainError):
        with _worker_pool(0):
            pass


def test_spawned_workers_give_the_same_bytes(monkeypatch, tmp_path):
    # spawned workers start from a fresh import and share no state with the
    # parent, so the bytes may depend only on the chunk -> generator map
    _chunk_size(monkeypatch, 512)
    monkeypatch.setattr(multiprocessing, "Pool",
                        multiprocessing.get_context("spawn").Pool)
    opened = _count_pools(monkeypatch)

    def draws(workers):
        seg = segment_samples("pol3", 30, 2, 1500, SEED, stream_id=9,
                              workers=workers)
        vals, _ = functional_samples("pol3", 30, 1500,
                                     ["theta1", "tau2", "total_curvature"],
                                     SEED, stream_id=10, workers=workers)
        # the streaming path: four chunks, at most 4 in flight at 2 workers
        out = tmp_path / f"w{workers}.jsonl"
        assert cli.run(["sample", "--space", "pol3", "--n", "30", "--count",
                        "1800", "--seed", str(SEED), "--workers", str(workers),
                        "--out", str(out)]) == 0
        return seg, vals, out.read_bytes()

    seg1, vals1, text1 = draws(1)
    with _worker_pool(2):
        seg2, vals2, text2 = draws(2)
    assert opened == [2]
    assert np.array_equal(seg1, seg2)
    assert text1 == text2
    assert list(vals1) == list(vals2)
    for name in vals1:
        assert np.array_equal(vals1[name], vals2[name]), name


class _RecordingPool:
    """A pool that runs each submitted chunk at once, in-process, and logs
    every submission and every result handed out."""

    def __init__(self):
        self.log = []

    def map(self, fn, iterable):
        self.log.extend("submit" for _ in iterable)
        return [fn(a) for a in iterable]

    def apply_async(self, fn, args):
        self.log.append("submit")
        result = fn(*args)
        log = self.log

        class Done:
            def get(self):
                log.append("get")
                return result

        return Done()


def test_chunk_stream_bounds_the_chunks_in_flight(monkeypatch):
    _chunk_size(monkeypatch, 100)
    pool = _RecordingPool()
    monkeypatch.setattr(ensembles, "_ACTIVE_POOL", (2, pool))
    task = ("segments", 3)
    stream = ensembles._iter_chunks("arm3", 10, 1050, SEED, 4, task, 2,
                                    in_flight=4)
    got = []
    for result in stream:
        # the consumer logs when it is done with each result
        got.append(result[0])
        pool.log.append("used")
    assert len(got) == 11
    assert pool.log.count("submit") == 11
    # submitted and not yet consumed never exceeds 2 x workers
    submitted = consumed = worst = 0
    for event in pool.log:
        submitted += event == "submit"
        consumed += event == "used"
        worst = max(worst, submitted - consumed)
    assert worst == 4
    expected = segment_samples("arm3", 10, 3, 1050, SEED, stream_id=4)
    assert np.array_equal(np.concatenate(got), expected)


def test_chunk_list_submits_every_chunk_first(monkeypatch):
    _chunk_size(monkeypatch, 100)
    pool = _RecordingPool()
    monkeypatch.setattr(ensembles, "_ACTIVE_POOL", (2, pool))
    for result in ensembles._iter_chunks("pol2", 10, 1050, SEED, 4,
                                         ("segments", 2), 2):
        pool.log.append("used")
    assert pool.log == ["submit"] * 11 + ["used"] * 11
    results = ensembles._run_chunks("pol2", 10, 1050, SEED, 4,
                                    ("segments", 2), 2)
    assert isinstance(results, list) and len(results) == 11
    monkeypatch.setattr(ensembles, "_ACTIVE_POOL", None)
    expected = segment_samples("pol2", 10, 2, 1050, SEED, stream_id=4)
    assert np.array_equal(np.concatenate([r[0] for r in results]), expected)


def test_estimate_tv_same_law_is_null_sized():
    hist = estimate_tv("arm2", "arm2", 50, 1, 50_000, 8, SEED,
                       stream_ids=(20, 21))
    assert 0.0 <= hist.tv_estimate <= 1.0
    assert hist.tv_estimate < 0.05
    assert abs(hist.tv_estimate - hist.null_calibration) < 0.02
    assert hist.counts_a.shape == (8, 8)
    assert hist.counts_a.sum() == 50_000


def test_estimate_tv_null_decays_with_sample_size():
    small = estimate_tv("arm2", "arm2", 50, 1, 25_600, 8, SEED,
                        stream_ids=(20, 21))
    big = estimate_tv("arm2", "arm2", 50, 1, 102_400, 8, SEED,
                      stream_ids=(20, 21))
    assert big.null_calibration < small.null_calibration


def test_estimate_tv_separates_distinct_laws():
    # first coordinate of closed vs open planar chains at small n differ
    # visibly; the estimate should clear the null but stay within the bound
    hist = estimate_tv("pol2", "arm2", 10, 1, 50_000, 10, SEED,
                       stream_ids=(22, 23))
    excess = hist.tv_estimate - hist.null_calibration
    assert excess > 0.01
    assert excess <= 2.0  # the universal TV ceiling in this convention


def test_estimate_tv_deterministic_across_workers():
    a = estimate_tv("pol2", "arm2", 20, 1, 20_000, 8, SEED,
                    stream_ids=(24, 25), workers=1)
    b = estimate_tv("pol2", "arm2", 20, 1, 20_000, 8, SEED,
                    stream_ids=(24, 25), workers=2)
    assert a.tv_estimate == b.tv_estimate
    assert a.null_calibration == b.null_calibration
    assert np.array_equal(a.counts_a, b.counts_a)


def test_estimate_tv_resolution_guards():
    with pytest.raises(ResolutionError):
        estimate_tv("pol2", "arm2", 20, 2, 10_000, 8, SEED)  # 8^4 cells
    with pytest.raises(ResolutionError):
        estimate_tv("pol2", "arm2", 20, 1, 10_000, 3, SEED)
    with pytest.raises(InvalidDimensionError):
        estimate_tv("pol2", "arm3", 20, 1, 10_000, 8, SEED)
    with pytest.raises(DomainError):
        estimate_tv("arm2", "arm2", 20, 1, 10_000, 8, SEED, stream_ids=(5, 5))


def test_covariance_partition_open_chain_uncorrelated():
    # open-chain turning angles are independent: both covariances vanish
    part = covariance_partition("arm2", 100, 20_000, SEED, stream_id=26)
    tol = 4 * (math.pi**2 / 12) / math.sqrt(20_000)
    assert abs(part.c_adjacent) < tol
    assert abs(part.c_distant) < tol
    assert part.c_self == pytest.approx(math.pi**2 / 12, rel=0.05)


def test_covariance_partition_matches_direct_variance():
    # covariance_partition is a window plan: it assembles theta1..theta3
    # drawn as four-edge heads on its stream
    n, N = 100, 20_000
    part = covariance_partition("pol2", n, N, SEED, stream_id=27)
    heads, _ = functional_samples("pol2", n, N, ["theta1", "theta2", "theta3"],
                                  SEED, stream_id=27)
    assert part == assemble_partition(n, heads["theta1"], heads["theta2"],
                                      heads["theta3"])
    # the partition and the direct variance of one full draw describe one
    # ensemble, as in verify; the gap is bootstrapped
    vals, _ = functional_samples(
        "pol2", n, N, ["theta1", "theta2", "theta3", "total_curvature"],
        SEED, stream_id=27)
    t1, t2, t3 = vals["theta1"], vals["theta2"], vals["theta3"]
    kappa = vals["total_curvature"]

    def gap(idx):
        return (assemble_partition(n, t1[idx], t2[idx], t3[idx]).assembled_variance
                - float(kappa[idx].var(ddof=1)))

    se = bootstrap_stat_se(t1.size, gap, SeedStream(SEED, 28))
    assembled = assemble_partition(n, t1, t2, t3).assembled_variance
    direct = float(kappa.var(ddof=1))
    assert abs(assembled - direct) < 4 * se


def test_covariance_partition_exchangeable_angles():
    # on a closed polygon every adjacent pair has the same covariance
    vals, _ = functional_samples("pol2", 50, 20_000,
                                 ["theta1", "theta2", "theta3"], SEED,
                                 stream_id=29)
    t1, t2, t3 = vals["theta1"], vals["theta2"], vals["theta3"]

    def cov_gap(idx):
        return (float(np.cov(t1[idx], t2[idx], ddof=1)[0, 1])
                - float(np.cov(t2[idx], t3[idx], ddof=1)[0, 1]))

    se = bootstrap_stat_se(t1.size, cov_gap, SeedStream(SEED, 30))
    assert abs(cov_gap(np.arange(t1.size))) < 4 * se


def test_covariance_partition_validation():
    with pytest.raises(InvalidSizeError):
        covariance_partition("pol2", 6, 100, SEED)
    with pytest.raises(DomainError):
        covariance_partition("pol3", 100, 100, SEED)


def test_chebyshev_coverage_counts_strictly_outside():
    assert chebyshev_coverage([0.0, 1.0, 2.0, 3.0], (0.5, 2.5)) == 0.5
    assert chebyshev_coverage([1.0, 2.0], (1.0, 2.0)) == 0.0
    assert chebyshev_coverage([5.0], (0.0, 1.0)) == 1.0
    with pytest.raises(DomainError):
        chebyshev_coverage([], (0.0, 1.0))
    with pytest.raises(DomainError):
        chebyshev_coverage([1.0], (2.0, 1.0))


def test_ks_distance_values():
    # constant sample against the uniform cdf: sup gap is 1 - cdf(c)
    assert ks_distance([0.3] * 10, lambda x: np.clip(x, 0.0, 1.0)) \
        == pytest.approx(0.7, rel=1e-12)
    # ... and cdf(c) itself when that is larger (the D- side)
    assert ks_distance([0.9] * 10, lambda x: np.clip(x, 0.0, 1.0)) \
        == pytest.approx(0.9, rel=1e-12)
    rng = SeedStream(SEED, 31).generator()
    u = rng.random(100_000)
    assert ks_distance(u, lambda x: np.clip(x, 0.0, 1.0)) < 0.01
    # scalar-only callables are supported too
    sub = u[:1000]
    vec = ks_distance(sub, lambda x: np.clip(x, 0.0, 1.0))
    scl = ks_distance(sub, lambda x: float(min(max(x, 0.0), 1.0)))
    assert vec == scl
    with pytest.raises(DomainError):
        ks_distance([], stats.norm.cdf)
    # the two-sided textbook statistic, as scipy computes it
    for i in range(200):
        x = SeedStream(SEED, 1000 + i).generator().random(50)
        assert ks_distance(x, lambda t: np.clip(t, 0.0, 1.0)) == pytest.approx(
            stats.kstest(x, "uniform").statistic, rel=1e-12, abs=1e-15)
    z = rng.standard_normal(500)
    assert ks_distance(z, stats.norm.cdf) == pytest.approx(
        stats.kstest(z, "norm").statistic, rel=1e-12)


def test_bootstrap_se_behaviour():
    rng = SeedStream(SEED, 32).generator()
    data = rng.standard_normal(2000)
    se1 = bootstrap_se(data, np.mean, SeedStream(SEED, 33))
    se2 = bootstrap_se(data, np.mean, SeedStream(SEED, 33))
    assert se1 == se2  # seeded resampling
    direct = data.std(ddof=1) / math.sqrt(data.size)
    assert se1 == pytest.approx(direct, rel=0.25)
    assert bootstrap_se(np.ones(100), np.mean, SeedStream(SEED, 34)) == 0.0
    with pytest.raises(DomainError):
        bootstrap_stat_se(1, lambda idx: 0.0, SeedStream(SEED, 35))


def test_bootstrap_needs_two_resamples():
    data = np.arange(10.0)
    for n_resamples in (1, 0, -3, 2.0):
        with pytest.raises(DomainError):
            bootstrap_se(data, np.mean, SeedStream(SEED, 36), n_resamples)
        with pytest.raises(DomainError):
            bootstrap_stat_se(10, lambda idx: 0.0, SeedStream(SEED, 36),
                              n_resamples=n_resamples)
    se = bootstrap_se(data, np.mean, SeedStream(SEED, 36), np.int64(2))
    assert math.isfinite(se)

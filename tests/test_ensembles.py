"""Seeded ensemble engine: determinism, functional plans, window draws,
the shared worker pool, TV estimation, covariance partition, coverage, KS,
and bootstrap helpers."""
import math
import multiprocessing
import re
import tracemalloc

import numpy as np
import pytest

from symmpoly import (CHUNK_SIZE, BoundUndefinedError, DomainError,
                      InvalidDimensionError, InvalidSizeError,
                      LocalFunctional, Polygon, ReliabilityError,
                      ResolutionError, SeedStream, assemble_partition, b2, b3,
                      bootstrap_se, bootstrap_stat_se, chebyshev_coverage,
                      covariance_partition, estimate_tv, functional_samples,
                      ks_distance, run_ensemble, sample_arm, sample_pol,
                      segment_samples)
from symmpoly import bounds, cli, densities, ensembles
from symmpoly.ensembles import _build_plan, _worker_pool
from symmpoly.functionals import _batch_torsion, _batch_turning
from symmpoly.polygons import SPACES, space_dim, space_edges_batch

SEED = 7


def _first_edge_lengths(windows):
    return np.sqrt((windows[:, 0] ** 2).sum(axis=-1))


def _all_degenerate(windows):
    return np.full(len(windows), np.nan)


def _edge_sums(chunk, edges):
    # a ("polygons", fn) task: each polygon's edge sum, drawn where it is
    # reduced; module-level, so that a worker can take it
    return edges.sum(axis=1)


EDGE_LENGTH = LocalFunctional(k=1, bound_M=2.0, eval=_first_edge_lengths,
                              name="edge_length")
BROKEN = LocalFunctional(k=1, bound_M=1.0, eval=_all_degenerate,
                         name="broken")

# Per-window references for the batch functionals above and below: one
# window (k, dim) -> one value, in the same arithmetic as the batch form.
PER_WINDOW = {
    "edge_length": lambda w: math.sqrt(sum(c * c for c in w[0])),
    "dot": lambda w: float(w[0, 0] * w[1, 0] + w[0, 1] * w[1, 1]),
}


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


def test_worker_count_never_changes_values(monkeypatch, dispatch_every_run):
    _chunk_size(monkeypatch, 1024)
    kwargs = dict(seed=SEED, stream_id=2)
    v1, _ = functional_samples("pol3", 20, 5000, ["tau1", "total_curvature"],
                               workers=1, **kwargs)
    v2, _ = functional_samples("pol3", 20, 5000, ["tau1", "total_curvature"],
                               workers=2, **kwargs)
    assert np.array_equal(v1["tau1"], v2["tau1"])
    assert np.array_equal(v1["total_curvature"], v2["total_curvature"])


def test_worker_count_never_changes_segments(monkeypatch, dispatch_every_run):
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


def test_custom_functional_with_workers(monkeypatch, dispatch_every_run):
    # three chunks, so the LocalFunctional is pickled to a worker
    _chunk_size(monkeypatch, 1024)
    opened = _count_pools(monkeypatch)
    vals, excluded = functional_samples("pol2", 12, 3000, [EDGE_LENGTH], SEED,
                                        stream_id=5, workers=2)
    assert opened == [2]
    assert excluded == 0
    lengths = vals["edge_length"]
    assert lengths.shape == (3000,)
    se = lengths.std(ddof=1) / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 2.0 / 12.0) < 4 * se
    single, _ = functional_samples("pol2", 12, 3000, [EDGE_LENGTH], SEED,
                                   stream_id=5, workers=1)
    assert lengths.tobytes() == single["edge_length"].tobytes()


# A lambda does not pickle, so it cannot be sent to a worker process.
LAMBDA_DOT = LocalFunctional(
    2, 1.0, lambda w: w[:, 0, 0] * w[:, 1, 0] + w[:, 0, 1] * w[:, 1, 1],
    name="dot")


# 100 000 and 300 000 two-edge windows lie either side of the in-process cut
@pytest.mark.parametrize("N", [100_000, 300_000])
def test_unpicklable_functional_fails_before_any_chunk(N, monkeypatch):
    assert N * LAMBDA_DOT.k != ensembles._IN_PROCESS_EDGES
    opened = _count_pools(monkeypatch)
    chunks = []
    monkeypatch.setattr(ensembles, "_eval_chunk", chunks.append)
    with pytest.raises(DomainError, match="'dot'.*module-level callable"):
        functional_samples("arm2", 100, N, [LAMBDA_DOT], SEED, workers=2)
    assert opened == [] and chunks == []


def test_unpicklable_functional_runs_at_one_worker():
    vals, excluded = functional_samples("arm2", 100, 5000, [LAMBDA_DOT], SEED,
                                        stream_id=7, workers=1)
    heads = segment_samples("arm2", 100, 2, 5000, SEED, stream_id=7)
    heads = heads.reshape(5000, 2, 2)
    assert excluded == 0
    assert np.array_equal(vals["dot"], [PER_WINDOW["dot"](w) for w in heads])


def _scale_in_place(windows):
    windows *= 2.0
    return np.zeros(len(windows))


def test_custom_functionals_cannot_write_the_draw():
    # every op of a plan reads one draw, so an eval that writes its windows
    # fails instead of changing what the ops after it read
    scaling = LocalFunctional(k=1, bound_M=1.0, eval=_scale_in_place, name="s")
    with pytest.raises(ValueError, match="read-only"):
        functional_samples("arm2", 10, 100, [scaling, EDGE_LENGTH], SEED)


def test_degenerate_exclusion_gate():
    # a NaN value marks a degenerate window and excludes its sample
    with pytest.raises(ReliabilityError, match="200 of 200"):
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
    with pytest.raises(InvalidDimensionError):
        functional_samples("ring2", 10, 100, ["theta1"], SEED)
    # closed polygons have n angles of each kind, open chains fewer
    functional_samples("pol2", 10, 100, ["theta10"], SEED, stream_id=7)
    functional_samples("pol3", 10, 100, ["tau10"], SEED, stream_id=7)
    with pytest.raises(InvalidSizeError):
        functional_samples("arm3", 10, 100, ["tau9"], SEED)
    # a window is a whole number of edges
    for k in (2.0, True, 0, 11):
        wide = LocalFunctional(k=k, bound_M=1.0, eval=_first_edge_lengths, name="w")
        with pytest.raises(InvalidSizeError, match="functional 'w' must satisfy 1 <= k <= n"):
            functional_samples("arm2", 10, 100, [wide, "total_curvature"], SEED)
    # eval maps B windows to B values: not to one value per window's edge,
    # and not to one value for the whole batch (the per-window form)
    for name, wrong in (("per_edge", lambda w: w[:, 0]),
                        ("per_window", lambda w: float(np.linalg.norm(w[0])))):
        f = LocalFunctional(k=1, bound_M=1.0, eval=wrong, name=name)
        with pytest.raises(DomainError, match=f"'{name}' returned shape"):
            functional_samples("arm2", 10, 100, [f], SEED)


# Every entry point that takes a space name checks it through
# polygons.space_dim, so an unknown name raises one error class everywhere.
UNKNOWN_SPACE_CALLS = {
    "space_dim": space_dim,
    "space_edges_batch": lambda space: space_edges_batch(
        SeedStream(SEED).generator(), 10, space, 10),
    "functional_samples": lambda space: functional_samples(
        space, 10, 100, ["theta1"], SEED),
    "run_ensemble": lambda space: run_ensemble(space, 10, 100, ["theta1"], SEED),
    "segment_samples": lambda space: segment_samples(space, 10, 2, 100, SEED),
    "estimate_tv": lambda space: estimate_tv(space, "arm2", 10, 1, 1000, 4, SEED),
    "covariance_partition": lambda space: covariance_partition(space, 10, 100, SEED),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_SPACE_CALLS))
def test_unknown_space_raises_one_error_class(entry):
    with pytest.raises(InvalidDimensionError, match="'foo'"):
        UNKNOWN_SPACE_CALLS[entry]("foo")


def _case(name, call, out_of_range, error):
    return pytest.param(call, out_of_range, error, id=name)


# isinstance(True, int) holds, and 2.0 == 2: every integer argument refuses
# both, with the error its site raises for an out-of-range value, in place
# of computing with them. Each case calls one function with the argument set
# to v.
INTEGER_ARGS = [
    _case("N", lambda v: functional_samples("arm2", 10, v, ["theta1"], SEED),
          0, DomainError),
    _case("workers", lambda v: functional_samples("arm2", 10, 100, ["theta1"], SEED,
                                                  workers=v), 0, DomainError),
    _case("bins_per_axis", lambda v: estimate_tv("pol2", "arm2", 10, 1, 10_000, v, SEED),
          3, ResolutionError),
    _case("n", lambda v: covariance_partition("pol2", v, 100, SEED), 6, InvalidSizeError),
    _case("n_resamples", lambda v: bootstrap_stat_se(
        10, lambda idx: 0.0, SeedStream(SEED, 36), n_resamples=v), 1, DomainError),
    _case("bootstrap_se-n_resamples", lambda v: bootstrap_se(
        np.ones(10), np.mean, SeedStream(SEED, 36), n_resamples=v), 1, DomainError),
    _case("bootstrap_stat_se-size", lambda v: bootstrap_stat_se(
        v, lambda idx: 0.0, SeedStream(SEED, 36)), 1, DomainError),
    _case("run_ensemble-N", lambda v: run_ensemble("arm2", 10, v, ["theta1"], SEED),
          1, DomainError),
    _case("functional_samples-n", lambda v: functional_samples(
        "arm2", v, 100, ["total_curvature"], SEED), 2, InvalidSizeError),
    _case("functional_samples-seed", lambda v: functional_samples(
        "arm2", 10, 100, ["theta1"], v), -1, InvalidDimensionError),
    _case("functional_samples-stream_id", lambda v: functional_samples(
        "arm2", 10, 100, ["theta1"], SEED, stream_id=v), -1, InvalidDimensionError),
    _case("segment_samples-n", lambda v: segment_samples("arm2", v, 1, 100, SEED),
          2, InvalidSizeError),
    _case("segment_samples-k", lambda v: segment_samples("arm2", 10, v, 100, SEED),
          0, InvalidSizeError),
    _case("estimate_tv-k", lambda v: estimate_tv("pol2", "arm2", 10, v, 10_000, 4, SEED),
          0, InvalidSizeError),
    _case("estimate_tv-N", lambda v: estimate_tv("pol2", "arm2", 10, 1, v, 4, SEED),
          0, DomainError),
    _case("space_edges_batch-n", lambda v: space_edges_batch(
        SeedStream(SEED).generator(), 10, "arm2", v), 2, InvalidSizeError),
    _case("space_edges_batch-k", lambda v: space_edges_batch(
        SeedStream(SEED).generator(), 10, "arm2", 10, v), 0, InvalidSizeError),
    _case("sample_arm-dim", lambda v: sample_arm(v, 10, SeedStream(SEED)),
          4, InvalidDimensionError),
    _case("sample_arm-n", lambda v: sample_arm(2, v, SeedStream(SEED)),
          2, InvalidSizeError),
    _case("sample_pol-dim", lambda v: sample_pol(v, 10, SeedStream(SEED)),
          1, InvalidDimensionError),
    _case("sample_pol-n", lambda v: sample_pol(3, v, SeedStream(SEED)),
          2, InvalidSizeError),
    _case("Polygon-dim", lambda v: Polygon(dim=v, closed=False, edges=np.zeros((3, 2))),
          4, InvalidDimensionError),
    _case("SeedStream-seed", lambda v: SeedStream(v), -1, InvalidDimensionError),
    _case("SeedStream-stream_id", lambda v: SeedStream(SEED, v), 2**64,
          InvalidDimensionError),
    _case("chunk_generator-chunk", lambda v: SeedStream(SEED).chunk_generator(v),
          -1, InvalidDimensionError),
    _case("ortho_block_bound-r", lambda v: bounds.ortho_block_bound(v, 2, 100),
          0, BoundUndefinedError),
    _case("ortho_block_bound-s", lambda v: bounds.ortho_block_bound(2, v, 100),
          0, BoundUndefinedError),
    _case("ortho_block_bound-n", lambda v: bounds.ortho_block_bound(2, 2, v),
          0, BoundUndefinedError),
    _case("sphere_marginal_bound-k", lambda v: bounds.sphere_marginal_bound(v, 200),
          0, BoundUndefinedError),
    _case("sphere_marginal_bound-m", lambda v: bounds.sphere_marginal_bound(2, v),
          0, BoundUndefinedError),
    _case("unitary_block_bound-r", lambda v: bounds.unitary_block_bound(v, 2, 100),
          0, BoundUndefinedError),
    _case("unitary_block_bound-s", lambda v: bounds.unitary_block_bound(2, v, 100),
          0, BoundUndefinedError),
    _case("unitary_block_bound-n", lambda v: bounds.unitary_block_bound(2, 2, v),
          0, BoundUndefinedError),
    _case("b2-k", lambda v: b2(v, 100), 0, BoundUndefinedError),
    _case("b2-n", lambda v: b2(1, v), 0, BoundUndefinedError),
    _case("b3-k", lambda v: b3(v, 100), 0, BoundUndefinedError),
    _case("b3-n", lambda v: b3(1, v), 0, BoundUndefinedError),
    _case("asymptotic_slope-dim", lambda v: bounds.asymptotic_slope(v, 3),
          4, InvalidDimensionError),
    _case("asymptotic_slope-k2", lambda v: bounds.asymptotic_slope(2, v),
          0, BoundUndefinedError),
    _case("asymptotic_slope-k3", lambda v: bounds.asymptotic_slope(3, v),
          1, BoundUndefinedError),
    _case("alpha_limit-dim", lambda v: bounds.alpha_limit(v, 0.1),
          4, InvalidDimensionError),
    _case("alpha_threshold-dim", lambda v: bounds.alpha_threshold(v),
          4, InvalidDimensionError),
    _case("expectation_transfer_gap-dim",
          lambda v: bounds.expectation_transfer_gap(1.0, v, 2, 100),
          4, InvalidDimensionError),
    _case("expectation_transfer_gap-k",
          lambda v: bounds.expectation_transfer_gap(1.0, 3, v, 100),
          0, BoundUndefinedError),
    _case("expectation_transfer_gap-n",
          lambda v: bounds.expectation_transfer_gap(1.0, 2, 2, v),
          0, BoundUndefinedError),
    _case("curvature_variance_bound-n", lambda v: bounds.curvature_variance_bound(v),
          8, BoundUndefinedError),
    _case("torsion_variance_bound-n", lambda v: bounds.torsion_variance_bound(v),
          10, BoundUndefinedError),
    _case("ln_multigamma-m", lambda v: densities.ln_multigamma(v, 3.0), 0, DomainError),
    _case("block_density-n", lambda v: densities.block_density(0.1, v), 2, DomainError),
    _case("wishart_density-p", lambda v: densities.wishart_density(1.0, v, 3, 1.0),
          0, DomainError),
    _case("wishart_density-n", lambda v: densities.wishart_density(1.0, 1, v, 1.0),
          0, DomainError),
    _case("cbi_density-m", lambda v: densities.cbi_density(0.5, v, 2.0, 3.0),
          0, DomainError),
    _case("ratio_profile-r", lambda v: densities.ratio_profile(v, 20, 1000),
          0, DomainError),
    _case("ratio_profile-n", lambda v: densities.ratio_profile(1, v, 1000),
          4, DomainError),
    _case("ratio_profile-grid_points", lambda v: densities.ratio_profile(1, 20, v),
          999, DomainError),
]


@pytest.mark.parametrize("call, out_of_range, error", INTEGER_ARGS)
def test_counts_reject_bools(call, out_of_range, error):
    for v in (out_of_range, True, 2.0):
        with pytest.raises(error, match=re.escape(repr(v))):
            call(v)


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
    # shrinks with n, consistent with the vanishing TV bound. The draws are
    # 2-edge heads; at 10**6 the expected shrinkage is about 7.6 SE (at
    # 10**5 it was 2.4 SE, failing on about 1% of seeds)
    ratios = {}
    for n, sid in ((50, 16), (200, 17)):
        summary = run_ensemble("pol2", n, 1_000_000, ["theta1"], SEED,
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
    with pytest.raises(InvalidDimensionError):
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
    for workers in (0, -2, 1.5, True):
        with pytest.raises(DomainError):
            segment_samples("arm2", 10, 1, 100, SEED, workers=workers)
        with pytest.raises(DomainError):
            functional_samples("arm2", 10, 100, ["theta1"], SEED,
                               workers=workers)
        with pytest.raises(DomainError, match="worker count"):
            estimate_tv("pol2", "arm2", 10, 1, 2000, 4, SEED, workers=workers)


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
    from scipy import stats

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
            out[f.name] = np.array([PER_WINDOW[f.name](w[:f.k]) for w in edges])
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
    real = ensembles._new_pool

    def counting(*args, **kwargs):
        opened.append(kwargs.get("processes", args[0] if args else None))
        return real(*args, **kwargs)

    monkeypatch.setattr(ensembles, "_new_pool", counting)
    return opened


def test_runs_in_one_block_open_one_pool(monkeypatch, dispatch_every_run):
    # a whole-polygon plan and a polygon task, two streams, one pool
    _chunk_size(monkeypatch, 1024)
    opened = _count_pools(monkeypatch)

    def draws(workers):
        with _worker_pool(workers):
            vals, _ = functional_samples("pol2", 20, 3000, ["total_curvature"],
                                         SEED, stream_id=24, workers=workers)
            sums = ensembles._run_chunks("arm2", 20, 3000, SEED, 25,
                                         ("polygons", _edge_sums), workers)
        sums = np.concatenate(sums)
        assert len(sums) == 3000
        return vals["total_curvature"], sums

    pooled = draws(2)
    assert opened == [2]
    in_process = draws(1)
    assert opened == [2]
    for a, b in zip(pooled, in_process):
        assert a.tobytes() == b.tobytes()


def test_segment_runs_fork_no_pool(monkeypatch, dispatch_every_run):
    # a segment chunk sends back every edge it draws, so segment runs stay
    # in-process at any worker count, heads (k = 1) and whole polygons
    # (k = n) alike, while every other multi-chunk run here dispatches
    _chunk_size(monkeypatch, 1000)
    opened = _count_pools(monkeypatch)
    for k in (1, 20):
        s1 = segment_samples("pol2", 20, k, 5000, SEED, stream_id=3)
        s2 = segment_samples("pol2", 20, k, 5000, SEED, stream_id=3, workers=2)
        with _worker_pool(2):
            s3 = segment_samples("pol2", 20, k, 5000, SEED, stream_id=3,
                                 workers=2)
        assert opened == []
        assert s1.tobytes() == s2.tobytes() == s3.tobytes()
    tv_args = ("pol2", "arm2", 20, 1, 20_000, 8, SEED)
    h1 = estimate_tv(*tv_args, stream_ids=(24, 25))
    h2 = estimate_tv(*tv_args, stream_ids=(24, 25), workers=2)
    assert opened == []
    assert h1.counts_a.tobytes() == h2.counts_a.tobytes()
    assert h1.counts_b.tobytes() == h2.counts_b.tobytes()
    assert (h1.tv_estimate, h1.null_calibration) == (h2.tv_estimate,
                                                     h2.null_calibration)


def test_worker_pool_is_shared_by_nested_blocks(monkeypatch,
                                                 dispatch_every_run):
    opened = _count_pools(monkeypatch)
    _chunk_size(monkeypatch, 1024)
    kwargs = dict(stream_id=2)
    torsion = ["tau1", "total_torsion"]
    with _worker_pool(2):
        v2, _ = functional_samples("pol2", 20, 5000, ["total_curvature"],
                                   SEED, workers=2, **kwargs)
        with _worker_pool(2):
            t2, _ = functional_samples("arm3", 20, 3000, torsion, SEED,
                                       workers=2, **kwargs)
    assert opened == [2]
    v1, _ = functional_samples("pol2", 20, 5000, ["total_curvature"], SEED,
                               workers=1, **kwargs)
    t1, _ = functional_samples("arm3", 20, 3000, torsion, SEED, workers=1,
                               **kwargs)
    assert opened == [2]
    assert np.array_equal(v1["total_curvature"], v2["total_curvature"])
    for name in torsion:
        assert np.array_equal(t1[name], t2[name]), name
    with pytest.raises(DomainError):
        with _worker_pool(0):
            pass


def test_small_list_runs_fork_no_pool(monkeypatch):
    # at the default cut a head TV estimate and a window plan, each several
    # chunks long, run in-process at two workers, in a block or not
    opened = _count_pools(monkeypatch)
    tv_args = ("pol2", "arm2", 20, 1, 20_000, 8, SEED)
    fns = ["theta1", "tau2"]  # a four-edge window: 80k edges

    def draws(workers):
        hist = estimate_tv(*tv_args, stream_ids=(24, 25), workers=workers)
        vals, _ = functional_samples("pol3", 30, 20_000, fns, SEED,
                                     stream_id=10, workers=workers)
        return hist, vals

    hist2, vals2 = draws(2)
    with _worker_pool(2):
        again = draws(2)
    assert opened == []
    hist1, vals1 = draws(1)
    for hist in (hist2, again[0]):
        assert hist.tv_estimate == hist1.tv_estimate
        assert hist.null_calibration == hist1.null_calibration
        assert np.array_equal(hist.counts_a, hist1.counts_a)
        assert np.array_equal(hist.counts_b, hist1.counts_b)
    for vals in (vals2, again[1]):
        for name in fns:
            assert np.array_equal(vals[name], vals1[name]), name


def test_worker_pool_forks_on_first_dispatch(monkeypatch):
    opened = _count_pools(monkeypatch)
    task = ("polygons", _edge_sums)

    def sums(workers):
        got = np.concatenate(ensembles._run_chunks(
            "arm2", 20, 20_000, SEED, 3, task, workers))
        assert len(got) == 20_000
        return got

    with _worker_pool(2):
        # a two-edge window: 40k drawn edges, below the cut
        head2, _ = functional_samples("arm2", 20, 20_000, ["theta1"], SEED,
                                      stream_id=2, workers=2)
        assert opened == []
        # whole 20-gons: 400k drawn edges, above the cut
        v2, _ = functional_samples("pol2", 20, 20_000, ["total_curvature"],
                                   SEED, stream_id=2, workers=2)
        assert opened == [2]
        full2 = sums(2)
    assert opened == [2]
    # outside a block, a run above the cut opens a pool of its own
    assert np.array_equal(full2, sums(2))
    assert opened == [2, 2]
    v1, _ = functional_samples("pol2", 20, 20_000, ["total_curvature"], SEED,
                               stream_id=2, workers=1)
    assert np.array_equal(v1["total_curvature"], v2["total_curvature"])
    head1, _ = functional_samples("arm2", 20, 20_000, ["theta1"], SEED,
                                  stream_id=2)
    assert np.array_equal(head1["theta1"], head2["theta1"])
    assert np.array_equal(full2, sums(1))


@pytest.mark.parametrize("method", [m for m in multiprocessing.get_all_start_methods()
                                    if m != "fork"])
def test_spawned_workers_give_the_same_bytes(monkeypatch, tmp_path,
                                             dispatch_every_run, method):
    # workers started by spawn or forkserver begin from a fresh import and
    # share no state with the parent, so the bytes may depend only on the
    # chunk -> generator map
    _chunk_size(monkeypatch, 512)
    monkeypatch.setattr(ensembles, "_new_pool",
                        multiprocessing.get_context(method).Pool)
    opened = _count_pools(monkeypatch)

    def draws(workers):
        seg = segment_samples("pol3", 30, 2, 1500, SEED, stream_id=9,
                              workers=workers)
        # EDGE_LENGTH reaches the spawned workers by its module path: they
        # import this module, which imports scipy only in the tests that use it
        vals, _ = functional_samples(
            "pol3", 30, 1500, ["theta1", "tau2", "total_curvature", EDGE_LENGTH],
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


def test_pools_fork_where_the_platform_can():
    # the one place that picks the start method; spawn and forkserver would
    # import the package again in every worker of every pool
    methods = multiprocessing.get_all_start_methods()
    expected = "fork" if "fork" in methods else multiprocessing.get_start_method()
    assert ensembles._new_pool.__self__.get_start_method() == expected


class _RecordingPool:
    """A pool that runs each submitted chunk at once, in-process, and logs
    every submission and every result handed out. Every block forks it
    through ``_new_pool``."""

    def __init__(self, monkeypatch):
        self.log = []
        monkeypatch.setattr(ensembles, "_new_pool", lambda processes: self)

    def apply_async(self, fn, args):
        self.log.append("submit")
        result = fn(*args)
        log = self.log

        class Done:
            def get(self):
                log.append("get")
                return result

        return Done()

    def terminate(self):
        pass


def test_chunk_stream_bounds_the_chunks_in_flight(monkeypatch, dispatch_every_run):
    _chunk_size(monkeypatch, 100)
    pool = _RecordingPool(monkeypatch)
    task = ("polygons", _edge_sums)
    stream = ensembles._iter_chunks("arm3", 10, 1050, SEED, 4, task, 2)
    got = []
    for result in stream:
        # the consumer logs when it is done with each result
        got.append(result)
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
    expected = segment_samples("arm3", 10, 10, 1050, SEED, stream_id=4)
    got = np.concatenate(got)
    assert len(got) == 1050
    assert np.array_equal(got, expected.reshape(1050, 10, 3).sum(axis=1))


def test_chunk_list_keeps_the_window(monkeypatch, dispatch_every_run):
    # a list run goes through the same window as a streamed one: 2 x workers
    # chunks submitted first, then one more each time one is taken
    _chunk_size(monkeypatch, 100)
    pool = _RecordingPool(monkeypatch)
    task = ("functionals", ("total_curvature",))
    for result in ensembles._iter_chunks("pol2", 10, 1050, SEED, 4, task, 2):
        pool.log.append("used")
    assert pool.log == (["submit"] * 4 + ["get", "used", "submit"] * 7
                        + ["get", "used"] * 4)
    results = ensembles._run_chunks("pol2", 10, 1050, SEED, 4, task, 2)
    assert isinstance(results, list) and len(results) == 11
    expected, _ = functional_samples("pol2", 10, 1050, ["total_curvature"],
                                     SEED, stream_id=4)
    assert np.array_equal(
        np.concatenate([r[0]["total_curvature"] for r in results]),
        expected["total_curvature"])


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_results_are_the_tasks_own(monkeypatch, dispatch_every_run, workers):
    # each chunk yields its task's result and nothing beside it: a
    # functional plan's (values, excluded), a segment run's (count, dim*k)
    # array, a polygon task's fn(chunk, edges)
    _chunk_size(monkeypatch, 100)
    counts = [100, 100, 50]

    def chunks(task):
        got = list(ensembles._iter_chunks("arm3", 10, 250, SEED, 4, task, workers))
        assert len(got) == len(counts)
        return got

    for (values, excluded), count in zip(
            chunks(("functionals", ("theta1", "total_torsion"))), counts):
        assert isinstance(values, dict) and isinstance(excluded, int)
        assert sorted(values) == ["theta1", "total_torsion"]
        assert len(values["theta1"]) == count - excluded
    for segments, count in zip(chunks(("segments", 2)), counts):
        assert isinstance(segments, np.ndarray) and segments.shape == (count, 6)
    polygon_chunks = chunks(("polygons", _edge_sums))
    for chunk, (sums, count) in enumerate(zip(polygon_chunks, counts)):
        rng = SeedStream(SEED, 4).chunk_generator(chunk)
        want = _edge_sums(chunk, space_edges_batch(rng, count, "arm3", 10))
        assert isinstance(sums, np.ndarray) and sums.shape == (count, 3)
        assert sums.tobytes() == want.tobytes()


def test_prefetched_run_submits_each_chunk_once(monkeypatch, dispatch_every_run):
    # a prefetched run hands all its chunks to the pool at once; the run
    # then takes their results and submits none again
    _chunk_size(monkeypatch, 100)
    pool = _RecordingPool(monkeypatch)
    task = ("functionals", ("theta1", "total_curvature"))
    with _worker_pool(2):
        ensembles._prefetch("pol2", 10, 1050, SEED, 4, task, 2)
        assert pool.log == ["submit"] * 11
        results = ensembles._run_chunks("pol2", 10, 1050, SEED, 4, task, 2)
    assert pool.log == ["submit"] * 11 + ["get"] * 11
    # the same run without a prefetch goes through the window
    pool.log.clear()
    with _worker_pool(2):
        again = ensembles._run_chunks("pol2", 10, 1050, SEED, 4, task, 2)
    assert pool.log == ["submit"] * 4 + ["get", "submit"] * 7 + ["get"] * 4
    expected = ensembles._run_chunks("pol2", 10, 1050, SEED, 4, task, 1)
    for got in (results, again):
        for a, b in zip(got, expected):
            assert a[1] == b[1]
            for name in a[0]:
                assert np.array_equal(a[0][name], b[0][name])


def test_list_runs_dispatch_above_the_cut(monkeypatch):
    # a list run of exactly _IN_PROCESS_EDGES drawn edges stays in-process;
    # a run one polygon longer goes to the pool
    cut = ensembles._IN_PROCESS_EDGES
    pool = _RecordingPool(monkeypatch)
    whole = ("functionals", ("total_curvature",))
    at_cut = ensembles._run_chunks("arm2", 16, cut // 16, SEED, 4, whole, 2)
    assert len(at_cut) > 1 and pool.log == []
    above = ensembles._run_chunks("arm2", 16, cut // 16 + 1, SEED, 4,
                                  ("polygons", _edge_sums), 2)
    assert pool.log.count("submit") == pool.log.count("get") == len(above)
    # a segment run stays in-process however many edges it draws
    pool.log.clear()
    ensembles._run_chunks("arm2", 16, cut // 16 + 1, SEED, 4, ("segments", 16), 2)
    assert pool.log == []
    # a window plan counts its window, not n: two edges for theta1
    pool.log.clear()
    ensembles._run_chunks("pol2", 10, cut // 2, SEED, 4,
                          ("functionals", ("theta1",)), 2)
    assert pool.log == []
    ensembles._run_chunks("pol2", 10, cut // 2 + 1, SEED, 4,
                          ("functionals", ("theta1",)), 2)
    assert pool.log != []


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
    assert excess <= 1.0  # the universal TV ceiling in this convention


def test_estimate_tv_deterministic_across_workers(dispatch_every_run):
    a = estimate_tv("pol2", "arm2", 20, 1, 20_000, 8, SEED,
                    stream_ids=(24, 25), workers=1)
    b = estimate_tv("pol2", "arm2", 20, 1, 20_000, 8, SEED,
                    stream_ids=(24, 25), workers=2)
    assert a.tv_estimate == b.tv_estimate
    assert a.null_calibration == b.null_calibration
    assert np.array_equal(a.counts_a, b.counts_a)


def _whole_sample_tv(space_a, space_b, n, k, N, bins, stream_ids, workers):
    """The whole-sample form of estimate_tv: both samples concatenated, the
    grid from their pooled min/max(axis=0), four np.histogramdd calls."""
    seg_a, seg_b = (segment_samples(space, n, k, N, SEED, stream_id=sid,
                                    workers=workers)
                    for space, sid in ((space_a, stream_ids[0]),
                                       (space_b, stream_ids[1])))
    lo = np.minimum(seg_a.min(axis=0), seg_b.min(axis=0))
    hi = np.maximum(seg_a.max(axis=0), seg_b.max(axis=0))
    pad = np.maximum(0.005 * (hi - lo), 1e-12)
    ranges = tuple((float(l), float(h)) for l, h in zip(lo - pad, hi + pad))

    def binned_tv(x, y):
        counts_x, _ = np.histogramdd(x, bins=bins, range=ranges)
        counts_y, _ = np.histogramdd(y, bins=bins, range=ranges)
        tv = 0.5 * float(np.abs(counts_x / len(x) - counts_y / len(y)).sum())
        return counts_x, counts_y, tv

    counts_a, counts_b, tv = binned_tv(seg_a, seg_b)
    null = binned_tv(seg_a[:N // 2], seg_a[N // 2:])[2]
    return ranges, counts_a, counts_b, tv, null


@pytest.mark.parametrize(
    "space_a, space_b, n, k, N, bins, chunk, workers",
    [("pol2", "arm2", 20, 1, 4 * CHUNK_SIZE, 8, CHUNK_SIZE, 1),  # N // 2 on a chunk edge
     ("pol2", "arm2", 20, 1, 5 * CHUNK_SIZE, 8, CHUNK_SIZE, 1),  # N // 2 inside a chunk
     ("pol2", "arm2", 20, 1, 20_000, 8, CHUNK_SIZE, 1),          # a short last chunk
     ("pol3", "arm3", 30, 1, 12_345, 4, CHUNK_SIZE, 1),          # odd N, d = 3
     ("pol2", "arm2", 30, 2, 13_001, 4, CHUNK_SIZE, 1),          # d = 4
     ("arm2", "arm2", 50, 1, 9_000, 8, CHUNK_SIZE, 1),           # the control pair
     ("pol2", "arm2", 20, 1, 7_777, 8, 1000, 2)])                # 2 workers, in-process
def test_estimate_tv_matches_whole_sample_binning(
        monkeypatch, dispatch_every_run, space_a, space_b, n, k, N, bins,
        chunk, workers):
    _chunk_size(monkeypatch, chunk)
    ids = (20, 21)
    hist = estimate_tv(space_a, space_b, n, k, N, bins, SEED, stream_ids=ids,
                       workers=workers)
    ranges, counts_a, counts_b, tv, null = _whole_sample_tv(
        space_a, space_b, n, k, N, bins, ids, workers)
    assert hist.ranges == ranges
    for got, want in ((hist.counts_a, counts_a), (hist.counts_b, counts_b)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert hist.tv_estimate == tv
    assert hist.null_calibration == null
    # one grid axis per coordinate of a k-segment, not per ambient axis
    dim = space_dim(space_a)
    assert hist.dim == dim * k == hist.counts_a.ndim == len(hist.ranges)


@pytest.mark.parametrize("N", [100_000, 400_000])
def test_estimate_tv_holds_only_the_samples(N):
    # numpy reports its buffers to tracemalloc. The call must hold both
    # samples, 2 x N x d float64; past them it needs about a chunk's
    # temporaries (0.4 MB measured at either N), where binning the whole
    # samples took 2.5 MB more at N = 100k and 10 MB at 400k.
    args = ("pol2", "arm2", 100, 1)
    estimate_tv(*args, 20_000, 12, SEED)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        estimate_tv(*args, N, 12, SEED)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - 2 * N * 2 * 8 < 1.5e6


def test_estimate_tv_resolution_guards():
    with pytest.raises(ResolutionError):
        estimate_tv("pol2", "arm2", 20, 2, 10_000, 8, SEED)  # 8^4 cells
    with pytest.raises(ResolutionError):
        estimate_tv("pol2", "arm2", 20, 1, 10_000, 3, SEED)
    with pytest.raises(InvalidDimensionError):
        estimate_tv("pol2", "arm3", 20, 1, 10_000, 8, SEED)
    with pytest.raises(DomainError):
        estimate_tv("arm2", "arm2", 20, 1, 10_000, 8, SEED, stream_ids=(5, 5))
    # a segment longer than the polygon is the fault, whatever grid it would
    # size (4**(2 * 5000) cells have more digits than Python formats)
    for k in (101, 5000):
        with pytest.raises(InvalidSizeError, match=f"1 <= k <= n, got k={k}"):
            estimate_tv("pol2", "arm2", 100, k, 1000, 4, SEED)


@pytest.mark.parametrize("stream_ids", [(0,), 5, (0, 1, 2)])
def test_estimate_tv_takes_a_pair_of_stream_ids(stream_ids):
    with pytest.raises(DomainError, match="stream_ids must be a pair"):
        estimate_tv("pol2", "arm2", 20, 1, 10_000, 8, SEED, stream_ids=stream_ids)


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


def test_assemble_partition_checks_its_arguments():
    t = SeedStream(SEED, 37).generator().standard_normal(50)
    assert assemble_partition(np.int64(100), t, t, t) == assemble_partition(100, t, t, t)
    # n by the one integer rule, as in covariance_partition
    for n in (True, 2.5, 6, 100.0):
        with pytest.raises(InvalidSizeError, match="covariance partition n"):
            assemble_partition(n, t, t, t)
    for t2, t3 in ((t[:49], t), (t, t[1:]), (t[:10], t[:20])):
        with pytest.raises(DomainError, match="differ in length"):
            assemble_partition(100, t, t2, t3)


def test_chebyshev_coverage_counts_strictly_outside():
    assert chebyshev_coverage([0.0, 1.0, 2.0, 3.0], (0.5, 2.5)) == 0.5
    assert chebyshev_coverage([1.0, 2.0], (1.0, 2.0)) == 0.0
    assert chebyshev_coverage([5.0], (0.0, 1.0)) == 1.0
    with pytest.raises(DomainError):
        chebyshev_coverage([], (0.0, 1.0))
    with pytest.raises(DomainError):
        chebyshev_coverage([1.0], (2.0, 1.0))
    # a NaN would count as inside every interval
    with pytest.raises(DomainError, match="finite samples"):
        chebyshev_coverage([float("nan"), float("nan"), 5.0], (0.0, 1.0))


@pytest.mark.parametrize("interval", [(0.0, 1.0, 2.0), 5, (1.0,)])
def test_chebyshev_coverage_takes_a_pair(interval):
    with pytest.raises(DomainError, match="interval must be a pair"):
        chebyshev_coverage([0.5], interval)


@pytest.mark.parametrize("call", [functional_samples, run_ensemble])
def test_functionals_refuse_a_bare_string(call):
    # a string is a sequence of names one character long
    with pytest.raises(DomainError, match="got the string 'theta1'"):
        call("arm2", 10, 100, "theta1", SEED)


def test_ks_distance_values():
    from scipy import stats

    # constant sample against the uniform cdf: sup gap is 1 - cdf(c)
    assert ks_distance([0.3] * 10, lambda x: np.clip(x, 0.0, 1.0)) \
        == pytest.approx(0.7, rel=1e-12)
    # ... and cdf(c) itself when that is larger (the D- side)
    assert ks_distance([0.9] * 10, lambda x: np.clip(x, 0.0, 1.0)) \
        == pytest.approx(0.9, rel=1e-12)
    rng = SeedStream(SEED, 31).generator()
    u = rng.random(100_000)
    assert ks_distance(u, lambda x: np.clip(x, 0.0, 1.0)) < 0.01
    # the cdf maps the array of samples to an array of its shape
    for cdf in (lambda x: float(min(max(x, 0.0), 1.0)), math.erf,
                lambda x: np.clip(x, 0.0, 1.0)[:-1], lambda x: 0.5):
        with pytest.raises(DomainError, match="cdf must map an array to an array"):
            ks_distance(u[:1000], cdf)
    # a NaN sorts last and would give a NaN distance
    with pytest.raises(DomainError, match="finite samples"):
        ks_distance([0.1, float("nan"), 0.5], lambda x: np.clip(x, 0.0, 1.0))
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_bootstrap_se_needs_finite_values(bad):
    # a NaN gave a NaN SE without a word, an infinity a RuntimeWarning first
    with pytest.raises(DomainError, match="finite samples"):
        bootstrap_se([1.0, bad, 2.0], np.mean, SeedStream(SEED, 35))


def test_ks_distance_refuses_a_nan_cdf():
    # np.max passes a NaN through, so the distance read NaN
    def cdf(x):
        out = np.clip(x, 0.0, 1.0)
        out[1] = np.nan
        return out

    with pytest.raises(DomainError, match="NaN"):
        ks_distance([0.1, 0.5, 0.9], cdf)


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

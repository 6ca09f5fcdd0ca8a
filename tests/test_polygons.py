"""Polygon spaces: squaring map, Hopf map, samplers, and accessors."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from symmpoly import (DomainError, InvalidDimensionError, InvalidSizeError,
                      Polygon, SeedStream, closure_residual, ks_distance,
                      perimeter, sample_arm, sample_pol, space_dim)
from symmpoly.polygons import SPACES, _hopf, _square, space_edges_batch

SEED = 7


def square_map(z):
    """The squaring kernel on a complex array: edges z.shape + (2,)."""
    z = np.asarray(z, dtype=complex)
    return _square(z.real, z.imag, np.empty(z.shape + (2,)))


def hopf_map(comp):
    """The Hopf kernel on quaternions given as an array (..., 4) of
    (w, x, y, z): edges (..., 3)."""
    comp = np.asarray(comp, dtype=float)
    return _hopf(comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3])


def test_square_map_units():
    assert np.allclose(square_map([1.0]), [[1.0, 0.0]])
    assert np.allclose(square_map([1.0j]), [[-1.0, 0.0]])
    z = (1.0 + 1.0j) / math.sqrt(2.0)
    assert np.allclose(square_map([z]), [[0.0, 1.0]])


def test_square_map_edge_length_is_modulus_squared():
    rng = SeedStream(SEED, 0).generator()
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    edges = square_map(z)
    assert np.allclose(np.linalg.norm(edges, axis=1), np.abs(z) ** 2,
                       rtol=0, atol=1e-12)


def test_hopf_map_units():
    assert np.allclose(hopf_map([[1, 0, 0, 0]]), [[1.0, 0.0, 0.0]])
    assert np.allclose(hopf_map([[0, 0, 1, 0]]), [[-1.0, 0.0, 0.0]])
    # i also maps to (1, 0, 0): the fiber over each edge is a circle
    assert np.allclose(hopf_map([[0, 1, 0, 0]]), [[1.0, 0.0, 0.0]])


def test_hopf_map_edge_length_is_norm_squared():
    rng = SeedStream(SEED, 1).generator()
    comp = rng.standard_normal((5, 10, 4))
    edges = hopf_map(comp)
    assert edges.shape == (5, 10, 3)
    assert np.allclose(np.linalg.norm(edges, axis=-1),
                       np.sum(comp**2, axis=-1), rtol=0, atol=1e-12)


def test_hopf_map_input_forms_agree():
    comp = [0.3, -0.4, 0.5, 1.2]
    single = hopf_map(comp)
    assert single.shape == (3,)
    assert np.array_equal(single, hopf_map([comp, comp])[1])
    assert np.array_equal(single, hopf_map(np.array([[[comp]]]))[0, 0, 0])


def _hamilton(p, q):
    """Hamilton product (ij = k) of quaternions given as (w, x, y, z)."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])


def test_hopf_map_matches_quaternion_product():
    i, j, k = np.eye(4)[1:]
    assert np.array_equal(_hamilton(i, j), k)
    assert np.array_equal(_hamilton(j, i), -k)
    rng = SeedStream(SEED, 2).generator()
    comp = rng.standard_normal((20, 4))
    edges = hopf_map(comp)
    for q, edge in zip(comp, edges):
        conj = q * np.array([1.0, -1.0, -1.0, -1.0])
        prod = _hamilton(_hamilton(conj, i), q)
        assert abs(prod[0]) < 1e-12
        assert np.allclose(edge, prod[1:], rtol=0, atol=1e-12)


def test_sample_arm_perimeter():
    rng = SeedStream(SEED, 4).generator()
    for dim in (2, 3):
        for _ in range(20):
            p = sample_arm(dim, 10, rng)
            assert not p.closed
            assert p.edges.shape == (10, dim)
            assert abs(perimeter(p) - 2.0) < 1e-12


def test_sample_pol_closure_and_perimeter():
    rng = SeedStream(SEED, 5).generator()
    for dim in (2, 3):
        for _ in range(20):
            p = sample_pol(dim, 50, rng)
            assert p.closed
            assert closure_residual(p) <= 1e-10
            assert abs(perimeter(p) - 2.0) < 1e-10


def test_sampler_size_validation():
    s = SeedStream(SEED, 0)
    with pytest.raises(InvalidSizeError):
        sample_arm(2, 2, s)
    with pytest.raises(InvalidSizeError):
        sample_pol(3, 1, s)
    with pytest.raises(InvalidDimensionError):
        sample_arm(4, 10, s)
    # the sample count of space_edges_batch: an integer >= 0, never a bool
    for count in (-1, 2.0, True, None):
        with pytest.raises(DomainError):
            space_edges_batch(s.generator(), count, "pol3", 10, 2)
    for space in ("arm2", "pol3"):
        for k in (10, 2):
            empty = space_edges_batch(s.generator(), np.int64(0), space, 10, k)
            assert empty.shape == (0, k, space_dim(space))


def test_space_dim():
    assert space_dim("arm2") == 2
    assert space_dim("pol2") == 2
    assert space_dim("arm3") == 3
    assert space_dim("pol3") == 3
    with pytest.raises(InvalidDimensionError):
        space_dim("arm4")


def test_arm2_edge_length_law():
    # |e_1|/2 = |z_1|^2/2 with z uniform on the radius-sqrt(2) sphere in C^n,
    # which is Beta(1, n-1) by the classical sphere-coordinate law.
    n = 10
    edges = space_edges_batch(SeedStream(SEED, 6).generator(), 100_000,
                              "arm2", n)
    half_lengths = np.linalg.norm(edges[:, 0, :], axis=1) / 2.0
    assert ks_distance(half_lengths, stats.beta(1, n - 1).cdf) < 0.01


def test_arm3_edge_length_law():
    # |e_1|/2 = |q_1|^2/2 sums four squared sphere coordinates in R^(4n),
    # giving Beta(2, 2n-2).
    n = 5
    edges = space_edges_batch(SeedStream(SEED, 7).generator(), 100_000,
                              "arm3", n)
    half_lengths = np.linalg.norm(edges[:, 0, :], axis=1) / 2.0
    assert ks_distance(half_lengths, stats.beta(2, 2 * n - 2).cdf) < 0.01


def test_pol2_mean_edge_lengths_uniform_over_slots():
    # Every edge slot has mean length 2/n (the slots are exchangeable).
    n = 50
    edges = space_edges_batch(SeedStream(SEED, 8).generator(), 20_000,
                              "pol2", n)
    lengths = np.linalg.norm(edges, axis=2)
    se = lengths.std(axis=0, ddof=1) / math.sqrt(lengths.shape[0])
    gaps = np.abs(lengths.mean(axis=0) - 2.0 / n)
    assert np.all(gaps < 4 * se)


def test_pol2_edge_direction_uniform():
    # arg(e_1) should be uniform on (-pi, pi]: chi-square over 36 bins.
    edges = space_edges_batch(SeedStream(SEED, 9).generator(), 100_000,
                              "pol2", 20)
    angles = np.arctan2(edges[:, 0, 1], edges[:, 0, 0])
    counts, _ = np.histogram(angles, bins=36, range=(-math.pi, math.pi))
    expected = angles.size / 36
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, 35)


def test_arm3_direction_projection_moment():
    # E[(e_hat . u)^2] = 1/3 for a uniform direction and any fixed unit u.
    edges = space_edges_batch(SeedStream(SEED, 10).generator(), 20_000,
                              "arm3", 10)
    unit = edges[:, 0, :] / np.linalg.norm(edges[:, 0, :], axis=1)[:, None]
    proj_sq = unit[:, 2] ** 2
    se = proj_sq.std(ddof=1) / math.sqrt(proj_sq.size)
    assert abs(proj_sq.mean() - 1.0 / 3.0) < 4 * se


def test_perimeter_closure_square():
    p = Polygon(dim=2, closed=True,
                edges=[[1, 0], [0, 1], [-1, 0], [0, -1]])
    assert perimeter(p) == 4.0
    assert closure_residual(p) == 0.0


def test_open_chain_closure_residual():
    p = Polygon(dim=2, closed=False, edges=[[1, 0], [0, 1]])
    assert abs(closure_residual(p) - math.sqrt(2.0)) < 1e-15


def test_polygon_validation():
    with pytest.raises(InvalidDimensionError):
        Polygon(dim=4, closed=False, edges=np.zeros((3, 4)))
    with pytest.raises(InvalidDimensionError):
        Polygon(dim=2, closed=False, edges=np.zeros((3, 3)))
    with pytest.raises(InvalidSizeError):
        Polygon(dim=2, closed=False, edges=np.zeros((0, 2)))
    for dim in (2.0, 3.0, np.float64(2.0)):
        with pytest.raises(InvalidDimensionError):
            Polygon(dim=dim, closed=False, edges=np.zeros((3, int(dim))))
    assert Polygon(dim=np.int64(3), closed=True, edges=np.zeros((3, 3))).dim == 3


# Head sampler: space_edges_batch(..., k) draws the leading k edges at O(k)
# cost. Its law must equal that of the first k edges of a full draw.
HEAD_CASES = ((6, 1), (10, 3), (100, 1), (100, 5))
HEAD_N = 40_000
# Family-wise false-alarm rate of the KS comparisons below, split evenly
# (Bonferroni) over every coordinate and edge length of every case.
HEAD_ALPHA = 1e-3
HEAD_TESTS = sum((space_dim(s) + 1) * k for s in ("arm2", "pol2", "arm3", "pol3")
                 for _, k in HEAD_CASES)


@pytest.mark.parametrize("space", ["arm2", "pol2", "arm3", "pol3"])
def test_head_sampler_matches_full_prefix(space):
    dim = space_dim(space)
    full = {}
    for i, (n, k) in enumerate(HEAD_CASES):
        if n not in full:
            full[n] = space_edges_batch(SeedStream(SEED, 40 + n).generator(),
                                        HEAD_N, space, n)
        head = space_edges_batch(SeedStream(SEED, 50 + i).generator(),
                                 HEAD_N, space, n, k)
        assert head.shape == (HEAD_N, k, dim)
        ref = full[n][:, :k]
        pairs = [(head[:, j, c], ref[:, j, c]) for j in range(k) for c in range(dim)]
        pairs += [(np.linalg.norm(head[:, j], axis=1), np.linalg.norm(ref[:, j], axis=1))
                  for j in range(k)]
        for x, y in pairs:
            p = stats.ks_2samp(x, y).pvalue
            assert p > HEAD_ALPHA / HEAD_TESTS, (space, n, k, p)


@pytest.mark.parametrize("space", ["pol2", "pol3"])
@pytest.mark.parametrize("n", [4, 6, 20])
def test_head_sampler_tail_gram_is_exact(space, n):
    # At k = n - 1 the tail is a single edge, so its Gram matrix has rank 1
    # and the missing edge is minus the sum of the head: the head perimeter
    # plus that edge's length is the full perimeter 2, sample by sample.
    head = space_edges_batch(SeedStream(SEED, 60).generator(), 2000, space,
                             n, n - 1)
    total = (np.linalg.norm(head, axis=2).sum(axis=1)
             + np.linalg.norm(head.sum(axis=1), axis=1))
    assert np.max(np.abs(total - 2.0)) <= 1e-12


@pytest.mark.parametrize("space", ["arm2", "pol2", "arm3", "pol3"])
def test_head_sampler_full_length_is_default(space):
    a = space_edges_batch(SeedStream(SEED, 61).generator(), 300, space, 12)
    b = space_edges_batch(SeedStream(SEED, 61).generator(), 300, space, 12, 12)
    assert np.array_equal(a, b)
    c = space_edges_batch(SeedStream(SEED, 61).generator(), 300, space, 12,
                          np.int64(4))
    assert c.shape == (300, 4, space_dim(space))


def test_head_sampler_rejects_bad_length():
    rng = SeedStream(SEED, 62).generator()
    for k in (0, -1, 11, 2.0):
        with pytest.raises(InvalidSizeError):
            space_edges_batch(rng, 10, "pol3", 10, k)


def _golden_generator():
    """The generator the golden digests were recorded on: Philox, keyed as
    SeedStream(7, 13).chunk_generator(2). The digests pin the sampler
    arithmetic; test_seed_stream_keys_sfc64 pins the streams."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(7, spawn_key=(13, 2))))


@pytest.mark.parametrize("seed,stream_id,chunk", [
    (0, 0, 0), (7, 13, 2), (2**64 - 1, 2**64 - 1, 2**64 - 1)])
def test_seed_stream_keys_sfc64(seed, stream_id, chunk):
    # every draw of the library comes from one of these two generators
    stream = SeedStream(seed, stream_id)
    for rng, key in ((stream.generator(), (stream_id,)),
                     (stream.chunk_generator(chunk), (stream_id, chunk))):
        want = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)).state
        got = rng.bit_generator.state
        assert got["bit_generator"] == want["bit_generator"] == "SFC64"
        assert np.array_equal(got["state"]["state"], want["state"]["state"])
        assert (got["has_uint32"], got["uinteger"]) == (want["has_uint32"], want["uinteger"])


# sha256 of the bytes of space_edges_batch(_golden_generator(), 4096, space,
# n): whole polygons, as the ensembles draw them. They pin the arithmetic of
# whole draws; a change that moves them changes every whole-polygon output
# of the library.
FULL_DRAW_SHA256 = {
    ("arm2", 3): "a5234a9f9bf9fcaa3eae6ffd887454376912cf1a52bed507a332feb481477435",
    ("arm2", 100): "41a56de19985cde670d7d3ab3fb35abf0df1f3fcd5c7ec3b8bf80d346bfab71c",
    ("arm2", 200): "ff808efa3d1589af578258b3bc0a73ec13178db60ed34202a52cbbe6ba3e29c9",
    ("pol2", 3): "ca6ad3d695db4922d1cfd79e32068df2bfd0ab7b78e00d8ede82f1a3de5ccae0",
    ("pol2", 100): "cceaf187abb60ca97b0fc2c843ac4d12b8f3ca18d8259faebdf2759a0ece513c",
    ("pol2", 200): "11ffcc10dc848c310a90efa6f646d3a700d801d44c8662b210f8d39fb171ca56",
    ("arm3", 3): "15751b6478d8e3784a6941a157de81cb9cc95ce720a0603880316adb392e4b23",
    ("arm3", 100): "10c3d3cd2567bc3cc162f0b4d0d2a73febbd5cee3982643372ff0ab7f1d9aa8d",
    ("arm3", 200): "cdbc2ee1d5089d154fdb19a1e955a98bb211813cf557262dd1c7a1756ce2f421",
    ("pol3", 3): "eb157662b0b98c8eae2153fa08d9034068daa894567e602c7ddd334322f800b2",
    ("pol3", 100): "d4ceb4fc2c33fa73b9f8fcff099a9da27f9df81cfe322bcafafe34012c763497",
    ("pol3", 200): "acfdd93eaab9f77f2423564b80e569a402c175ed87767663df0db184cee6b12c",
}


@pytest.mark.parametrize("space,n", sorted(FULL_DRAW_SHA256))
def test_full_draws_match_golden_digests(space, n):
    edges = space_edges_batch(_golden_generator(), 4096, space, n)
    assert edges.shape == (4096, n, space_dim(space))
    assert hashlib.sha256(edges.tobytes()).hexdigest() == FULL_DRAW_SHA256[space, n]


# sha256 of the bytes of space_edges_batch(_golden_generator(), 4096, space,
# 100, k): heads, as the segment and window draws make them.
# Most verify checks read heads (arm heads, TV heads, Haar-block heads), so
# a change that moves these moves their outputs.
HEAD_DRAW_SHA256 = {
    ("arm2", 1): "72e0796f50bec6fd48a34545798ec50b3441a23e23d69a5e78258c832731f061",
    ("arm2", 2): "3f97ee9f352dfebc4c8e8049dc3ed8d1c368d4a9b7adf876984e3ff21764c609",
    ("arm2", 5): "f6618f3f776328830757a944bdbb8f188af185991bbce7fbd3098a4f9f5b3e12",
    ("pol2", 1): "862bab59b17aaedadf0e3409add79c430d40d777d217a99b0909e2d1c1611672",
    ("pol2", 2): "48f85f817a540c299b54b6dbf38ebd1ff383fb759fd8b8696611a16c26c11415",
    ("pol2", 5): "76c82ffb0b31f018d57902ffa213412b657a861a346cfbb40f86dcf4dfc9806d",
    ("arm3", 1): "5a9b10ca879a15f002e015d44daf8e40718c43bf8c3f419ad399f583dd3a77c5",
    ("arm3", 2): "76fa55538ad7584be4814eff4006cf3a5187021f9fd3f4ab622ff6e7496ed023",
    ("arm3", 5): "98bfbe6eb15eb6b08da5c3f3d7d370fb21b6212ef6f207062965337353970c59",
    ("pol3", 1): "d93938ca34d522132a28dbf16b3fc500adb60af547546498767a45cb6ac498f1",
    ("pol3", 2): "f77ee3c523fcee54ff9d560cf8cbd9bf754841cbf9c03c2dfc43c32143fbb839",
    ("pol3", 5): "bed1bef57dc4fb083c8b16a6e0693d5a4c97a7260f1d190ce34d8b56ce7f29a8",
}


@pytest.mark.parametrize("space,k", sorted(HEAD_DRAW_SHA256))
def test_head_draws_match_golden_digests(space, k):
    edges = space_edges_batch(_golden_generator(), 4096, space, 100, k)
    assert edges.shape == (4096, k, space_dim(space))
    assert hashlib.sha256(edges.tobytes()).hexdigest() == HEAD_DRAW_SHA256[space, k]


# Exact moments of the four laws at perimeter 2. The squared chord R^2 of
# the first k edges has mean 8k(n-k)/(n(n-1)(n+2)) (pol2),
# 6k(n-k)/(n(n^2-1)) (pol3), 8k/(n(n+1)) (arm2) and 12k/(n(2n+1)) (arm3);
# on a closed polygon, summing the pol chords over all vertex pairs gives
# the gyradius means 2(n+1)/(3n(n+2)) (pol2) and 1/(2n) (pol3). The
# samplers must hit each within MOMENT_SE standard errors. Small n makes
# them sensitive to a wrong tail: one chi-square dof short in the Bartlett
# factor moves these head chords by 6-49 SE at seed 7.
CHORD_MEAN = {
    "pol2": lambda n, k: 8 * k * (n - k) / (n * (n - 1) * (n + 2)),
    "pol3": lambda n, k: 6 * k * (n - k) / (n * (n * n - 1)),
    "arm2": lambda n, k: 8 * k / (n * (n + 1)),
    "arm3": lambda n, k: 12 * k / (n * (2 * n + 1)),
}
GYRADIUS_MEAN = {"pol2": lambda n: 2 * (n + 1) / (3 * n * (n + 2)),
                 "pol3": lambda n: 1 / (2 * n)}
MOMENT_SE = 4


def _z_score(values, target):
    """(mean - target) in standard errors of the mean."""
    return (values.mean() - target) / (values.std(ddof=1) / math.sqrt(values.size))


@pytest.mark.parametrize("space", sorted(CHORD_MEAN))
def test_head_chord_matches_exact_second_moment(space):
    # n = 10**6 reads the O(k) tail at a size no whole draw could reach.
    zs = {}
    for i, (n, k) in enumerate(((6, 1), (6, 3), (10, 1), (10, 3), (10**6, 1), (10**6, 3))):
        head = space_edges_batch(SeedStream(SEED, 70 + i).generator(), 100_000,
                                 space, n, k)
        chord2 = np.square(head.sum(axis=1)).sum(axis=1)
        zs[n, k] = _z_score(chord2, CHORD_MEAN[space](n, k))
    assert max(map(abs, zs.values())) <= MOMENT_SE, zs


@pytest.mark.parametrize("space", SPACES)
def test_head_draw_memory_does_not_grow_with_n(space):
    # A 4096-head draw holds arrays of 4096 rows and k coordinates, nothing
    # of size n: its peak at n = 10**6, where one array of n floats is 8 MB,
    # is within 64 KiB of its peak at n = 100.
    peaks = {}
    for n in (100, 10**6):
        rng = SeedStream(SEED, 90).generator()
        tracemalloc.start()
        try:
            space_edges_batch(rng, 4096, space, n, 3)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10**6] - peaks[100] < 2**16, peaks


@pytest.mark.parametrize("space", sorted(GYRADIUS_MEAN))
def test_gyradius_matches_exact_mean(space):
    zs = {}
    for i, n in enumerate((20, 100)):
        edges = space_edges_batch(SeedStream(SEED, 80 + i).generator(), 20_000,
                                  space, n)
        vertices = np.cumsum(edges, axis=1)
        vertices -= vertices.mean(axis=1, keepdims=True)
        zs[n] = _z_score(np.square(vertices).sum(axis=2).mean(axis=1),
                         GYRADIUS_MEAN[space](n))
    assert max(map(abs, zs.values())) <= MOMENT_SE, zs

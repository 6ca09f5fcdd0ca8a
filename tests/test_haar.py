"""Seed streams, the sphere and frame draws behind ``space_edges_batch``,
and the unitary draws."""
import math

import numpy as np
import pytest
from scipy import stats

from symmpoly import (InvalidDimensionError, SeedStream, ensure_generator,
                      haar, ks_distance, space_dim)
from symmpoly.haar import _RESIDUAL_TINY, _chi2, _haar_unitary_batch, _normals
from symmpoly.polygons import SPACES, space_edges_batch

SEED = 7

# The sampler runs Gram-Schmidt on real coordinates, with the tail's
# per-row terms in place of the reference's concatenated Bartlett columns
# (none at k = n), and the reference on complex rows, so their sums run in
# another order: the sampler's edges must agree with the reference's within
# HEAD_EPS machine epsilons times the edge's length, at every k.
HEAD_EPS = 16


def test_seed_stream_repeats_exactly():
    a = SeedStream(SEED, 3).generator().standard_normal(100)
    b = SeedStream(SEED, 3).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_seed_stream_ids_differ():
    a = SeedStream(SEED, 0).generator().standard_normal(100)
    b = SeedStream(SEED, 1).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_chunk_generators_repeat_and_differ():
    s = SeedStream(SEED, 5)
    assert np.array_equal(s.chunk_generator(2).standard_normal(8),
                          s.chunk_generator(2).standard_normal(8))
    assert not np.array_equal(s.chunk_generator(2).standard_normal(8),
                              s.chunk_generator(3).standard_normal(8))
    assert not np.array_equal(s.chunk_generator(2).standard_normal(8),
                              s.generator().standard_normal(8))


def test_seed_stream_validation():
    with pytest.raises(InvalidDimensionError):
        SeedStream(-1, 0)
    with pytest.raises(InvalidDimensionError):
        SeedStream(7, 2**64)
    with pytest.raises(InvalidDimensionError):
        SeedStream(7, 0).chunk_generator(-1)


def test_ensure_generator_accepts_both():
    s = SeedStream(SEED, 0)
    assert isinstance(ensure_generator(s), np.random.Generator)
    rng = s.generator()
    assert ensure_generator(rng) is rng
    with pytest.raises(TypeError):
        ensure_generator(42)


def test_sphere_norm_and_coordinate_moments():
    # An arm edge is the square (arm2) or Hopf image (arm3) of sqrt(2)
    # times a complex or quaternion coordinate of u, uniform on the unit
    # sphere: the perimeter is 2 |u|^2 = 2, and by the sphere's symmetry
    # every edge coordinate has mean zero.
    count = 20_000
    for space in ("arm2", "arm3"):
        e = space_edges_batch(SeedStream(SEED, 1).generator(), count, space, 3)
        assert np.max(np.abs(np.linalg.norm(e, axis=2).sum(axis=1) - 2.0)) < 1e-12
        se = e.std(axis=0, ddof=1) / math.sqrt(count)
        assert np.all(np.abs(e.mean(axis=0)) < 4 * se)


def test_sphere_squared_coordinate_mean():
    # |e_1| / 2 = |u_1|^2 sums 2 (arm2) or 4 (arm3) of the 2n or 4n squared
    # coordinates of a uniform unit vector, each of mean 1/(2n) or 1/(4n):
    # at n = 4 that is 0.25.
    count = 20_000
    for space in ("arm2", "arm3"):
        e = space_edges_batch(SeedStream(SEED, 2).generator(), count, space, 4, 1)
        half = np.linalg.norm(e[:, 0], axis=1) / 2.0
        se = half.std(ddof=1) / math.sqrt(count)
        assert abs(half.mean() - 0.25) < 4 * se


def _assert_closed_with_perimeter_2(edges):
    """Closure and perimeter 2 of pol edges: under the squaring and Hopf
    maps, together they say that the frame (a, b) is orthonormal."""
    assert np.max(np.linalg.norm(edges.sum(axis=1), axis=1)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(edges, axis=2).sum(axis=1) - 2.0)) < 1e-12


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frame2_orthonormal(kind):
    space = "pol2" if kind == "real" else "pol3"
    e = space_edges_batch(SeedStream(SEED, 3).generator(), 25, space, 10)
    assert e.shape == (25, 10, space_dim(space))
    _assert_closed_with_perimeter_2(e)


def test_frame2_coordinate_second_moment():
    # Each coordinate of a uniform unit vector has E[a_i^2] = 1/n,
    # identically over slots by permutation invariance; a pol2 edge has
    # length a_i^2 + b_i^2, of mean 2/n.
    n = 20_000
    e = space_edges_batch(SeedStream(SEED, 5).generator(), n, "pol2", 10)
    lengths = np.linalg.norm(e[:, [0, -1]], axis=2)
    se = lengths.std(axis=0, ddof=1) / math.sqrt(n)
    assert abs(lengths[:, 0].mean() - 0.2) < 4 * se[0]
    assert abs(lengths[:, 1].mean() - 0.2) < 4 * se[1]


def _reference_unit_rows(rng, count, m, head):
    """The leading ``head`` coordinates of uniform unit m-vectors,
    unblocked: the whole draw, redrawn row by row until every norm clears
    _RESIDUAL_TINY, then divided at once."""

    def draw(c):
        g = rng.standard_normal((c, head))
        if head < m:
            tail = np.sqrt(_chi2(rng, m - head, c))
            g = np.concatenate([g, tail[:, None]], axis=1)
        return g

    g = draw(count)
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < _RESIDUAL_TINY):
        bad = norms < _RESIDUAL_TINY
        g[bad] = draw(int(bad.sum()))
        norms[bad] = np.linalg.norm(g[bad], axis=1)
    return g[:, :head] / norms[:, None]


def _rows(g, kind):
    """The reference's rows of a ``_normals`` draw, complex assembled."""
    return g if kind == "real" else g[:, 0] + 1j * g[:, 1]


def _tail_factor(rng, count, m, kind, vectors):
    """The reference's Bartlett tail: the columns of R = [[c1, z], [0, c2]],
    (c1, 0) and (z, c2), each (count, 2), concatenated onto the head rows
    of two vectors. The draws are the sampler's, in its order."""
    f = 2 if kind == "complex" else 1
    c1 = np.sqrt(_chi2(rng, f * m, count))
    c2 = np.sqrt(_chi2(rng, f * (m - 1), count))
    z = _rows(_normals(rng, count, 1, kind), kind)[:, 0]
    return np.stack([c1, np.zeros(count)], axis=1), np.stack([z, c2], axis=1)


def _reference_frame2(rng, count, n, kind, head):
    """The leading ``head`` coordinates of orthonormal pairs, shape
    (count, 2, head), unblocked and in the masked form: every pass divides
    through np.where masks and writes the accepted rows by fancy index."""
    out = np.empty((count, 2, head), dtype=complex if kind == "complex" else float)
    todo = np.arange(count)
    while todo.size:
        g1 = _rows(_normals(rng, todo.size, head, kind), kind)
        g2 = _rows(_normals(rng, todo.size, head, kind), kind)
        if head < n:
            t1, t2 = _tail_factor(rng, todo.size, n - head, kind, vectors=2)
            g1 = np.concatenate([g1, t1], axis=1)
            g2 = np.concatenate([g2, t2], axis=1)
        n1 = np.linalg.norm(g1, axis=1)
        ok1 = n1 >= _RESIDUAL_TINY
        a = np.where(ok1[:, None], g1, 1.0) / np.where(ok1, n1, 1.0)[:, None]
        ip = np.einsum("ij,ij->i", a.conj(), g2)
        resid = g2 - ip[:, None] * a
        n2 = np.linalg.norm(resid, axis=1)
        ok = ok1 & (n2 >= _RESIDUAL_TINY)
        b = np.where(ok[:, None], resid, 1.0) / np.where(ok, n2, 1.0)[:, None]
        out[todo[ok], 0] = a[ok, :head]
        out[todo[ok], 1] = b[ok, :head]
        todo = todo[~ok]
    return out


def _reference_edges(rng, count, space, n, k):
    """``space_edges_batch`` unblocked, through ``_reference_unit_rows`` and
    ``_reference_frame2``, squaring and Hopf images assembled with
    np.stack."""
    if space == "arm2":
        zc = math.sqrt(2.0) * _reference_unit_rows(rng, count, 2 * n, 2 * k)
        zc = zc.reshape(count, k, 2)
        z = zc[..., 0] + 1j * zc[..., 1]
    elif space == "pol2":
        fr = _reference_frame2(rng, count, n, "real", k)
        z = fr[:, 0] + 1j * fr[:, 1]
    elif space == "arm3":
        comp = math.sqrt(2.0) * _reference_unit_rows(rng, count, 4 * n, 4 * k)
        comp = comp.reshape(count, k, 4)
    else:
        fr = _reference_frame2(rng, count, n, "complex", k)
        a, b = fr[:, 0], fr[:, 1]
        comp = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
    if space.endswith("2"):
        e = z * z
        return np.stack([e.real, e.imag], axis=-1)
    w, x, y, z = comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3]
    return np.stack([w * w + x * x - y * y - z * z,
                     2.0 * (x * y - w * z),
                     2.0 * (w * y + x * z)], axis=-1)


def _assert_matches_reference(got, ref):
    """Every edge of got is within HEAD_EPS epsilons of its length from
    ref's."""
    assert got.shape == ref.shape
    length = np.linalg.norm(ref, axis=-1, keepdims=True)
    assert np.all(np.abs(got - ref) <= HEAD_EPS * np.finfo(float).eps * length)


def _block_rows(monkeypatch, rows, coords):
    """Make the sampler's row blocks ``rows`` long for rows of ``coords``
    real coordinates."""
    monkeypatch.setattr(haar, "_BLOCK_COORDS", rows * coords)


def _coords_per_edge(space):
    return 2 if space.endswith("2") else 4


REDRAW_STREAM = SeedStream(SEED, 11)


class _ScaledRows:
    """A fresh generator of REDRAW_STREAM, except that its draw number
    ``call`` (Gaussian or gamma, counted together) has the given rows
    scaled, {call: {row: factor}}."""

    def __init__(self, scale):
        self.rng = REDRAW_STREAM.generator()
        self.scale, self.calls = scale, 0

    def _scaled(self, g):
        for row, factor in self.scale.get(self.calls, {}).items():
            g[row] *= factor
        self.calls += 1
        return g

    def standard_normal(self, size):
        return self._scaled(self.rng.standard_normal(size))

    def standard_gamma(self, shape, size):
        return self._scaled(self.rng.standard_gamma(shape, size))


# Sample counts around the 256-row blocks that _block_rows sets up: one
# row, a block short of full, a block and one row over, a short last
# block, and a whole 4096-sample chunk.
BLOCK_COUNTS = (1, 255, 257, 1000, 4096)


@pytest.mark.parametrize("space", SPACES)
def test_space_edges_match_reference_sampler(space, monkeypatch):
    # At the module's block size, then in 256- and 3-row blocks at k = n.
    # Every block size gives the bits of the module's, heads included.
    n = 12
    first = {}
    for blocks in ("module", 256, 3):
        if blocks != "module":
            _block_rows(monkeypatch, blocks, _coords_per_edge(space) * n)
        for count in BLOCK_COUNTS:
            for k in (n, 5):
                got = space_edges_batch(SeedStream(SEED, 9).chunk_generator(count),
                                        count, space, n, k)
                ref = _reference_edges(SeedStream(SEED, 9).chunk_generator(count),
                                       count, space, n, k)
                assert got.shape == (count, k, space_dim(space))
                _assert_matches_reference(got, ref)
                assert np.array_equal(got, first.setdefault((count, k), got))


@pytest.mark.parametrize("space", ["arm2", "arm3"])
def test_unit_rows_match_reference(space, monkeypatch):
    # In 256-row blocks of the drawn unit coordinates, for whole arms and
    # one-edge heads.
    n = 5
    for k in (n, 1):
        _block_rows(monkeypatch, 256, _coords_per_edge(space) * k)
        for count in BLOCK_COUNTS:
            got = space_edges_batch(SeedStream(SEED, 10).chunk_generator(count),
                                    count, space, n, k)
            ref = _reference_edges(SeedStream(SEED, 10).chunk_generator(count),
                                   count, space, n, k)
            assert got.shape == (count, k, space_dim(space))
            _assert_matches_reference(got, ref)


def _state(rng):
    """A generator's bit-generator state, comparable with ==."""
    s = rng.bit_generator.state
    return s["bit_generator"], s["state"]["state"].tolist(), s["has_uint32"], s["uinteger"]


@pytest.mark.parametrize("space", SPACES)
def test_draws_are_the_documented_ones(space):
    # A draw leaves its generator where a twin stands that made only these
    # draws, in this order: the raw Gaussian vectors, then at k < n the
    # Bartlett tail's chi-square norms (c1, and c2 for a pol) and its
    # Gaussian z. A whole draw has no tail and draws nothing more.
    count, n = 1000, 12
    for k in (n, n - 1, 5, 1):
        rng = SeedStream(SEED, 12).generator()
        space_edges_batch(rng, count, space, n, k)
        twin = SeedStream(SEED, 12).generator()
        if space.startswith("arm"):
            c = _coords_per_edge(space)
            twin.standard_normal((count, c * k))
            if k < n:
                twin.standard_gamma(c * (n - k) / 2.0, count)
        else:
            f = 2 if space == "pol3" else 1
            shape = (count, k) if f == 1 else (count, 2, k)
            twin.standard_normal(shape)
            twin.standard_normal(shape)
            if k < n:
                twin.standard_gamma(f * (n - k) / 2.0, count)
                twin.standard_gamma(f * (n - k - 1) / 2.0, count)
                twin.standard_normal((count, 1) if f == 1 else (count, 2, 1))
        assert _state(rng) == _state(twin)


# Rejected rows in the first block, in a later one and in the last row of
# a 1000-row draw in 256-row blocks.
REDRAW_COUNT = 1000
REDRAW_BAD = [3, 300, 999]


def _check_redraws(sampler, reference, scale, bad, plain):
    got = sampler(_ScaledRows(scale))
    _assert_matches_reference(got, reference(_ScaledRows(scale)))
    keep = np.setdiff1d(np.arange(REDRAW_COUNT), bad)
    assert np.array_equal(got[keep], plain[keep])
    assert not np.any(got[bad] == plain[bad])
    return got


@pytest.mark.parametrize("space", ["arm2", "arm3"])
def test_unit_rows_redraw_rejected_rows(space, monkeypatch):
    # Rows 3, 300 and 999 are zero on the first pass. Row 3 is zero again
    # in its redraw (the first of the three redrawn rows), so it is drawn a
    # third time, alone. With k < n the draws alternate between the head's
    # Gaussians and the tail's chi-square norms.
    count, n = REDRAW_COUNT, 10
    zero = {row: 0.0 for row in REDRAW_BAD}
    scales = {n: {0: zero, 1: {0: 0.0}},
              1: {0: zero, 1: zero, 2: {0: 0.0}, 3: {0: 0.0}}}
    for k, scale in scales.items():
        _block_rows(monkeypatch, 256, _coords_per_edge(space) * k)
        plain = space_edges_batch(REDRAW_STREAM.generator(), count, space, n, k)
        got = _check_redraws(
            lambda rng: space_edges_batch(rng, count, space, n, k),
            lambda rng: _reference_edges(rng, count, space, n, k),
            scale, REDRAW_BAD, plain)
        if k == n:
            # redrawn rows lie on the sphere too: perimeter 2 |u|^2 = 2
            perimeters = np.linalg.norm(got, axis=2).sum(axis=1)
            assert np.max(np.abs(perimeters - 2.0)) < 1e-12


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frame2_redraws_rejected_rows(kind, monkeypatch):
    # Rows 3 and 999 of the first Gaussian vector are zero, and row 300 of
    # the second is so short that its residual falls below _RESIDUAL_TINY:
    # all three rows are rejected and redrawn, and no other row moves. Row
    # 3 (the first redrawn row) is zero again in its redraw, so it is drawn
    # a third time, alone. With k < n each pass draws the head, the two
    # chi-square tails and the Bartlett z.
    count, n, head = REDRAW_COUNT, 9, 4
    f = 2 if kind == "complex" else 1
    zero = {3: 0.0, 999: 0.0}
    scales = {n: {0: zero, 1: {300: 1e-14}, 2: {0: 0.0}},
              head: {0: zero, 2: zero,
                     1: {300: 1e-14}, 3: {300: 1e-28}, 4: {300: 1e-14},
                     5: {0: 0.0}, 7: {0: 0.0}}}
    space = "pol2" if kind == "real" else "pol3"
    for k, scale in scales.items():
        _block_rows(monkeypatch, 256, 2 * f * k)
        plain = space_edges_batch(REDRAW_STREAM.generator(), count, space, n, k)
        got = _check_redraws(
            lambda rng: space_edges_batch(rng, count, space, n, k),
            lambda rng: _reference_edges(rng, count, space, n, k),
            scale, REDRAW_BAD, plain)
        if k == n:
            # the full frames, redrawn rows included, are orthonormal
            _assert_closed_with_perimeter_2(got)


def test_unitary_one_dimensional_is_phase():
    u = _haar_unitary_batch(SeedStream(SEED, 6).generator(), 25, 1)
    assert u.shape == (25, 1, 1)
    assert np.max(np.abs(np.abs(u[:, 0, 0]) - 1.0)) < 1e-12


def test_unitary_is_unitary():
    u = _haar_unitary_batch(SeedStream(SEED, 7).generator(), 10, 5)
    gap = np.abs(np.conj(np.swapaxes(u, 1, 2)) @ u - np.eye(5))
    assert np.max(gap) < 1e-10


def test_unitary_corner_law():
    # |U_11|^2 of a Haar n x n unitary is Beta(1, n-1). A Haar column is a
    # normalized complex Gaussian vector, which gives the law at scale;
    # the QR sampler itself is KS-tested at a unit-test sample size.
    rng = SeedStream(SEED, 8).generator()
    n_samples = 100_000
    g = rng.standard_normal((n_samples, 2, 10))
    z = g[:, 0] + 1j * g[:, 1]
    corner = np.abs(z[:, 0]) ** 2 / np.einsum("ij,ij->i", z.conj(), z).real
    assert ks_distance(corner, stats.beta(1, 9).cdf) < 0.01
    direct = np.abs(_haar_unitary_batch(rng, 4000, 10)[:, 0, 0]) ** 2
    assert ks_distance(direct, stats.beta(1, 9).cdf) < 0.05

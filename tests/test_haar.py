"""Seed streams and the batch sphere, frame, and unitary draws."""
import math

import numpy as np
import pytest
from scipy import stats

from symmpoly import (InvalidDimensionError, SeedStream, ensure_generator,
                      ks_distance, space_dim)
from symmpoly.haar import (_RESIDUAL_TINY, _frame2_batch, _gaussian_rows,
                           _haar_unitary_batch, _tail_factor, _unit_rows)
from symmpoly.polygons import SPACES, space_edges_batch

SEED = 7


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


def test_sphere_zero_dimensional_is_sign():
    pts = _unit_rows(SeedStream(SEED, 0).generator(), 50, 1)[:, 0]
    assert np.max(np.abs(np.abs(pts) - 1.0)) < 1e-12
    assert np.any(pts > 0) and np.any(pts < 0)


def test_sphere_norm_and_coordinate_moments():
    n = 20_000
    pts = _unit_rows(SeedStream(SEED, 1).generator(), n, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    se = 1.0 / math.sqrt(3 * n)
    assert np.max(np.abs(pts.mean(axis=0))) < 4 * se


def test_sphere_squared_coordinate_mean():
    # E[xi_1^2] = 1/m on the unit sphere; at m = 4 that is 0.25.
    n = 20_000
    sq = _unit_rows(SeedStream(SEED, 2).generator(), n, 4)[:, 0] ** 2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 0.25) < 4 * se


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frame2_orthonormal(kind):
    fr = _frame2_batch(SeedStream(SEED, 3).generator(), 25, 10, kind)
    assert fr.shape == (25, 2, 10)
    assert np.max(np.abs(np.linalg.norm(fr, axis=2) - 1.0)) < 1e-12
    assert np.max(np.abs(np.einsum("ij,ij->i", fr[:, 0].conj(), fr[:, 1]))) < 1e-12


def test_frame2_two_dimensional_real_is_rotation():
    fr = _frame2_batch(SeedStream(SEED, 4).generator(), 25, 2, "real")
    det = fr[:, 0, 0] * fr[:, 1, 1] - fr[:, 0, 1] * fr[:, 1, 0]
    assert np.max(np.abs(np.abs(det) - 1.0)) < 1e-12


def test_frame2_coordinate_second_moment():
    # Each coordinate of a uniform unit vector has E[a_i^2] = 1/n,
    # identically over slots by permutation invariance.
    n = 20_000
    fr = _frame2_batch(SeedStream(SEED, 5).generator(), n, 10, "real")
    sq = fr[:, 0, [0, -1]] ** 2
    se = sq.std(axis=0, ddof=1) / math.sqrt(n)
    assert abs(sq[:, 0].mean() - 0.1) < 4 * se[0]
    assert abs(sq[:, 1].mean() - 0.1) < 4 * se[1]


def _reference_frame2(rng, count, n, kind, head=None):
    """``_frame2_batch`` in its masked form: every pass divides through
    np.where masks and writes the accepted rows by fancy index."""
    head = n if head is None else head
    out = np.empty((count, 2, head), dtype=complex if kind == "complex" else float)
    todo = np.arange(count)
    while todo.size:
        g1 = _gaussian_rows(rng, todo.size, head, kind)
        g2 = _gaussian_rows(rng, todo.size, head, kind)
        if head < n:
            t1, t2 = _tail_factor(rng, todo.size, n - head, kind)
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
    """``space_edges_batch`` through ``_reference_frame2``, squaring and
    Hopf images assembled with np.stack."""
    if space == "arm2":
        zc = math.sqrt(2.0) * _unit_rows(rng, count, 2 * n, head=2 * k)
        zc = zc.reshape(count, k, 2)
        z = zc[..., 0] + 1j * zc[..., 1]
    elif space == "pol2":
        fr = _reference_frame2(rng, count, n, "real", head=k)
        z = fr[:, 0] + 1j * fr[:, 1]
    elif space == "arm3":
        comp = math.sqrt(2.0) * _unit_rows(rng, count, 4 * n, head=4 * k)
        comp = comp.reshape(count, k, 4)
    else:
        fr = _reference_frame2(rng, count, n, "complex", head=k)
        a, b = fr[:, 0], fr[:, 1]
        comp = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
    if space.endswith("2"):
        e = z * z
        return np.stack([e.real, e.imag], axis=-1)
    w, x, y, z = comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3]
    return np.stack([w * w + x * x - y * y - z * z,
                     2.0 * (x * y - w * z),
                     2.0 * (w * y + x * z)], axis=-1)


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


@pytest.mark.parametrize("space", SPACES)
def test_space_edges_match_reference_sampler(space):
    n = 12
    for k in (n, 5):
        got = space_edges_batch(SeedStream(SEED, 9).generator(), 300, space, n, k)
        ref = _reference_edges(SeedStream(SEED, 9).generator(), 300, space, n, k)
        assert got.shape == (300, k, space_dim(space))
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frame2_redraws_rejected_rows(kind):
    # Row 3 of the first Gaussian vector is zero, and row 7 of the second
    # is so short that its residual falls below _RESIDUAL_TINY: both rows
    # are rejected and redrawn, and no other row moves. With head < n the
    # draws are the head, the two chi-square tails and the Bartlett z.
    count, n, head, bad = 40, 9, 4, [3, 7]
    keep = np.setdiff1d(np.arange(count), bad)
    scales = {n: {0: {3: 0.0}, 1: {7: 1e-14}},
              head: {0: {3: 0.0}, 2: {3: 0.0},
                     1: {7: 1e-14}, 3: {7: 1e-28}, 4: {7: 1e-14}}}
    space = "pol2" if kind == "real" else "pol3"
    for h, scale in scales.items():
        fr = _frame2_batch(_ScaledRows(scale), count, n, kind, head=h)
        plain = _frame2_batch(REDRAW_STREAM.generator(), count, n, kind,
                              head=h)
        ref = _reference_frame2(_ScaledRows(scale), count, n, kind, h)
        assert np.array_equal(fr, ref)
        assert np.array_equal(fr[keep], plain[keep])
        assert not np.any(fr[bad] == plain[bad])
        edges = space_edges_batch(_ScaledRows(scale), count, space, n, h)
        ref = _reference_edges(_ScaledRows(scale), count, space, n, h)
        assert np.array_equal(edges, ref)
    # the full frames, redrawn rows included, are orthonormal
    fr = _frame2_batch(_ScaledRows(scales[n]), count, n, kind)
    assert np.max(np.abs(np.linalg.norm(fr, axis=2) - 1.0)) < 1e-12
    ip = np.einsum("ij,ij->i", fr[:, 0].conj(), fr[:, 1])
    assert np.max(np.abs(ip)) < 1e-12


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

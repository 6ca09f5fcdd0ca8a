"""Seed streams and the batch sphere, frame, and unitary draws."""
import math

import numpy as np
import pytest
from scipy import stats

from symmpoly import (InvalidDimensionError, SeedStream, ensure_generator,
                      ks_distance)
from symmpoly.haar import _frame2_batch, _haar_unitary_batch, _unit_rows

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

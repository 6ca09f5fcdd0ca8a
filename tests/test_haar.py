"""Seeded sphere, frame, and unitary samplers."""
import math

import numpy as np
import pytest
from scipy import stats

from symmpoly import (Frame2, InvalidDimensionError, SeedStream,
                      ensure_generator, ks_distance, sample_frame2,
                      sample_haar_unitary, sample_sphere)

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
    rng = SeedStream(SEED, 0).generator()
    pts = [sample_sphere(1, 2.0, rng)[0] for _ in range(50)]
    assert all(abs(abs(x) - 2.0) < 1e-12 for x in pts)
    assert any(x > 0 for x in pts) and any(x < 0 for x in pts)


def test_sphere_norm_and_coordinate_moments():
    rng = SeedStream(SEED, 1).generator()
    n = 20_000
    g = rng.standard_normal((n, 3))
    pts = 1.5 * g / np.linalg.norm(g, axis=1)[:, None]
    # direct draws for norm check
    one = sample_sphere(3, 1.5, rng)
    assert abs(np.linalg.norm(one) - 1.5) < 1e-12
    se = 1.5 / math.sqrt(3 * n)
    assert np.max(np.abs(pts.mean(axis=0))) < 4 * se


def test_sphere_squared_coordinate_mean():
    # E[xi_1^2] = r^2/m; at m = 4, r = sqrt(2) that is 0.5.
    rng = SeedStream(SEED, 2).generator()
    n = 20_000
    sq = np.array([sample_sphere(4, math.sqrt(2.0), rng)[0] ** 2
                   for _ in range(n)])
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 0.5) < 4 * se


def test_sphere_validation():
    with pytest.raises(InvalidDimensionError):
        sample_sphere(0, 1.0, SeedStream(SEED, 0))
    with pytest.raises(InvalidDimensionError):
        sample_sphere(3, 0.0, SeedStream(SEED, 0))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frame2_orthonormal(kind):
    rng = SeedStream(SEED, 3).generator()
    for _ in range(25):
        fr = sample_frame2(10, kind, rng)
        assert isinstance(fr, Frame2)
        assert abs(np.linalg.norm(fr.col_a) - 1.0) < 1e-12
        assert abs(np.linalg.norm(fr.col_b) - 1.0) < 1e-12
        assert abs(np.vdot(fr.col_a, fr.col_b)) < 1e-12


def test_frame2_two_dimensional_real_is_rotation():
    rng = SeedStream(SEED, 4).generator()
    for _ in range(25):
        fr = sample_frame2(2, "real", rng)
        det = fr.col_a[0] * fr.col_b[1] - fr.col_a[1] * fr.col_b[0]
        assert abs(abs(det) - 1.0) < 1e-12


def test_frame2_coordinate_second_moment():
    # Each coordinate of a uniform unit vector has E[a_i^2] = 1/n,
    # identically over slots by permutation invariance.
    rng = SeedStream(SEED, 5).generator()
    n = 20_000
    sq = np.empty((n, 2))
    for i in range(n):
        fr = sample_frame2(10, "real", rng)
        sq[i, 0] = fr.col_a[0] ** 2
        sq[i, 1] = fr.col_a[-1] ** 2
    se = sq.std(axis=0, ddof=1) / math.sqrt(n)
    assert abs(sq[:, 0].mean() - 0.1) < 4 * se[0]
    assert abs(sq[:, 1].mean() - 0.1) < 4 * se[1]


def test_frame2_validation():
    with pytest.raises(InvalidDimensionError):
        sample_frame2(1, "real", SeedStream(SEED, 0))
    with pytest.raises(InvalidDimensionError):
        sample_frame2(5, "quaternion", SeedStream(SEED, 0))


def test_unitary_one_dimensional_is_phase():
    rng = SeedStream(SEED, 6).generator()
    for _ in range(25):
        u = sample_haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_unitary_is_unitary():
    rng = SeedStream(SEED, 7).generator()
    for _ in range(10):
        u = sample_haar_unitary(5, rng)
        gap = np.max(np.abs(u.conj().T @ u - np.eye(5)))
        assert gap < 1e-10


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
    direct = np.array([abs(sample_haar_unitary(10, rng)[0, 0]) ** 2
                       for _ in range(4000)])
    assert ks_distance(direct, stats.beta(1, 9).cdf) < 0.05


def test_unitary_validation():
    with pytest.raises(InvalidDimensionError):
        sample_haar_unitary(0, SeedStream(SEED, 0))


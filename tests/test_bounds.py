"""Closed-form bound values, identities, asymptotes, and validity ranges.

Reference values marked "exact-arithmetic" were computed independently with
integer fractions and frozen here.
"""
import math

import numpy as np
import pytest

from symmpoly import (BoundUndefinedError, DomainError, InvalidDimensionError,
                      alpha_limit, alpha_threshold, asymptotic_slope, b2, b3,
                      chebyshev_interval, curvature_variance_bound,
                      expectation_transfer_gap, ortho_block_bound,
                      sphere_marginal_bound, torsion_variance_bound,
                      unitary_block_bound)

REL = 1e-12


def test_ortho_block_values():
    # exact-arithmetic: 2((3/5)^(-1/2) - 1) and 582/2209
    assert ortho_block_bound(1, 1, 10) == pytest.approx(0.5819888974716113, rel=REL)
    assert ortho_block_bound(2, 2, 100) == pytest.approx(582 / 2209, rel=REL)
    assert ortho_block_bound(2, 2, 100) == pytest.approx(0.2634676324128565, rel=REL)


def test_ortho_block_grows_with_block():
    assert ortho_block_bound(1, 2, 100) > ortho_block_bound(1, 1, 100)
    assert ortho_block_bound(2, 2, 100) > ortho_block_bound(1, 2, 100)


def test_ortho_block_validity():
    ortho_block_bound(1, 1, 5)  # r+s+2 = 4 < 5 is the edge of the range
    with pytest.raises(BoundUndefinedError):
        ortho_block_bound(1, 1, 4)
    with pytest.raises(BoundUndefinedError):
        ortho_block_bound(0, 1, 10)
    with pytest.raises(BoundUndefinedError):
        ortho_block_bound(1, 1, 10.0)


def test_sphere_marginal_values():
    assert sphere_marginal_bound(1, 10) == pytest.approx(4 / 3, rel=REL)
    assert sphere_marginal_bound(2, 200) == pytest.approx(2 / 39, rel=REL)
    # boundary k = m-4 gives 2(m-1)
    assert sphere_marginal_bound(6, 10) == pytest.approx(18.0, rel=REL)


def test_sphere_marginal_validity():
    with pytest.raises(BoundUndefinedError):
        sphere_marginal_bound(7, 10)
    with pytest.raises(BoundUndefinedError):
        sphere_marginal_bound(0, 10)


def test_unitary_block_values():
    # exact-arithmetic: 2((4/5)^(-1) - 1) = 1/2 and 58849/165888
    assert unitary_block_bound(1, 1, 10) == pytest.approx(0.5, rel=REL)
    assert unitary_block_bound(2, 2, 100) == pytest.approx(58849 / 165888, rel=REL)
    assert unitary_block_bound(2, 2, 100) == pytest.approx(0.3547513985339506, rel=REL)


def test_unitary_block_closed_form_t2():
    # for t = min(r, s) = 2 the bound is 2((1-(r+s)/n)^(-4) - 1)
    for k in (2, 3, 5):
        n = 100
        expected = 2.0 * ((1.0 - (k + 2) / n) ** -4 - 1.0)
        assert unitary_block_bound(k, 2, n) == pytest.approx(expected, rel=REL)


def test_unitary_block_validity():
    with pytest.raises(BoundUndefinedError):
        unitary_block_bound(3, 3, 8)


def test_b2_values():
    # exact-arithmetic fractions
    assert b2(1, 100) == pytest.approx(3764 / 14079, rel=REL)
    assert b2(1, 100) == pytest.approx(0.2673485332765111, rel=REL)
    assert b2(2, 100) == pytest.approx(143252 / 426337, rel=REL)
    assert b2(2, 100) == pytest.approx(0.33600649251648346, rel=REL)
    assert b2(4, 200) == pytest.approx(25397 / 112032, rel=REL)
    assert b2(4, 200) == pytest.approx(0.22669415881176808, rel=REL)
    assert b2(1, 10) == pytest.approx(20 / 3, rel=REL)


def test_b3_values():
    # exact-arithmetic: k = 1 uses the assembly form, k >= 2 the closed form
    assert b3(1, 100) == pytest.approx(3716 / 38121, rel=REL)
    assert b3(1, 100) == pytest.approx(0.09747907977230398, rel=REL)
    assert b3(2, 100) == pytest.approx(26541797 / 64530432, rel=REL)
    assert b3(2, 100) == pytest.approx(0.4113066684568298, rel=REL)
    assert b3(3, 100) == pytest.approx(0.5333974042317287, rel=REL)
    assert b3(6, 100) == pytest.approx(0.9365360124596989, rel=REL)
    assert b3(6, 10**6) == pytest.approx(7.750137114603817e-05, rel=REL)


def test_segment_bound_validity():
    for fn in (b2, b3):
        fn(1, 6)
        with pytest.raises(BoundUndefinedError):
            fn(2, 6)
        with pytest.raises(BoundUndefinedError):
            fn(0, 100)
        with pytest.raises(BoundUndefinedError):
            fn(96, 100)


def test_segment_bounds_monotone_in_k():
    for n in (10, 50, 100, 1000):
        for fn in (b2, b3):
            vals = [fn(k, n) for k in range(1, n - 4)]
            assert all(b > a for a, b in zip(vals, vals[1:]))


def test_assembly_identities():
    # b2 = ortho(k,2,n) + sphere(2k,2n); b3 = unitary(k,2,n) + sphere(4k,4n)
    for n in (20, 50, 100, 1000):
        for k in range(2, min(8, n - 7) + 1):
            assert abs(b2(k, n) - (ortho_block_bound(k, 2, n)
                                   + sphere_marginal_bound(2 * k, 2 * n))) <= 1e-12
            assert abs(b3(k, n) - (unitary_block_bound(k, 2, n)
                                   + sphere_marginal_bound(4 * k, 4 * n))) <= 1e-12


def test_asymptotic_slopes():
    assert asymptotic_slope(2, 1) == 25.0
    assert asymptotic_slope(2, 2) == 31.0
    assert asymptotic_slope(2, 4) == 43.0
    assert asymptotic_slope(3, 2) == 37.5
    assert asymptotic_slope(3, 3) == 47.5
    with pytest.raises(BoundUndefinedError):
        asymptotic_slope(3, 1)
    with pytest.raises(InvalidDimensionError):
        asymptotic_slope(4, 1)


def test_asymptote_is_the_large_n_limit():
    n = 10**6
    for k in range(1, 11):
        assert abs(n * b2(k, n) - asymptotic_slope(2, k)) <= 0.01
    for k in range(2, 11):
        assert abs(n * b3(k, n) - asymptotic_slope(3, k)) <= 0.01
    # the spatial k = 1 assembly form has its own limit, 9.5/n
    assert n * b3(1, n) == pytest.approx(9.5, abs=0.01)


def test_bound_dominates_asymptote_at_finite_n():
    for k in range(1, 50):
        assert b2(k, 100) > (6 * k + 19) / 100


def test_alpha_limit_values():
    root2 = (4.0 - math.sqrt(11.0)) / 5.0
    assert alpha_limit(2, root2) == pytest.approx(1.0, abs=1e-12)
    # value at a nearby alpha, frozen from the closed form
    assert alpha_limit(3, 0.08235533) == pytest.approx(1.0000299102520125, rel=REL)
    assert alpha_limit(2, 0.5) == pytest.approx(8.0, rel=REL)
    with pytest.raises(DomainError):
        alpha_limit(2, 0.0)
    with pytest.raises(DomainError):
        alpha_limit(3, 1.0)
    with pytest.raises(InvalidDimensionError):
        alpha_limit(4, 0.1)


def test_alpha_limit_matches_bounds_at_large_n():
    n = 10**6
    for alpha in (0.01, 0.05, 0.1):
        assert abs(b2(int(alpha * n), n) - alpha_limit(2, alpha)) < 0.01
        assert abs(b3(int(alpha * n), n) - alpha_limit(3, alpha)) < 0.01


def test_alpha_thresholds():
    # dim 2 root solves 5a^2 - 8a + 1 = 0; dim 3 root (of the quartic
    # 5a^4 - 18a^3 + 24a^2 - 14a + 1) frozen from exact arithmetic.
    assert abs(alpha_threshold(2) - (4.0 - math.sqrt(11.0)) / 5.0) <= 1e-9
    assert abs(alpha_threshold(3) - 0.08235329108655530) <= 1e-9
    for dim in (2, 3):
        t = alpha_threshold(dim)
        assert alpha_limit(dim, t - 1e-6) < 1.0 < alpha_limit(dim, t + 1e-6)


def test_expectation_transfer_gap():
    assert expectation_transfer_gap(0.0, 2, 2, 100) == 0.0
    assert expectation_transfer_gap(math.pi, 2, 2, 100) \
        == pytest.approx(1.0555955284482583, rel=REL)
    assert expectation_transfer_gap(math.pi, 3, 3, 100) \
        == pytest.approx(1.6757173665782639, rel=REL)
    with pytest.raises(DomainError):
        expectation_transfer_gap(-1.0, 2, 2, 100)
    with pytest.raises(InvalidDimensionError):
        expectation_transfer_gap(1.0, 4, 2, 100)


def test_curvature_variance_bound_values():
    # exact-arithmetic: (200 pi)^2 * 25397/112032
    assert curvature_variance_bound(200) == pytest.approx(89495.26670039505, rel=REL)


def test_curvature_variance_bound_shape():
    # per-vertex variance approaches pi^2 * 43 (slope of b2(4, .))
    n = 10**6
    assert curvature_variance_bound(n) / n == pytest.approx(
        43 * math.pi**2, rel=1e-3)
    with pytest.raises(BoundUndefinedError):
        curvature_variance_bound(8)


def test_torsion_variance_bound_values():
    assert torsion_variance_bound(100) == pytest.approx(92761.38631687885, rel=REL)
    assert torsion_variance_bound(100) > 100 * math.pi**2 / 3
    # per-vertex limit pi^2 (1/3 + 77.5) from the b3(6, .) asymptote
    n = 10**6
    assert torsion_variance_bound(n) / n == pytest.approx(
        math.pi**2 * (1 / 3 + 77.5), rel=1e-3)
    with pytest.raises(BoundUndefinedError):
        torsion_variance_bound(10)


def test_chebyshev_interval_values():
    assert chebyshev_interval(0.0, 1.0, 2.0) == (-2.0, 2.0, 0.75)
    lo, hi, cov = chebyshev_interval(5.0, 4.0, 1.0)
    assert (lo, hi) == (3.0, 7.0)
    assert cov == 0.0
    assert chebyshev_interval(0.0, 1.0, math.sqrt(2.0))[2] \
        == pytest.approx(0.5, rel=REL)
    with pytest.raises(DomainError):
        chebyshev_interval(0.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        chebyshev_interval(0.0, 1.0, 0.0)


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
def test_chebyshev_interval_needs_a_finite_center(center):
    # a NaN center gave (nan, nan, 0.75), an interval that covers nothing
    with pytest.raises(DomainError, match="center must be finite"):
        chebyshev_interval(center, 1.0, 2.0)


def test_chebyshev_curvature_interval_clears_two_pi():
    # With center n*pi/2, the simple variance bound, and lambda = sqrt(2)
    # (coverage 1/2), the interval's lower end first exceeds 2*pi at n = 363.
    def lower_end(n):
        return chebyshev_interval(n * math.pi / 2,
                                  curvature_variance_bound(n),
                                  math.sqrt(2.0))[0]

    assert lower_end(362) == pytest.approx(6.238092583656339, rel=REL)
    assert lower_end(363) == pytest.approx(7.055394187204001, rel=REL)
    assert lower_end(362) <= 2 * math.pi < lower_end(363)


def test_numpy_integers_give_the_int_values():
    # same value and type for numpy integer arguments, n = 10**6 included,
    # where n**4 would overflow int64
    i = np.int64
    cases = [
        (b2, (1, 100)), (b2, (3, 10**6)), (b3, (1, 100)), (b3, (2, 10**6)),
        (ortho_block_bound, (2, 2, 100)), (sphere_marginal_bound, (2, 200)),
        (unitary_block_bound, (1, 2, 10**6)), (asymptotic_slope, (2, 3)),
        (asymptotic_slope, (3, 3)), (curvature_variance_bound, (10**6,)),
        (torsion_variance_bound, (10**6,)),
        (expectation_transfer_gap, (math.pi, 3, 3, 10**6)),
    ]
    for fn, args in cases:
        want = fn(*args)
        got = fn(*(i(a) if isinstance(a, int) else a for a in args))
        assert got == want and type(got) is float, (fn.__name__, args)

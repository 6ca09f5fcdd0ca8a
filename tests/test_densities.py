"""Matrix-variate densities: values, normalizations, support, and the
beta-to-gamma ratio profile."""
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from symmpoly import (DomainError, SupportError, block_density, cbi_density,
                      ensure_hermitian, hermitian_logdet, ln_multigamma,
                      ratio_profile, wishart_density)

REL = 1e-12


def test_ln_multigamma_values():
    assert ln_multigamma(1, 1.0) == 0.0
    assert ln_multigamma(1, 3.7) == pytest.approx(float(gammaln(3.7)), rel=REL)
    # m = 2, a = 3: ln pi + lnGamma(3) + lnGamma(2) = ln pi + ln 2
    assert ln_multigamma(2, 3.0) == pytest.approx(math.log(math.pi) + math.log(2.0),
                                                  rel=REL)


def test_ln_multigamma_domain():
    with pytest.raises(DomainError):
        ln_multigamma(2, 1.0)
    with pytest.raises(DomainError):
        ln_multigamma(0, 1.0)


def test_ensure_hermitian():
    sym = ensure_hermitian([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(sym, [[1.0, 2.0], [2.0, 5.0]])
    herm = ensure_hermitian([[1.0, 1j], [-1j, 2.0]])
    assert np.array_equal(herm, [[1.0, 1j], [-1j, 2.0]])
    assert ensure_hermitian(3.0).shape == (1, 1)
    with pytest.raises(DomainError, match="not Hermitian"):
        ensure_hermitian([[1.0, 2.0], [0.0, 5.0]], "gram")
    with pytest.raises(DomainError):
        ensure_hermitian(np.zeros((2, 3)))


def test_hermitian_logdet():
    assert hermitian_logdet([[2.0, 1.0], [1.0, 2.0]]) \
        == pytest.approx(math.log(3.0), rel=REL)
    with pytest.raises(SupportError):
        hermitian_logdet([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SupportError):
        hermitian_logdet([[0.0]])


def test_block_density_scalar_values():
    # at delta = 0 the 1 x 1 density is (n-1)/pi
    assert block_density(0.0, 10) == pytest.approx(9.0 / math.pi, rel=REL)
    # closed form (n-1)/pi * (1-|d|^2)^(n-2)
    assert block_density(complex(math.sqrt(0.5)), 10) \
        == pytest.approx(9.0 / (math.pi * 256.0), rel=REL)
    # vanishes continuously at the support boundary
    assert block_density(0.99999, 10) < 1e-30


def test_block_density_support_and_domain():
    with pytest.raises(SupportError):
        block_density(1.0, 10)
    with pytest.raises(SupportError):
        block_density(1.2, 10)
    with pytest.raises(DomainError):
        block_density(0.5, 2)  # needs n > p + q = 2
    with pytest.raises(DomainError):
        block_density(np.zeros((2, 2, 2)), 10)


def test_block_density_vector_input_is_column():
    # a length-2 vector is a 2 x 1 block; needs n > 3
    val = block_density(np.array([0.1, 0.2]), 10)
    assert val > 0.0
    with pytest.raises(DomainError):
        block_density(np.array([0.1, 0.2]), 3)


def test_block_density_normalization_scalar():
    # radial volume element of Lebesgue measure on C is pi du for |d|^2 = u
    integral, _ = integrate.quad(
        lambda u: math.pi * block_density(complex(math.sqrt(u)), 10),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(integral - 1.0) <= 1e-8


def test_block_density_normalization_column():
    # Lebesgue measure on a 2 x 1 block with |Delta|^2 = u: pi^2 u du
    integral, _ = integrate.quad(
        lambda u: math.pi**2 * u * block_density(
            np.array([[math.sqrt(u)], [0.0]]), 10),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(integral - 1.0) <= 1e-8


def test_wishart_scalar_is_gamma():
    # p = 1, Sigma = 1: density v^(n-1) e^(-v) / Gamma(n) = Gamma(n, 1) pdf
    for n in (2, 5):
        for v in (0.5, 2.0, 7.0):
            assert wishart_density(v, 1, n, 1.0) \
                == pytest.approx(stats.gamma(n).pdf(v), rel=1e-10)
    # p = 1, Sigma = 1/n: the scaled form n^n v^(n-1) e^(-n v) / Gamma(n)
    n = 5
    v = 0.3
    expected = n**n * v ** (n - 1) * math.exp(-n * v) / math.gamma(n)
    assert wishart_density(v, 1, n, 1.0 / n) == pytest.approx(expected, rel=1e-10)


def test_wishart_matrix_value():
    # p = n = 2, A = Sigma = I: det(A)^0 e^(-2) / CGamma_2(2), CGamma_2(2) = pi
    assert wishart_density(np.eye(2), 2, 2, np.eye(2)) \
        == pytest.approx(math.exp(-2.0) / math.pi, rel=1e-10)


def test_wishart_normalization():
    integral, _ = integrate.quad(lambda v: wishart_density(v, 1, 5, 1.0),
                                 0.0, np.inf, epsabs=1e-12, epsrel=1e-12,
                                 limit=200)
    assert abs(integral - 1.0) <= 1e-8


def test_wishart_support_and_domain():
    # singular A has density zero when n > p, and A = 0 is allowed at the boundary
    assert wishart_density(0.0, 1, 3, 1.0) == 0.0
    assert wishart_density(np.diag([1.0, 0.0]), 2, 3, np.eye(2)) == 0.0
    with pytest.raises(DomainError):
        wishart_density(-0.5, 1, 3, 1.0)
    with pytest.raises(DomainError):
        wishart_density(np.eye(2), 2, 1, np.eye(2))  # n < p
    with pytest.raises(DomainError):
        wishart_density([[1.0, 2.0], [0.0, 1.0]], 2, 3, np.eye(2))
    with pytest.raises(SupportError):
        wishart_density(1.0, 1, 3, 0.0)  # Sigma must be positive definite


def test_cbi_scalar_is_beta():
    for a, b in ((1.0, 9.0), (2.5, 4.5)):
        for u in (0.2, 0.5, 0.9):
            assert cbi_density(u, 1, a, b) \
                == pytest.approx(stats.beta(a, b).pdf(u), rel=1e-10)


def test_cbi_matrix_value():
    # M = I/2, a = b = 3, m = 2: constant * det(M) det(I-M) with
    # constant = CGamma_2(6) / CGamma_2(3)^2
    ln_const = ln_multigamma(2, 6.0) - 2.0 * ln_multigamma(2, 3.0)
    expected = math.exp(ln_const) * 0.25 * 0.25
    assert cbi_density(0.5 * np.eye(2), 2, 3.0, 3.0) \
        == pytest.approx(expected, rel=1e-10)


def test_cbi_normalization():
    integral, _ = integrate.quad(lambda u: cbi_density(u, 1, 2.0, 8.0),
                                 0.0, 1.0, epsabs=1e-12, epsrel=1e-12,
                                 limit=200)
    assert abs(integral - 1.0) <= 1e-8


def test_cbi_support_and_domain():
    with pytest.raises(SupportError):
        cbi_density(np.eye(2), 2, 3.0, 3.0)  # I - M singular
    with pytest.raises(SupportError):
        cbi_density(1.5, 1, 2.0, 2.0)
    with pytest.raises(DomainError):
        cbi_density(0.5 * np.eye(2), 2, 1.0, 3.0)  # needs a > m-1
    with pytest.raises(DomainError):
        cbi_density(0.5 * np.eye(3), 2, 3.0, 3.0)  # shape mismatch


def test_ratio_profile_values():
    # deterministic grid sweep at r = 1, 2, n = 20, 1e5 grid points
    argmax1, peak1 = ratio_profile(1, 20, 10**5)
    assert argmax1 == pytest.approx(0.0999990000099999, rel=REL)
    assert abs(argmax1 - 0.1) <= 1e-5
    assert peak1 == pytest.approx(1.053604796328455, rel=1e-9)
    assert peak1 <= 1.0 / (1.0 - 2.0 / 20.0)
    argmax2, peak2 = ratio_profile(2, 20, 10**5)
    assert abs(argmax2 - 0.15) <= 1e-5
    assert peak2 == pytest.approx(1.0838552798875356, rel=1e-9)
    assert peak2 <= 1.0 / (1.0 - 3.0 / 20.0)


def test_ratio_profile_domain():
    with pytest.raises(DomainError):
        ratio_profile(0, 20, 10**5)
    with pytest.raises(DomainError):
        ratio_profile(1, 4, 10**5)  # needs r + 3 < n
    with pytest.raises(DomainError):
        ratio_profile(1, 20, 999)


def test_numpy_integers_give_the_int_values():
    i = np.int64
    assert ln_multigamma(i(2), 3.0) == ln_multigamma(2, 3.0)
    assert block_density(0.1, i(10)) == block_density(0.1, 10)
    assert block_density(0.1, i(10**6)) == block_density(0.1, 10**6)
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert wishart_density(a, i(2), i(5), np.eye(2)) \
        == wishart_density(a, 2, 5, np.eye(2))
    assert cbi_density(0.3, i(1), 2.0, 8.0) == cbi_density(0.3, 1, 2.0, 8.0)
    assert ratio_profile(1, i(20), 100_000) == ratio_profile(1, 20, 100_000)
    assert ratio_profile(i(2), i(10**6), i(1000)) \
        == ratio_profile(2, 10**6, 1000)


# Exact reprs, computed with scipy's gammaln. Any other lnGamma (math.lgamma,
# a series) may differ in the last bit and move the density-check CSV.
PINNED = [
    (ln_multigamma, (1, 2.5), "0.2846828704729192"),
    (ln_multigamma, (3, 7.25), "19.267355005663667"),
    (ln_multigamma, (4, 10), "45.37922227099864"),
    (block_density, (0.3 + 0.1j, 10), "1.2331977175885833"),
    (block_density, ([0.2, 0.3j], 8), "2.1210251007719663"),
    (block_density, ([[0.2, 0.1j], [0.05, 0.3]], 12), "30.730192863083065"),
    (wishart_density, (2.0, 1, 5, 1.0), "0.09022352215774178"),
    (wishart_density, ([[2.0, 0.5], [0.5, 1.0]], 2, 6, [[1.0, 0.2], [0.2, 1.5]]),
     "7.927517305333924e-06"),
    (cbi_density, (0.3, 1, 2.0, 8.0), "1.7788528799999994"),
    (cbi_density, ([[0.3, 0.1], [0.1, 0.4]], 2, 3.5, 4.0), "19.83651993176946"),
    (ratio_profile, (1, 20, 10**5), "(0.0999990000099999, 1.053604796328455)"),
    (ratio_profile, (2, 20, 10**5), "(0.14999850001499984, 1.0838552798875356)"),
    (ratio_profile, (3, 500, 2000), "(0.0079960019990005, 1.0040228075904736)"),
]


@pytest.mark.parametrize("func, args, expected", PINNED,
                         ids=[f"{f.__name__}-{i}" for i, (f, _, _) in enumerate(PINNED)])
def test_values_are_bit_pinned(func, args, expected):
    assert repr(func(*args)) == expected

"""Matrix-variate densities behind the unitary block bound.

Provides the density of a p x q block of a Haar unitary matrix, the complex
Wishart density, the complex matrix-variate beta type I (CBI) density, and
the scalar beta-to-gamma density ratio whose maximizer location drives the
block bound. Everything is evaluated in log space (log-gamma plus
log-determinant, exponentiated last) so values stay finite up to n ~ 1e3.

The block-density normalizing constant uses pi^(-pq); the positive exponent
sometimes quoted elsewhere fails the p = q = 1 normalization check by a
factor of pi^2, and the sign used here is validated by quadrature in the
test suite.

lnGamma is scipy's gammaln, imported on the first call that needs it, so
importing this module (and the package) loads numpy only.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import DomainError, SupportError, _check_int

_HERMITIAN_TOL = 1e-12


def _gammaln(x):
    """scipy.special.gammaln, imported here rather than at module level."""
    from scipy.special import gammaln

    return gammaln(x)


def _as_square(M, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(M)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"{name} must be square, got shape {np.shape(M)}")
    return arr.astype(complex)


def ensure_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry to 1e-12 and return the symmetrized array."""
    arr = _as_square(M, name)
    gap = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if gap > _HERMITIAN_TOL:
        raise DomainError(f"{name} is not Hermitian (max asymmetry {gap:.3e})")
    return 0.5 * (arr + arr.conj().T)


def hermitian_logdet(M, name: str = "matrix") -> float:
    """ln det of a Hermitian positive definite matrix.

    Computed via Cholesky; a failed factorization is the positive
    definiteness test and raises SupportError.
    """
    arr = ensure_hermitian(M, name)
    try:
        chol = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise SupportError(f"{name} is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def ln_multigamma(m: int, a: float) -> float:
    """ln of the complex multivariate gamma:
    (m(m-1)/2) ln pi + sum_{j=1}^m lnGamma(a - j + 1); needs a > m - 1."""
    m = _check_int("m", m, 1, error=DomainError)
    if not a > m - 1:
        raise DomainError(f"multivariate gamma needs a > m-1, got a={a}, m={m}")
    j = np.arange(1, m + 1)
    return float(m * (m - 1) / 2.0 * math.log(math.pi) + np.sum(_gammaln(a - j + 1)))


def block_density(delta, n: int) -> float:
    """Density of the p x q upper-left block of a Haar unitary n x n matrix.

    c1 * det(I_q - delta* delta)^(n-p-q) with
    c1 = pi^(-pq) * prod_{j=1}^q Gamma(n-j+1)/Gamma(n-p-j+1),
    with respect to Lebesgue measure on the complex entries. The support is
    the set where I - delta* delta is positive definite; needs n > p + q.
    A scalar is treated as 1 x 1 and a vector as a p x 1 column.
    """
    arr = np.asarray(delta)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DomainError(f"block must be a p x q matrix, got shape {np.shape(delta)}")
    p, q = arr.shape
    n = _check_int(f"block density n for a {p} x {q} block", n, p + q + 1,
                   error=DomainError)
    arr = arr.astype(complex)
    residual = np.eye(q) - arr.conj().T @ arr
    ln_det = hermitian_logdet(residual, "I - block* block")
    j = np.arange(1, q + 1)
    ln_c1 = (-p * q * math.log(math.pi)
             + float(np.sum(_gammaln(n - j + 1) - _gammaln(n - p - j + 1))))
    return math.exp(ln_c1 + (n - p - q) * ln_det)


def wishart_density(A, p: int, n: int, sigma) -> float:
    """Complex Wishart density
    det(A)^(n-p) exp(-tr(Sigma^-1 A)) / (CGamma_p(n) det(Sigma)^n)
    for Hermitian positive semi-definite A and positive definite Sigma,
    n >= p. The pi^(p(p-1)/2) prefactor is folded into CGamma_p(n).
    """
    p = _check_int("p", p, 1, error=DomainError)
    n = _check_int("complex Wishart n", n, p, error=DomainError)
    a = ensure_hermitian(A, "A")
    if a.shape[0] != p:
        raise DomainError(f"A must be {p} x {p}, got {a.shape}")
    s = ensure_hermitian(sigma, "Sigma")
    if s.shape[0] != p:
        raise DomainError(f"Sigma must be {p} x {p}, got {s.shape}")
    eig = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.max(np.abs(eig)))) if eig.size else 1.0
    if float(np.min(eig)) < -1e-12 * scale:
        raise DomainError("A must be positive semi-definite")
    ln_det_sigma = hermitian_logdet(s, "Sigma")
    trace = float(np.real(np.trace(np.linalg.inv(s) @ a)))
    if n == p:
        ln_power = 0.0
    else:
        if float(np.min(eig)) <= 0.0:
            return 0.0
        ln_power = (n - p) * float(np.sum(np.log(eig)))
    return math.exp(ln_power - trace - ln_multigamma(p, n) - n * ln_det_sigma)


def cbi_density(M, m: int, a: float, b: float) -> float:
    """Complex matrix-variate beta type I density
    (CGamma_m(a+b) / (CGamma_m(a) CGamma_m(b))) det(M)^(a-m) det(I-M)^(b-m)
    for Hermitian M with M and I - M positive definite; a, b > m - 1.
    At m = 1 this is the scalar Beta(a, b) density.
    """
    m = _check_int("m", m, 1, error=DomainError)
    if not (a > m - 1 and b > m - 1):
        raise DomainError(f"cbi density needs a, b > m-1, got a={a}, b={b}, m={m}")
    mat = ensure_hermitian(M, "M")
    if mat.shape[0] != m:
        raise DomainError(f"M must be {m} x {m}, got {mat.shape}")
    ln_det_m = hermitian_logdet(mat, "M")
    ln_det_rest = hermitian_logdet(np.eye(m) - mat, "I - M")
    ln_const = ln_multigamma(m, a + b) - ln_multigamma(m, a) - ln_multigamma(m, b)
    return math.exp(ln_const + (a - m) * ln_det_m + (b - m) * ln_det_rest)


def _ln_ratio(r: int, n: int, v: np.ndarray) -> np.ndarray:
    """ln(g/f) for g = Beta(r, n-r) and f = Gamma(shape r, rate n) densities:
    lnGamma(n) - lnGamma(n-r) - r ln n + (n-r-1) ln(1-v) + n v."""
    return (_gammaln(n) - _gammaln(n - r) - r * math.log(n)
            + (n - r - 1) * np.log1p(-v) + n * v)


def ratio_profile(r: int, n: int, grid_points: int) -> Tuple[float, float]:
    """(argmax, max) of g/f over the grid v_i = i/(grid_points+1), i = 1..grid_points.

    g/f is smooth with a unique interior maximum at v = (r+1)/n, so the grid
    argmax lands within one grid step of it.
    """
    r = _check_int("r", r, 1, error=DomainError)
    n = _check_int("n", n, r + 4, error=DomainError)  # r + 3 < n
    grid_points = _check_int("grid_points", grid_points, 1000, error=DomainError)
    v = np.arange(1, grid_points + 1) / (grid_points + 1.0)
    ln = _ln_ratio(r, n, v)
    i = int(np.argmax(ln))
    return float(v[i]), float(math.exp(ln[i]))


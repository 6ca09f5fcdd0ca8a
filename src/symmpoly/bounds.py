"""Closed-form total-variation and variance bounds.

The bound families compare marginals of the polygon measures against
Gaussian or open-chain counterparts:

* ``ortho_block_bound``: r x s block of a Haar orthogonal matrix vs iid
  Gaussian entries of variance 1/n.
* ``sphere_marginal_bound``: first k coordinates of a uniform sphere point
  vs the matching Gaussian.
* ``unitary_block_bound``: the unitary-group analogue of the ortho bound.
* ``b2`` / ``b3``: k-edge segment of a closed planar/spatial polygon vs the
  open-chain segment, assembled from the block and sphere bounds.

All distances use the integral convention ``tv = |mu - nu|(whole space)``
with maximum 2, so a bound above 2 carries no information; ``symmpoly
bounds`` prints each segment bound next to its value clipped at 2.

Integer-heavy subexpressions are evaluated in exact integer arithmetic and
divided once, which keeps the large-n asymptote checks accurate.
"""
from __future__ import annotations

import math
from typing import Tuple

from .errors import (BoundUndefinedError, DomainError, InvalidDimensionError,
                     _check_int)


def ortho_block_bound(r: int, s: int, n: int) -> float:
    """TV bound for an r x s block of a Haar orthogonal matrix vs Gaussian.

    2((1 - (r+s+2)/n)^(-t^2/2) - 1) with t = min(r, s); needs r+s+2 < n.
    """
    r, s, n = (_check_int(name, v, 1, error=BoundUndefinedError)
               for name, v in (("r", r), ("s", s), ("n", n)))
    if not r + s + 2 < n:
        raise BoundUndefinedError(f"ortho block bound needs r+s+2 < n, got ({r},{s},{n})")
    t = min(r, s)
    return 2.0 * ((1.0 - (r + s + 2) / n) ** (-t * t / 2.0) - 1.0)


def sphere_marginal_bound(k: int, m: int) -> float:
    """TV bound for the first k coordinates of a uniform point on S^(m-1).

    2(k+3)/(m-k-3); needs 1 <= k <= m-4.
    """
    k, m = (_check_int(name, v, 1, error=BoundUndefinedError)
            for name, v in (("k", k), ("m", m)))
    if not k <= m - 4:
        raise BoundUndefinedError(f"sphere marginal bound needs k <= m-4, got ({k},{m})")
    return 2.0 * (k + 3) / (m - k - 3)


def unitary_block_bound(r: int, s: int, n: int) -> float:
    """TV bound for an r x s block of a Haar unitary matrix vs Gaussian.

    2((1 - (r+s)/n)^(-t^2) - 1) with t = min(r, s); stated for r+s+2 < n.
    """
    r, s, n = (_check_int(name, v, 1, error=BoundUndefinedError)
               for name, v in (("r", r), ("s", s), ("n", n)))
    if not r + s + 2 < n:
        raise BoundUndefinedError(f"unitary block bound needs r+s+2 < n, got ({r},{s},{n})")
    t = min(r, s)
    return 2.0 * ((1.0 - (r + s) / n) ** (-t * t) - 1.0)


def b2(k: int, n: int) -> float:
    """TV bound between k-segments of closed and open planar chains.

    2((2k+3)/(2n-2k-3) + (2n-k-4)(k+4)/(n-k-4)^2) for 1 <= k <= n-5.
    """
    k, n = (_check_int(name, v, 1, error=BoundUndefinedError)
            for name, v in (("k", k), ("n", n)))
    if not k <= n - 5:
        raise BoundUndefinedError(f"planar segment bound needs 1 <= k <= n-5, got ({k},{n})")
    return 2.0 * ((2 * k + 3) / (2 * n - 2 * k - 3)
                  + (2 * n - k - 4) * (k + 4) / (n - k - 4) ** 2)


def b3(k: int, n: int) -> float:
    """TV bound between k-segments of closed and open spatial chains.

    2((4k+3)/(4n-4k-3) + n^4/(n-k-2)^4 - 1) for 2 <= k <= n-5. For k = 1
    the closed form's exponent (which assumes t = 2) does not apply; the
    generic assembly unitary_block_bound(1,2,n) + 2*7/(4n-7) is returned.
    """
    k, n = (_check_int(name, v, 1, error=BoundUndefinedError)
            for name, v in (("k", k), ("n", n)))
    if not k <= n - 5:
        raise BoundUndefinedError(f"spatial segment bound needs 1 <= k <= n-5, got ({k},{n})")
    if k == 1:
        return unitary_block_bound(1, 2, n) + 2.0 * 7 / (4 * n - 7)
    return 2.0 * ((4 * k + 3) / (4 * n - 4 * k - 3) + n**4 / (n - k - 2) ** 4 - 1.0)


def asymptotic_slope(dim: int, k: int) -> float:
    """Coefficient c in the large-n asymptote b_dim(k, n) ~ c/n."""
    if _check_int("dim", dim, 2, 3, error=InvalidDimensionError) == 2:
        return 6.0 * _check_int("k", k, 1, error=BoundUndefinedError) + 19.0
    # k = 1 uses the assembly form (see b3)
    k = _check_int("spatial asymptote k", k, 2, error=BoundUndefinedError)
    return 10.0 * k + 17.5


def alpha_limit(dim: int, alpha: float) -> float:
    """Limit of b_dim(floor(alpha*n), n) as n grows, alpha in (0, 1)."""
    dim = _check_int("dim", dim, 2, 3, error=InvalidDimensionError)
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if dim == 2:
        return 2.0 * a * (3.0 - 2.0 * a) / (1.0 - a) ** 2
    return 2.0 * (a / (1.0 - a) + (1.0 - a) ** -4 - 1.0)


def alpha_threshold(dim: int) -> float:
    """The alpha where the segment-fraction limit reaches 1 (bound useless above).

    Bisection to 1e-12; the limit is continuous, 0 at 0+ and unbounded at
    1-, and strictly increasing, so the root is unique.
    """
    dim = _check_int("dim", dim, 2, 3, error=InvalidDimensionError)
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if alpha_limit(dim, mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def expectation_transfer_gap(M: float, dim: int, k: int, n: int) -> float:
    """Worst-case gap M * b_dim(k, n) between closed and open expectations
    of a k-edge functional bounded by M."""
    if not M >= 0.0:
        raise DomainError(f"functional bound M must be nonnegative, got {M}")
    dim = _check_int("dim", dim, 2, 3, error=InvalidDimensionError)
    return M * (b2 if dim == 2 else b3)(k, n)


def curvature_variance_bound(n: int) -> float:
    """Upper bound (n*pi)^2 * b2(4, n) on the variance of total curvature of
    a closed planar n-gon (defined for n >= 9)."""
    n = _check_int("curvature variance bound n", n, 9, error=BoundUndefinedError)
    return (n * math.pi) ** 2 * b2(4, n)


def torsion_variance_bound(n: int) -> float:
    """Upper bound n*pi^2/3 + n^2*pi^2*b3(6, n) on the variance of total
    torsion of a closed spatial n-gon (defined for n >= 11)."""
    n = _check_int("torsion variance bound n", n, 11, error=BoundUndefinedError)
    return n * math.pi**2 / 3.0 + n * n * math.pi**2 * b3(6, n)


def chebyshev_interval(center: float, var_bound: float, lam: float
                       ) -> Tuple[float, float, float]:
    """(lo, hi, min_coverage) for the lambda-sigma interval around center.

    At least max(0, 1 - 1/lambda^2) of the mass lies in [lo, hi] whenever
    var_bound dominates the true variance.
    """
    if not math.isfinite(center):
        raise DomainError(f"center must be finite, got {center}")
    if not var_bound >= 0.0:
        raise DomainError(f"variance bound must be nonnegative, got {var_bound}")
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    half = lam * math.sqrt(var_bound)
    return (center - half, center + half, max(0.0, 1.0 - 1.0 / (lam * lam)))

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
import numbers
from typing import Optional, Tuple

from .errors import BoundUndefinedError, DomainError, InvalidDimensionError


def _check_positive_int(name: str, v) -> int:
    """v as a Python int (numpy integers included), so that powers such as
    n**4 do not overflow a fixed-width integer."""
    if not isinstance(v, numbers.Integral) or v < 1:
        raise BoundUndefinedError(f"{name} must be a positive integer, got {v!r}")
    return int(v)


def ortho_block_bound(r: int, s: int, n: int) -> float:
    """TV bound for an r x s block of a Haar orthogonal matrix vs Gaussian.

    2((1 - (r+s+2)/n)^(-t^2/2) - 1) with t = min(r, s); needs r+s+2 < n.
    """
    r, s, n = (_check_positive_int(k, v) for k, v in (("r", r), ("s", s), ("n", n)))
    if not r + s + 2 < n:
        raise BoundUndefinedError(f"ortho block bound needs r+s+2 < n, got ({r},{s},{n})")
    t = min(r, s)
    return 2.0 * ((1.0 - (r + s + 2) / n) ** (-t * t / 2.0) - 1.0)


def sphere_marginal_bound(k: int, m: int) -> float:
    """TV bound for the first k coordinates of a uniform point on S^(m-1).

    2(k+3)/(m-k-3); needs 1 <= k <= m-4.
    """
    k, m = (_check_positive_int(nm, v) for nm, v in (("k", k), ("m", m)))
    if not k <= m - 4:
        raise BoundUndefinedError(f"sphere marginal bound needs k <= m-4, got ({k},{m})")
    return 2.0 * (k + 3) / (m - k - 3)


def unitary_block_bound(r: int, s: int, n: int) -> float:
    """TV bound for an r x s block of a Haar unitary matrix vs Gaussian.

    2((1 - (r+s)/n)^(-t^2) - 1) with t = min(r, s); stated for r+s+2 < n.
    """
    r, s, n = (_check_positive_int(k, v) for k, v in (("r", r), ("s", s), ("n", n)))
    if not r + s + 2 < n:
        raise BoundUndefinedError(f"unitary block bound needs r+s+2 < n, got ({r},{s},{n})")
    t = min(r, s)
    return 2.0 * ((1.0 - (r + s) / n) ** (-t * t) - 1.0)


def b2(k: int, n: int) -> float:
    """TV bound between k-segments of closed and open planar chains.

    2((2k+3)/(2n-2k-3) + (2n-k-4)(k+4)/(n-k-4)^2) for 1 <= k <= n-5.
    """
    k, n = (_check_positive_int(nm, v) for nm, v in (("k", k), ("n", n)))
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
    k, n = (_check_positive_int(nm, v) for nm, v in (("k", k), ("n", n)))
    if not k <= n - 5:
        raise BoundUndefinedError(f"spatial segment bound needs 1 <= k <= n-5, got ({k},{n})")
    if k == 1:
        return unitary_block_bound(1, 2, n) + 2.0 * 7 / (4 * n - 7)
    return 2.0 * ((4 * k + 3) / (4 * n - 4 * k - 3) + n**4 / (n - k - 2) ** 4 - 1.0)


def asymptotic_slope(dim: int, k: int) -> float:
    """Coefficient c in the large-n asymptote b_dim(k, n) ~ c/n."""
    if dim == 2:
        k = _check_positive_int("k", k)
        return 6.0 * k + 19.0
    if dim == 3:
        if not isinstance(k, numbers.Integral) or k < 2:
            raise BoundUndefinedError(
                f"spatial asymptote needs k >= 2 (k=1 uses the assembly form), got {k!r}")
        return 10.0 * int(k) + 17.5
    raise InvalidDimensionError(f"dim must be 2 or 3, got {dim}")


def alpha_limit(dim: int, alpha: float) -> float:
    """Limit of b_dim(floor(alpha*n), n) as n grows, alpha in (0, 1)."""
    if dim not in (2, 3):
        raise InvalidDimensionError(f"dim must be 2 or 3, got {dim}")
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
    if dim not in (2, 3):
        raise InvalidDimensionError(f"dim must be 2 or 3, got {dim}")
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
    if dim == 2:
        return M * b2(k, n)
    if dim == 3:
        return M * b3(k, n)
    raise InvalidDimensionError(f"dim must be 2 or 3, got {dim}")


def curvature_variance_bound(n: int, refined: bool = False,
                             eps: Optional[float] = None) -> float:
    """Upper bound on the variance of total curvature of a closed planar
    n-gon.

    Simple form: (n*pi)^2 * b2(4, n). Refined form subtracts the squared
    mean surplus: pi^2(n*b2(2,n) + 2n*b2(3,n) + (n^2-3n)*b2(4,n))
    - n^2(pi*eps + eps^2), where eps >= 0 is the surplus of the expected
    turning angle over pi/2 (estimated empirically, not hardcoded).
    """
    n = _check_positive_int("n", n)
    if n < 9:
        raise BoundUndefinedError(f"curvature variance bound needs n >= 9, got {n}")
    if not refined:
        return (n * math.pi) ** 2 * b2(4, n)
    if eps is None or eps < 0.0:
        raise DomainError("refined curvature variance bound needs eps >= 0")
    return (math.pi**2 * (n * b2(2, n) + 2 * n * b2(3, n) + (n * n - 3 * n) * b2(4, n))
            - n * n * (math.pi * eps + eps * eps))


def torsion_variance_bound(n: int) -> float:
    """Upper bound n*pi^2/3 + n^2*pi^2*b3(6, n) on the variance of total
    torsion of a closed spatial n-gon (defined for n >= 11)."""
    n = _check_positive_int("n", n)
    if n < 11:
        raise BoundUndefinedError(f"torsion variance bound needs n >= 11, got {n}")
    return n * math.pi**2 / 3.0 + n * n * math.pi**2 * b3(6, n)


def chebyshev_interval(center: float, var_bound: float, lam: float
                       ) -> Tuple[float, float, float]:
    """(lo, hi, min_coverage) for the lambda-sigma interval around center.

    At least max(0, 1 - 1/lambda^2) of the mass lies in [lo, hi] whenever
    var_bound dominates the true variance.
    """
    if not var_bound >= 0.0:
        raise DomainError(f"variance bound must be nonnegative, got {var_bound}")
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    half = lam * math.sqrt(var_bound)
    return (center - half, center + half, max(0.0, 1.0 - 1.0 / (lam * lam)))

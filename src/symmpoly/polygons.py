"""Polygon spaces carrying the symmetric measure.

Four sample spaces, all normalized to perimeter 2:

* ``arm2(n)``: open planar chains; a uniform point on the sphere of radius
  sqrt(2) in C^n, squared coordinatewise (``square_map``).
* ``pol2(n)``: closed planar polygons; a Haar orthonormal 2-frame (a, b) of
  R^n read as z = a + i b, squared coordinatewise.
* ``arm3(n)``: open spatial chains; a uniform point on the sphere of radius
  sqrt(2) in H^n (quaternion n-vectors), pushed through ``hopf_map``.
* ``pol3(n)``: closed spatial polygons; a Haar unitary 2-frame (a, b) of C^n
  read as q = a + b j, pushed through ``hopf_map``.

Closure of the pol spaces is the frame orthonormality: the squared/Hopf
images sum to zero exactly when the two vectors are orthonormal, which also
pins the perimeter to 2 without any rescaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidDimensionError, InvalidSizeError
from .haar import (SeedStream, StreamLike, _SPHERE_TINY, _frame2_batch,
                   _unit_rows, ensure_generator)

SPACES = ("arm2", "pol2", "arm3", "pol3")

_HOPF_REAL_TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x i + y j + z k with the Hamilton product (ij = k)."""

    w: float
    x: float
    y: float
    z: float

    @classmethod
    def from_complex_pair(cls, a: complex, b: complex) -> "Quaternion":
        """q = a + b j with a = w + x i and b = y + z i."""
        a, b = complex(a), complex(b)
        return cls(a.real, a.imag, b.real, b.imag)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


@dataclass(frozen=True, eq=False)
class Polygon:
    """An n-edge polygonal chain in R^dim, stored as edge vectors.

    Translation is quotiented out by construction; vertices are derived on
    demand anchored at the origin.
    """

    dim: int
    closed: bool
    edges: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 2 or edges.shape[1] != self.dim:
            raise InvalidDimensionError(
                f"edges must have shape (n, {self.dim}), got {edges.shape}")
        if self.dim not in (2, 3):
            raise InvalidDimensionError(f"dim must be 2 or 3, got {self.dim}")
        if edges.shape[0] < 1:
            raise InvalidSizeError("a polygon needs at least one edge")
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.edges.shape[0]


def square_map(z: Sequence[complex]) -> np.ndarray:
    """Square each complex coordinate and read the results as R^2 edges."""
    z = np.asarray(z, dtype=complex)
    e = z * z
    return np.stack([e.real, e.imag], axis=-1)


def _as_quaternion_array(q) -> np.ndarray:
    if isinstance(q, Quaternion):
        return q.as_array()[None, :]
    if isinstance(q, Iterable) and not isinstance(q, np.ndarray):
        q = list(q)
        if q and isinstance(q[0], Quaternion):
            return np.stack([qi.as_array() for qi in q])
    arr = np.asarray(q, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise InvalidDimensionError(
            f"expected quaternions as shape (n, 4) (w, x, y, z), got {arr.shape}")
    return arr


def hopf_map(q) -> np.ndarray:
    """Map each quaternion q to the vector part of q-conjugate * i * q.

    Input is a Quaternion, a sequence of Quaternions, or an (n, 4) array of
    (w, x, y, z) components. The real part of the product vanishes
    identically; it is computed and checked as a guard on the arithmetic.
    Each output edge has length |q|^2.
    """
    arr = _as_quaternion_array(q)
    w, x, y, z = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    # full product (w - xi - yj - zk) i (w + xi + yj + zk)
    real = w * x - x * w + y * z - z * y
    if np.any(np.abs(real) > _HOPF_REAL_TOL):
        raise AssertionError("hopf image acquired a nonzero real part")
    return np.stack([w * w + x * x - y * y - z * z,
                     2.0 * (x * y - w * z),
                     2.0 * (w * y + x * z)], axis=-1)


def _hopf_edges(comp: np.ndarray) -> np.ndarray:
    """Vectorized hopf image for component array (..., 4) -> (..., 3)."""
    w, x, y, z = comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3]
    return np.stack([w * w + x * x - y * y - z * z,
                     2.0 * (x * y - w * z),
                     2.0 * (w * y + x * z)], axis=-1)


def _check_space_args(dim: int, n: int) -> None:
    if dim not in (2, 3):
        raise InvalidDimensionError(f"dim must be 2 or 3, got {dim}")
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise InvalidSizeError(f"polygon size n must be >= 3, got {n}")


def arm_edges_batch(rng: np.random.Generator, count: int, dim: int, n: int,
                    k: Optional[int] = None) -> np.ndarray:
    """Leading k edges (default all n) of ``count`` open-arm samples,
    shape (count, k, dim)."""
    k = n if k is None else k
    if dim == 2:
        pts = math.sqrt(2.0) * _unit_rows(rng, count, 2 * n, _SPHERE_TINY, head=2 * k)
        zc = pts.reshape(count, k, 2)
        z = zc[..., 0] + 1j * zc[..., 1]
        e = z * z
        return np.stack([e.real, e.imag], axis=-1)
    pts = math.sqrt(2.0) * _unit_rows(rng, count, 4 * n, _SPHERE_TINY, head=4 * k)
    return _hopf_edges(pts.reshape(count, k, 4))


def pol_edges_batch(rng: np.random.Generator, count: int, dim: int, n: int,
                    k: Optional[int] = None) -> np.ndarray:
    """Leading k edges (default all n) of ``count`` closed-polygon samples,
    shape (count, k, dim)."""
    if dim == 2:
        fr = _frame2_batch(rng, count, n, "real", head=k)
        z = fr[:, 0] + 1j * fr[:, 1]
        e = z * z
        return np.stack([e.real, e.imag], axis=-1)
    fr = _frame2_batch(rng, count, n, "complex", head=k)
    a, b = fr[:, 0], fr[:, 1]
    comp = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
    return _hopf_edges(comp)


def space_dim(space: str) -> int:
    """Ambient dimension (2 or 3) of a named space."""
    if space not in SPACES:
        raise InvalidDimensionError(f"space must be one of {SPACES}, got {space!r}")
    return 2 if space.endswith("2") else 3


def space_edges_batch(rng: np.random.Generator, count: int, space: str, n: int,
                      k: Optional[int] = None) -> np.ndarray:
    """Batch sampler keyed by space name ('arm2', 'pol2', 'arm3', 'pol3').

    Returns the leading k edges (default all n) of ``count`` n-edge samples,
    shape (count, k, dim). For k < n the first k edges are drawn at O(k)
    cost, exactly in law: the rest of the Gaussian draw enters only through
    a chi-square norm (arm) or a Wishart 2x2 Gram matrix (pol). At k = n the
    draws and arithmetic are those of the full sampler.
    """
    dim = space_dim(space)
    _check_space_args(dim, n)
    if k is not None and (not isinstance(k, (int, np.integer)) or not 1 <= k <= n):
        raise InvalidSizeError(f"segment length k={k!r} out of range 1..{n}")
    if space.startswith("arm"):
        return arm_edges_batch(rng, count, dim, n, k)
    return pol_edges_batch(rng, count, dim, n, k)


def sample_arm(dim: int, n: int, s: StreamLike) -> Polygon:
    """One open chain with independent-direction edges (perimeter 2)."""
    _check_space_args(dim, n)
    rng = ensure_generator(s)
    edges = arm_edges_batch(rng, 1, dim, n)[0]
    return Polygon(dim=dim, closed=False, edges=edges)


def sample_pol(dim: int, n: int, s: StreamLike) -> Polygon:
    """One closed polygon (perimeter 2, vanishing edge sum)."""
    _check_space_args(dim, n)
    rng = ensure_generator(s)
    edges = pol_edges_batch(rng, 1, dim, n)[0]
    return Polygon(dim=dim, closed=True, edges=edges)


def perimeter(p: Polygon) -> float:
    """Sum of the edge lengths."""
    return float(np.linalg.norm(p.edges, axis=1).sum())


def closure_residual(p: Polygon) -> float:
    """Norm of the edge sum; zero precisely for closed chains."""
    return float(np.linalg.norm(p.edges.sum(axis=0)))


def vertices(p: Polygon) -> np.ndarray:
    """The n+1 partial sums of the edges, anchored at the origin."""
    out = np.zeros((p.n + 1, p.dim))
    np.cumsum(p.edges, axis=0, out=out[1:])
    return out


def segment(p: Polygon, k: int) -> np.ndarray:
    """First k edges flattened to a (dim*k)-vector (the k-segment marginal)."""
    if not 1 <= k <= p.n:
        raise InvalidSizeError(f"segment length k={k} out of range 1..{p.n}")
    return p.edges[:k].reshape(-1).copy()

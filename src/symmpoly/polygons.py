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

Both maps take whole batches: ``square_map`` complex arrays (...) to edges
(..., 2), ``hopf_map`` arrays (..., 4) of (w, x, y, z) to edges (..., 3).

Closure of the pol spaces is the frame orthonormality: the squared/Hopf
images sum to zero exactly when the two vectors are orthonormal, which also
pins the perimeter to 2 without any rescaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidDimensionError, InvalidSizeError
from .haar import (SeedStream, StreamLike, _frame2_batch, _unit_rows,
                   ensure_generator)

SPACES = ("arm2", "pol2", "arm3", "pol3")


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
        # C order: the angle kernels' sums, and so their last bits, depend on
        # the memory layout of the edges.
        edges = np.ascontiguousarray(self.edges, dtype=float)
        if edges.ndim != 2 or edges.shape[1] != self.dim:
            raise InvalidDimensionError(
                f"edges must have shape (n, {self.dim}), got {edges.shape}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim not in (2, 3):
            raise InvalidDimensionError(f"dim must be 2 or 3, got {self.dim!r}")
        if edges.shape[0] < 1:
            raise InvalidSizeError("a polygon needs at least one edge")
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.edges.shape[0]


def square_map(z: Sequence[complex]) -> np.ndarray:
    """Square each complex coordinate and read the results as R^2 edges."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (2,))
    # the (..., 2) rows are the real and imaginary parts of z * z
    np.multiply(z, z, out=out.view(complex)[..., 0])
    return out


def hopf_map(comp) -> np.ndarray:
    """Hopf image of quaternions, given as an array (..., 4) of (w, x, y, z).

    Each quaternion q maps to the vector part of q-conjugate * i * q (the
    real part vanishes identically), an array (..., 3) of R^3 edges; each
    edge has length |q|^2.
    """
    comp = np.asarray(comp, dtype=float)
    if comp.ndim < 1 or comp.shape[-1] != 4:
        raise InvalidDimensionError(
            f"expected quaternions as shape (..., 4) (w, x, y, z), got {comp.shape}")
    return _hopf(comp[..., 0], comp[..., 1], comp[..., 2], comp[..., 3])


def _hopf(w, x, y, z) -> np.ndarray:
    """``hopf_map`` on the four coordinate arrays of a quaternion batch:
    (w^2 + x^2 - y^2 - z^2, 2 (x y - w z), 2 (w y + x z)), evaluated in
    that order into one (..., 3) array."""
    out = np.empty(w.shape + (3,))
    tmp = np.empty(w.shape)
    e0, e1, e2 = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(w, w, out=e0)
    e0 += np.multiply(x, x, out=tmp)
    e0 -= np.multiply(y, y, out=tmp)
    e0 -= np.multiply(z, z, out=tmp)
    np.multiply(x, y, out=e1)
    e1 -= np.multiply(w, z, out=tmp)
    e1 *= 2.0
    np.multiply(w, y, out=e2)
    e2 += np.multiply(x, z, out=tmp)
    e2 *= 2.0
    return out


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
        pts = math.sqrt(2.0) * _unit_rows(rng, count, 2 * n, head=2 * k)
        zc = pts.reshape(count, k, 2)
        return square_map(zc[..., 0] + 1j * zc[..., 1])
    pts = math.sqrt(2.0) * _unit_rows(rng, count, 4 * n, head=4 * k)
    return hopf_map(pts.reshape(count, k, 4))


def pol_edges_batch(rng: np.random.Generator, count: int, dim: int, n: int,
                    k: Optional[int] = None) -> np.ndarray:
    """Leading k edges (default all n) of ``count`` closed-polygon samples,
    shape (count, k, dim)."""
    if dim == 2:
        fr = _frame2_batch(rng, count, n, "real", head=k)
        return square_map(fr[:, 0] + 1j * fr[:, 1])
    fr = _frame2_batch(rng, count, n, "complex", head=k)
    a, b = fr[:, 0], fr[:, 1]
    return _hopf(a.real, a.imag, b.real, b.imag)


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

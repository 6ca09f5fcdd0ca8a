"""Polygon spaces carrying the symmetric measure.

Four sample spaces, all normalized to perimeter 2:

* ``arm2(n)``: open planar chains; a uniform point on the sphere of radius
  sqrt(2) in C^n, squared coordinatewise (``_square``).
* ``pol2(n)``: closed planar polygons; a Haar orthonormal 2-frame (a, b) of
  R^n read as z = a + i b, squared coordinatewise.
* ``arm3(n)``: open spatial chains; a uniform point on the sphere of radius
  sqrt(2) in H^n (quaternion n-vectors), pushed through the Hopf map
  (``_hopf``).
* ``pol3(n)``: closed spatial polygons; a Haar unitary 2-frame (a, b) of C^n
  read as q = a + b j, pushed through the Hopf map.

Both maps take whole batches as coordinate arrays (...): ``_square`` the
two of (re, im) to edges (..., 2), ``_hopf`` the four of (w, x, y, z) to
edges (..., 3).

Closure of the pol spaces is the frame orthonormality: the squared/Hopf
images sum to zero exactly when the two vectors are orthonormal, which also
pins the perimeter to 2 without any rescaling.

``space_edges_batch`` is the one sampler: ``sample_arm``, ``sample_pol`` and
every ensemble draw go through it. Every space is drawn by one frame
sampler, ``haar._frame_blocks``: an arm is its one-vector case, a unit
vector of R^(2n) or R^(4n) read in coordinate pairs or quadruples, and a
polygon its two-vector case, a pol3 frame as the real and imaginary parts
of a and b. It makes a batch's random draws at once, then maps each row
block's real coordinate arrays (see ``haar``) to edges in one
(count, k, dim) array, with the bits of the same arithmetic on the whole
batch. Every draw is orthonormalised on its own coordinates; in a head
(k < n) the rest of the polygon enters as per-row Gram terms, so it costs
O(k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainError, InvalidDimensionError, InvalidSizeError,
                     _check_int, _is_int)
from .haar import StreamLike, _frame_blocks, ensure_generator

SPACES = ("arm2", "pol2", "arm3", "pol3")


@dataclass(frozen=True, eq=False)
class Polygon:
    """An n-edge polygonal chain in R^dim, stored as edge vectors.

    Translation is quotiented out by construction.
    """

    dim: int
    closed: bool
    edges: np.ndarray  # shape (n, dim)

    def __post_init__(self):
        dim = _check_int("dim", self.dim, 2, 3, error=InvalidDimensionError)
        # C order: the angle kernels' sums, and so their last bits, depend on
        # the memory layout of the edges.
        edges = np.ascontiguousarray(self.edges, dtype=float)
        if edges.ndim != 2 or edges.shape[1] != dim:
            raise InvalidDimensionError(
                f"edges must have shape (n, {dim}), got {edges.shape}")
        if edges.shape[0] < 1:
            raise InvalidSizeError("a polygon needs at least one edge")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.edges.shape[0]


def _square(re: np.ndarray, im: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Square each coordinate z = re + i im of a complex batch, given as its
    two coordinate arrays, and read the results as R^2 edges, written into a
    C-ordered float ``out`` of shape re.shape + (2,)."""
    # the complex multiply, not re*re - im*im, whose last bits differ; the
    # (..., 2) rows are the real and imaginary parts of z * z
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    np.multiply(z, z, out=out.view(complex)[..., 0])
    return out


def _hopf(w, x, y, z, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Hopf image of a quaternion batch q = w + x i + y j + z k, given as
    its four coordinate arrays: the vector part of q-conjugate * i * q (the
    real part vanishes identically), an R^3 edge of length |q|^2.

    That is (w^2 + x^2 - y^2 - z^2, 2 (x y - w z), 2 (w y + x z)),
    evaluated in that order into one (..., 3) array, ``out`` if given."""
    out = np.empty(w.shape + (3,)) if out is None else out
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
    _check_int("dim", dim, 2, 3, error=InvalidDimensionError)
    _check_int("polygon size n", n, 3, error=InvalidSizeError)


def _check_segment_length(n: int, k, what: str = "segment length") -> None:
    """The width check of segments and functional windows: an integer, not a
    bool, with 1 <= k <= n."""
    if not _is_int(k) or not 1 <= k <= n:
        raise InvalidSizeError(f"{what} must satisfy 1 <= k <= n, got k={k!r}")


def space_dim(space: str) -> int:
    """Ambient dimension (2 or 3) of a named space."""
    if space not in SPACES:
        raise InvalidDimensionError(f"space must be one of {SPACES}, got {space!r}")
    return 2 if space.endswith("2") else 3


def space_edges_batch(rng: np.random.Generator, count: int, space: str, n: int,
                      k: Optional[int] = None) -> np.ndarray:
    """Batch sampler keyed by space name ('arm2', 'pol2', 'arm3', 'pol3').

    Returns the leading k edges (default all n) of ``count`` n-edge samples,
    shape (count, k, dim); ``count`` is an integer >= 0, never a bool
    (``DomainError``). For k < n the first k edges are drawn at O(k) cost,
    exactly in law: the rest of the Gaussian draw enters only through the
    per-row Gram terms of its Bartlett factor, a chi-square norm (arm) or
    the factor of a Wishart 2x2 Gram matrix (pol). At k = n that factor is
    empty and draws nothing: the same arithmetic orthonormalises the whole
    frame.
    """
    dim = space_dim(space)
    _check_space_args(dim, n)
    count = _check_int("sample count", count, 0, error=DomainError)
    k = n if k is None else k
    _check_segment_length(n, k)
    if space.startswith("arm"):
        c = 2 if dim == 2 else 4  # real coordinates per edge
        blocks = ((sl, np.moveaxis((math.sqrt(2.0) * u).reshape(-1, k, c), -1, 0))
                  for sl, (u,) in _frame_blocks(rng, count, c * n, "real", c * k,
                                                vectors=1))
    else:
        blocks = _frame_blocks(rng, count, n, "real" if dim == 2 else "complex", k,
                               vectors=2)
    # each block's coordinates: (re, im) squared, or (w, x, y, z) Hopf-mapped
    edge_map = _square if dim == 2 else _hopf
    out = np.empty((count, k, dim))
    for sl, xs in blocks:
        edge_map(*xs, out=out[sl])
    return out


def sample_arm(dim: int, n: int, s: StreamLike) -> Polygon:
    """One open chain with independent-direction edges (perimeter 2)."""
    _check_space_args(dim, n)
    edges = space_edges_batch(ensure_generator(s), 1, f"arm{dim}", n)[0]
    return Polygon(dim=dim, closed=False, edges=edges)


def sample_pol(dim: int, n: int, s: StreamLike) -> Polygon:
    """One closed polygon (perimeter 2, vanishing edge sum)."""
    _check_space_args(dim, n)
    edges = space_edges_batch(ensure_generator(s), 1, f"pol{dim}", n)[0]
    return Polygon(dim=dim, closed=True, edges=edges)


def perimeter(p: Polygon) -> float:
    """Sum of the edge lengths."""
    return float(np.linalg.norm(p.edges, axis=1).sum())


def closure_residual(p: Polygon) -> float:
    """Norm of the edge sum; zero precisely for closed chains."""
    return float(np.linalg.norm(p.edges.sum(axis=0)))


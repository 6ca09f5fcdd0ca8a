"""Turning angles, torsion angles, and k-edge local functionals.

Conventions
-----------
* The turning angle at a vertex is the unsigned angle in [0, pi] between
  the incoming and outgoing edge vectors; total curvature is their sum
  (n angles on a closed polygon, n-1 on an open chain).
* The torsion angle at an interior edge b with neighbors a, c is
  tau = -atan2(|b| a.(b x c), (a x b).(b x c)) in (-pi, pi] (-pi is read
  as pi). The atan2 is the dihedral angle of Blondel and Karplus (1996):
  the signed angle, oriented by b, from the projection of -a to that of c
  in the plane normal to b. Total torsion sums n cyclic angles on a closed
  polygon and the n-2 interior angles on an open chain.

Both angles are invariant under global rotations and positive scalings.
Degenerate inputs (near-zero edges or projections) raise instead of
returning silent zeros: they have probability zero under the sampled
measures, so an occurrence signals a caller bug. The single-polygon
functions first scale the polygon by a power of two to unit size, so their
cut-offs are relative to the polygon's largest coordinate; the batch
kernels compare raw edges with ``_EDGE_TINY`` and ``_PROJ_TINY``, which
suits sampled polygons, whose perimeter is 2.

The batch kernels take a batch in blocks of ``_BLOCK`` rows, so that each
pass (norms, cross products, dot products) reads a block that fits in
cache, and they compute each norm once. A block is copied once into
component planes (``_planes``): one contiguous row of B * m values per
coordinate, each polygon's m columns holding its edges and, when closed,
its first edges again. A window of consecutive edges then reads a column
and the columns after it, so every pass is a whole-plane operation; the
columns that straddle two polygons are computed and dropped.

Their outputs are bit-equal to the unblocked formulas (``np.linalg.norm``,
``np.cross``, ``np.roll`` and ``np.einsum`` over the whole batch), which the
tests keep as references. For that the planes are summed in those
functions' order: a norm as sqrt((c0*c0 + c1*c1) + c2*c2), and a dot
product as einsum sums a length-3 axis, (p0 + p2) + p1 (p0 + p1 in 2D).
einsum's sum starts from +0, so a dot product whose terms are all zeros is
+0, never -0; ``_dot`` adds the +0 too, because atan2 tells the two apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import (DegenerateEdgeError, DegenerateTorsionError, DomainError,
                     InvalidDimensionError, InvalidSizeError)
from .polygons import Polygon, _check_segment_length

_EDGE_TINY = 1e-14
_PROJ_TINY = 1e-12
# Rows per block in the batch kernels: a block's temporaries fit in cache.
_BLOCK = 256


@dataclass(frozen=True)
class LocalFunctional:
    """A bounded functional of k consecutive edges.

    ``eval`` maps a batch of B windows, an array of shape (B, k, dim), to B
    reals with |value| <= bound_M, in one call; NaN marks a degenerate
    window. The bound is what enters the expectation-transfer inequalities.
    """

    k: int
    bound_M: float
    eval: Callable[[np.ndarray], np.ndarray]
    name: str = "local_functional"


def _eval_windows(f: LocalFunctional, windows: np.ndarray) -> np.ndarray:
    """f.eval on a (B, k, dim) window batch, checked to give B values."""
    values = np.asarray(f.eval(windows), dtype=float)
    if values.shape != windows.shape[:1]:
        raise DomainError(f"functional {f.name!r} returned shape {values.shape} for "
                          f"{len(windows)} windows; eval maps (B, k, dim) to (B,)")
    return values


def _planes(edges: np.ndarray, extra: int) -> np.ndarray:
    """The component planes (dim, B * m + 1) of an edge block (B, n, dim).

    Row r fills columns r * m to r * m + m - 1, m = n + extra: its edges, then
    its first ``extra`` edges again (wrapping as often as needed), so that its
    open-chain windows are the cyclic ones. The last column is zero, so that
    ``planes[:, :-1]`` (each column) and ``planes[:, 1:]`` (the column after
    it) are both (dim, B * m) and reshape to (dim, B, m).
    """
    count, n, dim = edges.shape
    planes = np.empty((dim, count * (n + extra) + 1))
    planes[:, -1] = 0.0
    rows = planes[:, :-1].reshape(dim, count, n + extra)
    rows[..., :n] = np.moveaxis(edges, -1, 0)
    rows[..., n:] = rows[..., np.arange(extra) % n]
    return planes


def _norms(planes: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of planes (dim, L): sqrt((c0*c0 +
    c1*c1) + c2*c2), which is np.linalg.norm's sum."""
    sq = np.square(planes[0])
    tmp = np.empty_like(sq)
    for c in planes[1:]:
        sq += np.square(c, out=tmp)
    return np.sqrt(sq, out=sq)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of the columns of planes (dim, L), summed as np.einsum
    sums a (B, m, dim) layout: (p0 + p2) + p1 in 3D, p0 + p1 in 2D, + 0.0."""
    dot = u[0] * v[0]
    tmp = np.empty_like(dot)
    for c in (2, 1) if len(u) == 3 else (1,):
        dot += np.multiply(u[c], v[c], out=tmp)
    dot += 0.0  # einsum's accumulator starts at +0: all -0 terms give +0
    return dot


def _batch_turning(edges: np.ndarray, closed: bool):
    """Angles and validity mask for an edge batch of shape (C, n, dim).

    Returns (angles, ok) with angles of shape (C, n) for closed input and
    (C, n-1) for open input; ok flags rows whose edges are all nondegenerate.
    """
    count, n = edges.shape[:2]
    width = n if closed else n - 1
    angles = np.empty((count, width))
    ok = np.empty(count, dtype=bool)
    for start in range(0, count, _BLOCK):
        rows = slice(start, start + _BLOCK)
        unit = _planes(edges[rows], int(closed))
        norms = _norms(unit[:, :-1])
        long = norms > _EDGE_TINY
        ok[rows] = long.reshape(-1, width + 1).all(axis=-1)
        if not ok[rows].all():
            norms[~long] = 1.0
        unit[:, :-1] /= norms
        # dots[i] = unit_i . unit_{i+1}; the last of each row is the next row's
        dots = _dot(unit[:, :-1], unit[:, 1:]).reshape(-1, width + 1)[:, :-1]
        np.arccos(np.clip(dots, -1.0, 1.0, out=dots), out=angles[rows])
    return angles, ok


def _batch_torsion(edges: np.ndarray, closed: bool):
    """Torsions and validity mask for a spatial edge batch (C, n, 3).

    Window i is (a, b, c) = (e_i, e_{i+1}, e_{i+2}); closed input wraps
    cyclically for n windows, open input yields the n-2 interior windows.
    A window is valid when |b| > _EDGE_TINY and |a x b|, |b x c| >
    _PROJ_TINY |b|: both neighbors project normal to b longer than _PROJ_TINY.
    """
    count, n = edges.shape[:2]
    width = n if closed else n - 2
    tau = np.empty((count, width))
    ok = np.empty(count, dtype=bool)
    for start in range(0, count, _BLOCK):
        rows = slice(start, start + _BLOCK)
        e = _planes(edges[rows], 2 if closed else 0)
        lo, hi = e[:, :-1], e[:, 1:]
        # cross[:, i] = e_i x e_{i+1}, np.cross's formula component by
        # component: a x b of window i and b x c of window i-1, so each norm
        # below is taken once
        cross = np.empty(e.shape)
        cross[:, -1] = 0.0
        tmp = np.empty(lo.shape[1:])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(lo[j], hi[k], out=cross[i, :-1])
            cross[i, :-1] -= np.multiply(lo[k], hi[j], out=tmp)
        # Window i reads b = e_{i+1} and b x c = cross_{i+1}, the columns
        # after a and a x b; each row's last two windows read the next row.
        nb = _norms(e)[1:]
        ncross = _norms(cross)
        floor = _PROJ_TINY * nb
        good = (nb > _EDGE_TINY) & (ncross[:-1] > floor) & (ncross[1:] > floor)
        ok[rows] = good.reshape(-1, width + 2)[:, :-2].all(axis=-1)
        y = _dot(lo, cross[:, 1:])
        y *= nb
        x = _dot(cross[:, :-1], cross[:, 1:])
        t = np.arctan2(y.reshape(-1, width + 2)[:, :-2],
                       x.reshape(-1, width + 2)[:, :-2], out=tau[rows])
        np.negative(t, out=t)
        t[t == -math.pi] = math.pi
    return tau, ok


def _unit_scaled(edges: np.ndarray) -> np.ndarray:
    """The edges times the power of two that puts the largest |coordinate|
    in [0.5, 1). The product is exact, so the angles keep their bits, and the
    kernels' absolute cut-offs act relative to the polygon's size."""
    return np.ldexp(edges, -math.frexp(float(np.abs(edges).max()))[1])


def turning_angles(p: Polygon) -> np.ndarray:
    """All turning angles of a polygon (n if closed, n-1 if open)."""
    angles, ok = _batch_turning(_unit_scaled(p.edges)[None], p.closed)
    if not ok[0]:
        raise DegenerateEdgeError("polygon has a near-zero edge")
    return angles[0]


def torsion_angles(p: Polygon) -> np.ndarray:
    """All torsion angles of a spatial polygon (n if closed, n-2 if open)."""
    if p.dim != 3:
        raise InvalidDimensionError("torsion is defined for spatial polygons")
    if (p.n if p.closed else p.n - 2) < 1:
        raise InvalidSizeError("polygon too short for a torsion angle")
    taus, ok = _batch_torsion(_unit_scaled(p.edges)[None], p.closed)
    if not ok[0]:
        raise DegenerateTorsionError("polygon has a degenerate torsion window")
    return taus[0]


def total_curvature(p: Polygon) -> float:
    """Sum of the turning angles."""
    return float(turning_angles(p).sum())


def total_torsion(p: Polygon) -> float:
    """Sum of the torsion angles."""
    return float(torsion_angles(p).sum())


def sliding_window_apply(p: Polygon, f: LocalFunctional) -> List[float]:
    """f on every k-edge window (cyclic when the polygon is closed), in one
    ``eval`` call; a window that comes back NaN raises DegenerateEdgeError."""
    _check_segment_length(p.n, f.k, f"window of functional {f.name!r}")
    edges = np.concatenate([p.edges, p.edges[:f.k - 1 if p.closed else 0]])
    # the view puts the window axis last: (B, dim, k) -> (B, k, dim)
    windows = np.lib.stride_tricks.sliding_window_view(edges, f.k, axis=0)
    values = _eval_windows(f, np.swapaxes(windows, 1, 2))
    if np.isnan(values).any():
        raise DegenerateEdgeError(f"functional {f.name!r} is NaN on a window")
    return values.tolist()

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
measures, so an occurrence signals a caller bug.

The batch kernels take a batch in blocks of ``_BLOCK`` rows, so that each
pass (norms, cross products, dot products) reads a block that fits in
cache, and they compute each norm once. Their outputs are bit-equal to the
unblocked formulas (``np.linalg.norm``, ``np.cross``, ``np.roll`` and
``np.einsum`` over the whole batch), which the tests keep as references.
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


def _cyclic(edges: np.ndarray, extra: int) -> np.ndarray:
    """A closed edge block with its first ``extra`` edges appended (wrapping
    as often as needed), so that its open-chain windows are the cyclic ones."""
    return np.pad(edges, ((0, 0), (0, extra), (0, 0)), mode="wrap")


def _components(v: np.ndarray) -> np.ndarray:
    """A component-major copy (dim, B, m) of a vector block (B, m, dim).

    ``np.linalg.norm(_components(v), axis=0)`` equals
    ``np.linalg.norm(v, axis=-1)`` bit for bit (both add the squared
    components in order), but adds whole component planes instead of making
    one short reduction per vector, which is several times faster.
    """
    return np.ascontiguousarray(np.moveaxis(v, -1, 0))


def _batch_turning(edges: np.ndarray, closed: bool):
    """Angles and validity mask for an edge batch of shape (C, n, dim).

    Returns (angles, ok) with angles of shape (C, n) for closed input and
    (C, n-1) for open input; ok flags rows whose edges are all nondegenerate.
    """
    count, n = edges.shape[:2]
    angles = np.empty((count, n if closed else n - 1))
    ok = np.empty(count, dtype=bool)
    for start in range(0, count, _BLOCK):
        rows = slice(start, start + _BLOCK)
        e = _cyclic(edges[rows], 1) if closed else edges[rows]
        norms = np.linalg.norm(_components(e), axis=0)
        long = norms > _EDGE_TINY
        ok[rows] = long.all(axis=-1)
        if not ok[rows].all():
            norms[~long] = 1.0
        unit = e / norms[..., None]
        dots = np.einsum("cij,cij->ci", unit[:, :-1], unit[:, 1:])
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
    tau = np.empty((count, n if closed else n - 2))
    ok = np.empty(count, dtype=bool)
    for start in range(0, count, _BLOCK):
        rows = slice(start, start + _BLOCK)
        e = _cyclic(edges[rows], 2) if closed else edges[rows]
        comp = _components(e)
        lo, hi = comp[..., :-1], comp[..., 1:]
        # cross[:, :, i] = e_i x e_{i+1}, np.cross's formula component by
        # component: a x b of window i and b x c of window i-1, so each norm
        # below is taken once
        cross = np.empty(lo.shape)
        tmp = np.empty(lo.shape[1:])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(lo[j], hi[k], out=cross[i])
            cross[i] -= np.multiply(lo[k], hi[j], out=tmp)
        nb = np.linalg.norm(comp[..., 1:-1], axis=0)
        ncross = np.linalg.norm(cross, axis=0)
        floor = _PROJ_TINY * nb
        ok[rows] = (np.all(nb > _EDGE_TINY, axis=-1)
                    & np.all(ncross[:, :-1] > floor, axis=-1)
                    & np.all(ncross[:, 1:] > floor, axis=-1))
        # einsum adds the three products of a (B, m, 3) block as it does on a
        # whole batch; on the component-major layout its sums can differ in
        # the last bit
        cross3 = np.ascontiguousarray(np.moveaxis(cross, 0, -1))
        a, ab, bc = e[:, :-2], cross3[:, :-1], cross3[:, 1:]
        y = nb * np.einsum("cij,cij->ci", a, bc)
        t = np.arctan2(y, np.einsum("cij,cij->ci", ab, bc), out=tau[rows])
        np.negative(t, out=t)
        t[t == -math.pi] = math.pi
    return tau, ok


def turning_angles(p: Polygon) -> np.ndarray:
    """All turning angles of a polygon (n if closed, n-1 if open)."""
    angles, ok = _batch_turning(p.edges[None], p.closed)
    if not ok[0]:
        raise DegenerateEdgeError("polygon has a near-zero edge")
    return angles[0]


def torsion_angles(p: Polygon) -> np.ndarray:
    """All torsion angles of a spatial polygon (n if closed, n-2 if open)."""
    if p.dim != 3:
        raise InvalidDimensionError("torsion is defined for spatial polygons")
    if (p.n if p.closed else p.n - 2) < 1:
        raise InvalidSizeError("polygon too short for a torsion angle")
    taus, ok = _batch_torsion(p.edges[None], p.closed)
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
    edges = _cyclic(p.edges[None], f.k - 1)[0] if p.closed else p.edges
    # the view puts the window axis last: (B, dim, k) -> (B, k, dim)
    windows = np.lib.stride_tricks.sliding_window_view(edges, f.k, axis=0)
    values = _eval_windows(f, np.swapaxes(windows, 1, 2))
    if np.isnan(values).any():
        raise DegenerateEdgeError(f"functional {f.name!r} is NaN on a window")
    return values.tolist()

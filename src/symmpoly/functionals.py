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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import (DegenerateEdgeError, DegenerateTorsionError,
                     InvalidDimensionError, InvalidSizeError)
from .polygons import Polygon

_EDGE_TINY = 1e-14
_PROJ_TINY = 1e-12


@dataclass(frozen=True)
class LocalFunctional:
    """A bounded functional of k consecutive edges.

    ``eval`` maps a (k, dim) window array to a real with |value| <= bound_M;
    the bound is what enters the expectation-transfer inequalities.
    """

    k: int
    bound_M: float
    eval: Callable[[np.ndarray], float]
    name: str = "local_functional"


def turning_angle(u, v) -> float:
    """Unsigned angle in [0, pi] between two edge vectors (``_batch_turning``
    on the open window (u, v))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.shape != v.shape:
        # a near-zero edge is reported ahead of the shape mismatch
        if min(np.linalg.norm(u), np.linalg.norm(v)) <= _EDGE_TINY:
            raise DegenerateEdgeError("turning angle of a near-zero edge")
        raise ValueError(f"expected two edge vectors of one length, "
                         f"got shapes {u.shape} and {v.shape}")
    angles, ok = _batch_turning(np.stack([u, v])[None], closed=False)
    if not ok[0]:
        raise DegenerateEdgeError("turning angle of a near-zero edge")
    return float(angles[0, 0])


def torsion_angle(a, b, c) -> float:
    """Signed torsion angle in (-pi, pi] at the middle edge b
    (``_batch_torsion`` on the open window (a, b, c))."""
    edges = [np.asarray(e, dtype=float) for e in (a, b, c)]
    if any(e.shape != (3,) for e in edges):
        raise InvalidDimensionError("torsion is defined for 3-vectors")
    taus, ok = _batch_torsion(np.stack(edges)[None], closed=False)
    if not ok[0]:
        if not np.linalg.norm(edges[1]) > _EDGE_TINY:
            raise DegenerateEdgeError("torsion about a near-zero edge")
        raise DegenerateTorsionError("neighbor edge parallel to the torsion axis")
    return float(taus[0, 0])


def _batch_turning(edges: np.ndarray, closed: bool):
    """Angles and validity mask for an edge batch of shape (C, n, dim).

    Returns (angles, ok) with angles of shape (C, n) for closed input and
    (C, n-1) for open input; ok flags rows whose edges are all nondegenerate.
    """
    norms = np.linalg.norm(edges, axis=-1)
    ok = np.all(norms > _EDGE_TINY, axis=-1)
    unit = edges / np.where(norms > _EDGE_TINY, norms, 1.0)[..., None]
    if closed:
        nxt = np.roll(unit, -1, axis=1)
        dots = np.einsum("cij,cij->ci", unit, nxt)
    else:
        dots = np.einsum("cij,cij->ci", unit[:, :-1], unit[:, 1:])
    return np.arccos(np.clip(dots, -1.0, 1.0)), ok


def _batch_torsion(edges: np.ndarray, closed: bool):
    """Torsions and validity mask for a spatial edge batch (C, n, 3).

    Window i is (a, b, c) = (e_i, e_{i+1}, e_{i+2}); closed input wraps
    cyclically for n windows, open input yields the n-2 interior windows.
    A window is valid when |b| > _EDGE_TINY and |a x b|, |b x c| >
    _PROJ_TINY |b|: both neighbors project normal to b longer than _PROJ_TINY.
    """
    if closed:
        b = np.roll(edges, -1, axis=1)
        ab = np.cross(edges, b)
        a, bc = edges, np.roll(ab, -1, axis=1)
    else:
        cross = np.cross(edges[:, :-1], edges[:, 1:])
        a, b, ab, bc = edges[:, :-2], edges[:, 1:-1], cross[:, :-1], cross[:, 1:]
    nb = np.linalg.norm(b, axis=-1)
    ok = np.all(nb > _EDGE_TINY, axis=-1)
    ok &= np.all(np.linalg.norm(ab, axis=-1) > _PROJ_TINY * nb, axis=-1)
    ok &= np.all(np.linalg.norm(bc, axis=-1) > _PROJ_TINY * nb, axis=-1)
    tau = -np.arctan2(nb * np.einsum("cij,cij->ci", a, bc),
                      np.einsum("cij,cij->ci", ab, bc))
    tau[tau == -math.pi] = math.pi
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
    """Evaluate f on every k-edge window (cyclic when the polygon is closed)."""
    k = f.k
    if not 1 <= k <= p.n:
        raise InvalidSizeError(f"window width {k} out of range for n={p.n}")
    edges = p.edges
    if p.closed:
        ext = np.concatenate([edges, edges[: k - 1]], axis=0) if k > 1 else edges
        return [float(f.eval(ext[i:i + k])) for i in range(p.n)]
    return [float(f.eval(edges[i:i + k])) for i in range(p.n - k + 1)]

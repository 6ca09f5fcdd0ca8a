"""Seeded Haar sampling: spheres, Stiefel 2-frames, and unitary matrices.

All samplers draw from a ``SeedStream`` (or an existing numpy Generator).
Streams are value-like: the same (seed, stream_id) reproduces the same
draws, and distinct stream_ids are statistically independent, so parallel
workers can each own a stream without coordination.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidDimensionError

# Norm thresholds below which a Gaussian draw is rejected and redrawn.
# Degenerate draws have probability zero; resampling keeps samplers total.
_SPHERE_TINY = 1e-300
_RESIDUAL_TINY = 1e-12

_MAX_U64 = 2**64


@dataclass(frozen=True)
class SeedStream:
    """A named position in the global seeded randomness.

    Parameters
    ----------
    seed : int
        Master seed (64-bit).
    stream_id : int
        Substream selector; distinct ids give independent streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v < _MAX_U64:
                raise InvalidDimensionError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Counter-based generator for this stream."""
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        """Generator for one work chunk of this stream.

        Chunks are independent of each other and of the base stream, so a
        chunked computation gives identical results for any worker count.
        """
        if chunk < 0:
            raise InvalidDimensionError(f"chunk must be nonnegative, got {chunk}")
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, chunk))))


StreamLike = Union[SeedStream, np.random.Generator]


def ensure_generator(s: StreamLike) -> np.random.Generator:
    """Accept a SeedStream or a live Generator and return a Generator."""
    if isinstance(s, np.random.Generator):
        return s
    if isinstance(s, SeedStream):
        return s.generator()
    raise TypeError(f"expected SeedStream or numpy Generator, got {type(s).__name__}")


@dataclass(frozen=True)
class Frame2:
    """Two orthonormal columns of a Haar orthogonal/unitary matrix.

    ``col_a`` and ``col_b`` are unit n-vectors (real or complex according
    to ``scalar_kind``) with vanishing inner product.
    """

    n: int
    scalar_kind: str  # "real" | "complex"
    col_a: np.ndarray
    col_b: np.ndarray


def sample_sphere(m: int, radius: float, s: StreamLike) -> np.ndarray:
    """Uniform point on the sphere of the given radius in R^m.

    Realized by normalizing a standard Gaussian m-vector; the Gaussian law
    is rotation invariant, so the result carries the uniform surface
    measure.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidDimensionError(f"sphere dimension m must be >= 1, got {m}")
    if not radius > 0:
        raise InvalidDimensionError(f"sphere radius must be positive, got {radius}")
    rng = ensure_generator(s)
    return radius * _unit_rows(rng, 1, m, _SPHERE_TINY)[0]


def sample_frame2(n: int, kind: str, s: StreamLike) -> Frame2:
    """Uniform orthonormal 2-frame in R^n or C^n.

    Gram-Schmidt on two independent Gaussian vectors; equal in law to the
    first two columns of a Haar orthogonal (real) or unitary (complex)
    matrix, at O(n) cost per sample.

    Parameters
    ----------
    n : int
        Ambient dimension, at least 2.
    kind : str
        "real" or "complex".
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidDimensionError(f"frame dimension n must be >= 2, got {n}")
    rng = ensure_generator(s)
    pair = _frame2_batch(rng, 1, n, _validated_kind(kind))[0]
    return Frame2(n=int(n), scalar_kind=kind, col_a=pair[0], col_b=pair[1])


def sample_haar_unitary(n: int, s: StreamLike) -> np.ndarray:
    """Haar-distributed n x n unitary matrix.

    QR factorization of a complex Gaussian matrix with the diagonal of R
    rotated to positive reals, the standard correction that makes the
    factor Haar.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidDimensionError(f"unitary dimension n must be >= 1, got {n}")
    rng = ensure_generator(s)
    return _haar_unitary_batch(rng, 1, n)[0]


# ---------------------------------------------------------------------------
# Batch internals shared with the ensemble engine. All take an explicit
# Generator and consume a draw count that depends only on (count, n) except
# for probability-zero redraws, which stay inside the same generator.

def _validated_kind(kind: str) -> str:
    if kind not in ("real", "complex"):
        raise InvalidDimensionError(f"frame kind must be 'real' or 'complex', got {kind!r}")
    return kind


def _gaussian_rows(rng: np.random.Generator, count: int, m: int, kind: str = "real") -> np.ndarray:
    if kind == "real":
        return rng.standard_normal((count, m))
    g = rng.standard_normal((count, 2, m))
    return g[:, 0] + 1j * g[:, 1]


def _chi2(rng: np.random.Generator, dof: float, count: int) -> np.ndarray:
    """Chi-square variates with ``dof`` degrees of freedom (0 gives 0)."""
    return 2.0 * rng.standard_gamma(dof / 2.0, count)


def _tail_factor(rng: np.random.Generator, count: int, m: int, kind: str):
    """Stand-ins for the last m coordinates of two Gaussian vectors.

    Gram-Schmidt sees those coordinates only through their 2x2 Gram matrix
    W, which is Wishart. Bartlett's decomposition draws its triangular
    factor R = [[c1, z], [0, c2]] (W = R^* R) directly: c1^2 and c2^2 are
    chi-square with f*m and f*(m-1) degrees of freedom and z is one Gaussian
    scalar (f = 1 real; f = 2 complex, Goodman's form). The two columns of
    R, shape (count, 2) each, have the inner products of the two tails.
    """
    f = 2 if kind == "complex" else 1
    c1 = np.sqrt(_chi2(rng, f * m, count))
    c2 = np.sqrt(_chi2(rng, f * (m - 1), count))
    z = _gaussian_rows(rng, count, 1, kind)[:, 0]
    return np.stack([c1, np.zeros(count)], axis=1), np.stack([z, c2], axis=1)


def _unit_rows(rng: np.random.Generator, count: int, m: int, tiny: float = _RESIDUAL_TINY,
               kind: str = "real", head: Optional[int] = None) -> np.ndarray:
    """Leading ``head`` coordinates (default all m) of uniform unit m-vectors.

    With head < m the other m - head coordinates are never drawn: the
    normalisation sees them only through their norm, one chi-square draw
    per row, so the cost is O(head).
    """
    head = m if head is None else head

    def draw(c):
        g = _gaussian_rows(rng, c, head, kind)
        if head < m:
            f = 2 if kind == "complex" else 1
            tail = np.sqrt(_chi2(rng, f * (m - head), c))
            g = np.concatenate([g, tail[:, None]], axis=1)
        return g

    g = draw(count)
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < tiny):
        bad = norms < tiny
        g[bad] = draw(int(bad.sum()))
        norms[bad] = np.linalg.norm(g[bad], axis=1)
    return g[:, :head] / norms[:, None]


def _frame2_batch(rng: np.random.Generator, count: int, n: int, kind: str,
                  head: Optional[int] = None) -> np.ndarray:
    """Leading ``head`` rows (default all n) of orthonormal pairs, shape
    (count, 2, head).

    With head < n the last n - head coordinates of the two Gaussian vectors
    are replaced by the two columns of ``_tail_factor``, which have the same
    inner products, so Gram-Schmidt gives the head exactly in law at O(head)
    cost.
    """
    head = n if head is None else head
    out = np.empty((count, 2, head), dtype=complex if kind == "complex" else float)
    todo = np.arange(count)
    while todo.size:
        g1 = _gaussian_rows(rng, todo.size, head, kind)
        g2 = _gaussian_rows(rng, todo.size, head, kind)
        if head < n:
            t1, t2 = _tail_factor(rng, todo.size, n - head, kind)
            g1 = np.concatenate([g1, t1], axis=1)
            g2 = np.concatenate([g2, t2], axis=1)
        n1 = np.linalg.norm(g1, axis=1)
        ok1 = n1 >= _RESIDUAL_TINY
        a = np.where(ok1[:, None], g1, 1.0) / np.where(ok1, n1, 1.0)[:, None]
        ip = np.einsum("ij,ij->i", a.conj(), g2)
        resid = g2 - ip[:, None] * a
        n2 = np.linalg.norm(resid, axis=1)
        ok = ok1 & (n2 >= _RESIDUAL_TINY)
        b = np.where(ok[:, None], resid, 1.0) / np.where(ok, n2, 1.0)[:, None]
        out[todo[ok], 0] = a[ok, :head]
        out[todo[ok], 1] = b[ok, :head]
        todo = todo[~ok]
    return out


def _haar_unitary_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]

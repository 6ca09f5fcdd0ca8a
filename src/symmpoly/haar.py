"""Seeded randomness and the Haar draws behind the polygon samplers.

``SeedStream`` names a position in the seeded randomness. Streams are
value-like: the same (seed, stream_id) reproduces the same draws, and
distinct stream_ids are statistically independent, so parallel workers can
each own a stream without coordination. Every generator is SFC64, seeded by
a ``SeedSequence`` whose spawn key names the stream (and the chunk).

The batch internal ``_frame_blocks`` draws the heads of Haar frames from
an explicit Generator for its one caller, ``polygons.space_edges_batch``:
real or complex orthonormal 2-frames behind the pol spaces, and real
1-frames, uniform unit vectors, behind the arm spaces. Every frame, whole
or a head of its leading coordinates, is orthonormalised on its real
coordinates, and the rest of each Gaussian vector enters as the per-row
Gram terms of a Bartlett factor, so a head costs O(head) whatever n; a
whole frame's factor is empty and draws nothing. It runs the whole
draw-and-redraw loop itself: it makes its random draws for all rows at
once, as an unblocked sampler would, then normalises and orthonormalises
them in blocks of about ``_BLOCK_COORDS`` coordinates, so that the
temporaries stay in cache. Every row's arithmetic is the same whatever
the block, so the bits do not depend on the block size. A row whose
Gaussian vector or residual is shorter than ``_RESIDUAL_TINY`` is
rejected and redrawn after the first pass, with masks only in the blocks
that hold such a row; almost surely every row is accepted on the first
pass. ``_haar_unitary_batch`` draws whole Haar unitaries; no sampler uses
it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import InvalidDimensionError, _check_int

# Norm below which a Gaussian vector, or its residual after Gram-Schmidt, is
# rejected and its row redrawn. Degenerate draws have probability zero;
# resampling keeps the samplers total.
_RESIDUAL_TINY = 1e-12

# Real coordinates per row block of the frame arithmetic: 163 rows of a
# 100-edge spatial draw (4 coordinates per edge), 327 of a planar one (2 per
# edge). Of the sizes from 12 800 to 327 680 timed on full
# 4096-sample chunks at n = 100 (2 cores), 2**16 was the fastest. A
# 4096-sample head draw of up to 4 spatial or 8 planar edges is one block.
_BLOCK_COORDS = 2 ** 16

_MAX_U64 = 2**64 - 1


@dataclass(frozen=True)
class SeedStream:
    """A named position in the global seeded randomness.

    Parameters
    ----------
    seed : int
        Master seed (64-bit unsigned).
    stream_id : int
        Substream selector (64-bit unsigned); distinct ids give independent
        streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _check_int(
                name, getattr(self, name), 0, _MAX_U64, error=InvalidDimensionError))

    def generator(self) -> np.random.Generator:
        """SFC64 generator for this stream, seeded by
        ``SeedSequence(seed, spawn_key=(stream_id,))``."""
        return np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        """Generator for one work chunk of this stream.

        Chunks are independent of each other and of the base stream, so a
        chunked computation gives identical results for any worker count.
        """
        chunk = _check_int("chunk", chunk, 0, error=InvalidDimensionError)
        return np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, chunk))))


StreamLike = Union[SeedStream, np.random.Generator]


def ensure_generator(s: StreamLike) -> np.random.Generator:
    """Accept a SeedStream or a live Generator and return a Generator."""
    if isinstance(s, np.random.Generator):
        return s
    if isinstance(s, SeedStream):
        return s.generator()
    raise TypeError(f"expected SeedStream or numpy Generator, got {type(s).__name__}")


# ---------------------------------------------------------------------------
# Batch internals shared with the ensemble engine. All take an explicit
# Generator and consume a draw count that depends only on (count, n) except
# for probability-zero redraws, which stay inside the same generator.

def _normals(rng: np.random.Generator, count: int, m: int, kind: str) -> np.ndarray:
    """The raw Gaussian draw behind ``count`` rows of m real or complex
    coordinates: shape (count, m), or (count, 2, m) of real and imaginary
    parts."""
    return rng.standard_normal((count, m) if kind == "real" else (count, 2, m))


def _chi2(rng: np.random.Generator, dof: float, count: int) -> np.ndarray:
    """Chi-square variates with ``dof`` degrees of freedom (0 gives 0)."""
    return 2.0 * rng.standard_gamma(dof / 2.0, count)


def _tail_factor(rng: np.random.Generator, count: int, m: int, kind: str,
                 vectors: int):
    """The Bartlett factor that stands in for the last m coordinates of
    ``vectors`` (1 or 2) Gaussian vectors: (c1,) or (c1, z, c2), one entry
    per row.

    Gram-Schmidt sees those coordinates only through their Gram matrix W,
    which is Wishart. Bartlett's decomposition draws its triangular factor
    R = [[c1, z], [0, c2]] (W = R^* R) directly: c1^2 and c2^2 are
    chi-square with f*m and f*(m-1) degrees of freedom and z is one Gaussian
    scalar (f = 1 real; f = 2 complex, Goodman's form), drawn as a
    ``_normals`` row. ``_head_rows`` reads the entries as per-row Gram
    terms; no column of R, and no zero in it, is stored. One vector's tail
    is its norm c1 alone, the sphere's chi-square tail. With m = 0 there is
    no tail: every entry is zero, and nothing is drawn.
    """
    f = 2 if kind == "complex" else 1
    if m == 0:
        zero = np.zeros(count)
        return (zero,) if vectors == 1 else (zero, np.zeros((count, f)), zero)
    c1 = np.sqrt(_chi2(rng, f * m, count))
    if vectors == 1:
        return (c1,)
    c2 = np.sqrt(_chi2(rng, f * (m - 1), count))
    return c1, _normals(rng, count, 1, kind), c2


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row sums of x * y over every coordinate of a row. Each row is
    summed the same way whatever the number of rows."""
    return np.einsum("ij,ij->i", x.reshape(len(x), -1), y.reshape(len(y), -1))


def _frame_blocks(rng: np.random.Generator, count: int, n: int, kind: str,
                  head: int, vectors: int) -> Iterator:
    """Leading ``head`` coordinates of ``count`` orthonormal ``vectors``-frames
    in R^n or C^n (``kind``), block by block: yields (output rows, values),
    values each vector's real coordinates (rows, head) in turn, real and
    imaginary parts apart in C^n. A 1-frame is a uniform unit vector.

    The last n - head coordinates of the Gaussian vectors are replaced by
    ``_tail_factor``, which has the same inner products, so Gram-Schmidt
    (``_head_rows``) gives the head exactly in law at O(head) cost. At
    head = n the factor is empty, and a whole frame is Gram-Schmidt on its
    own coordinates.

    The first pass draws all ``count`` rows and yields them in blocks of
    about ``_BLOCK_COORDS`` real coordinates, rejected rows included; each
    redraw pass draws the rows still rejected, in one block, and yields
    every accepted one as a one-row slice, which writes over its rejected
    value. The draws are those of one whole-count pass followed by the
    redraws, whatever the block size.
    """

    def draw(c):
        gs = [_normals(rng, c, head, kind) for _ in range(vectors)]
        return gs, _tail_factor(rng, c, n - head, kind, vectors)

    draws = draw(count)
    step = max(1, _BLOCK_COORDS // ((2 if kind == "complex" else 1) * vectors * head))
    todo = []
    for start in range(0, count, step):
        sl = slice(start, min(start + step, count))
        values, ok = _head_rows(draws, sl, kind)
        yield sl, values
        todo.extend(start + np.flatnonzero(~ok))
    todo = np.array(todo, dtype=np.intp)
    while todo.size:
        values, ok = _head_rows(draw(todo.size), slice(None), kind)
        for j in np.flatnonzero(ok):
            yield slice(todo[j], todo[j] + 1), tuple(v[j:j + 1] for v in values)
        todo = todo[~ok]


def _head_rows(draws, sl, kind):
    """Gram-Schmidt on rows ``sl`` of head Gaussian vectors (whole ones at
    head = n) and their Bartlett tails, for ``_frame_blocks``: (values, ok)
    over those rows.

    The head is read as real coordinates (rows, f, head), and every inner
    product is a sum over them plus the tail's per-row Gram terms: c1^2 in
    |v1|^2, c1 z in v1^* v2, and for the tail of v2's residual
    |z - p c1|^2 + c2^2, p = v1^* v2 / |v1|^2. That last term equals
    |z|^2 + c2^2 - |v1^* v2|^2 / |v1|^2, but loses no digits when v2 is
    nearly parallel to v1. A rejected row divides by 1 instead.
    """
    gs, tails = draws
    c1 = tails[0][sl]
    g = [x[sl].reshape(len(c1), -1, x.shape[-1]) for x in gs]  # (rows, f, head)
    g1 = g[0]
    s1 = _dot(g1, g1) + c1 * c1
    ok = s1 >= _RESIDUAL_TINY ** 2
    if not ok.all():
        s1 = np.where(ok, s1, 1.0)
    frame = [g1 / np.sqrt(s1)[:, None, None]]
    if len(g) == 2:
        g2, z, c2 = g[1], tails[1][sl].reshape(len(c1), -1).T, tails[2][sl]
        # p and r = v2 - p v1, p's real and imaginary parts apart
        p = [(_dot(g1, g2) + c1 * z[0]) / s1]
        r = g2 - p[0][:, None, None] * g1
        if kind == "complex":
            p.append((_dot(g1[:, 0], g2[:, 1]) - _dot(g1[:, 1], g2[:, 0]) + c1 * z[1]) / s1)
            r[:, 0] += p[1][:, None] * g1[:, 1]
            r[:, 1] -= p[1][:, None] * g1[:, 0]
        s2 = _dot(r, r) + c2 * c2
        for zf, pf in zip(z, p):
            s2 += np.square(zf - pf * c1)
        ok &= s2 >= _RESIDUAL_TINY ** 2
        if not ok.all():
            s2 = np.where(ok, s2, 1.0)
        frame.append(r / np.sqrt(s2)[:, None, None])
    return tuple(x[:, f] for x in frame for f in range(x.shape[1])), ok


def _haar_unitary_batch(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]

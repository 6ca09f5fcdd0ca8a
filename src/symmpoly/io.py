"""JSONL persistence for polygons and CSV helpers for summaries.

One polygon per line: {"dim": d, "closed": bool, "edges": [[...], ...]}.
Coordinates are written as "%.17g" writes them: 17 significant digits,
which round-trip an IEEE-754 double exactly, so write followed by read is
the identity. A non-finite coordinate is refused with DomainError, since
JSON has no NaN or infinity.

Records are built by one byte formatter (``_record_block``), which
``write_ensemble`` and ``polygon_record_line`` both call: it fills a block
of same-shape polygons' records as ASCII bytes in numpy. A coordinate with
1e-4 <= |x| < 1 prints as a sign-and-zeros prefix ("-0.00") and its 17
significant digits, trailing zeros stripped. One with 1e-6 <= |x| < 1e-4
prints in "%.17g"'s exponent form: the first digit, "." and the other 16
with trailing zeros stripped (no "." if none is left), then "e-05" or
"e-06". The digits are the integer nearest the exact product
|x| * 10**(16 - e), as a double-double from Dekker's split, rounded half to
even. Every other value (zero, |x| < 1e-6 or |x| >= 1, and a product that
misses [1e16, 1e17)) goes through "%.17g" itself: at seed 3, 0.28% of the
coordinates of 1000 arm2 polygons of n = 1000 (13.1% without the exponent
form), and 0.04% of pol2, 0.01% of arm3 and 0.01% of pol3 for 1000
polygons of n = 100. The identity with "%.17g" assumes Python's correctly
rounded float formatting (``sys.float_repr_style == "short"``).

CSV files use a header row, repr-formatted floats, and "\n" line endings,
so a fixed-seed run produces byte-identical files on every platform.
"""
from __future__ import annotations

import csv
import itertools
import json
from typing import IO, Iterable, List, Sequence, Union

import numpy as np

from .errors import DomainError, ParseError
from .polygons import Polygon

PathOrFile = Union[str, IO[str]]

_WRITE_BATCH = 64

# _record_block writes a block's records as a (count, 2 + n * dim, 32)
# uint8 array and drops its NUL bytes: per record, two cells for its head,
# then one cell per coordinate. A coordinate's cell holds the text before
# its last 16 digits, right-aligned in bytes 0-7; those digits, trailing
# zeros as NUL, in bytes 8-23; its exponent, or NUL, in bytes 24-27; and
# the separator after it in bytes 28-31. _DIGITS[g] is "%04d" % g as one
# uint32, and _DIGITS[10000 + g] the same with its trailing zeros as NUL.
_t = np.arange(10_000, dtype=np.uint16)[:, None]
_tens = np.array([10_000, 1000, 100, 10, 1], dtype=np.uint16)
_DIGITS = (_t // _tens[1:] % 10 + 48).astype(np.uint8)
_DIGITS = np.concatenate([_DIGITS, _DIGITS * (_t % _tens[:-1] > 0)]).view(np.uint32).ravel()
# _PREFIXES[10 * kind + lead]: kinds 0-7 are the fixed form, sign * 4 +
# leading zeros ("-0.00" then the lead digit); 8-11 the exponent form,
# 8 + sign + 2 * (no digit after the lead) ("-" then the lead, and "."
# unless it ends the digits).
_PREFIXES = np.array([("-" * (k // 4) + "0." + "0" * (k % 4) + str(d) if k < 8 else
                       "-" * (k % 2) + str(d) + "." * (k < 10)).rjust(8, "\0")
                      for k in range(12) for d in range(10)], dtype="S8").view(np.uint64)
# _ENDS[3 * exponent + separator]: no exponent, "e-06" or "e-05", then ", "
# within an edge, "], [" between edges or "]]}\n" after the last.
_ENDS = np.array([e + s for e in (b"\0\0\0\0", b"e-06", b"e-05")
                  for s in (b", \0\0", b"], [", b"]]}\n")], dtype="S8").view(np.uint64)


def _two_product(a: np.ndarray, b: np.ndarray):
    """(hi, lo) with hi = fl(a * b) and hi + lo = a * b exactly (Dekker)."""
    def split(x):
        c = x * 134217729.0  # 2**27 + 1
        high = c - (c - x)
        return high, x - high

    hi = a * b
    a1, a2 = split(a)
    b1, b2 = split(b)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    return hi, lo


def _record_block(dim: int, closed: bool, edges: np.ndarray, first: int) -> bytes:
    """The records of a block of same-shape polygons, ``edges`` of shape
    (count, n, dim), as ASCII lines each ending in a newline; ``first``
    numbers the block's first record in errors."""
    count = edges.shape[0]
    x = edges.reshape(count, -1)
    m = x.shape[1]
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DomainError(f"record {first + bad}: edge coordinates must be "
                          f"finite numbers, JSON has no NaN or infinity")
    mag = np.abs(x)
    near = (mag >= 1e-6) & (mag < 1.0)
    a = np.where(near, mag, 0.5)
    # 17 significant digits of a in [10**e, 10**(e + 1)) are the integer
    # nearest a * 10**(16 - e), found exactly from its double-double. A
    # misjudged e fails the range check on the exact product.
    e = np.clip(np.floor(np.log10(a)), -6, -1).astype(np.intp)
    hi, lo = _two_product(a, np.array([1e22, 1e21, 1e20, 1e19, 1e18, 1e17])[e + 6])
    # hi >= 1e16 > 2**53 is an even integer, so rounding lo half to even
    # rounds hi + lo half to even.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok = near & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (digits < 10 ** 17)
    digits = np.where(ok, digits, 10 ** 16)
    # The lead digit, then the other 16 as two halves of 8 and four groups of
    # 4, written from the right so that trailing zeros are written as NUL.
    top = digits // 10 ** 8
    lead = top // 10 ** 8
    halves = [(digits - top * 10 ** 8).astype(np.int32),
              (top - lead * 10 ** 8).astype(np.int32)]
    cells = np.empty((count, m + 2, 32), dtype=np.uint8)
    words = cells[:, 2:].view(np.uint32)
    trailing = True
    for i, half in enumerate(halves):
        high = half // 10 ** 4
        for word, group in ((5 - 2 * i, half - high * 10 ** 4), (4 - 2 * i, high)):
            words[..., word] = _DIGITS[group + 10_000 * trailing]
            trailing &= group == 0
    sign = np.signbit(x)
    exponent = ok & (e < -4)
    kind = np.where(exponent, 8 + sign + 2 * trailing, sign * 4 - 1 - e)
    longs = cells[:, 2:].view(np.uint64)
    longs[..., 0] = _PREFIXES[kind * 10 + lead]
    position = np.arange(1, m + 1)
    longs[..., 3] = _ENDS[np.where(exponent, e + 7, 0) * 3
                          + np.where(position % dim, 0, 1) + (position == m)]
    # The "%.17g" text of the other values, at most 24 characters, goes over
    # bytes 0-23 of their cells; their exponent bytes are NUL.
    where = np.flatnonzero(~ok)
    rows, cols = np.divmod(where, m)
    cells[rows, cols + 2, :24] = np.array(["%.17g" % v for v in x.ravel()[where].tolist()],
                                          dtype="S24").reshape(-1, 1).view(np.uint8)
    head = '{"dim": %d, "closed": %s, "edges": [[' % (dim, "true" if closed else "false")
    cells[:, :2] = np.frombuffer(head.encode().ljust(64, b"\0"), dtype=np.uint8).reshape(2, 32)
    return cells.tobytes().translate(None, b"\0")


def polygon_record_line(p: Polygon) -> str:
    """The single-line JSON record for one polygon (no trailing newline)."""
    return _record_block(int(p.dim), bool(p.closed), p.edges[None], 1)[:-1].decode()


def _parse_record(obj, lineno: int) -> Polygon:
    if not isinstance(obj, dict):
        raise ParseError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
    for key in ("dim", "closed", "edges"):
        if key not in obj:
            raise ParseError(f"line {lineno}: missing field {key!r}")
    dim = obj["dim"]
    if type(dim) is not int or dim not in (2, 3):
        raise ParseError(f"line {lineno}: dim must be 2 or 3, got {dim!r}")
    closed = obj["closed"]
    if not isinstance(closed, bool):
        raise ParseError(f"line {lineno}: closed must be a boolean, got {closed!r}")
    edges = obj["edges"]
    if (not isinstance(edges, list) or not edges
            or not all(isinstance(e, list) and len(e) == dim and
                       all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in e)
                       for e in edges)):
        raise ParseError(f"line {lineno}: edges must be a nonempty list of "
                         f"length-{dim} coordinate rows")
    # Python's json reads NaN, Infinity and -Infinity, which JSON does not
    # have, and 1e999 as inf; an integer too large for a double overflows.
    try:
        coords = np.asarray(edges, dtype=float)
        finite = bool(np.isfinite(coords).all())
    except OverflowError:
        finite = False
    if not finite:
        raise ParseError(f"line {lineno}: edge coordinates must be finite numbers")
    return Polygon(dim=dim, closed=closed, edges=coords)


def _parse_int(text: str) -> Union[int, float]:
    # The template writes -0.0 as "-0", which json would read as the int 0.
    return -0.0 if text == "-0" else int(text)


def read_ensemble(path: PathOrFile) -> List[Polygon]:
    """Parse a JSONL polygon file; malformed input names the offending line."""
    if isinstance(path, str):
        with open(path, "r", encoding="utf-8") as handle:
            return read_ensemble(handle)
    polygons = []
    for lineno, line in enumerate(path, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped, parse_int=_parse_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        polygons.append(_parse_record(obj, lineno))
    return polygons


def write_ensemble(path: PathOrFile, polygons: Iterable[Polygon]) -> None:
    """Write polygons as JSONL, one record per line, trailing newline included.

    Lines end in LF on every platform, as in `symmpoly sample --out`.
    """
    if isinstance(path, str):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_ensemble(handle, polygons)
        return
    # Records are formatted and written in blocks of at most _WRITE_BATCH
    # polygons of one shape: one write per record is slow, and one per
    # ensemble holds the whole text in memory.
    first = 1
    for (dim, closed, _), run in itertools.groupby(
            polygons, key=lambda p: (int(p.dim), bool(p.closed), p.n)):
        while block := list(itertools.islice(run, _WRITE_BATCH)):
            edges = np.stack([p.edges for p in block])
            path.write(_record_block(dim, closed, edges, first).decode())
            first += len(block)


def format_cell(value) -> str:
    """Deterministic CSV field: repr for floats (shortest exact form)."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: PathOrFile, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """CSV with a header row, repr floats, and LF line endings."""
    if isinstance(path, str):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_csv(handle, header, rows)
        return
    writer = csv.writer(path, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_cell(v) for v in row])

"""JSONL persistence for polygons and CSV helpers for summaries.

One polygon per line: {"dim": d, "closed": bool, "edges": [[...], ...]}.
Coordinates are written as "%.17g" writes them: 17 significant digits,
which round-trip an IEEE-754 double exactly, so write followed by read is
the identity. A non-finite coordinate is refused with DomainError, since
JSON has no NaN or infinity.

Records are formatted in blocks of same-shape polygons (``_record_lines``),
which ``write_ensemble`` and ``polygon_record_line`` both call. A
coordinate with 1e-4 <= |x| < 1 prints as a sign-and-zeros prefix
("-0.00") and the integer of its 17 digits, trailing zeros stripped. That
integer is the exact product |x| * 10**(16 - e), as a double-double from
Dekker's split, rounded half to even. Every other value (zero, |x| < 1e-4
or |x| >= 1, and a product that misses [1e16, 1e17)) goes through "%.17g"
itself. The identity with "%.17g" assumes Python's correctly rounded float
formatting (``sys.float_repr_style == "short"``).

CSV files use a header row, repr-formatted floats, and "\n" line endings,
so a fixed-seed run produces byte-identical files on every platform.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
from typing import IO, Iterable, List, Sequence, Union

import numpy as np

from .errors import DomainError, ParseError
from .polygons import Polygon

PathOrFile = Union[str, IO[str]]

_WRITE_BATCH = 64


@functools.lru_cache(maxsize=32)
def _record_template(dim: int, closed: bool, n: int) -> str:
    """The record of an n-edge polygon as one %-template of dim*n
    coordinates, each a pair of fields: its prefix and its digits."""
    edge = "[" + ", ".join(["%s%s"] * dim) + "]"
    head = '{"dim": %d, "closed": %s, "edges": [' % (dim, "true" if closed else "false")
    return head + ", ".join([edge] * n) + "]}"


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


def _coordinate_fields(x: np.ndarray) -> np.ndarray:
    """The (prefix, digits) fields of each coordinate of a flat array, as an
    (x.size, 2) object array whose joined texts are each "%.17g" % x[i]."""
    fields = np.empty((x.size, 2), dtype=object)
    mag = np.abs(x)
    fast = np.flatnonzero((mag >= 1e-4) & (mag < 1.0))
    a = mag[fast]
    # 17 significant digits of a in [10**e, 10**(e + 1)) are the integer
    # nearest a * 10**(16 - e), found exactly from its double-double. A
    # misjudged e fails the range check on the exact product.
    e = np.clip(np.floor(np.log10(a)), -4, -1).astype(np.intp)
    hi, lo = _two_product(a, np.array([1e20, 1e19, 1e18, 1e17])[e + 4])
    # hi >= 1e16 > 2**53 is an even integer, so rounding lo half to even
    # rounds hi + lo half to even.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (digits < 10 ** 17)
    fast, e, digits = fast[ok], e[ok], digits[ok]
    # Trailing zeros go by binary steps, 16 at most; most digit strings
    # have none.
    tens = np.flatnonzero(digits % 10 == 0)
    stripped = digits[tens]
    for k in (16, 8, 4, 2, 1):
        zeros = stripped % 10 ** k == 0
        stripped[zeros] //= 10 ** k
    digits[tens] = stripped
    prefixes = np.array(["0.", "0.0", "0.00", "0.000",
                         "-0.", "-0.0", "-0.00", "-0.000"], dtype=object)
    fields[fast, 0] = prefixes[np.signbit(x[fast]) * 4 - 1 - e]
    fields[fast, 1] = digits
    slow = np.ones(x.size, dtype=bool)
    slow[fast] = False
    fields[slow, 0] = ["%.17g" % v for v in x[slow].tolist()]
    fields[slow, 1] = ""
    return fields


def _record_lines(dim: int, closed: bool, edges: np.ndarray,
                  first: int) -> List[str]:
    """The records of a block of same-shape polygons, ``edges`` of shape
    (count, n, dim); ``first`` numbers the block's first record in errors."""
    count, n = edges.shape[:2]
    finite = np.isfinite(edges.reshape(count, -1)).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DomainError(f"record {first + bad}: edge coordinates must be "
                          f"finite numbers, JSON has no NaN or infinity")
    rows = _coordinate_fields(edges.ravel()).reshape(count, -1).tolist()
    template = _record_template(dim, closed, n)
    return [template % tuple(row) for row in rows]


def polygon_record_line(p: Polygon) -> str:
    """The single-line JSON record for one polygon (no trailing newline)."""
    return _record_lines(int(p.dim), bool(p.closed), p.edges[None], 1)[0]


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
            path.write("\n".join(_record_lines(dim, closed, edges, first)) + "\n")
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

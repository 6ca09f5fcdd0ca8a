"""JSONL persistence for polygons and CSV helpers for summaries.

One polygon per line: {"dim": d, "closed": bool, "edges": [[...], ...]}.
Coordinates are written with 17 significant digits, which round-trips an
IEEE-754 double exactly, so write followed by read is the identity.
CSV files use a header row, repr-formatted floats, and "\n" line endings,
so a fixed-seed run produces byte-identical files on every platform.
"""
from __future__ import annotations

import csv
import functools
import json
from typing import IO, Iterable, List, Sequence, Union

import numpy as np

from .errors import ParseError
from .polygons import Polygon

PathOrFile = Union[str, IO[str]]

_WRITE_BATCH = 64


@functools.lru_cache(maxsize=32)
def _record_template(dim: int, closed: bool, n: int) -> str:
    """The record of an n-edge polygon as one %-template of dim*n floats."""
    edge = "[" + ", ".join(["%.17g"] * dim) + "]"
    head = '{"dim": %d, "closed": %s, "edges": [' % (dim, "true" if closed else "false")
    return head + ", ".join([edge] * n) + "]}"


def polygon_record_line(p: Polygon) -> str:
    """The single-line JSON record for one polygon (no trailing newline)."""
    return (_record_template(int(p.dim), bool(p.closed), p.n)
            % tuple(p.edges.ravel().tolist()))


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
    # Lines go out in pieces of at most _WRITE_BATCH records: one write per
    # record is slow, and one per ensemble holds the whole text in memory.
    lines = []
    for p in polygons:
        lines.append(polygon_record_line(p))
        if len(lines) == _WRITE_BATCH:
            path.write("\n".join(lines) + "\n")
            lines.clear()
    if lines:
        path.write("\n".join(lines) + "\n")


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

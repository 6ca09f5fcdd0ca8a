"""JSONL polygon persistence and deterministic CSV formatting."""
import builtins
import io
import json

import numpy as np
import pytest

import symmpoly.io
from symmpoly import (DomainError, ParseError, Polygon, SeedStream,
                      polygon_record_line, read_ensemble, sample_pol, write_csv,
                      write_ensemble)
from symmpoly.io import format_cell

SEED = 7


def test_record_line_shape():
    line = polygon_record_line(Polygon(dim=2, closed=False,
                                       edges=[[1.0, 0.5]]))
    assert line == '{"dim": 2, "closed": false, "edges": [[1, 0.5]]}'
    obj = json.loads(line)
    assert obj == {"dim": 2, "closed": False, "edges": [[1, 0.5]]}


def _reference_record_line(p):
    # the per-float f-string formatter, the reference for the byte formatter
    rows = ", ".join(
        "[" + ", ".join(f"{float(x):.17g}" for x in edge) + "]"
        for edge in p.edges)
    closed = "true" if p.closed else "false"
    return f'{{"dim": {p.dim}, "closed": {closed}, "edges": [{rows}]}}'


def _hard_values():
    # ties at the 17th digit, above 1 and in the block formatter's range
    # (one rounds down to even, one up); each power of ten around that range
    # with its neighbours; values that round up to the next power; the
    # zeros, subnormals and the largest exact power of ten
    values = [1234567890123456.25, 1234567890123456.75,
              0.00100040435791015625, 0.00100231170654296875,
              0.99999999999999994,
              0.99999999999999989, 9.9999999999999995e-5, 0.0, -0.0, 5e-324,
              2.2250738585072009e-308, 1e-300, 0.1, 1.0, 2.0 ** 53 + 1, 1e22]
    for p in range(-6, 1):
        power = float(f"1e{p}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, 2.0)]
    return [float(v) for v in values] + [-float(v) for v in values]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", [1, 7])
def test_record_template_matches_reference_formatter(dim, closed, n):
    values = _hard_values()
    # every value lands in every coordinate slot across the rotations
    for shift in range(len(values)):
        coords = [values[(shift + i) % len(values)] for i in range(n * dim)]
        p = Polygon(dim=dim, closed=closed,
                    edges=np.array(coords).reshape(n, dim))
        line = polygon_record_line(p)
        assert line == _reference_record_line(p)
        back = read_ensemble(io.StringIO(line))[0]
        assert np.array_equal(back.edges, p.edges)


def _significant_digits(text):
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def test_block_formatter_digit_structure():
    # for each exponent class from 1e-7 to 1 and each count k of significant
    # digits, a decimal whose "%.17g" has exactly k: its 17 - k trailing
    # zeros cross every boundary of the formatter's 4-digit groups. One-digit
    # decimals are tried exhaustively: below 1e-4 none is a double that
    # keeps one digit, so the exponent form always has its "."
    rng = np.random.default_rng(11)
    values = []
    for e in range(-7, 1):
        for k in range(1, 18):
            candidates = ([str(d) for d in range(1, 10)] if k == 1 else
                          ["".join(map(str, rng.integers(1, 10, size=k)))
                           for _ in range(100)])
            exact = [v for v in (float(f"{d[0]}.{d[1:]}e{e}") for d in candidates)
                     if _significant_digits("%.17g" % v) == k]
            assert exact or (k == 1 and e < -4), (e, k)
            v = exact[0] if exact else float(f"1e{e}")
            values += [v, -v]
    polygons = [Polygon(dim=2, closed=False, edges=np.reshape(values, (-1, 2))),
                Polygon(dim=3, closed=True, edges=np.reshape(values[:-2], (-1, 3)))]
    polygons += [Polygon(dim=2, closed=True, edges=[[v, -v]]) for v in values]
    buf = io.StringIO()
    write_ensemble(buf, polygons)
    want = [_reference_record_line(p) for p in polygons]
    assert buf.getvalue() == "".join(line + "\n" for line in want)
    assert [polygon_record_line(p) for p in polygons] == want


def test_block_formatter_matches_reference_on_a_sweep():
    # 1.2M finite doubles: random bit patterns, normals scaled from 1e-7 to
    # 1e3, and dyadic rationals, written as 2-D polygons of 1000 edges
    rng = np.random.default_rng(2024)
    size = 400_000
    bits = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64,
                        endpoint=False).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 0.5)
    normals = rng.standard_normal(size) * 10.0 ** rng.uniform(-7, 3, size)
    dyadic = (rng.integers(-2 ** 30, 2 ** 30, size)
              / 2.0 ** rng.integers(0, 60, size))
    polygons = [Polygon(dim=2, closed=bool(i % 2), edges=block.reshape(-1, 2))
                for i, block in enumerate(
                    np.concatenate([bits, normals, dyadic]).reshape(-1, 2000))]
    buf = io.StringIO()
    write_ensemble(buf, polygons)
    # compared line by line, and only the first differing coordinate is
    # shown: pytest's diff of the whole 30 MB text would take minutes
    lines = buf.getvalue().split("\n")
    assert lines.pop() == "" and len(lines) == len(polygons)
    for line, p in zip(lines, polygons):
        want = _reference_record_line(p)
        if line != want:
            pairs = zip(line.split(", "), want.split(", "))
            pytest.fail(next(f"wrote {got!r} for {ref!r}"
                             for got, ref in pairs if got != ref))


def test_write_ensemble_mixes_shapes():
    # blocks are formatted per shape; a change of dim, closed or n starts a
    # new one, and the records stay in order
    rng = np.random.default_rng(5)
    shapes = ([(2, False, 3)] * 3 + [(3, False, 3), (3, True, 3)] * 2
              + [(2, True, 1), (2, True, 9)] + [(3, True, 4)] * 70)
    polygons = [Polygon(dim=d, closed=c, edges=rng.standard_normal((n, d)) / n)
                for d, c, n in shapes]
    buf = io.StringIO()
    write_ensemble(buf, polygons)
    assert buf.getvalue() == "".join(polygon_record_line(p) + "\n"
                                     for p in polygons)
    assert buf.getvalue() == "".join(_reference_record_line(p) + "\n"
                                     for p in polygons)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_refused(bad):
    # nan and inf are not JSON: the writer refuses the record by number,
    # before any text of its block goes out
    rng = SeedStream(SEED, 2).generator()
    polygons = [sample_pol(2, 5, rng) for _ in range(70)]
    edges = polygons[65].edges.copy()
    edges[2, 1] = bad
    polygons[65] = Polygon(dim=2, closed=True, edges=edges)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    with pytest.raises(DomainError, match="record 66"):
        write_ensemble(Recorder(), polygons)
    assert "".join(writes) == "".join(polygon_record_line(p) + "\n"
                                      for p in polygons[:64])
    with pytest.raises(DomainError, match="record 1: edge coordinates"):
        polygon_record_line(polygons[65])


def test_write_ensemble_writes_in_pieces():
    # more records than one write piece, and a remainder
    rng = SeedStream(SEED, 1).generator()
    polygons = [sample_pol(2, 5, rng) for _ in range(150)]
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    write_ensemble(Recorder(), iter(polygons))
    assert "".join(writes) == "".join(
        _reference_record_line(p) + "\n" for p in polygons)
    assert [w.count("\n") for w in writes] == [64, 64, 22]


def test_round_trip_is_exact():
    rng = SeedStream(SEED, 0).generator()
    polygons = [sample_pol(3, 7, rng) for _ in range(100)]
    buf = io.StringIO()
    write_ensemble(buf, polygons)
    text = buf.getvalue()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 100
    back = read_ensemble(io.StringIO(text))
    assert len(back) == 100
    for orig, rec in zip(polygons, back):
        assert rec.dim == orig.dim and rec.closed == orig.closed
        # 17 significant digits round-trip IEEE doubles exactly
        assert np.array_equal(rec.edges, orig.edges)


@pytest.mark.parametrize("dim", [2, 3])
def test_round_trip_keeps_the_sign_of_zero(dim):
    # -0.0 is written as "-0"; reading it back must give -0.0, not 0
    n = 3
    polygons = [Polygon(dim=dim, closed=False,
                        edges=np.full((n, dim), -0.0))]
    for slot in range(n * dim):
        coords = np.full(n * dim, 0.25)
        coords[slot] = -0.0
        polygons.append(Polygon(dim=dim, closed=True,
                                edges=coords.reshape(n, dim)))
    buf = io.StringIO()
    write_ensemble(buf, polygons)
    assert "[-0, -0" in buf.getvalue()
    back = read_ensemble(io.StringIO(buf.getvalue()))
    assert len(back) == len(polygons)
    for orig, rec in zip(polygons, back):
        assert np.array_equal(np.signbit(rec.edges), np.signbit(orig.edges))
        assert np.array_equal(rec.edges, orig.edges)


def test_read_skips_blank_lines():
    text = ('\n{"dim": 2, "closed": false, "edges": [[1, 0]]}\n\n'
            '{"dim": 2, "closed": false, "edges": [[0, 1]]}\n')
    polys = read_ensemble(io.StringIO(text))
    assert len(polys) == 2


def test_read_empty_file():
    assert read_ensemble(io.StringIO("")) == []


def test_read_file_path(tmp_path):
    path = tmp_path / "ens.jsonl"
    p = Polygon(dim=2, closed=False, edges=[[1.0, 2.0]])
    write_ensemble(str(path), [p])
    back = read_ensemble(str(path))
    assert np.array_equal(back[0].edges, p.edges)


@pytest.mark.parametrize("writer", [
    lambda path: write_ensemble(path, [Polygon(dim=2, closed=False,
                                               edges=[[1.0, 2.0]])]),
    lambda path: write_csv(path, ["a"], [[1.0]]),
], ids=["write_ensemble", "write_csv"])
def test_path_writers_keep_lf_line_endings(writer, tmp_path, monkeypatch):
    # without newline="", text mode turns "\n" into os.linesep, so the bytes
    # written to a path would differ by platform
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(kwargs)
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(symmpoly.io, "open", recording_open, raising=False)
    writer(str(tmp_path / "out"))
    assert opened == [{"encoding": "utf-8", "newline": ""}]


def test_parse_errors_name_the_line():
    good = '{"dim": 2, "closed": false, "edges": [[1, 0]]}'
    with pytest.raises(ParseError, match="line 2"):
        read_ensemble(io.StringIO(good + "\n{not json}\n"))
    with pytest.raises(ParseError, match="line 1"):
        read_ensemble(io.StringIO('{"dim": 4, "closed": false, "edges": [[1,0,0,0]]}'))
    with pytest.raises(ParseError, match="line 1"):
        read_ensemble(io.StringIO('{"dim": 2, "edges": [[1, 0]]}'))
    with pytest.raises(ParseError, match="closed"):
        read_ensemble(io.StringIO('{"dim": 2, "closed": "no", "edges": [[1, 0]]}'))
    with pytest.raises(ParseError, match="edges"):
        read_ensemble(io.StringIO('{"dim": 2, "closed": false, "edges": [[1, 0, 0]]}'))
    with pytest.raises(ParseError, match="edges"):
        read_ensemble(io.StringIO('{"dim": 2, "closed": false, "edges": [[true, 0]]}'))
    with pytest.raises(ParseError, match="edges"):
        read_ensemble(io.StringIO('{"dim": 2, "closed": false, "edges": []}'))
    with pytest.raises(ParseError, match="object"):
        read_ensemble(io.StringIO("[1, 2, 3]"))


def test_non_integer_dim_is_rejected():
    good = '{"dim": 2, "closed": false, "edges": [[1, 0]]}'
    for dim in ("2.0", "3.0", "true", '"2"'):
        record = good.replace('"dim": 2', f'"dim": {dim}')
        with pytest.raises(ParseError, match="line 2: dim"):
            read_ensemble(io.StringIO(good + "\n" + record + "\n"))


def test_non_finite_coordinates_are_rejected():
    # NaN and +-Infinity are not JSON; 1e999 and a 400-digit integer
    # overflow a double
    good = '{"dim": 2, "closed": false, "edges": [[1, 0]]}'
    for bad in ("NaN", "Infinity", "-Infinity", "1e999", "9" * 400):
        record = ('{"dim": 2, "closed": false, "edges": [[%s, 1], [0, 0]]}'
                  % bad)
        with pytest.raises(ParseError, match="line 2: edge coordinates"):
            read_ensemble(io.StringIO(good + "\n" + record + "\n"))


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(np.bool_(True)) == "true"
    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(0.25)) == "0.25"
    assert format_cell(7) == "7"
    assert format_cell("pol2") == "pol2"


def test_write_csv_layout():
    buf = io.StringIO()
    write_csv(buf, ("a", "b"), [(1, 0.5), (None, True)])
    assert buf.getvalue() == "a,b\n1,0.5\n,true\n"


def test_write_csv_path(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("x",), [(1.0 / 3.0,)])
    data = path.read_bytes()
    assert data == b"x\n" + repr(1.0 / 3.0).encode() + b"\n"
    assert b"\r" not in data

"""JSONL polygon persistence and deterministic CSV formatting."""
import io
import json

import numpy as np
import pytest

from symmpoly import (ParseError, Polygon, SeedStream, polygon_record_line,
                      read_ensemble, sample_pol, write_csv, write_ensemble)
from symmpoly.io import format_cell

SEED = 7


def test_record_line_shape():
    line = polygon_record_line(Polygon(dim=2, closed=False,
                                       edges=[[1.0, 0.5]]))
    assert line == '{"dim": 2, "closed": false, "edges": [[1, 0.5]]}'
    obj = json.loads(line)
    assert obj == {"dim": 2, "closed": False, "edges": [[1, 0.5]]}


def _reference_record_line(p):
    # the per-float f-string formatter that the record template replaced
    rows = ", ".join(
        "[" + ", ".join(f"{float(x):.17g}" for x in edge) + "]"
        for edge in p.edges)
    closed = "true" if p.closed else "false"
    return f'{{"dim": {p.dim}, "closed": {closed}, "edges": [{rows}]}}'


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", [1, 7])
def test_record_template_matches_reference_formatter(dim, closed, n):
    values = [-0.0, 5e-324, 1e-300, 0.1, 1.0, 2.0 ** 53 + 1, -1e22]
    # every value lands in every coordinate slot across the rotations
    for shift in range(len(values)):
        coords = [values[(shift + i) % len(values)] for i in range(n * dim)]
        p = Polygon(dim=dim, closed=closed,
                    edges=np.array(coords).reshape(n, dim))
        line = polygon_record_line(p)
        assert line == _reference_record_line(p)
        back = read_ensemble(io.StringIO(line))[0]
        assert np.array_equal(back.edges, p.edges)


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

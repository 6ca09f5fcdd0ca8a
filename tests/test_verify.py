"""Check plumbing of the verification suite (full runs live in
test_acceptance.py)."""
import io
import multiprocessing

import pytest

from symmpoly import verify
from symmpoly.verify import (CheckResult, _check, density_checks,
                             extended_density_checks, format_check_line,
                             formula_checks, run_verify, write_results_csv)

SEED = 7


def test_check_operators():
    assert _check(1, "a", 1.0, "<=", 2.0).passed
    assert not _check(1, "a", 3.0, "<=", 2.0).passed
    assert _check(1, "a", 3.0, ">=", 2.0).passed
    assert _check(1, "a", 1.0, "<", 2.0).passed
    assert _check(1, "a", 3.0, ">", 2.0).passed
    assert not _check(1, "a", 2.0, ">", 2.0).passed
    with pytest.raises(ValueError):
        _check(1, "a", 1.0, "==", 1.0)


def test_format_check_line():
    r = CheckResult(3, "demo", 0.5, 1.0, "<=", True)
    assert format_check_line(r) == "[C3] demo: measured=0.5 <= threshold=1.0 PASS"
    r = CheckResult(9, "demo", 2.0, 1.0, "<=", False)
    assert format_check_line(r).endswith("FAIL")


def test_write_results_csv():
    buf = io.StringIO()
    write_results_csv(buf, [CheckResult(1, "x", 0.25, 1.0, "<=", True)])
    assert buf.getvalue() == ("criterion,check,measured,threshold,op,pass\n"
                              "1,x,0.25,1.0,<=,true\n")


def test_formula_checks_all_pass():
    results = formula_checks()
    assert len(results) == 9
    assert all(r.criterion == 6 for r in results)
    failures = [format_check_line(r) for r in results if not r.passed]
    assert not failures, failures


def test_density_checks_pass_at_moderate_count():
    results = density_checks(SEED, 40_000)
    failures = [format_check_line(r) for r in results if not r.passed]
    assert not failures, failures


def test_extended_density_checks_pass():
    results = extended_density_checks(SEED, 40_000)
    names = {r.name for r in results}
    assert {"block_normalization_p2", "cbi_normalization",
            "wishart_normalization_n5",
            "block_sampling_agreement_p2_n6"} <= names
    failures = [format_check_line(r) for r in results if not r.passed]
    assert not failures, failures


def test_run_verify_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_verify("quick", SEED, 1)


def test_run_verify_opens_one_pool(monkeypatch):
    # sample counts cut down so each ensemble still spans several chunks
    monkeypatch.setattr(verify, "DESK_N", 8192)
    monkeypatch.setattr(verify, "DESK_N_TV", 32_768)
    monkeypatch.setattr(verify, "DESK_N_STRUCT", 64)
    opened = []
    real = multiprocessing.Pool

    def counting(*args, **kwargs):
        opened.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    csv = {}
    for workers in (1, 2):
        buf = io.StringIO()
        write_results_csv(buf, run_verify("desk", SEED, workers))
        csv[workers] = buf.getvalue()
    assert len(opened) == 1
    assert csv[1] == csv[2]
    assert csv[1].count("\n") == 38

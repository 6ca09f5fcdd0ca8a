"""Check plumbing of the verification suite (full runs live in
test_acceptance.py)."""
import collections
import io
import math
import multiprocessing

import numpy as np
import pytest

from symmpoly import densities, ensembles, verify
from symmpoly.ensembles import GridHistogram, segment_samples
from symmpoly.haar import SeedStream
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


def test_tv_excess_is_in_the_integral_convention():
    # Disjoint histograms are at estimate_tv's ceiling, 1, and at the
    # ceiling of the bounds' integral convention, 2.
    hist = GridHistogram(1, 4, ((0.0, 1.0),), np.array([8, 0, 0, 0]),
                         np.array([0, 0, 0, 8]), 1.0, 0.25)
    assert verify._tv_excess(hist) == 1.5


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


def test_extended_density_checks_draw_each_stream_once(monkeypatch):
    drawn = []
    run_chunks = ensembles._run_chunks

    def logged(space, n, N, seed, stream_id, *rest):
        drawn.append((seed, stream_id))
        return run_chunks(space, n, N, seed, stream_id, *rest)

    monkeypatch.setattr(ensembles, "_run_chunks", logged)
    extended_density_checks(SEED, 2000)
    assert sorted(drawn) == [(SEED, verify.STREAM_IDS["unitary_blocks"]),
                             (SEED, verify.STREAM_IDS["unitary_blocks_n6"])]


def test_gauss_rule_is_as_strict_as_quad(monkeypatch):
    from scipy import integrate

    checked = []
    check = verify._normalization_check

    def against_quad(name, density, upper=1.0):
        expected, _ = integrate.quad(density, 0.0, upper, epsabs=1e-12,
                                     epsrel=1e-12, limit=200)
        assert abs(verify._gauss_integral(density, upper) - expected) <= 1e-13, name
        result = check(name, density, upper)
        assert result.measured <= 1e-12, name
        checked.append(name)
        return result

    monkeypatch.setattr(verify, "_normalization_check", against_quad)
    extended_density_checks(SEED, 2000)
    assert len(checked) == 6


def test_wishart_integrands_keep_their_n(monkeypatch):
    # an integrand kept past the call integrates the density it was made
    # for, not the one of the last n its loop (or a later loop) bound
    kept, in_place = {}, {}
    check = verify._normalization_check

    def recording(name, density, upper=1.0):
        kept[name] = (density, upper)
        in_place[name] = verify._gauss_integral(density, upper)
        return check(name, density, upper)

    monkeypatch.setattr(verify, "_normalization_check", recording)
    extended_density_checks(SEED, 2000)
    wishart = [f"wishart_normalization_n{n}" for n in (2, 5, 10)]
    assert set(wishart) <= set(kept)
    for name, (density, upper) in kept.items():
        assert verify._gauss_integral(density, upper) == in_place[name], name
    assert len({in_place[name] for name in wishart}) == 3


def test_gauss_rule_fails_wrong_block_densities():
    def block(u):
        return math.pi * densities.block_density(complex(math.sqrt(u)), 10)

    # the pi^(+pq) constant: pi^2 times the density
    assert not verify._normalization_check("sign", lambda u: math.pi**2 * block(u)).passed
    # det(I - delta* delta) to the power n - p - q + 1
    assert not verify._normalization_check("power", lambda u: (1 - u) * block(u)).passed


def test_betainc_is_the_beta_cdf_bit_for_bit():
    # The KS rows take their Beta CDFs from betainc; stats.beta(p, q).cdf
    # is Boost's ibeta too. If a scipy release parts the two, the desk and
    # density-check digests move, and this test names the cause.
    from scipy import stats
    from scipy.special import betainc

    for n, key in ((6, "unitary_blocks_n6"), (10, "unitary_blocks")):
        grams = verify._block_gram_scalars(SEED, verify.STREAM_IDS[key], 100_000, n)
        for p in (1, 2):
            x = np.concatenate([grams[p], [0.0, 1.0]])
            assert np.array_equal(betainc(p, n - p, x).view(np.uint64),
                                  stats.beta(p, n - p).cdf(x).view(np.uint64)), (p, n)


@pytest.mark.parametrize("n, key", [(6, "unitary_blocks_n6"), (10, "unitary_blocks")])
def test_block_gram_scalars_are_arm2_head_lengths(n, key):
    # |e_j| / 2 of an arm2 edge is |u_j|^2 for u uniform on the unit sphere
    # of C^n, the law of a Haar column; the check draws exactly those heads
    N, sid = 10_000, verify.STREAM_IDS[key]
    grams = verify._block_gram_scalars(SEED, sid, N, n)
    heads = segment_samples("arm2", n, 2, N, SEED, stream_id=sid)
    half = np.linalg.norm(heads.reshape(N, 2, 2), axis=2) / 2.0
    assert np.array_equal(grams[1], half[:, 0])
    assert np.array_equal(grams[2], half[:, 0] + half[:, 1])


def test_run_verify_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_verify("quick", SEED, 1)


def _small_desk(monkeypatch, N=8192):
    # sample counts cut down so each ensemble still spans several chunks
    monkeypatch.setattr(verify, "DESK_N", N)
    monkeypatch.setattr(verify, "DESK_N_TV", 32_768)
    monkeypatch.setattr(verify, "DESK_N_STRUCT", 64)


def _pool_streams():
    """The stream ids of the requests that ``ensembles._dispatches`` sends to
    a 2-worker pool at the current desk size: verify adds no rule of its own."""
    return {verify.STREAM_IDS[name]
            for name, (space, n, reads) in verify._REQUESTS.items()
            if ensembles._dispatches(space, n, verify.DESK_N,
                                     ("functionals", reads), 2)}


# the whole-polygon ensembles, the ones the small desk sends to the pool
WHOLE_STREAMS = {verify.STREAM_IDS[name] for name in
                 ("pol3_50", "pol2_100", "pol3_100", "arm3_100", "pol2_200")}


def _log_pool(monkeypatch, events):
    """Fork logging pools: each chunk submitted to one is logged in events
    as ("pool", seed, stream_id, chunk) and its result handle kept by
    stream id. Returns the worker counts of the pools forked and the
    handles."""
    opened, handles = [], collections.defaultdict(list)
    real_pool = ensembles._new_pool

    class LoggingPool:
        def __init__(self, processes):
            opened.append(processes)
            self.pool = real_pool(processes=processes)

        def apply_async(self, fn, args):
            seed, stream_id, chunk = args[0][2:5]
            events.append(("pool", seed, stream_id, chunk))
            handles[stream_id].append(self.pool.apply_async(fn, args))
            return handles[stream_id][-1]

        def terminate(self):
            self.pool.terminate()

    monkeypatch.setattr(ensembles, "_new_pool", LoggingPool)
    return opened, handles


def test_run_verify_opens_one_pool(monkeypatch):
    # every chunk is logged where it is drawn: handed to the pool, or in the
    # parent; so is every whole-stream generator (the bootstraps draw from
    # one); formula_checks, a check that reads no ensemble, logs its call
    _small_desk(monkeypatch)
    events = []
    opened, _ = _log_pool(monkeypatch, events)
    real_chunk_generator = SeedStream.chunk_generator
    real_generator = SeedStream.generator
    real_formula_checks = verify.formula_checks

    def chunk_generator(stream, chunk):
        # in the parent; forked workers log to their own copy of the list
        events.append(("parent", stream.seed, stream.stream_id, chunk))
        return real_chunk_generator(stream, chunk)

    def generator(stream):
        events.append(("parent", stream.seed, stream.stream_id, "whole"))
        return real_generator(stream)

    def formula_checks():
        events.append(("formula_checks",))
        return real_formula_checks()

    monkeypatch.setattr(SeedStream, "chunk_generator", chunk_generator)
    monkeypatch.setattr(SeedStream, "generator", generator)
    monkeypatch.setattr(verify, "formula_checks", formula_checks)
    csv, chunks = {}, {}
    for workers in (1, 2):
        events.clear()
        buf = io.StringIO()
        write_results_csv(buf, run_verify("desk", SEED, workers))
        csv[workers] = buf.getvalue()
        chunks[workers] = collections.Counter(e[1:] for e in events if len(e) > 1)
        # each (seed, stream_id) chunk, and each whole stream, is drawn once
        assert set(chunks[workers].values()) == {1}
    assert opened == [2]
    assert chunks[1] == chunks[2]
    # every stream but the extended density check's is drawn exactly once:
    # its chunks 0, 1, ..., each once, or its whole-stream generator once
    drawn = collections.defaultdict(list)
    for seed, sid, part in chunks[1]:
        assert seed == SEED
        drawn[sid].append(part)
    assert set(drawn) == {sid for name, sid in verify.STREAM_IDS.items()
                          if name != "unitary_blocks_n6"}
    for sid, parts in drawn.items():
        assert parts == ["whole"] or sorted(parts) == list(range(len(parts))), sid
    assert {sid for name, sid in verify.STREAM_IDS.items()
            if drawn[sid] == ["whole"]} == {
        verify.STREAM_IDS[name] for name in
        ("boot_var_planar", "boot_var_spatial", "boot_partition")}
    # at 2 workers the whole-polygon ensembles, and only they, go to the
    # pool, every chunk of them before the parent draws or checks anything
    kinds = [e[0] for e in events]
    pooled = {e[2] for e in events if e[0] == "pool"}
    assert pooled == _pool_streams() == WHOLE_STREAMS
    assert kinds.index("parent") == kinds.count("pool")
    assert kinds.index("formula_checks") > kinds.count("pool")
    assert csv[1] == csv[2]
    assert csv[1].count("\n") == 38


def test_pool_does_not_depend_on_the_request_order(monkeypatch,
                                                   dispatch_every_run):
    # with every multi-chunk run above the cut and the table reversed, the
    # pool draws what _dispatches sends it, head-draw plans included
    _small_desk(monkeypatch)
    monkeypatch.setattr(verify, "_REQUESTS",
                        dict(reversed(verify._REQUESTS.items())))
    events = []
    _log_pool(monkeypatch, events)
    run_verify("desk", SEED, 2)
    assert {e[2] for e in events} == _pool_streams() == {
        verify.STREAM_IDS[name] for name in verify._REQUESTS}


def test_structural_draws_stay_in_the_parent(monkeypatch, dispatch_every_run):
    # criterion 1's whole 50-gons span several chunks and would dispatch;
    # they are drawn in the parent all the same
    _small_desk(monkeypatch)
    monkeypatch.setattr(verify, "DESK_N_STRUCT", 2 * ensembles.CHUNK_SIZE + 1)
    events = []
    _log_pool(monkeypatch, events)
    run_verify("desk", SEED, 2)
    assert {e[2] for e in events} == _pool_streams()


def test_failing_check_stops_the_pending_draws(monkeypatch):
    # large enough that the workers are still drawing when the parent
    # reaches formula_checks
    _small_desk(monkeypatch, N=50_000)
    _, handles = _log_pool(monkeypatch, [])
    pending = {}

    def formula_checks():
        pending.update((sid, not all(h.ready() for h in hs))
                       for sid, hs in handles.items())
        raise RuntimeError("check failed")

    monkeypatch.setattr(verify, "formula_checks", formula_checks)
    with pytest.raises(RuntimeError, match="check failed"):
        run_verify("desk", SEED, 2)
    assert set(pending) == _pool_streams() and any(pending.values())
    assert multiprocessing.active_children() == []
    assert ensembles._BLOCK is None

"""The four benchmark workloads.

Each workload has a ``run`` step, the timed section, which makes library
calls and returns their raw outputs, and a ``check`` step, untimed, which
turns those outputs into operations: one per library call, each with a
verdict from the workload's correctness check and a sha256 digest of the
call's output. The library receives only inputs generated from the seed.

Every call goes through a module attribute (``sp.ensembles.estimate_tv``,
not a name bound at import), so the tracer's wrappers see it.
"""
from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple


class Op(NamedTuple):
    """One library call: whether it passed its check, and its output digest."""

    name: str
    ok: bool
    digest: str
    note: str = ""


class Checked(NamedTuple):
    ops: List[Op]
    counts: Dict[str, int]   # counts the check reads off the output


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: Dict[str, dict]                    # "full" and "tiny" inputs
    samples: Callable[[dict], int]            # samples handed back per pass
    run: Callable                             # (sp, seed, workers, size, tmp) -> outputs
    check: Callable                           # (sp, outputs, size) -> Checked


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _failed(name: str, exc: BaseException) -> Op:
    return Op(name, False, "", f"raised {type(exc).__name__}: {exc}")


# -- verify-desk -------------------------------------------------------------

VERIFY_CHECKS = 37


def _verify_run(sp, seed, workers, size, tmp):
    v = sp.verify
    v.DESK_N, v.DESK_N_TV, v.DESK_N_STRUCT = size["N"], size["N_tv"], size["N_struct"]
    try:
        return v.run_verify("desk", seed, workers=workers)
    except Exception as exc:  # the failure is counted per check
        return exc


def _verify_check(sp, out, size) -> Checked:
    if isinstance(out, Exception):
        return Checked([_failed(f"check{i}", out) for i in range(VERIFY_CHECKS)], {})
    ops = []
    for r in out:
        buf = io.StringIO()
        sp.verify.write_results_csv(buf, [r])
        ops.append(Op(r.name, bool(r.passed), _sha(buf.getvalue().encode())))
    for i in range(len(out), VERIFY_CHECKS):
        ops.append(Op(f"missing{i}", False, "", "check not reported"))
    return Checked(ops, {})


def _verify_samples(size) -> int:
    # structural pol2 + pol3; seven functional ensembles plus the pol2_100
    # covariance redraw; three TV pairs; the Haar block stream
    return 2 * size["N_struct"] + 9 * size["N"] + 6 * size["N_tv"]


# -- tv-marginals --------------------------------------------------------------

def _tv_calls(size):
    n, big = size["n"], size["n_large"]
    # (space_a, space_b, n, k, bins)
    return (("pol3", "arm3", n, 1, 8), ("pol2", "arm2", n, 1, 12),
            ("pol2", "arm2", big, 1, 12), ("pol2", "arm2", n, 2, 4))


def _tv_run(sp, seed, workers, size, tmp):
    outs = []
    for i, (a, b, n, k, bins) in enumerate(_tv_calls(size)):
        try:
            outs.append(sp.ensembles.estimate_tv(
                a, b, n, k, size["N"], bins, seed,
                stream_ids=(2 * i, 2 * i + 1), workers=workers))
        except Exception as exc:
            outs.append(exc)
    return outs


def _tv_check(sp, outs, size) -> Checked:
    ops = []
    for (a, b, n, k, bins), h in zip(_tv_calls(size), outs):
        name = f"estimate_tv:{a}/{b}:n={n}:k={k}"
        if isinstance(h, Exception):
            ops.append(_failed(name, h))
            continue
        bound = (sp.bounds.b2 if a.endswith("2") else sp.bounds.b3)(k, n)
        gap = h.tv_estimate - h.null_calibration
        digest = _sha(h.counts_a.tobytes(), h.counts_b.tobytes(),
                      repr((h.tv_estimate, h.null_calibration)).encode())
        ops.append(Op(name, gap <= bound, digest,
                      f"tv-null={gap:.5f} bound={bound:.5f}"))
    return Checked(ops, {})


# -- torsion-moments -----------------------------------------------------------

def _moment_calls(size):
    n = size["n"]
    both = ("total_curvature", "total_torsion")
    return (("pol3", n, both), ("arm3", n, both),
            ("pol2", size["n_large"], ("total_curvature",)))


def _moments_run(sp, seed, workers, size, tmp):
    outs = []
    for i, (space, n, fns) in enumerate(_moment_calls(size)):
        try:
            outs.append(sp.ensembles.functional_samples(
                space, n, size["N"], list(fns), seed, stream_id=i,
                workers=workers))
        except Exception as exc:
            outs.append(exc)
    return outs


def _moments_check(sp, outs, size) -> Checked:
    ops = []
    for (space, n, fns), out in zip(_moment_calls(size), outs):
        name = f"functional_samples:{space}:n={n}"
        if isinstance(out, Exception):
            ops.append(_failed(name, out))
            continue
        values, excluded = out
        digest = _sha(*(values[f].tobytes() for f in fns), str(excluded).encode())
        if space.startswith("pol"):
            # Fenchel: a closed polygon turns by at least 2 pi in total.
            low = float(values["total_curvature"].min())
            ok = low >= 2 * math.pi - 1e-9
            note = f"min total curvature {low:.4f}"
        else:
            # Open spatial chains: total torsion is centred at 0.
            t = values["total_torsion"]
            se = math.sqrt(float(t.var(ddof=1)) / t.size)
            ok = abs(float(t.mean())) <= 4 * se
            note = f"mean total torsion {float(t.mean()):.4f}, 4 SE {4 * se:.4f}"
        ops.append(Op(name, ok, digest, note))
    return Checked(ops, {})


# -- sample-jsonl --------------------------------------------------------------

# Records read back with read_ensemble, as fractions of the file.
READBACK = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)


def _sample_run(sp, seed, workers, size, tmp: Path):
    out = tmp / f"sample-w{workers}.jsonl"
    try:
        code = sp.cli.run(["sample", "--space", "pol3", "--n", str(size["n"]),
                           "--count", str(size["count"]), "--seed", str(seed),
                           "--workers", str(workers), "--out", str(out)])
    except Exception as exc:
        return exc, out
    return code, out


def _sample_check(sp, out, size) -> Checked:
    code, path = out
    name = "cli sample pol3"
    if isinstance(code, Exception):
        path.unlink(missing_ok=True)
        return Checked([_failed(name, code)], {})
    # Stream the file so that the check holds one record at a time and the
    # process's peak memory stays the program's, not the check's.
    count = size["count"]
    picks = {min(count - 1, int(f * count)) for f in READBACK}
    digest = hashlib.sha256()
    records = nbytes = 0
    kept = []
    try:
        with open(path, "rb") as fh:
            for line in fh:
                digest.update(line)
                nbytes += len(line)
                if records in picks:
                    kept.append(line.decode("utf-8"))
                records += 1
    except OSError as exc:
        return Checked([_failed(name, exc)], {})
    finally:
        path.unlink(missing_ok=True)
    counts = {"records": records, "bytes": nbytes}
    if code != 0 or records != count:
        return Checked([Op(name, False, digest.hexdigest(),
                           f"exit {code}, {records} of {count} records")], counts)
    polys = sp.io.read_ensemble(io.StringIO("".join(kept)))
    worst_close = max(sp.polygons.closure_residual(p) for p in polys)
    worst_perim = max(abs(sp.polygons.perimeter(p) - 2.0) for p in polys)
    ok = len(polys) == len(picks) and worst_close <= 1e-10 and worst_perim <= 1e-10
    return Checked([Op(name, ok, digest.hexdigest(),
                       f"closure {worst_close:.2e}, perimeter gap {worst_perim:.2e}")],
                   counts)


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-desk",
        "run_verify at desk level, the job users run to check the paper; "
        "every layer in its real mix, a pool per sampling call, one stream drawn twice",
        # Desk sample counts halved so that the traced run (three passes)
        # fits the per-run time limit. Halving is as far as they go: at
        # N = 50 000 the block_radial_law gate (KS < 0.01) fails by chance on
        # about 1e-4 of seeds, at N = 25 000 on about 1e-2.
        {"full": {"N": 50_000, "N_tv": 200_000, "N_struct": 500},
         "tiny": {"N": 8192, "N_tv": 32_768, "N_struct": 64}},
        _verify_samples, _verify_run, _verify_check),
    Workload(
        "tv-marginals",
        "estimate_tv at k=1 and k=2, n=100 and 400: sampler bound, "
        "about 99% of drawn edges thrown away, no functionals",
        {"full": {"N": 32_768, "n": 100, "n_large": 400},
         "tiny": {"N": 25_600, "n": 20, "n_large": 40}},
        lambda s: 2 * len(_tv_calls(s)) * s["N"], _tv_run, _tv_check),
    Workload(
        "torsion-moments",
        "total curvature and torsion on pol3/arm3 n=100 and pol2 n=200: "
        "every edge read, torsion kernel as costly as the sampler",
        {"full": {"N": 32_768, "n": 100, "n_large": 200},
         "tiny": {"N": 5000, "n": 20, "n_large": 40}},
        lambda s: len(_moment_calls(s)) * s["N"], _moments_run, _moments_check),
    Workload(
        "sample-jsonl",
        "cli sample of pol3 n=100 to JSONL: the output-writing path, "
        "memory grows with --count",
        # Two 4096-sample chunks: the pool runs at 2 workers, and a writer
        # that streams chunk by chunk would hold half of what is held today.
        {"full": {"count": 8192, "n": 100},
         "tiny": {"count": 300, "n": 20}},
        lambda s: s["count"], _sample_run, _sample_check),
)}

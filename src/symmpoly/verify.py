"""End-to-end verification suite.

Runs every acceptance check at a fixed master seed: structural closure and
perimeter, open-chain angle moments, closed-polygon curvature means,
expectation transfer, binned TV against the closed-form bounds, the bound
formula arithmetic, variance bounds with bootstrap slack, Chebyshev
coverage, and the matrix-density checks.

Each logical sampling task owns a fixed stream id of the master seed (the
registry below), so checks are statistically independent, reruns are
byte-identical, and the worker count never changes a single output value.
The ensembles the checks read are a table of requests, each drawn once per
run; the checks are small functions, one per criterion. At workers > 1
the worker pool draws the whole-polygon ensembles while this process draws
everything else and runs the checks that do not read them.

scipy (Beta CDFs and quadrature) is imported inside `density_checks` and
`extended_density_checks`, the only checks that use it, so importing this
module loads numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import bounds, densities, ensembles
# covariance_partition and _haar_unitary_batch have no caller here; they stay
# importable from this module because benchmark tracers wrap them by name.
from .ensembles import (_moments, _worker_pool, assemble_partition,
                        bootstrap_se, bootstrap_stat_se, chebyshev_coverage,
                        covariance_partition, estimate_tv, functional_samples,
                        ks_distance)
from .haar import SeedStream, _haar_unitary_batch
from .io import format_cell, write_csv
from .polygons import space_dim

DESK_N = 100_000
DESK_N_TV = 400_000
DESK_N_STRUCT = 1_000
LEVELS = ("desk", "deep")

# Stream-id registry: one substream per sampling task.
STREAM_IDS: Dict[str, int] = {
    "struct_pol2": 0,
    "struct_pol3": 1,
    "arm2_100": 2,
    "pol2_100": 3,
    "arm3_50": 4,
    "pol3_50": 5,
    "pol2_200": 6,
    "pol3_100": 7,
    "arm3_100": 8,
    "tv_planar_a": 20,
    "tv_planar_b": 21,
    "tv_spatial_a": 22,
    "tv_spatial_b": 23,
    "tv_control_a": 24,
    "tv_control_b": 25,
    "boot_var_planar": 30,
    "boot_var_spatial": 31,
    "boot_partition": 32,
    "unitary_blocks": 40,
    "unitary_blocks_n6": 41,
}

CSV_HEADER = ("criterion", "check", "measured", "threshold", "op", "pass")


@dataclass(frozen=True)
class CheckResult:
    """One verification check: measured op threshold."""

    criterion: int
    name: str
    measured: float
    threshold: float
    op: str
    passed: bool


def _check(criterion: int, name: str, measured: float, op: str,
           threshold: float) -> CheckResult:
    if op == "<=":
        passed = measured <= threshold
    elif op == ">=":
        passed = measured >= threshold
    elif op == "<":
        passed = measured < threshold
    elif op == ">":
        passed = measured > threshold
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return CheckResult(criterion, name, float(measured), float(threshold), op, passed)


def format_check_line(r: CheckResult) -> str:
    verdict = "PASS" if r.passed else "FAIL"
    return (f"[C{r.criterion}] {r.name}: measured={format_cell(r.measured)} "
            f"{r.op} threshold={format_cell(r.threshold)} {verdict}")


def write_results_csv(path, results: List[CheckResult]) -> None:
    write_csv(path, CSV_HEADER,
              [(r.criterion, r.name, r.measured, r.threshold, r.op, r.passed)
               for r in results])


def _tv_excess(hist) -> float:
    """A binned TV above its null calibration, in the integral convention
    of ``bounds`` (maximum 2): twice ``estimate_tv``'s 0.5 * sum |p_a - p_b|."""
    return 2.0 * (hist.tv_estimate - hist.null_calibration)


# Ensemble requests: stream name -> (space, n, the functionals it reads, or
# the segment length k of a whole-polygon segment draw). Each is drawn once
# per run, N samples, or N_struct for the structural draws. The order sets
# only the order of the pool's queue: at workers > 1 the pool draws the
# whole-polygon ones in this order, the structural draws, read first, then
# the three that criterion 7 bootstraps.
_REQUESTS = {
    "struct_pol2": ("pol2", 50, 50),
    "struct_pol3": ("pol3", 50, 50),
    "pol2_200": ("pol2", 200, ("total_curvature",)),
    "pol3_100": ("pol3", 100, ("tau1", "total_torsion")),
    "pol2_100": ("pol2", 100, ("theta1", "theta2", "theta3", "total_curvature")),
    "pol3_50": ("pol3", 50, ("total_curvature",)),
    "arm3_100": ("arm3", 100, ("tau1", "total_torsion")),
    "arm2_100": ("arm2", 100, ("theta1", "theta1^2")),
    "arm3_50": ("arm3", 50, ("tau1", "tau3")),
}


class _Ensembles:
    """The requested ensembles of one run, each drawn when a check first
    reads it and then kept; its sample counts and seed.

    At workers > 1 the whole-polygon requests (segment draws with k = n,
    plans that read a total) go to the worker pool before any check runs.
    Every other draw of a run runs in this process at one worker, so that
    it does not queue behind them: at 2 workers on 2 cores, desk verify
    took 9.5-10.4 s when its 400k-sample TV draws and its 5-edge arm3_50
    plan queued on the pool, and 8.4-8.7 s with them in-process (4 runs).
    """

    def __init__(self, scale: int, seed: int, workers: int):
        self.N = DESK_N * scale
        self.N_tv = DESK_N_TV * scale
        self.N_struct = DESK_N_STRUCT * scale
        self.seed, self.workers = seed, workers
        self._drawn: Dict[str, object] = {}

    def _draw_args(self, name: str):
        space, n, reads = _REQUESTS[name]
        if isinstance(reads, int):
            N, task = self.N_struct, ("segments", reads)
        else:
            N, task = self.N, ("functionals", reads)
        whole = ensembles._task_window(space, n, task) == n
        return space, n, N, task, self.workers if whole else 1

    def prefetch(self) -> None:
        """Submit every whole-polygon request to the worker pool, so that
        the workers draw while the checks that do not read them run."""
        for name in _REQUESTS:
            space, n, N, task, workers = self._draw_args(name)
            if workers > 1:
                ensembles._prefetch(space, n, N, self.seed, STREAM_IDS[name], task, workers)

    def __getitem__(self, name: str):
        if name not in self._drawn:
            space, n, N, (kind, reads), workers = self._draw_args(name)
            kwargs = dict(stream_id=STREAM_IDS[name], workers=workers)
            if kind == "segments":
                flat = ensembles.segment_samples(space, n, reads, N, self.seed, **kwargs)
                self._drawn[name] = flat.reshape(N, reads, space_dim(space))
            else:
                self._drawn[name] = functional_samples(space, n, N, list(reads),
                                                       self.seed, **kwargs)[0]
        return self._drawn[name]


def run_verify(level: str = "desk", seed: int = 7,
               workers: int = 1) -> List[CheckResult]:
    """Run the full check suite; deep level scales sample counts by 10.

    The rows come out in criterion order and are the same at any worker
    count; ``_Ensembles`` says what the worker pool draws.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    with _worker_pool(workers):
        return _run_checks(10 if level == "deep" else 1, seed, workers)


def _run_checks(scale: int, seed: int, workers: int) -> List[CheckResult]:
    e = _Ensembles(scale, seed, workers)
    e.prefetch()
    results = [r for check in _CHECKS for r in check(e)]
    results.sort(key=lambda r: r.criterion)  # stable: a check's rows keep their order
    return results


def _structural_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 1: every closed sample closes and has perimeter 2."""
    out = []
    for space in ("pol2", "pol3"):
        edges = e[f"struct_{space}"]
        residual = float(np.max(np.linalg.norm(edges.sum(axis=1), axis=1)))
        perim_gap = float(np.max(np.abs(np.linalg.norm(edges, axis=2).sum(axis=1) - 2.0)))
        out.append(_check(1, f"structural_{space}_closure", residual, "<=", 1e-10))
        out.append(_check(1, f"structural_{space}_perimeter", perim_gap, "<=", 1e-10))
    return out


def _open_chain_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 2: open-chain angle moments."""
    t1_mean, _, t1_se = _moments(e["arm2_100"]["theta1"])
    t1sq_mean, _, t1sq_se = _moments(e["arm2_100"]["theta1^2"])
    tau1, tau3 = e["arm3_50"]["tau1"], e["arm3_50"]["tau3"]
    tau1_mean, tau1_var, tau1_se = _moments(tau1)
    rho = float(np.corrcoef(tau1, tau3)[0, 1])
    return [
        _check(2, "arm_turning_mean", abs(t1_mean - math.pi / 2), "<=", 4 * t1_se),
        _check(2, "arm_turning_second_moment",
               abs(t1sq_mean - math.pi**2 / 3), "<=", 4 * t1sq_se),
        _check(2, "arm_torsion_mean", abs(tau1_mean), "<=", 4 * tau1_se),
        _check(2, "arm_torsion_variance",
               abs(tau1_var - math.pi**2 / 3) / (math.pi**2 / 3), "<=", 0.05),
        _check(2, "arm_torsion_correlation", abs(rho), "<=", 4 / math.sqrt(tau1.size)),
    ]


def _curvature_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 3: closed-polygon curvature means."""
    k50_mean, _, k50_se = _moments(e["pol3_50"]["total_curvature"])
    expected = 25 * math.pi + (math.pi / 4) * (100 / 97)
    k100_mean, _, k100_se = _moments(e["pol2_100"]["total_curvature"])
    excess = k100_mean - 50 * math.pi
    return [
        _check(3, "closed_curvature_mean_spatial", abs(k50_mean - expected), "<=",
               4 * k50_se),
        _check(3, "closed_curvature_excess_nonneg", excess, ">=", 0.0),
        _check(3, "closed_curvature_excess_bound", excess, "<=",
               100 * math.pi * bounds.b2(2, 100) + 4 * k100_se),
    ]


def _transfer_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 4: expectation transfer between closed and open chains."""
    t1_mean, _, t1_se = _moments(e["arm2_100"]["theta1"])
    p_t1_mean, _, p_t1_se = _moments(e["pol2_100"]["theta1"])
    p_tau_mean, _, p_tau_se = _moments(e["pol3_100"]["tau1"])
    a_tau_mean, _, a_tau_se = _moments(e["arm3_100"]["tau1"])
    return [
        _check(4, "transfer_turning", abs(p_t1_mean - t1_mean), "<=",
               bounds.expectation_transfer_gap(math.pi, 2, 2, 100)
               + 4 * (p_t1_se + t1_se)),
        _check(4, "transfer_torsion", abs(p_tau_mean - a_tau_mean), "<=",
               bounds.expectation_transfer_gap(math.pi, 3, 3, 100)
               + 4 * (p_tau_se + a_tau_se)),
    ]


def _tv_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 5: binned TV against the closed-form bounds."""
    def tv(space_a: str, space_b: str, bins: int, streams: str):
        return estimate_tv(space_a, space_b, 100, 1, e.N_tv, bins, e.seed,
                           stream_ids=(STREAM_IDS[f"tv_{streams}_a"],
                                       STREAM_IDS[f"tv_{streams}_b"]))

    tv_planar = tv("pol2", "arm2", 12, "planar")
    tv_spatial = tv("pol3", "arm3", 8, "spatial")
    tv_control = tv("arm2", "arm2", 12, "control")
    return [
        _check(5, "tv_planar_k1", _tv_excess(tv_planar), "<=", bounds.b2(1, 100)),
        _check(5, "tv_spatial_k1", _tv_excess(tv_spatial), "<=", bounds.b3(1, 100)),
        _check(5, "tv_null_control",
               tv_control.tv_estimate - tv_control.null_calibration, "<=", 0.01),
    ]


def _variance_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 7: variance bounds with bootstrap slack."""
    kappa200 = e["pol2_200"]["total_curvature"]
    var200 = float(kappa200.var(ddof=1))
    se_var200 = bootstrap_se(kappa200, lambda a: a.var(ddof=1),
                             SeedStream(e.seed, STREAM_IDS["boot_var_planar"]))
    torsion100 = e["pol3_100"]["total_torsion"]
    var_t100 = float(torsion100.var(ddof=1))
    se_var_t100 = bootstrap_se(torsion100, lambda a: a.var(ddof=1),
                               SeedStream(e.seed, STREAM_IDS["boot_var_spatial"]))
    pol2_100 = e["pol2_100"]
    t1a, t2a, t3a = pol2_100["theta1"], pol2_100["theta2"], pol2_100["theta3"]
    kappa100 = pol2_100["total_curvature"]
    part = assemble_partition(100, t1a, t2a, t3a)

    def partition_gap(idx: np.ndarray) -> float:
        return (assemble_partition(100, t1a[idx], t2a[idx], t3a[idx]).assembled_variance
                - float(kappa100[idx].var(ddof=1)))

    se_gap = bootstrap_stat_se(t1a.size, partition_gap,
                               SeedStream(e.seed, STREAM_IDS["boot_partition"]))
    return [
        _check(7, "variance_bound_planar", var200, "<=",
               bounds.curvature_variance_bound(200) + 4 * se_var200),
        _check(7, "variance_bound_spatial", var_t100, "<=",
               bounds.torsion_variance_bound(100) + 4 * se_var_t100),
        _check(7, "covariance_partition_agree",
               abs(part.assembled_variance - _moments(kappa100)[1]), "<=", 4 * se_gap),
    ]


def _coverage_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 8: coverage of the concentration intervals."""
    half_width = math.pi * math.sqrt(100)
    kappa200 = e["pol2_200"]["total_curvature"]
    lo, hi, _ = bounds.chebyshev_interval(float(kappa200.mean()),
                                          bounds.curvature_variance_bound(200),
                                          math.sqrt(2.0))
    return [
        _check(8, "coverage_torsion_arm",
               chebyshev_coverage(e["arm3_100"]["total_torsion"],
                                  (-half_width, half_width)), "<=", 1 / 3),
        _check(8, "coverage_curvature_closed",
               chebyshev_coverage(kappa200, (lo, hi)), "<=", 0.5),
    ]


# Every check, in the order they run. The ones that read no whole-polygon
# ensemble come first: at workers > 1 the parent computes them while the
# workers draw the prefetched ensembles that the rest read. Criterion 7
# comes next, so that its bootstraps overlap the last draws.
_CHECKS = (
    _structural_checks,
    _open_chain_checks,
    _tv_checks,
    lambda e: formula_checks(),       # criterion 6
    lambda e: density_checks(e.seed, e.N),  # criterion 9
    _variance_checks,
    _curvature_checks,
    _transfer_checks,
    _coverage_checks,
)


def formula_checks() -> List[CheckResult]:
    """Arithmetic checks of the bound formulas (no sampling)."""
    out: List[CheckResult] = []
    mono2 = min(bounds.b2(k + 1, n) - bounds.b2(k, n)
                for n in (10, 50, 100, 1000)
                for k in range(1, n - 5))
    out.append(_check(6, "bound_monotone_planar", mono2, ">", 0.0))
    mono3 = min(bounds.b3(k + 1, n) - bounds.b3(k, n)
                for n in (10, 50, 100, 1000)
                for k in range(1, n - 5))
    out.append(_check(6, "bound_monotone_spatial", mono3, ">", 0.0))
    big_n = 10**6
    spot_ks = [k for k in (1, 10, 100, 1000, 10**4, big_n // 2 - 1)]
    dominance = min(min(bounds.b2(k, 100) - (6 * k + 19) / 100
                        for k in range(1, 50)),
                    min(bounds.b2(k, big_n) - (6 * k + 19) / big_n
                        for k in spot_ks))
    out.append(_check(6, "bound_planar_dominates_asymptote", dominance, ">", 0.0))
    gap2 = max(abs(big_n * bounds.b2(k, big_n) - bounds.asymptotic_slope(2, k))
               for k in range(1, 11))
    out.append(_check(6, "bound_planar_asymptote_gap", gap2, "<=", 0.01))
    gap3 = max(abs(big_n * bounds.b3(k, big_n) - bounds.asymptotic_slope(3, k))
               for k in range(2, 11))
    out.append(_check(6, "bound_spatial_asymptote_gap", gap3, "<=", 0.01))
    out.append(_check(6, "alpha_threshold_planar",
                      abs(bounds.alpha_threshold(2) - (4 - math.sqrt(11)) / 5),
                      "<=", 1e-9))
    # Root of the dim-3 limit equation, frozen from exact arithmetic
    # (the quartic 5a^4 - 18a^3 + 24a^2 - 14a + 1 on (0, 1)).
    alpha3_root = 0.08235329108655530
    out.append(_check(6, "alpha_threshold_spatial",
                      abs(bounds.alpha_threshold(3) - alpha3_root), "<=", 1e-6))
    grid = [(k, n) for n in (20, 50, 100, 1000)
            for k in range(2, min(8, n - 7) + 1)]
    assembly2 = max(abs(bounds.b2(k, n)
                        - (bounds.ortho_block_bound(k, 2, n)
                           + bounds.sphere_marginal_bound(2 * k, 2 * n)))
                    for k, n in grid)
    out.append(_check(6, "assembly_identity_planar", assembly2, "<=", 1e-12))
    assembly3 = max(abs(bounds.b3(k, n)
                        - (bounds.unitary_block_bound(k, 2, n)
                           + bounds.sphere_marginal_bound(4 * k, 4 * n)))
                    for k, n in grid)
    out.append(_check(6, "assembly_identity_spatial", assembly3, "<=", 1e-12))
    return out


def _block_gram_scalars(seed: int, stream_id: int, N: int,
                        n: int) -> Dict[int, np.ndarray]:
    """Delta* Delta for the leading p x 1 blocks (p = 1, 2) of N Haar
    unitaries of size n, read off N two-edge arm2 heads.

    A Haar column u is uniform on the unit sphere of C^n, as in the arm2
    construction, whose edges are e_j = 2 u_j^2: so |u_j|^2 = |e_j| / 2.
    """
    from .ensembles import segment_samples

    heads = segment_samples("arm2", n, 2, N, seed, stream_id=stream_id)
    half = np.linalg.norm(heads.reshape(N, 2, 2), axis=2) / 2.0
    return {1: half[:, 0], 2: half[:, 0] + half[:, 1]}


def density_checks(seed: int, N: int) -> List[CheckResult]:
    """Normalization, sampled-law, and ratio-maximizer checks."""
    grams10 = _block_gram_scalars(seed, STREAM_IDS["unitary_blocks"], N, 10)
    return _density_checks(grams10)


def _density_checks(grams10: Dict[int, np.ndarray]) -> List[CheckResult]:
    """``density_checks`` on the Haar-block scalars of its n = 10 stream."""
    from scipy import integrate, stats

    out: List[CheckResult] = []
    integral, _ = integrate.quad(
        lambda u: math.pi * densities.block_density(complex(math.sqrt(u)), 10),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    out.append(_check(9, "block_normalization", abs(integral - 1.0), "<=", 1e-8))
    ks = ks_distance(grams10[1], stats.beta(1, 9).cdf)
    out.append(_check(9, "block_radial_law", ks, "<", 0.01))
    for r, loc in ((1, 0.10), (2, 0.15)):
        argmax, peak = densities.ratio_profile(r, 20, 10**5)
        out.append(_check(9, f"ratio_argmax_r{r}",
                          abs(argmax - loc), "<=", 1e-5))
        out.append(_check(9, f"ratio_max_bound_r{r}", peak, "<=",
                          1.0 / (1.0 - (r + 1) / 20)))
    return out


def extended_density_checks(seed: int, N: int) -> List[CheckResult]:
    """density_checks plus extra normalizations and sampled-law agreements.

    Adds the (p,q) = (2,1) block normalization, complex Wishart and scalar
    CBI normalizations by quadrature, and KS agreement of sampled
    Delta* Delta with the CBI law, i.e. Beta(p, n-p), for p in {1, 2} and
    n in {6, 10}. Each Haar-block stream is drawn once.
    """
    from scipy import integrate, stats

    grams = {n: _block_gram_scalars(seed, STREAM_IDS[key], N, n)
             for n, key in ((6, "unitary_blocks_n6"), (10, "unitary_blocks"))}
    out = _density_checks(grams[10])
    # Lebesgue measure on a 2 x 1 complex block with |Delta|^2 = u has
    # radial volume element pi^2 u du on the unit ball of C^2.
    integral, _ = integrate.quad(
        lambda u: math.pi**2 * u * densities.block_density(
            np.array([[math.sqrt(u)], [0.0]]), 10),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    out.append(_check(9, "block_normalization_p2",
                      abs(integral - 1.0), "<=", 1e-8))
    for n in (2, 5, 10):
        integral, _ = integrate.quad(
            lambda v: densities.wishart_density(v, 1, n, 1.0),
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
        out.append(_check(9, f"wishart_normalization_n{n}",
                          abs(integral - 1.0), "<=", 1e-8))
    integral, _ = integrate.quad(
        lambda u: densities.cbi_density(u, 1, 2.0, 8.0),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    out.append(_check(9, "cbi_normalization", abs(integral - 1.0), "<=", 1e-8))
    for n in (6, 10):
        for p in (1, 2):
            ks = ks_distance(grams[n][p], stats.beta(p, n - p).cdf)
            out.append(_check(9, f"block_sampling_agreement_p{p}_n{n}",
                              ks, "<", 0.015))
    return out

"""End-to-end verification suite.

Runs every acceptance check at a fixed master seed: structural closure and
perimeter, open-chain angle moments, closed-polygon curvature means,
expectation transfer, binned TV against the closed-form bounds, the bound
formula arithmetic, variance bounds with bootstrap slack, Chebyshev
coverage, and the matrix-density checks.

Each logical sampling task owns a fixed stream id of the master seed (the
registry below), so checks are statistically independent, reruns are
byte-identical, and the worker count never changes a single output value.
The functional ensembles the checks read are a table of requests, each
drawn once per run; the checks are small functions, one per criterion,
and each gate rule that several rows share is one function. At workers > 1
the worker pool draws the plans that read a total while this process draws
everything else, criterion 1's structural polygons included, and runs the
checks that do not read them.

The density checks take their Beta CDFs from ``scipy.special.betainc``,
imported inside `density_checks` and `extended_density_checks`, and
integrate their normalizations by fixed Gauss rules from numpy. So
importing this module loads numpy only, and a verify run loads
``scipy.special`` and no other part of scipy.
"""
from __future__ import annotations

import functools
import math
import operator
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


_COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def _check(criterion: int, name: str, measured: float, op: str,
           threshold: float) -> CheckResult:
    if op not in _COMPARE:
        raise ValueError(f"unknown comparison {op!r}")
    return CheckResult(criterion, name, float(measured), float(threshold), op,
                       _COMPARE[op](measured, threshold))


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


# Functional ensemble requests: stream name -> (space, n, the functionals it
# reads). Each is drawn once per run, N samples. The order sets only the
# order of the pool's queue: at workers > 1 the pool draws the plans that
# read a total in this order, the three that criterion 7 bootstraps first.
_REQUESTS = {
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

    At workers > 1 the plans that read a total, and so draw whole polygons,
    go to the worker pool before any check runs. Every other draw of a run
    runs in this process at one worker, so that it does not queue behind
    them: at 2 workers on 2 cores, desk verify took 9.5-10.4 s when its
    400k-sample TV draws and its 5-edge arm3_50 plan queued on the pool,
    and 8.4-8.7 s with them in-process (4 runs).
    """

    def __init__(self, scale: int, seed: int, workers: int):
        self.N = DESK_N * scale
        self.N_tv = DESK_N_TV * scale
        self.N_struct = DESK_N_STRUCT * scale
        self.seed, self.workers = seed, workers
        self._drawn: Dict[str, object] = {}

    def _draw_args(self, name: str):
        space, n, reads = _REQUESTS[name]
        task = ("functionals", reads)
        whole = ensembles._task_window(space, n, task) == n
        return space, n, task, self.workers if whole else 1

    def prefetch(self) -> None:
        """Submit every request that reads a total to the worker pool, so
        that the workers draw while the checks that do not read them run."""
        for name in _REQUESTS:
            space, n, task, workers = self._draw_args(name)
            if workers > 1:
                ensembles._prefetch(space, n, self.N, self.seed, STREAM_IDS[name],
                                    task, workers)

    def __getitem__(self, name: str):
        if name not in self._drawn:
            space, n, (_, reads), workers = self._draw_args(name)
            self._drawn[name] = functional_samples(
                space, n, self.N, list(reads), self.seed,
                stream_id=STREAM_IDS[name], workers=workers)[0]
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
        e = _Ensembles(10 if level == "deep" else 1, seed, workers)
        e.prefetch()
        results = [r for check in _CHECKS for r in check(e)]
    results.sort(key=lambda r: r.criterion)  # stable: a check's rows keep their order
    return results


def _mean_check(criterion: int, name: str, samples: np.ndarray,
                target: float) -> CheckResult:
    """Mean within 4 SE of its target: |mean - target| <= 4 SE of the mean."""
    mean, _, se = _moments(samples)
    return _check(criterion, name, abs(mean - target), "<=", 4 * se)


def _transfer_check(name: str, closed: np.ndarray, open_: np.ndarray,
                    gap: float) -> CheckResult:
    """Expectation transfer: the closed and open means differ by at most
    the transfer gap plus 4 (SE_closed + SE_open)."""
    closed_mean, _, closed_se = _moments(closed)
    open_mean, _, open_se = _moments(open_)
    return _check(4, name, abs(closed_mean - open_mean), "<=",
                  gap + 4 * (closed_se + open_se))


def _variance_check(name: str, samples: np.ndarray, bound: float,
                    stream: SeedStream) -> CheckResult:
    """Variance bound: the unbiased sample variance is at most the bound
    plus 4 bootstrap SE of that variance, resampled from ``stream``."""
    se = bootstrap_se(samples, lambda a: a.var(ddof=1), stream)
    return _check(7, name, float(samples.var(ddof=1)), "<=", bound + 4 * se)


# Node counts of the fixed Gauss rules of ``_normalization_check``. Every
# integrand it is given is a polynomial of degree at most 9 on [0, 1], or
# such a polynomial times e^-v on [0, inf), which these rules integrate
# exactly up to rounding (degree 63 and 31).
_LEGENDRE_NODES = 32
_LAGUERRE_NODES = 16


@functools.cache
def _gauss_rule(upper: float):
    """(node, weight) pairs of the Gauss rule for an integral over
    [0, upper]: Gauss-Legendre, or for ``upper=inf`` Gauss-Laguerre with
    its weights times e^x, so that both integrate against Lebesgue measure."""
    if upper == math.inf:
        x, w = np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)
        return tuple((float(xi), float(wi) * math.exp(xi)) for xi, wi in zip(x, w))
    x, w = np.polynomial.legendre.leggauss(_LEGENDRE_NODES)
    return tuple((upper * float(xi + 1) / 2, upper * float(wi) / 2)
                 for xi, wi in zip(x, w))


def _gauss_integral(density, upper: float) -> float:
    """The integral of density over [0, upper] by ``_gauss_rule``, summed by
    ``math.fsum`` so that it does not depend on the BLAS build."""
    return math.fsum(w * density(x) for x, w in _gauss_rule(upper))


def _normalization_check(name: str, density, upper: float = 1.0) -> CheckResult:
    """Normalization by quadrature: |integral of density over [0, upper] - 1|
    <= 1e-8, by ``_gauss_integral``: Gauss-Legendre at 32 nodes, or
    Gauss-Laguerre at 16 nodes for ``upper=inf``.

    On the six integrands of the density checks the measured error is
    rounding: at most 1.6e-15 (Legendre) and 1.4e-14 (Laguerre), within
    1.3e-14 of ``scipy.integrate.quad`` at 1e-12 absolute and relative
    tolerance.
    """
    return _check(9, name, abs(_gauss_integral(density, upper) - 1.0), "<=", 1e-8)


def _structural_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 1: every closed sample closes and has perimeter 2.

    The whole 50-gons are drawn here at one worker: a segment draw returns
    every edge, so on the pool the parent spends its time receiving them.
    """
    out = []
    for space in ("pol2", "pol3"):
        edges = ensembles.segment_samples(
            space, 50, 50, e.N_struct, e.seed,
            stream_id=STREAM_IDS[f"struct_{space}"]).reshape(e.N_struct, 50, -1)
        residual = float(np.max(np.linalg.norm(edges.sum(axis=1), axis=1)))
        perim_gap = float(np.max(np.abs(np.linalg.norm(edges, axis=2).sum(axis=1) - 2.0)))
        out.append(_check(1, f"structural_{space}_closure", residual, "<=", 1e-10))
        out.append(_check(1, f"structural_{space}_perimeter", perim_gap, "<=", 1e-10))
    return out


def _open_chain_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 2: open-chain angle moments."""
    arm2, arm3 = e["arm2_100"], e["arm3_50"]
    tau1 = arm3["tau1"]
    rho = float(np.corrcoef(tau1, arm3["tau3"])[0, 1])
    return [
        _mean_check(2, "arm_turning_mean", arm2["theta1"], math.pi / 2),
        _mean_check(2, "arm_turning_second_moment", arm2["theta1^2"], math.pi**2 / 3),
        _mean_check(2, "arm_torsion_mean", tau1, 0.0),
        _check(2, "arm_torsion_variance",
               abs(_moments(tau1)[1] - math.pi**2 / 3) / (math.pi**2 / 3), "<=", 0.05),
        _check(2, "arm_torsion_correlation", abs(rho), "<=", 4 / math.sqrt(tau1.size)),
    ]


def _curvature_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 3: closed-polygon curvature means."""
    k100_mean, _, k100_se = _moments(e["pol2_100"]["total_curvature"])
    excess = k100_mean - 50 * math.pi
    return [
        # n pi/2 + (pi/4) 2n/(2n - 3) at n = 50: Cantarella, Grosberg, Kusner
        # and Shonkwiler, "The expected total curvature of random polygons"
        _mean_check(3, "closed_curvature_mean_spatial", e["pol3_50"]["total_curvature"],
                    25 * math.pi + (math.pi / 4) * (100 / 97)),
        _check(3, "closed_curvature_excess_nonneg", excess, ">=", 0.0),
        _check(3, "closed_curvature_excess_bound", excess, "<=",
               100 * math.pi * bounds.b2(2, 100) + 4 * k100_se),
    ]


def _transfer_checks(e: _Ensembles) -> List[CheckResult]:
    """Criterion 4: expectation transfer between closed and open chains."""
    return [
        _transfer_check("transfer_turning", e["pol2_100"]["theta1"], e["arm2_100"]["theta1"],
                        bounds.expectation_transfer_gap(math.pi, 2, 2, 100)),
        _transfer_check("transfer_torsion", e["pol3_100"]["tau1"], e["arm3_100"]["tau1"],
                        bounds.expectation_transfer_gap(math.pi, 3, 3, 100)),
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
    out = [
        _variance_check("variance_bound_planar", e["pol2_200"]["total_curvature"],
                        bounds.curvature_variance_bound(200),
                        SeedStream(e.seed, STREAM_IDS["boot_var_planar"])),
        _variance_check("variance_bound_spatial", e["pol3_100"]["total_torsion"],
                        bounds.torsion_variance_bound(100),
                        SeedStream(e.seed, STREAM_IDS["boot_var_spatial"])),
    ]
    pol2_100 = e["pol2_100"]
    t1a, t2a, t3a = pol2_100["theta1"], pol2_100["theta2"], pol2_100["theta3"]
    kappa100 = pol2_100["total_curvature"]
    part = assemble_partition(100, t1a, t2a, t3a)

    def partition_gap(idx: np.ndarray) -> float:
        return (assemble_partition(100, t1a[idx], t2a[idx], t3a[idx]).assembled_variance
                - float(kappa100[idx].var(ddof=1)))

    se_gap = bootstrap_stat_se(t1a.size, partition_gap,
                               SeedStream(e.seed, STREAM_IDS["boot_partition"]))
    out.append(_check(7, "covariance_partition_agree",
                      abs(part.assembled_variance - _moments(kappa100)[1]), "<=",
                      4 * se_gap))
    return out


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


# Every check, in the order they run. The ones that read no pooled ensemble
# come first: at workers > 1 the parent computes them while the workers
# draw the prefetched ensembles that the rest read. Criterion 7 comes next,
# so that its bootstraps overlap the last draws.
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
    # name, dimension, segment bound, its block term, real coordinates per
    # edge in its sphere term, first k of its asymptote rows
    families = (("planar", 2, bounds.b2, bounds.ortho_block_bound, 2, 1),
                ("spatial", 3, bounds.b3, bounds.unitary_block_bound, 4, 2))
    out = [_check(6, f"bound_monotone_{name}",
                  min(b(k + 1, n) - b(k, n) for n in (10, 50, 100, 1000)
                      for k in range(1, n - 5)), ">", 0.0)
           for name, _, b, _, _, _ in families]
    big_n = 10**6
    dominance = min(min(bounds.b2(k, 100) - (6 * k + 19) / 100
                        for k in range(1, 50)),
                    min(bounds.b2(k, big_n) - (6 * k + 19) / big_n
                        for k in (1, 10, 100, 1000, 10**4, big_n // 2 - 1)))
    out.append(_check(6, "bound_planar_dominates_asymptote", dominance, ">", 0.0))
    out += [_check(6, f"bound_{name}_asymptote_gap",
                   max(abs(big_n * b(k, big_n) - bounds.asymptotic_slope(dim, k))
                       for k in range(k0, 11)), "<=", 0.01)
            for name, dim, b, _, _, k0 in families]
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
    out += [_check(6, f"assembly_identity_{name}",
                   max(abs(b(k, n) - (block(k, 2, n)
                                      + bounds.sphere_marginal_bound(c * k, c * n)))
                       for k, n in grid), "<=", 1e-12)
            for name, _, b, block, c, _ in families]
    return out


def _block_gram_scalars(seed: int, stream_id: int, N: int,
                        n: int) -> Dict[int, np.ndarray]:
    """Delta* Delta for the leading p x 1 blocks (p = 1, 2) of N Haar
    unitaries of size n, read off N two-edge arm2 heads.

    A Haar column u is uniform on the unit sphere of C^n, as in the arm2
    construction, whose edges are e_j = 2 u_j^2: so |u_j|^2 = |e_j| / 2.
    """
    heads = ensembles.segment_samples("arm2", n, 2, N, seed, stream_id=stream_id)
    half = np.linalg.norm(heads.reshape(N, 2, 2), axis=2) / 2.0
    return {1: half[:, 0], 2: half[:, 0] + half[:, 1]}


def density_checks(seed: int, N: int) -> List[CheckResult]:
    """Normalization, sampled-law, and ratio-maximizer checks."""
    return _density_checks(_block_gram_scalars(seed, STREAM_IDS["unitary_blocks"], N, 10))


def _density_checks(grams10: Dict[int, np.ndarray]) -> List[CheckResult]:
    """``density_checks`` on the Haar-block scalars of its n = 10 stream."""
    from scipy.special import betainc

    out = [_normalization_check(
        "block_normalization",
        lambda u: math.pi * densities.block_density(complex(math.sqrt(u)), 10))]
    ks = ks_distance(grams10[1], functools.partial(betainc, 1, 9))
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
    CBI normalizations by ``_normalization_check``'s Gauss rules, and KS
    agreement of sampled Delta* Delta with the CBI law, i.e. Beta(p, n-p),
    whose CDF is ``scipy.special.betainc``, for p in {1, 2} and n in
    {6, 10}. Each Haar-block stream is drawn once.
    """
    from scipy.special import betainc

    grams = {n: _block_gram_scalars(seed, STREAM_IDS[key], N, n)
             for n, key in ((6, "unitary_blocks_n6"), (10, "unitary_blocks"))}
    out = _density_checks(grams[10])
    # Lebesgue measure on a 2 x 1 complex block with |Delta|^2 = u has
    # radial volume element pi^2 u du on the unit ball of C^2.
    out.append(_normalization_check(
        "block_normalization_p2",
        lambda u: math.pi**2 * u * densities.block_density(
            np.array([[math.sqrt(u)], [0.0]]), 10)))
    for n in (2, 5, 10):
        out.append(_normalization_check(
            f"wishart_normalization_n{n}",
            lambda v, n=n: densities.wishart_density(v, 1, n, 1.0), np.inf))
    out.append(_normalization_check(
        "cbi_normalization", lambda u: densities.cbi_density(u, 1, 2.0, 8.0)))
    for n in (6, 10):
        for p in (1, 2):
            ks = ks_distance(grams[n][p], functools.partial(betainc, p, n - p))
            out.append(_check(9, f"block_sampling_agreement_p{p}_n{n}",
                              ks, "<", 0.015))
    return out

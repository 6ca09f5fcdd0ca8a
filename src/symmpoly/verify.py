"""End-to-end verification suite.

Runs every acceptance check at a fixed master seed: structural closure and
perimeter, open-chain angle moments, closed-polygon curvature means,
expectation transfer, binned TV against the closed-form bounds, the bound
formula arithmetic, variance bounds with bootstrap slack, Chebyshev
coverage, and the matrix-density checks.

Each logical sampling task owns a fixed stream id of the master seed (the
registry below), so checks are statistically independent, reruns are
byte-identical, and the worker count never changes a single output value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy import integrate, stats

from . import bounds, densities
# covariance_partition and _haar_unitary_batch have no caller here; they stay
# importable from this module because benchmark tracers wrap them by name.
from .ensembles import (_worker_pool, assemble_partition, bootstrap_se,
                        bootstrap_stat_se, chebyshev_coverage,
                        covariance_partition, estimate_tv, functional_samples,
                        ks_distance)
from .haar import SeedStream, _haar_unitary_batch, _unit_rows
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


def _structural_checks(space: str, n: int, N: int, seed: int, workers: int,
                       out: List[CheckResult]) -> None:
    from .ensembles import segment_samples

    flat = segment_samples(space, n, n, N, seed,
                           stream_id=STREAM_IDS[f"struct_{space}"], workers=workers)
    edges = flat.reshape(N, n, space_dim(space))
    residual = float(np.max(np.linalg.norm(edges.sum(axis=1), axis=1)))
    perim_gap = float(np.max(np.abs(np.linalg.norm(edges, axis=2).sum(axis=1) - 2.0)))
    out.append(_check(1, f"structural_{space}_closure", residual, "<=", 1e-10))
    out.append(_check(1, f"structural_{space}_perimeter", perim_gap, "<=", 1e-10))


def _moments(arr: np.ndarray) -> Tuple[float, float, float]:
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    return mean, var, math.sqrt(var / arr.size)


def run_verify(level: str = "desk", seed: int = 7,
               workers: int = 1) -> List[CheckResult]:
    """Run the full check suite; deep level scales sample counts by 10."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    with _worker_pool(workers):
        return _run_checks(10 if level == "deep" else 1, seed, workers)


def _run_checks(scale: int, seed: int, workers: int) -> List[CheckResult]:
    N = DESK_N * scale
    N_tv = DESK_N_TV * scale
    N_struct = DESK_N_STRUCT * scale
    results: List[CheckResult] = []

    # Criterion 1: every closed sample closes and has perimeter 2.
    _structural_checks("pol2", 50, N_struct, seed, workers, results)
    _structural_checks("pol3", 50, N_struct, seed, workers, results)

    # Criterion 2: open-chain angle moments.
    arm2_vals, _ = functional_samples("arm2", 100, N, ["theta1", "theta1^2"],
                                      seed, stream_id=STREAM_IDS["arm2_100"],
                                      workers=workers)
    t1_mean, _, t1_se = _moments(arm2_vals["theta1"])
    t1sq_mean, _, t1sq_se = _moments(arm2_vals["theta1^2"])
    results.append(_check(2, "arm_turning_mean",
                          abs(t1_mean - math.pi / 2), "<=", 4 * t1_se))
    results.append(_check(2, "arm_turning_second_moment",
                          abs(t1sq_mean - math.pi**2 / 3), "<=", 4 * t1sq_se))
    arm3_vals, _ = functional_samples("arm3", 50, N, ["tau1", "tau3"], seed,
                                      stream_id=STREAM_IDS["arm3_50"],
                                      workers=workers)
    tau1 = arm3_vals["tau1"]
    tau3 = arm3_vals["tau3"]
    tau1_mean, tau1_var, tau1_se = _moments(tau1)
    results.append(_check(2, "arm_torsion_mean", abs(tau1_mean), "<=", 4 * tau1_se))
    results.append(_check(2, "arm_torsion_variance",
                          abs(tau1_var - math.pi**2 / 3) / (math.pi**2 / 3),
                          "<=", 0.05))
    rho = float(np.corrcoef(tau1, tau3)[0, 1])
    results.append(_check(2, "arm_torsion_correlation",
                          abs(rho), "<=", 4 / math.sqrt(tau1.size)))

    # Criterion 3: closed-polygon curvature means.
    pol3_50_vals, _ = functional_samples("pol3", 50, N, ["total_curvature"],
                                         seed, stream_id=STREAM_IDS["pol3_50"],
                                         workers=workers)
    k50_mean, _, k50_se = _moments(pol3_50_vals["total_curvature"])
    expected = 25 * math.pi + (math.pi / 4) * (100 / 97)
    results.append(_check(3, "closed_curvature_mean_spatial",
                          abs(k50_mean - expected), "<=", 4 * k50_se))
    pol2_100_vals, _ = functional_samples(
        "pol2", 100, N, ["theta1", "theta2", "theta3", "total_curvature"],
        seed, stream_id=STREAM_IDS["pol2_100"], workers=workers)
    kappa100 = pol2_100_vals["total_curvature"]
    k100_mean, k100_var, k100_se = _moments(kappa100)
    excess = k100_mean - 50 * math.pi
    results.append(_check(3, "closed_curvature_excess_nonneg", excess, ">=", 0.0))
    results.append(_check(3, "closed_curvature_excess_bound", excess, "<=",
                          100 * math.pi * bounds.b2(2, 100) + 4 * k100_se))

    # Criterion 4: expectation transfer between closed and open chains.
    p_t1_mean, _, p_t1_se = _moments(pol2_100_vals["theta1"])
    results.append(_check(4, "transfer_turning",
                          abs(p_t1_mean - t1_mean), "<=",
                          math.pi * bounds.b2(2, 100) + 4 * (p_t1_se + t1_se)))
    pol3_100_vals, _ = functional_samples("pol3", 100, N,
                                          ["tau1", "total_torsion"], seed,
                                          stream_id=STREAM_IDS["pol3_100"],
                                          workers=workers)
    arm3_100_vals, _ = functional_samples("arm3", 100, N,
                                          ["tau1", "total_torsion"], seed,
                                          stream_id=STREAM_IDS["arm3_100"],
                                          workers=workers)
    p_tau_mean, _, p_tau_se = _moments(pol3_100_vals["tau1"])
    a_tau_mean, _, a_tau_se = _moments(arm3_100_vals["tau1"])
    results.append(_check(4, "transfer_torsion",
                          abs(p_tau_mean - a_tau_mean), "<=",
                          math.pi * bounds.b3(3, 100) + 4 * (p_tau_se + a_tau_se)))

    # Criterion 5: binned TV against the closed-form bounds.
    tv_planar = estimate_tv("pol2", "arm2", 100, 1, N_tv, 12, seed,
                            stream_ids=(STREAM_IDS["tv_planar_a"],
                                        STREAM_IDS["tv_planar_b"]),
                            workers=workers)
    results.append(_check(5, "tv_planar_k1",
                          tv_planar.tv_estimate - tv_planar.null_calibration,
                          "<=", bounds.b2(1, 100)))
    tv_spatial = estimate_tv("pol3", "arm3", 100, 1, N_tv, 8, seed,
                             stream_ids=(STREAM_IDS["tv_spatial_a"],
                                         STREAM_IDS["tv_spatial_b"]),
                             workers=workers)
    results.append(_check(5, "tv_spatial_k1",
                          tv_spatial.tv_estimate - tv_spatial.null_calibration,
                          "<=", bounds.b3(1, 100)))
    tv_control = estimate_tv("arm2", "arm2", 100, 1, N_tv, 12, seed,
                             stream_ids=(STREAM_IDS["tv_control_a"],
                                         STREAM_IDS["tv_control_b"]),
                             workers=workers)
    results.append(_check(5, "tv_null_control",
                          tv_control.tv_estimate - tv_control.null_calibration,
                          "<=", 0.01))

    # Criterion 6: bound formula arithmetic.
    results.extend(formula_checks())

    # Criterion 7: variance bounds with bootstrap slack.
    pol2_200_vals, _ = functional_samples("pol2", 200, N, ["total_curvature"],
                                          seed, stream_id=STREAM_IDS["pol2_200"],
                                          workers=workers)
    kappa200 = pol2_200_vals["total_curvature"]
    var200 = float(kappa200.var(ddof=1))
    se_var200 = bootstrap_se(kappa200, lambda a: a.var(ddof=1),
                             SeedStream(seed, STREAM_IDS["boot_var_planar"]))
    results.append(_check(7, "variance_bound_planar", var200, "<=",
                          bounds.curvature_variance_bound(200) + 4 * se_var200))
    torsion100 = pol3_100_vals["total_torsion"]
    var_t100 = float(torsion100.var(ddof=1))
    se_var_t100 = bootstrap_se(torsion100, lambda a: a.var(ddof=1),
                               SeedStream(seed, STREAM_IDS["boot_var_spatial"]))
    results.append(_check(7, "variance_bound_spatial", var_t100, "<=",
                          bounds.torsion_variance_bound(100) + 4 * se_var_t100))
    t1a = pol2_100_vals["theta1"]
    t2a = pol2_100_vals["theta2"]
    t3a = pol2_100_vals["theta3"]
    part = assemble_partition(100, t1a, t2a, t3a)

    def partition_gap(idx: np.ndarray) -> float:
        return (assemble_partition(100, t1a[idx], t2a[idx], t3a[idx]).assembled_variance
                - float(kappa100[idx].var(ddof=1)))

    se_gap = bootstrap_stat_se(t1a.size, partition_gap,
                               SeedStream(seed, STREAM_IDS["boot_partition"]))
    results.append(_check(7, "covariance_partition_agree",
                          abs(part.assembled_variance - k100_var), "<=",
                          4 * se_gap))

    # Criterion 8: coverage of the concentration intervals.
    torsion_arm = arm3_100_vals["total_torsion"]
    half_width = math.pi * math.sqrt(100)
    results.append(_check(8, "coverage_torsion_arm",
                          chebyshev_coverage(torsion_arm,
                                             (-half_width, half_width)),
                          "<=", 1 / 3))
    lo, hi, _ = bounds.chebyshev_interval(float(kappa200.mean()),
                                          bounds.curvature_variance_bound(200),
                                          math.sqrt(2.0))
    results.append(_check(8, "coverage_curvature_closed",
                          chebyshev_coverage(kappa200, (lo, hi)), "<=", 0.5))

    # Criterion 9: matrix-density checks.
    results.extend(density_checks(seed, N))

    return results


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


def _block_gram_scalars(seed: int, stream_id: int, N: int, n: int,
                        chunk_size: int = 4096) -> Dict[int, np.ndarray]:
    """Delta* Delta for the leading p x 1 blocks (p = 1, 2) of N Haar
    unitaries of size n, sampled with the chunked scheme.

    A column of a Haar unitary is uniform on the unit sphere of C^n, so each
    chunk draws just the two leading coordinates of such a vector, at O(1)
    cost per sample, in place of whole unitaries.
    """
    stream = SeedStream(seed, stream_id)
    parts = {1: [], 2: []}
    start = 0
    chunk = 0
    while start < N:
        count = min(chunk_size, N - start)
        rng = stream.chunk_generator(chunk)
        col_sq = np.abs(_unit_rows(rng, count, n, kind="complex", head=2)) ** 2
        parts[1].append(col_sq[:, 0])
        parts[2].append(col_sq[:, 0] + col_sq[:, 1])
        start += count
        chunk += 1
    return {p: np.concatenate(chunks) for p, chunks in parts.items()}


def density_checks(seed: int, N: int) -> List[CheckResult]:
    """Normalization, sampled-law, and ratio-maximizer checks."""
    out: List[CheckResult] = []
    integral, _ = integrate.quad(
        lambda u: math.pi * densities.block_density(complex(math.sqrt(u)), 10),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    out.append(_check(9, "block_normalization", abs(integral - 1.0), "<=", 1e-8))
    corner = _block_gram_scalars(seed, STREAM_IDS["unitary_blocks"], N, 10)[1]
    ks = ks_distance(corner, stats.beta(1, 9).cdf)
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
    n in {6, 10}.
    """
    out = density_checks(seed, N)
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
    for n, key in ((6, "unitary_blocks_n6"), (10, "unitary_blocks")):
        grams = _block_gram_scalars(seed, STREAM_IDS[key], N, n)
        for p in (1, 2):
            ks = ks_distance(grams[p], stats.beta(p, n - p).cdf)
            out.append(_check(9, f"block_sampling_agreement_p{p}_n{n}",
                              ks, "<", 0.015))
    return out

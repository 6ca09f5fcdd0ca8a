"""Acceptance suite: one test per quantitative criterion, at desk scale.

Criteria 1-9 share a single run of the verification suite (seed 7, four
workers); criterion 10 reruns it through the CLI with one worker and
compares the output file byte for byte with the shared run's CSV. Each
test emits one CRITERION line summarizing its verdict plus the underlying
check lines.
"""
import hashlib
import io
import subprocess
import sys

import pytest

from symmpoly.verify import format_check_line, run_verify, write_results_csv

SEED = 7

DESCRIPTIONS = {
    1: "closed samples close exactly and have perimeter 2",
    2: "open-chain turning/torsion moments match the product law",
    3: "closed-polygon mean curvature matches its closed form and bound",
    4: "closed/open expectation gaps stay within the transfer bounds",
    5: "binned TV between closed and open segments respects the bounds",
    6: "bound formulas: monotonicity, asymptotes, thresholds, identities",
    7: "sampled variances respect the variance bounds and partition",
    8: "concentration intervals cover at the Chebyshev rates",
    9: "matrix densities normalize and match the sampled laws",
    10: "verification output is byte-identical across worker counts",
}

EXPECTED_CHECKS = {
    1: {"structural_pol2_closure", "structural_pol2_perimeter",
        "structural_pol3_closure", "structural_pol3_perimeter"},
    2: {"arm_turning_mean", "arm_turning_second_moment", "arm_torsion_mean",
        "arm_torsion_variance", "arm_torsion_correlation"},
    3: {"closed_curvature_mean_spatial", "closed_curvature_excess_nonneg",
        "closed_curvature_excess_bound"},
    4: {"transfer_turning", "transfer_torsion"},
    5: {"tv_planar_k1", "tv_spatial_k1", "tv_null_control"},
    6: {"bound_monotone_planar", "bound_monotone_spatial",
        "bound_planar_dominates_asymptote", "bound_planar_asymptote_gap",
        "bound_spatial_asymptote_gap", "alpha_threshold_planar",
        "alpha_threshold_spatial", "assembly_identity_planar",
        "assembly_identity_spatial"},
    7: {"variance_bound_planar", "variance_bound_spatial",
        "covariance_partition_agree"},
    8: {"coverage_torsion_arm", "coverage_curvature_closed"},
    9: {"block_normalization", "block_radial_law", "ratio_argmax_r1",
        "ratio_max_bound_r1", "ratio_argmax_r2", "ratio_max_bound_r2"},
}


@pytest.fixture(scope="module")
def verify_results():
    return run_verify("desk", seed=SEED, workers=4)


def _assert_criterion(results, criterion):
    checks = [r for r in results if r.criterion == criterion]
    names = {r.name for r in checks}
    assert names == EXPECTED_CHECKS[criterion], (
        f"criterion {criterion} checks changed: {sorted(names)}")
    for r in checks:
        print(format_check_line(r))
    ok = all(r.passed for r in checks)
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - "
          f"{DESCRIPTIONS[criterion]}")
    failed = [format_check_line(r) for r in checks if not r.passed]
    assert not failed, f"criterion {criterion} failed checks: {failed}"


def test_criterion_01_structural(verify_results):
    _assert_criterion(verify_results, 1)


def test_criterion_02_open_chain_moments(verify_results):
    _assert_criterion(verify_results, 2)


def test_criterion_03_closed_curvature_means(verify_results):
    _assert_criterion(verify_results, 3)


def test_criterion_04_expectation_transfer(verify_results):
    _assert_criterion(verify_results, 4)


def test_criterion_05_tv_within_bounds(verify_results):
    _assert_criterion(verify_results, 5)


def test_criterion_06_bound_formulas(verify_results):
    _assert_criterion(verify_results, 6)


def test_criterion_07_variance_bounds(verify_results):
    _assert_criterion(verify_results, 7)


def test_criterion_08_chebyshev_coverage(verify_results):
    _assert_criterion(verify_results, 8)


def test_criterion_09_matrix_densities(verify_results):
    _assert_criterion(verify_results, 9)


# sha256 of the desk CSV at seed 7. It moves whenever a check consumes its
# stream differently or its draws change in their last bits; such a change
# updates it and says so in CHANGES.md.
DESK_CSV_SHA256 = "46d80ab3aded97bf8fb9c166098126b56d0c0d6bec5585d98f3a5ad88abae853"


def test_desk_csv_digest_is_pinned(verify_results):
    buf = io.StringIO()
    write_results_csv(buf, verify_results)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DESK_CSV_SHA256


def test_criterion_10_byte_identical_across_workers(verify_results, tmp_path,
                                                    src_env):
    # the CLI at one worker against the in-process run at four
    out = tmp_path / "verify_w1.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "symmpoly", "verify", "--level", "desk",
         "--seed", str(SEED), "--workers", "1", "--out", str(out)],
        env=src_env, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("checks passed")
    buf = io.StringIO()
    write_results_csv(buf, verify_results)
    ok = out.read_bytes() == buf.getvalue().encode()
    print(f"CRITERION 10: {'PASS' if ok else 'FAIL'} - {DESCRIPTIONS[10]}")
    assert ok, "verification CSVs differ between worker counts"

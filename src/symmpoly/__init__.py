"""Random polygons from the symmetric measure.

Open arms are squared (or Hopf-lifted) sphere points; closed polygons come
the same way from orthonormal 2-frames, so closure and perimeter 2 hold by
construction rather than by numerical projection. On top of the samplers:
turning/torsion functionals, closed-form TV and variance bounds between
the open and closed laws, matrix-variate densities behind those bounds,
and a seeded Monte Carlo harness that verifies every quantitative claim.

``import symmpoly`` imports no submodule. Each submodule
(``symmpoly.ensembles``, ...) is imported on its first read, and each
public name on the first read of it, from the submodule that defines it
(PEP 562); the name is then bound here. So ``symmpoly.b2`` loads only
``bounds`` and ``errors``, and the samplers load no part of ``verify``,
``io``, ``densities`` or ``cli``.
"""
import importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "bounds": ("alpha_limit", "alpha_threshold", "asymptotic_slope", "b2", "b3",
               "chebyshev_interval", "curvature_variance_bound",
               "expectation_transfer_gap", "ortho_block_bound",
               "sphere_marginal_bound", "torsion_variance_bound",
               "unitary_block_bound"),
    "cli": ("DEFAULT_SEED",),
    "densities": ("block_density", "cbi_density", "ensure_hermitian",
                  "hermitian_logdet", "ln_multigamma", "ratio_profile",
                  "wishart_density"),
    "ensembles": ("CHUNK_SIZE", "CovariancePartition", "EnsembleSummary",
                  "FunctionalStats", "GridHistogram", "assemble_partition",
                  "bootstrap_se", "bootstrap_stat_se", "chebyshev_coverage",
                  "covariance_partition", "estimate_tv", "functional_samples",
                  "ks_distance", "run_ensemble", "segment_samples"),
    "errors": ("BoundUndefinedError", "DegenerateEdgeError",
               "DegenerateTorsionError", "DomainError", "InvalidDimensionError",
               "InvalidSizeError", "ParseError", "ReliabilityError",
               "ResolutionError", "SupportError", "SymmpolyError"),
    "functionals": ("LocalFunctional", "sliding_window_apply", "torsion_angles",
                    "total_curvature", "total_torsion", "turning_angles"),
    "haar": ("SeedStream", "ensure_generator"),
    "io": ("polygon_record_line", "read_ensemble", "write_csv",
           "write_ensemble"),
    "polygons": ("SPACES", "Polygon", "closure_residual", "perimeter",
                 "sample_arm", "sample_pol", "space_dim"),
    "verify": ("STREAM_IDS", "CheckResult", "density_checks",
               "extended_density_checks", "format_check_line",
               "formula_checks", "run_verify", "write_results_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        # the import binds the submodule here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

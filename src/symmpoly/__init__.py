"""Random polygons from the symmetric measure.

Open arms are squared (or Hopf-lifted) sphere points; closed polygons come
the same way from orthonormal 2-frames, so closure and perimeter 2 hold by
construction rather than by numerical projection. On top of the samplers:
turning/torsion functionals, closed-form TV and variance bounds between
the open and closed laws, matrix-variate densities behind those bounds,
and a seeded Monte Carlo harness that verifies every quantitative claim.
"""
from . import bounds, densities, ensembles, io, verify
from .bounds import (BoundEvaluation, alpha_limit, alpha_threshold,
                     asymptotic_slope, b2, b3, chebyshev_interval,
                     curvature_variance_bound, expectation_transfer_gap,
                     ortho_block_bound, sphere_marginal_bound,
                     torsion_variance_bound, unitary_block_bound)
from .cli import DEFAULT_SEED
from .densities import (block_density, cbi_density, ensure_hermitian,
                        hermitian_logdet, ln_multigamma, ratio_argmax_check,
                        ratio_profile, wishart_density)
from .ensembles import (CHUNK_SIZE, CovariancePartition, EnsembleSummary,
                        FunctionalStats, GridHistogram, assemble_partition,
                        bootstrap_se, bootstrap_stat_se, chebyshev_coverage,
                        covariance_partition, estimate_tv, functional_samples,
                        ks_distance, run_ensemble, segment_samples)
from .errors import (BoundUndefinedError, DegenerateEdgeError,
                     DegenerateTorsionError, DomainError,
                     InvalidDimensionError, InvalidSizeError, ParseError,
                     ReliabilityError, ResolutionError, SupportError,
                     SymmpolyError)
from .functionals import (LocalFunctional, sliding_window_apply,
                          torsion_angle, torsion_angles, total_curvature,
                          total_torsion, turning_angle, turning_angles)
from .haar import (Frame2, SeedStream, ensure_generator, sample_frame2,
                   sample_haar_unitary, sample_sphere)
from .io import (polygon_record_line, read_ensemble, write_csv,
                 write_ensemble)
from .polygons import (SPACES, Polygon, Quaternion, closure_residual,
                       hopf_map, perimeter, sample_arm, sample_pol, segment,
                       space_dim, square_map, vertices)
from .verify import (STREAM_IDS, CheckResult, density_checks,
                     extended_density_checks, format_check_line,
                     formula_checks, run_verify, write_results_csv)

__version__ = "0.1.0"

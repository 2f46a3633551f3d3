"""Numerics for fixed-point differentiation and linear response of expanding circle maps.

The library is organized around four layers:

* :mod:`circleresp.spaces` — periodic and interval function representations
  with computable Hölder/C^r norm surrogates;
* :mod:`circleresp.fixed_point` — contraction fixed points, increment
  expansions, and first/second parameter derivatives via (Id - Q)^-1;
* :mod:`circleresp.transfer` — weighted transfer operators of expanding
  circle maps: spectral data, linear response, Gibbs measures, pressure;
* :mod:`circleresp.model_maps` — two self-contained interval fixed-point
  problems with closed-form oracles.

The CLI (:mod:`circleresp.cli`) drives config-file experiments and writes
CSV reports.  Each experiment kind is declared once, in ``cli.EXPERIMENTS``,
which validates a config's keys and checks before the kind runs.
"""

from .errors import (
    BranchNewtonError,
    CircleRespError,
    ConfigError,
    ConfigInfeasibleError,
    ConsistencyError,
    DegenerateFitError,
    MaxIterExceededError,
    MissingCoefficientError,
    NoSpectralGapError,
    NonContractionError,
    NonPositiveEigenfunctionError,
    NormalizationVanishesError,
    NotExpandingError,
    NumericsError,
    OutOfDomainError,
    SingularSystemError,
)
from .fitting import SlopeFit, fit_loglog, fit_semilog, theil_sen_loglog
from .fixed_point import (
    FixedPointResult,
    ParametrizedMap,
    TaylorResidualReport,
    TaylorRow,
    fixed_point_derivative,
    fixed_point_second_derivative,
    fixed_point_second_derivatives,
    iterate_norm_estimate,
    neumann_sum,
    solve_fixed_point,
    sup_norm,
    taylor_residual_scan,
)
from .model_maps import (
    AffineMapConfig,
    CompositionMapConfig,
    affine_holder_experiment,
    affine_map,
    affine_series_solution,
    composition_constraint_suite,
    composition_map,
    composition_second_derivative_check,
)
from .spaces import (
    DEFAULT_SEED,
    DualFunctional,
    GridFunction,
    HolderNormReport,
    IntervalFunction,
    circle_distance,
    circle_nodes,
    compose,
    cr_norm,
    empirical_interpolation_constant,
    holder_seminorm,
    interpolation_derivative_matrix,
    interpolation_matrix,
)
from .transfer import (
    MapFamily,
    SpectralData,
    Weight,
    assemble_operator,
    certify_family,
    check_expanding,
    constant_weight,
    d_u_operator,
    doubling_family,
    exp_scaled_weight,
    geometric_weight,
    gibbs_measure,
    holder_scan_operator,
    inverse_branches,
    lambda_derivative,
    linear_response,
    measure_response,
    normalized_map,
    pressure_s_derivative,
    pressure_s_derivatives,
    spectral_data,
    trig_perturbed_family,
    trig_weight,
    twisted_weight,
)

__version__ = "0.1.0"

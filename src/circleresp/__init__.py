"""Numerics for fixed-point differentiation and linear response of expanding circle maps.

The library is organized around four layers:

* :mod:`circleresp.spaces` — circle and interval functions as node sample
  vectors, closed-form circle inputs as ``TrigSeries``, and computable
  Hölder/C^r norm surrogates;
* :mod:`circleresp.fixed_point` — contraction fixed points, increment
  expansions, and first/second parameter derivatives via (Id - Q)^-1; a
  ``ParametrizedMap`` carries one coefficient per order, each a product
  made once at the base point: P and Q, and the symmetric bilinear
  ``q2_product`` whose diagonal is the order-2 term of the development of
  F(u+h, phi+z) - F(u, phi);
* :mod:`circleresp.transfer` — weighted transfer operators of expanding
  circle maps: spectral data, each with its spectral gap certified by one
  bound in a diagonal Fourier norm fitted to the operator, Gibbs measures,
  pressure, and one ``LinearResponse`` record of lambda, phi, ell and their
  parameter derivatives at a base point;
* :mod:`circleresp.model_maps` — two self-contained interval fixed-point
  problems that exercise the engine end to end.

Every fitted exponent is one Theil–Sen log-log slope above a noise floor
that each scan takes from its own data (:mod:`circleresp.fitting`).

The CLI (:mod:`circleresp.cli`) drives config-file experiments and writes
CSV reports.  Each experiment kind is declared once, in ``cli.EXPERIMENTS``,
with its metrics and its runner.  ``cli._validate`` checks the kind and
each check's metric before the kind runs; a kind's keys are validated by
its runner's reads and ``refuse_unread`` (:mod:`circleresp.config`).  Only
the config knows where a key was set: ``ExperimentConfig.refuse`` places
every config error at the line of the first of its keys that the config
sets and the kind has read.

Importing the package pins glibc's mmap threshold at 2 MiB
(:mod:`circleresp._allocator`), so each large matrix is unmapped when it
is freed and the resident peak does not depend on heap fragmentation.
"""

from . import _allocator
from .errors import (
    BranchNewtonError,
    CircleRespError,
    ConfigError,
    ConsistencyError,
    DegenerateFitError,
    MaxIterExceededError,
    NoSpectralGapError,
    NonContractionError,
    NonPositiveEigenfunctionError,
    NormalizationVanishesError,
    NotExpandingError,
    NumericsError,
    SingularSystemError,
)
from .fitting import theil_sen_loglog
from .fixed_point import (
    FixedPointResult,
    ParametrizedMap,
    TaylorResidualReport,
    TaylorRow,
    fixed_point_derivative,
    fixed_point_second_derivatives,
    solve_fixed_point,
    solve_fixed_points,
    sup_norm,
    taylor_residual_scan,
)
from .model_maps import (
    AffineMapConfig,
    CompositionMapConfig,
    affine_holder_experiment,
    affine_map,
    composition_constraint_suite,
    composition_map,
    composition_second_derivative_check,
)
from .spaces import (
    DEFAULT_SEED,
    TrigSeries,
    circle_distance,
    circle_nodes,
    cr_norm,
    interpolation_matrix,
    interpolation_products,
)
from .transfer import (
    LinearResponse,
    MapFamily,
    SpectralData,
    Weight,
    assemble_operator,
    check_expanding,
    constant_weight,
    d_u_operator,
    exp_scaled_weight,
    geometric_weight,
    gibbs_measure,
    holder_scan_operator,
    inverse_branches,
    linear_response,
    normalized_map,
    pressure_s_derivatives,
    spectral_data,
    trig_perturbed_family,
    trig_weight,
)

_allocator.pin_mmap_threshold()

__version__ = "0.1.0"

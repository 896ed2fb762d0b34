"""Kernel density estimation on [0, 1] with linked boundary conditions.

The estimate solves the heat equation started from the empirical measure,
subject to f(0, t) = r f(1, t) and equal endpoint slopes; sqrt(t) plays the
role of the bandwidth. The package provides the exact kernel/series
evaluators, a binned finite-difference solver, bandwidth selection rules,
a boundary-ratio estimator, and a benchmark harness.
"""

from .bandwidth import (
    BandwidthSelection,
    TargetDensityInfo,
    amise_value,
    estimate_r,
    lscv_bandwidth,
    oracle_amise_bandwidth,
    silverman_bandwidth,
)
from .baselines import cosine_kde, gaussian_kde_baseline
from .binned_solver import (
    BinnedDensity,
    BinnedGrid,
    backward_euler_evolve,
    bin_samples,
    build_four_corners,
    ghost_values,
    matrix_exponential_evolve,
    spectral_data,
)
from .experiments import (
    ExperimentRow,
    expected_cosine_density,
    expected_linked_density,
    rate_fit,
    rows_to_csv,
    run_mise_experiment,
)
from .heat_kernels import eval_K1
from .linked_kernel import estimate_density, eval_linked_kernel, stationary_density
from .series_solver import (
    EmpiricalTransforms,
    empirical_transforms,
    eval_series_solution,
    truncation_bound,
)
from .targets import SyntheticTarget, beta_mixture, cosine_bump, parabolic, parse_target, sample_synthetic, trimodal
from .types import (
    DegenerateSampleError,
    EvaluationGrid,
    FlatDensityError,
    GridDensity,
    RatioEstimationError,
    SampleSet,
    TruncationError,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthSelection",
    "BinnedDensity",
    "BinnedGrid",
    "DegenerateSampleError",
    "EmpiricalTransforms",
    "EvaluationGrid",
    "ExperimentRow",
    "FlatDensityError",
    "GridDensity",
    "RatioEstimationError",
    "SampleSet",
    "SyntheticTarget",
    "TargetDensityInfo",
    "TruncationError",
    "amise_value",
    "backward_euler_evolve",
    "beta_mixture",
    "bin_samples",
    "build_four_corners",
    "cosine_bump",
    "cosine_kde",
    "empirical_transforms",
    "estimate_density",
    "estimate_r",
    "eval_K1",
    "eval_linked_kernel",
    "eval_series_solution",
    "expected_cosine_density",
    "expected_linked_density",
    "gaussian_kde_baseline",
    "ghost_values",
    "lscv_bandwidth",
    "matrix_exponential_evolve",
    "oracle_amise_bandwidth",
    "parabolic",
    "parse_target",
    "rate_fit",
    "rows_to_csv",
    "run_mise_experiment",
    "sample_synthetic",
    "silverman_bandwidth",
    "spectral_data",
    "stationary_density",
    "trimodal",
    "truncation_bound",
]

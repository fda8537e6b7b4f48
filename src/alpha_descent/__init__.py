"""Mixture-weight optimisation on the simplex by alpha-divergence descent.

The package fits the weights of a kernel-smoothed particle mixture to an
unnormalised target by multiplicative updates (power, renyi, entropic
mirror descent, forward KL), with exact finite-support oracles next to the
Monte Carlo estimators and an experiment harness for the two-mode Gaussian
benchmark.
"""

from .descent import (
    ALGORITHMS,
    DescentTrace,
    GuardViolation,
    RateConstants,
    StepDiagnostics,
    TraceRecord,
    emd_step,
    kl_step,
    power_step,
    rate_bound,
    renyi_step,
    run_descent,
)
from .divergence import (
    DescentParams,
    amari_alpha,
    amari_alpha_deriv,
    amari_alpha_deriv_log,
    divergence_exact,
    renyi_objective_exact,
    vr_bound_exact,
    vr_bound_from_logs,
)
from .explore import explore_mean_update, explore_resample
from .gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
)
from .harness import (
    CSV_HEADER,
    EXPLORATIONS,
    ExperimentConfig,
    build_target,
    parse_config,
    read_trace_csv,
    replicate_rng,
    run_experiment,
    run_replicate,
    write_trace,
)
from .model import (
    FiniteSupportProblem,
    GaussianKernel,
    GaussianMixtureTarget,
    Target,
    as_simplex,
    bandwidth_rule,
    gaussian_kernel_logpdf,
)

__version__ = "0.1.0"

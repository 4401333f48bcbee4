"""Two-time-scale decentralized gradient descent over time-varying graphs
with lossy information sharing, plus the tooling that checks its convergence
certificate: schedule validation, randomized inequality tests, explicit rate
constants, and Monte Carlo drivers."""

from .analysis import (
    A_constant,
    RateFit,
    StepSchedule,
    TheoryConstants,
    Thresholds,
    contraction_factor,
    deviation_sq,
    dist_opt_sq,
    fit_rate,
    kappa_factor,
    pi_factor,
    r_norm,
    r_norm_sq,
    theorem_bound,
    thresholds,
    weighted_mean,
    xi_constants,
)
from .dynamics import (
    MonteCarlo,
    RunConfig,
    RunTrace,
    empirical_bounds,
    monte_carlo,
    run,
)
from .lemmas import CheckReport, SuiteReport, run_suite
from .noise import (
    NoiseModel,
    gaussian_channel,
    noise_variance_bound,
    noiseless,
    quantizer_variance_coeff,
    stochastic_quantize,
    stochastic_quantizer,
)
from .objective import (
    Problem,
    apportion_counts,
    build_problem,
    local_quadratics,
    quadratic_problem,
    partition_indices,
    synthesize_regression,
)
from .reporting import VERSION as __version__
from .rng import philox
from .topology import (
    MixingSchedule,
    ValidationReport,
    edge_set,
    fixed_cycle_matrix,
    fixed_cycle_schedule,
    gossip_matrix,
    gossip_pair,
    gossip_schedule,
    make_weight_vector,
    matrix_list_schedule,
    parse_matrix_file,
    stationary_weights,
    strongly_connected,
    validate_schedule,
)

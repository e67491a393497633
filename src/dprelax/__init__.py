"""Gradual relaxation of the privacy guarantee of randomized responses.

The package provides the relaxation mechanism itself (`mechanism`), unbiased
frequency and mean estimators (`estimation`), a per-bit RAPPOR noisy-sampling
baseline (`rappor`), adversarial inference methods with their theoretical
error floor (`inference`), exhaustive small-instance auditors (`audit`), and
a deterministic experiment runner with a CLI (`experiments`, `cli`).
"""

from .audit import (
    audit_composition_ldp,
    audit_noisy_sampling_epsilon,
    audit_step_epsilon,
)
from .errors import (
    BudgetDecreaseError,
    ConfigError,
    DPRelaxError,
    EnumerationLimitError,
    IllConditionedError,
    ParameterError,
)
from .estimation import (
    FrequencyEstimate,
    discretize_mean,
    estimate_binary,
    estimate_mean,
    estimate_poly,
    frequency_estimate_covariance,
    histogram,
    variance_binary_estimate,
)
from .experiments import (
    ExperimentConfig,
    compare_noisy_sampling,
    config_from_dict,
    kernel_table_rows,
    load_config,
    simulate_experiment,
)
from .inference import (
    attack_guesses_matrix,
    balanced_subset,
    iter_attack_guesses,
    min_error_rate,
    posterior,
    uniform_prior,
)
from .mechanism import (
    EPSILON_CAP,
    RelaxKernel,
    RelaxationChain,
    ResponseDistribution,
    chain_likelihood,
    chain_log_likelihoods,
    iter_log_likelihoods,
    relax_kernel,
    relax_step,
    rr_distribution,
    start_chain,
)
from .rappor import (
    NoisySamplingSchedule,
    RapporParams,
    eps_noisy_sampling,
    noisy_sampling_schedule,
    rappor_params,
    variance_noisy_sampling,
)

__version__ = "0.1.0"

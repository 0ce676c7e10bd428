"""Tree-structured covariance learning for latent Gaussian vectors observed
through a noisy underdetermined linear map.

The core pieces: validated Gaussian covariance types and divergences
(:mod:`treecov.gaussian`), maximum-mutual-information spanning trees and
their marginal-matching covariances (:mod:`treecov.tree`), the observation
model y = H x + w (:mod:`treecov.linear`), the alternating posterior /
tree-refit iteration (:mod:`treecov.em`), and the synthetic comparison
experiment with its CLI (:mod:`treecov.experiment`, :mod:`treecov.cli`).
"""

__version__ = "0.1.0"

from .gaussian import (
    CovMatrix,
    DegenerateCorrelationError,
    NotPositiveDefiniteError,
    NumericalError,
    kl_gaussian,
    mutual_information_matrix,
)
from .tree import (
    SpanningTree,
    TreeCovMatrix,
    chow_liu,
    prufer_decode,
    tree_covariance,
)
from .linear import (
    LinearModel,
    ObservationSet,
    RankDeficientError,
    empirical_gaussian,
    observation_cov,
    read_matrix_csv,
    sample_observations,
    write_matrix_csv,
)
from .em import (
    EmConfig,
    EmIteration,
    EmMonotonicityWarning,
    EmTrace,
    StopReason,
    compute_omega,
    run_em,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    MAggregate,
    SweepResult,
    TrialFailure,
    TrialRecord,
    config_from_mapping,
    derive_seed,
    emit_results,
    generate_ground_truth,
    generate_mixing,
    generate_prior,
    parse_config_file,
    run_sweep,
)

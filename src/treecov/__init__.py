"""Tree-structured covariance learning for latent Gaussian vectors observed
through a noisy underdetermined linear map.

The core pieces: validated Gaussian covariance types and divergences
(:mod:`treecov.gaussian`), maximum-mutual-information spanning trees and
their marginal-matching covariances (:mod:`treecov.tree`), the observation
model y = H x + w (:mod:`treecov.linear`), the alternating posterior /
tree-refit iteration (:mod:`treecov.em`), and the synthetic comparison
experiment with its CLI (:mod:`treecov.experiment`, :mod:`treecov.cli`).
This namespace holds the Python API that README documents; every other
name is imported from its module.
"""

__version__ = "0.1.0"

from .gaussian import (
    CovMatrix,
    DegenerateCorrelationError,
    NotPositiveDefiniteError,
    NumericalError,
    kl_gaussian,
)
from .tree import SpanningTree, TreeCovMatrix, chow_liu, tree_covariance
from .linear import (
    LinearModel,
    ObservationSet,
    RankDeficientError,
    read_matrix_csv,
    read_observations,
    sample_observations,
    write_matrix_csv,
)
from .em import EmConfig, EmMonotonicityWarning, EmTrace, run_em
from .experiment import ConfigError, ExperimentConfig, SweepResult, emit_results, run_sweep

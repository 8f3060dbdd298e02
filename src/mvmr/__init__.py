"""Multivariable Mendelian randomization with correlated instrument sets.

Identification on linear SEM causal diagrams (path coefficients,
d-separation, instrumental sets), summary-statistic estimators (LS, GMM,
shrunk variants) with inference diagnostics, a genotype/LD simulation
engine reproducing the reference experiments, and a locus pipeline that
classifies candidate causal genes from eQTL/GWAS summary files.
"""

from .errors import (
    CollinearExposuresError,
    CombinatorialLimitError,
    FeasibilityError,
    GraphStructureError,
    IllConditionedLdError,
    InvalidStatisticsError,
    MvmrError,
    PathEnumerationError,
    PipelineConfigError,
    ScenarioError,
    StandardizationError,
    SummaryFormatError,
    UnderdeterminedError,
    UnknownNodeError,
)
from .estimators import (
    EstimateResult,
    IndividualData,
    SummaryStatistics,
    conditional_f,
    estimate,
    gmm_optimal,
    identifiability_diagnostics,
    ls_estimate,
    p_values,
    standard_errors,
    twmr_shrunk_estimate,
)
from .graph import (
    CausalDiagram,
    InstrumentalSetResult,
    Path,
    SemParameters,
    calibrate_unit_variances,
    check_instrumental_set,
    d_separated,
    enumerate_paths,
    find_instrumental_subset,
    implied_covariance,
    parse_diagram_text,
    sem_from_values,
    wright_covariance,
)

__version__ = "0.1.0"

"""Exception types shared across the package."""


class MvmrError(Exception):
    """Base class for all package-specific errors.

    ``replicate`` is the index of the replicate whose refusal this is, when
    a check over a stack of replicates raised it; 0 otherwise.
    """

    replicate = 0


class GraphStructureError(MvmrError, ValueError):
    """Invalid causal diagram (cycles, self loops, duplicate nodes/edges)."""


class UnknownNodeError(MvmrError, LookupError):
    """A node name was not found in the diagram."""


class PathEnumerationError(MvmrError, RuntimeError):
    """Path enumeration refused: diagram exceeds the configured node cap."""


class StandardizationError(MvmrError, ValueError):
    """Standardized mode requested but implied variances are not unit."""


class CombinatorialLimitError(MvmrError, RuntimeError):
    """Instrumental-set relabeling search exceeds the supported set size."""


class UnderdeterminedError(MvmrError, ValueError):
    """Instrument-exposure covariance matrix is rank deficient, or its
    weighted moment matrix singular: the causal effects are not
    identifiable from these inputs.  The message names the fault, and the
    rank when it falls short; the design's determinant/rank report is its
    row of ``SummaryStatistics.diagnostics.rows()``."""


class IllConditionedLdError(MvmrError, ValueError):
    """Instrument LD matrix is numerically singular (near-duplicate SNPs)."""


class InvalidStatisticsError(MvmrError, ValueError):
    """Summary statistics or individual-level data that no estimator can
    read: wrong shapes, non-finite entries, an LD matrix that is not a
    correlation matrix, a constant column or too few observations."""


class CollinearExposuresError(MvmrError, ValueError):
    """Exposure columns are collinear; conditioning regression impossible."""


class ScenarioError(MvmrError, ValueError):
    """Malformed or inconsistent simulation scenario."""


class FeasibilityError(ScenarioError):
    """Requested MAF / correlation combination cannot be realised by the
    allele-level Markov sampler (conditional allele probability outside
    [0, 1])."""


class PipelineConfigError(MvmrError, ValueError):
    """A locus pipeline setting out of its range: a negative or non-integer
    radius, a non-finite threshold, an r^2 or p threshold outside [0, 1],
    or an unknown estimator."""


class SummaryFormatError(MvmrError, ValueError):
    """Malformed eQTL/GWAS/LD summary file."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc = f" [{loc}]"
        super().__init__(f"{message}{loc}")
        self.path = path
        self.line = line

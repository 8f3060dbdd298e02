"""Causal-effect estimators for multivariable MR from summary statistics.

All estimators consume instrument-exposure covariances (L x K), the
instrument-outcome covariance vector (L), and the instrument correlation
(LD) matrix (L x L), computed on standardized data.  The family

    c(Delta) = (S_EX^T Delta S_EX)^-1 S_EX^T Delta S_EY

is implemented with exactly two weightings: Delta = I, the plain
least-squares solution (``ls_estimate``), and Delta the inverse LD matrix,
the minimum-variance weighting that coincides with two-stage least squares
(``gmm_optimal``).  A shrunk variant (``twmr_shrunk_estimate``) reproduces
the behaviour of a published transcriptome-wide MR implementation whose
weight matrix is regularised toward the identity with the fixed factor
``TWMR_ALPHA``.

A :class:`SummaryStatistics` is immutable and factorises its design once:
the identifiability diagnostics, the inverse LD matrix and the optimally
weighted normal equations are computed on first use and shared by the
diagnostics, every estimator and the standard errors.  ``_ld`` is the one
check of the LD matrix Sigma_EE and ``_moments`` the one check of the
weighted moment matrix; the estimators solve what they cached.
:func:`estimate` returns one complete :class:`EstimateResult`, effects
plus inference.

Every array has a leading design axis: :class:`IndividualData` and
:class:`SummaryStatistics` hold a stack of R designs, the replicates of a
simulated cell or the designs of a locus run (a cross-product stack of
shape (R, d, d), ``sigma_EX`` of shape (R, L, K)), and the checks,
factorisations, estimators, standard errors, p-values and conditional F
run once for the stack; numpy's stacked ``solve``, ``inv``, ``eigvalsh``,
``svd`` and ``det`` call the same LAPACK routine per matrix, so each
design's numbers are bitwise those of the design alone.  A single design
is the one-design stack (:func:`one_design`).  Construction refuses a
stack with the refusal of its lowest refused design.  An estimator
records each refused design's refusal, an error whose message names the
fault, in ``EstimateResult.refusals`` and leaves its rows NaN.  The
identifiability report ``SummaryStatistics.diagnostics`` is stacked too;
:meth:`IdentifiabilityReport.rows` reads it one design at a time.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CollinearExposuresError,
    IllConditionedLdError,
    InvalidStatisticsError,
    UnderdeterminedError,
)

RANK_RTOL = 1e-10
LD_CONDITION_LIMIT = 1e12
BONFERRONI_DEFAULT = 3e-4  # the 0.05/150 multiple-testing threshold, as quoted
TWMR_ALPHA = 1.0 / math.sqrt(3781)  # the published implementation's fixed shrinkage

DET_PASS = 0.05
DET_FAIL = 0.001


def _read_only(array):
    array.flags.writeable = False
    return array


def _floats(value, name, error=InvalidStatisticsError):
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be an array of numbers") from None


def one_design(value, vector=False):
    """``value``, an array of a single design, as the one-design stack: a
    matrix, a scalar or vector read as its one row, or with ``vector`` the
    vector of all its entries.  A value that is no array of numbers is
    passed on, for the check of the stack to refuse in its turn."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return [value]
    return array.reshape(1, -1) if vector else np.atleast_2d(array)[None]


def _T(matrices):
    """Each matrix of a stack transposed."""
    return matrices.swapaxes(-1, -2)


def _at(values, replicate):
    """Replicate ``replicate``'s entry of per-replicate ``values`` as a Python
    scalar."""
    return values[replicate].item()


def _refusals(checks, refusals=None):
    """``{replicate: MvmrError}``: each replicate refused by a check gets the
    first refusing check's ``make(replicate)``, checks taken in order after
    the ``refusals`` already made.  ``checks`` are ``(mask, make)`` pairs, a
    mask holding one numpy flag per replicate."""
    refusals = {} if refusals is None else dict(refusals)
    for mask, make in checks:
        for i in np.flatnonzero(mask).tolist():
            if i not in refusals:
                refusals[i] = make(i)
    return refusals


def _refuse_lowest(checks):
    """Raise the refusal of the lowest replicate that ``checks`` refuse (see
    :func:`_refusals`), its index as the exception's ``replicate``."""
    refusals = _refusals(checks)
    if refusals:
        replicate = min(refusals)
        refusals[replicate].replicate = replicate
        # raised without a local name: this frame, kept by the traceback,
        # must not refer back to the exception
        raise refusals.pop(replicate)


def _without(matrices, replicates):
    """``matrices`` with the matrices of ``replicates`` replaced by the
    identity, so that a LAPACK call on the stack cannot fail on them."""
    if not replicates:
        return matrices
    out = np.array(matrices)
    out[list(replicates)] = np.eye(out.shape[-1])
    return out


def _per_matrix(fn, matrices, *rest):
    """``fn(matrices, *rest)`` on the whole stack, and the flags of the
    matrices on which numpy raised ``LinAlgError``.  One such matrix fails a
    stacked call, so then each matrix is tried alone and a failed one's
    result is NaN."""
    R = len(matrices)
    try:
        return fn(matrices, *rest), np.zeros(R, dtype=bool)
    except np.linalg.LinAlgError:
        pass
    failed = np.zeros(R, dtype=bool)
    out = np.full((rest[0] if rest else matrices).shape, np.nan)  # the shape of solve's, inv's and cholesky's results
    for i in range(R):
        try:
            out[i] = fn(matrices[i], *(r[i] for r in rest))
        except np.linalg.LinAlgError:
            failed[i] = True
    return out, failed


def check_correlation(matrix, name, error=InvalidStatisticsError):
    """``matrix``, a stack of matrices, as a float array and the eigenvalues
    of each in ascending order; ``error`` refuses a stack holding a matrix
    that is not square, finite, symmetric and unit-diagonal.  Definiteness
    is left to the caller."""
    r = _floats(matrix, name, error)
    if r.ndim != 3 or r.shape[-1] != r.shape[-2] or r.size == 0:
        raise error(f"{name} must be a square matrix")
    finite = np.isfinite(r).all(axis=(-2, -1))
    shape = np.where(finite[..., None, None], r, 0.0)  # a refused non-finite matrix is zeros here: no inf - inf
    _refuse_lowest([
        (~finite, lambda i: error(f"{name} contains non-finite entries")),
        (np.abs(shape - _T(shape)).max(axis=(-2, -1)) > 1e-8, lambda i: error(f"{name} must be symmetric")),
        (
            np.abs(shape.diagonal(axis1=-2, axis2=-1) - 1.0).max(axis=-1) > 1e-8,
            lambda i: error(f"{name} must have unit diagonal (standardized scale)"),
        ),
    ])
    return r, np.linalg.eigvalsh(r)


@dataclass(frozen=True, eq=False)
class SummaryStatistics:
    """Summary-level inputs of R designs: Sigma_EX (R x L x K), Sigma_EY
    (R x L), Sigma_EE (R x L x L).

    Frozen, and the three arrays are read-only copies of the inputs, so
    the factorisation cached on first use (``diagnostics``, ``_ld``,
    ``_moments``) always describes these statistics.  Derive changed
    statistics with ``drop_exposures`` or a new instance; each starts with
    an empty cache.  Inputs no estimator can read raise
    :class:`InvalidStatisticsError`.  ``n_outcome`` is one sample size or
    an (R, 1) integer array of per-design sizes.
    """

    sigma_EX: np.ndarray
    sigma_EY: np.ndarray
    sigma_EE: np.ndarray
    n_outcome: int | None = None

    def __post_init__(self):
        sigma_EX = _floats(self.sigma_EX, "sigma_EX")
        sigma_EY = _floats(self.sigma_EY, "sigma_EY")
        if sigma_EX.ndim != 3:
            raise InvalidStatisticsError("sigma_EX must be an instruments x exposures matrix")
        R, L, K = sigma_EX.shape
        if K < 1 or L < K:
            raise InvalidStatisticsError(f"need L >= K >= 1 instruments/exposures, got L={L}, K={K}")
        if sigma_EY.shape != (R, L):
            raise InvalidStatisticsError("sigma_EY length must match instrument count")
        finite = np.isfinite(sigma_EX).all(axis=(-2, -1)) & np.isfinite(sigma_EY).all(axis=-1)
        _refuse_lowest([(~finite, lambda i: InvalidStatisticsError("summary statistics contain non-finite entries"))])
        sigma_EE, eigenvalues = check_correlation(self.sigma_EE, "sigma_EE")
        if sigma_EE.shape != (R, L, L):
            raise InvalidStatisticsError("sigma_EE must have one row per instrument")
        _refuse_lowest([
            (
                eigenvalues[..., 0] < -1e-10,
                lambda i: InvalidStatisticsError("sigma_EE must be positive definite within tolerance"),
            )
        ])
        # ``_ld`` refuses the rounding-indefinite matrices let through here
        object.__setattr__(self, "_ld_eigenvalues", _read_only(eigenvalues))
        object.__setattr__(self, "sigma_EX", _read_only(sigma_EX))
        object.__setattr__(self, "sigma_EY", _read_only(sigma_EY))
        object.__setattr__(self, "sigma_EE", _read_only(sigma_EE))

    @property
    def n_instruments(self):
        return self.sigma_EX.shape[-2]

    @property
    def n_exposures(self):
        return self.sigma_EX.shape[-1]

    @cached_property
    def diagnostics(self):
        """The :func:`identifiability_diagnostics` report, taken once."""
        return identifiability_diagnostics(self)

    @cached_property
    def _ld(self):
        """``(Sigma_EE^-1, refusals)``: a replicate whose LD matrix is too
        ill-conditioned or not positive definite is refused, and its
        inverse is that of the identity."""
        cond = self.diagnostics.condition_EE
        smallest = self._ld_eigenvalues[..., 0]
        refusals = _refusals([
            (
                np.logical_not(cond <= LD_CONDITION_LIMIT),  # or not finite
                lambda i: IllConditionedLdError(
                    f"LD matrix condition number {_at(cond, i):.3e} exceeds {LD_CONDITION_LIMIT:.0e}; "
                    "prune near-identical instruments (r^2 >= 0.95) before estimating"
                ),
            ),
            (
                smallest <= 0.0,
                lambda i: IllConditionedLdError(
                    f"LD matrix is not positive definite (smallest eigenvalue "
                    f"{_at(smallest, i):.3e}); prune near-identical instruments "
                    "(r^2 >= 0.95) before estimating"
                ),
            ),
        ])
        return _read_only(np.linalg.inv(_without(self.sigma_EE, refusals))), refusals

    @cached_property
    def _moments(self):
        """``(M, v, M^-1, refusals)`` of the optimally weighted moment
        equations, for every replicate.

        ``M = S_EX^T Sigma_EE^-1 S_EX`` and ``v = S_EX^T Sigma_EE^-1 S_EY``:
        optimal GMM solves ``M c = v``, TWMR shrinks ``M^-1`` and every
        standard error reads ``M^-1`` as its sandwich.  After the LD matrix
        is checked, a rank-deficient design or a numerically singular ``M``
        is refused with :class:`UnderdeterminedError`.  A refused
        replicate's ``M`` and ``M^-1`` are the identity."""
        ld_inverse, refusals = self._ld
        W = _T(self.sigma_EX) @ ld_inverse
        refusals = {**_rank_refusals(self), **refusals}  # an LD refusal comes first
        M = _without(W @ self.sigma_EX, refusals)
        M_inv, _ = _per_matrix(np.linalg.inv, M)
        singular = ~np.isfinite(M_inv).all(axis=(-2, -1))  # a failed inverse reads NaN; or singular at float precision
        refusals = _refusals(
            [(singular, lambda i: UnderdeterminedError("weighted moment matrix is singular"))],
            refusals,
        )
        M, M_inv = _without(M, refusals), _without(M_inv, refusals)
        v = (W @ self.sigma_EY[..., None])[..., 0]
        return _read_only(M), _read_only(v), _read_only(M_inv), refusals

    def drop_exposures(self, indices):
        keep = [k for k in range(self.n_exposures) if k not in set(indices)]
        return SummaryStatistics(self.sigma_EX[..., keep], self.sigma_EY, self.sigma_EE, n_outcome=self.n_outcome)


def centred_cross(genotypes, exposures, outcome):
    """The centred cross-product matrix of Z = [E | X | Y] for genotypes
    (N x L), exposures (N x K) and outcome (N), by one centring pass and
    one cross product."""
    e = np.atleast_2d(np.asarray(genotypes, dtype=float))
    x = np.atleast_2d(np.asarray(exposures, dtype=float))
    y = np.asarray(outcome, dtype=float).reshape(-1)
    n, L = e.shape
    K = x.shape[1]
    if x.shape[0] != n or y.shape[0] != n:
        raise InvalidStatisticsError("genotypes, exposures and outcome disagree on N")
    z = np.empty((n, L + K + 1))
    z[:, :L] = e
    z[:, L:-1] = x
    z[:, -1] = y
    # column means by one matrix-vector product: a reduction down the
    # columns of this row-major buffer takes several times longer
    z -= np.ones(n) @ z / n
    return z.T @ z


@dataclass
class IndividualData:
    """Individual-level data kept as its sufficient statistics.

    Built from the sample size N, the instrument count L and the centred
    cross-product matrix of Z = [E | X | Y] (genotypes, exposures, outcome;
    L + K + 1 columns, any scale): the column standard deviations ``sds``
    (ddof 0) and the correlation matrix ``corr`` of Z are all the summary
    statistics and the conditional F-statistic read.  ``cross`` is a
    stack of R such matrices, cohorts of N each, and ``sds`` and ``corr``
    carry the leading replicate axis.  A simulated cohort draws the
    matrices itself; :meth:`from_arrays` reduces the N-row arrays of one
    cohort.
    """

    n_observations: int
    n_instruments: int
    cross: InitVar[np.ndarray]
    sds: np.ndarray = field(init=False)
    corr: np.ndarray = field(init=False)

    def __post_init__(self, cross):
        cross = _floats(cross, "cross-product matrix")
        L = self.n_instruments
        if cross.ndim != 3 or cross.shape[-1] != cross.shape[-2] or cross.shape[-1] < L + 2:
            raise InvalidStatisticsError(
                f"cross-product matrix must be square with more than {L + 1} columns"
            )
        if self.n_observations <= L:
            raise InvalidStatisticsError("need more observations than instruments")
        diagonal = cross.diagonal(axis1=-2, axis2=-1)
        _refuse_lowest([
            (~np.isfinite(cross).all(axis=(-2, -1)), lambda i: InvalidStatisticsError("individual-level data contain non-finite values")),
            ((diagonal <= 0).any(axis=-1), lambda i: InvalidStatisticsError("degenerate (constant) column in individual-level data")),
        ])
        scale = np.sqrt(diagonal)
        self.sds = scale / np.sqrt(self.n_observations)
        self.corr = cross / (scale[..., :, None] * scale[..., None, :])

    @classmethod
    def from_arrays(cls, genotypes, exposures, outcome):
        """The one-cohort stack of genotypes (N x L), exposures (N x K) and
        outcome (N), reduced by :func:`centred_cross`; the arrays are not
        kept."""
        n, L = np.atleast_2d(np.asarray(genotypes, dtype=float)).shape
        return cls(n, L, centred_cross(genotypes, exposures, outcome)[None])

    @property
    def ld(self):
        """The instruments' correlation matrix, with an exactly-unit diagonal."""
        return _unit_diagonal(self.corr[..., : self.n_instruments, : self.n_instruments])

    def summary_statistics(self, outcome=None, ld=None):
        """``Sigma_EX`` of this cohort, ``Sigma_EY`` of the ``outcome`` cohort
        (same instruments) and ``Sigma_EE = ld``; both default to this
        cohort, and ``n_outcome`` is the outcome cohort's count."""
        outcome = self if outcome is None else outcome
        L = self.n_instruments
        return SummaryStatistics(
            sigma_EX=self.corr[..., :L, L:-1],
            sigma_EY=outcome.corr[..., :L, -1],
            sigma_EE=self.ld if ld is None else ld,
            n_outcome=outcome.n_observations,
        )


def _unit_diagonal(matrix):
    """Force an exactly-unit diagonal on a near-correlation matrix (or on
    each matrix of a stack)."""
    out = np.array(matrix, dtype=float)
    d = np.sqrt(out.diagonal(axis1=-2, axis2=-1).clip(1e-300, None))
    out /= d[..., :, None] * d[..., None, :]
    diagonal = np.arange(out.shape[-1])
    out[..., diagonal, diagonal] = 1.0
    return (out + _T(out)) / 2.0


@dataclass
class EstimateResult:
    """Per-exposure causal-effect estimates with their inference.

    Every array has a leading replicate axis, and ``refusals`` maps each
    refused replicate to its ``MvmrError``; that replicate's rows are NaN
    (its flags False).
    """

    effects: np.ndarray
    standard_errors: np.ndarray | None = None
    p_values: np.ndarray | None = None
    bonferroni_significant: np.ndarray | None = None
    refusals: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class IdentifiabilityReport:
    """The fields are arrays over the replicates, except ``n_exposures`` and
    ``n_instruments``, which every replicate shares; :meth:`rows` reads
    them per replicate.  Reports compare by identity: a generated ``==``
    cannot compare the array fields."""

    det_normalized_gram: float
    rank_EX: int
    n_exposures: int
    n_instruments: int
    condition_EX: float
    condition_EE: float  # max|lambda| / min|lambda| over the eigenvalues of Sigma_EE
    verdict: str  # "pass" | "warn" | "fail"

    def rows(self):
        """One dict of the fields, as Python scalars, per replicate."""
        columns = {
            name: value.tolist() if isinstance(value, np.ndarray) else [value] * len(self.rank_EX)
            for name, value in vars(self).items()
        }
        return [dict(zip(columns, values)) for values in zip(*columns.values())]


def identifiability_diagnostics(stats):
    """Determinant/rank report for the instrument-exposure design.

    The determinant is taken of the K x K Gram matrix of column-normalized
    Sigma_EX, so it lies in [0, 1] and vanishes exactly when the exposures'
    instrument signatures are linearly dependent (the non-identifiable
    pattern where fewer causal variants than exposures exist).  The verdict
    is "pass" above ``DET_PASS``, "fail" below ``DET_FAIL`` and "warn"
    between.  ``stats.diagnostics`` holds this report, computed once.
    """
    S = stats.sigma_EX
    norms = np.linalg.norm(S, axis=-2)
    positive = norms > 0
    safe = np.where(positive, norms, 1.0)[..., None, :]
    G = _T(S / safe) @ (S / safe)
    svals = np.linalg.svd(S, compute_uv=False)
    top, bottom = svals[..., 0], svals[..., -1]
    rank = (svals > top[..., None] * RANK_RTOL).sum(axis=-1)  # 0 when every singular value is 0
    magnitudes = np.abs(stats._ld_eigenvalues)
    smallest = magnitudes.min(axis=-1)
    with np.errstate(divide="ignore"):
        det_gram = np.linalg.det(G) * positive.all(axis=-1)  # a zero column makes det(G) exactly 0
        # x / 0 with x > 0 reads inf; the added 1 makes 0 / 0 read inf too
        cond_EX = (top + (bottom == 0)) / bottom
        cond_EE = (magnitudes.max(axis=-1) + (smallest == 0)) / smallest
    verdict = np.array([_verdict(d) for d in det_gram.tolist()])
    return IdentifiabilityReport(det_gram, rank, stats.n_exposures, stats.n_instruments, cond_EX, cond_EE, verdict)


def _verdict(det_gram):
    if det_gram > DET_PASS:
        return "pass"
    return "fail" if det_gram < DET_FAIL else "warn"


def _rank_refusals(stats):
    """``{replicate: UnderdeterminedError}`` of the rank-deficient designs."""
    report = stats.diagnostics
    K = stats.n_exposures
    deficient = np.less(report.rank_EX, K)
    if not deficient.any():
        return {}

    def refusal(i):
        return UnderdeterminedError(
            "instrument-exposure covariance matrix is rank deficient "
            f"(rank {_at(report.rank_EX, i)} < {K} exposures): causal "
            "effects are not identifiable; inspect the determinant/rank "
            "diagnostics"
        )

    return _refusals([(deficient, refusal)])


def _estimated(effects, refusals):
    """The :class:`EstimateResult` of ``effects``, the rows of the refused
    replicates NaN."""
    if refusals:
        effects = np.array(effects)
        effects[list(refusals)] = np.nan
    return EstimateResult(effects, refusals=dict(refusals))


def ls_estimate(stats):
    """Least-squares solution of the moment equations: ``Delta = I``."""
    refusals = _rank_refusals(stats)
    S = stats.sigma_EX
    # a copied transpose takes numpy's general product, not its symmetric
    # S.T @ S kernel, whose last bits differ: LS outputs are fixed bit for bit
    St = _T(S).copy()
    effects, singular = _per_matrix(np.linalg.solve, _without(St @ S, refusals), St @ stats.sigma_EY[..., None])
    refusals = _refusals([(singular, lambda i: UnderdeterminedError("weighted moment matrix is singular"))], refusals)
    return _estimated(effects[..., 0], refusals)


def gmm_optimal(stats):
    """Minimum-asymptotic-variance weighting: ``Delta = Sigma_EE^-1``.

    The homoskedastic error variance enters the optimal weight only as a
    scalar and cancels in the estimator, so it is omitted.  Equivalent to
    two-stage least squares on standardized data.  Solves the cached
    ``stats._moments``.
    """
    M, v, _, refusals = stats._moments
    return _estimated(np.linalg.solve(M, v[..., None])[..., 0], refusals)


def twmr_shrunk_estimate(stats):
    """Optimal-weighting estimator with identity-shrunk inverse Hessian.

    Applies ``H_shrunk = (1 - alpha) H + alpha I`` to
    ``H = (S_EX^T Sigma_EE^-1 S_EX)^-1`` before completing the estimator,
    mimicking a published implementation whose shrinkage factor is fixed at
    ``alpha = TWMR_ALPHA = 1/sqrt(3781)``.  The shrinkage leaves a bias that
    does not vanish with sample size unless H is already close to the
    identity.
    """
    _, v, H, refusals = stats._moments
    H_shrunk = (1.0 - TWMR_ALPHA) * H + TWMR_ALPHA * np.eye(stats.n_exposures)
    return _estimated((H_shrunk @ v[..., None])[..., 0], refusals)


def standard_errors(result, stats):
    """Per-exposure summary-mode standard errors for an estimate on ``stats``.

    Divides the sandwich ``sigma_U^2 * (S_EX^T Sigma_EE^-1 S_EX)^-1`` by
    the outcome sample size, with the residual variance approximated on
    the standardized scale as ``max(0, 1 - c^T S_EX^T Sigma_EE^-1 S_EY)``
    (conservative fallback to 1 when non-finite).  The sandwich and
    ``S_EX^T Sigma_EE^-1 S_EY`` come from ``stats._moments``.
    Returns the array of standard errors; ``result`` is not modified.
    ``stats.n_outcome`` is one size or an (R, 1) array of sizes, and the
    rows of replicates the moments refuse are meaningless.
    """
    if stats.n_outcome is None:
        raise ValueError("summary-mode standard errors require n_outcome")
    _, v, sandwich, _ = stats._moments
    fitted = (result.effects[..., None, :] @ v[..., :, None])[..., 0]
    sigma_u2 = np.maximum(0.0, np.where(np.isfinite(fitted), 1.0 - fitted, 1.0))
    variances = sandwich.diagonal(axis1=-2, axis2=-1) * sigma_u2 / stats.n_outcome
    return np.sqrt(variances.clip(0.0, None))


# The standard normal CDF, ported from S. L. Moshier's Cephes ``ndtr``,
# ``erf`` and ``erfc`` (the routines scipy.special.ndtr runs) with the same
# coefficients and the same order of operations, so every value is bitwise
# equal to scipy's.  The exponential is libm's through ``math.exp``: numpy's
# own ``exp`` may differ in the last bit.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x, coef):
    """Horner's rule for coef[0] x^n + ... + coef[n]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Horner's rule with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a):
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        if x < 8.0:
            y = math.exp(z) * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
        else:
            y = math.exp(z) * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
        if a < 0.0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0.0 else 0.0  # underflow


def _ndtr(a):
    """P(N(0, 1) <= a) for a float ``a``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def p_values(effects, standard_errors, bonferroni_threshold=BONFERRONI_DEFAULT):
    """Two-sided normal p-values of c / SE plus Bonferroni flags.

    Returns ``(p, significant)``.  A zero standard error yields p = 0 with
    a nonzero effect and p = 1 with a zero effect.
    """
    c = np.asarray(effects)
    se = np.asarray(standard_errors)
    zero_se = se == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(zero_se, np.where(c != 0, np.inf, 0.0), c / np.where(zero_se, 1.0, se))
    p = np.array([2.0 * _ndtr(-abs(v)) for v in z.ravel().tolist()]).reshape(z.shape)
    return p, p < bonferroni_threshold


def conditional_f(individual):
    """Conditional instrument-strength F-statistic per exposure.

    For each exposure the remaining exposures are replaced by their
    instrument-fitted values, the exposure is regressed on those fitted
    values, and the instruments' incremental explanatory power for the
    residual is F-tested with the numerator degrees of freedom rescaled
    from L to L - K + 1.  With a single exposure this is the ordinary
    first-stage F.

    Computed from the correlations alone: with ``Sigma_EE = R^T R``, the
    instrument-fitted exposures are ``R^-T Sigma_EX`` in coordinates where
    the instruments are orthonormal, so exposure k's fitted column ``t``
    gives ``rss1 = N (1 - |t|^2)`` and ``rss0 - rss1`` is N times the
    squared residual of ``t`` regressed on the other fitted columns.

    Returns ``(values, refusals)``: the K statistics of each replicate, a
    refused replicate's row NaN.  numpy has no stacked least squares, so
    each replicate's regression is solved on its own.
    """
    n, L, corr = individual.n_observations, individual.n_instruments, individual.corr
    R, d, _ = corr.shape
    K = d - L - 1
    values = np.empty((R, K))
    chol, failed = _per_matrix(np.linalg.cholesky, corr[..., :L, :L])
    refusals = _refusals([
        (np.full(R, n <= L + K), lambda i: InvalidStatisticsError("conditional F requires N > L + K")),
        (failed, lambda i: InvalidStatisticsError("conditional F needs a positive definite LD matrix")),
    ])
    fitted = np.linalg.solve(_without(chol, refusals), corr[..., :L, L:-1])
    df_num = L - K + 1
    df_den = n - L
    for k in range(K):
        target = fitted[..., k]
        others = np.delete(fitted, k, axis=-1)
        if others.shape[-1]:
            svals = np.linalg.svd(others, compute_uv=False)
            refusals = _refusals(
                [(
                    svals[..., -1] <= svals[..., 0] * RANK_RTOL,
                    lambda i: CollinearExposuresError("instrument-fitted exposures are collinear; conditional F is undefined"),
                )],
                refusals,
            )
            coef = np.empty((R, K - 1))
            for i in range(R):
                coef[i], *_ = np.linalg.lstsq(others[i], target[i], rcond=None)
            resid = target - (others @ coef[..., None])[..., 0]
        else:
            resid = target
        explained = n * (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]
        rss1 = n * (1.0 - (target[..., None, :] @ target[..., :, None])[..., 0, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            values[..., k] = np.where(rss1 <= 0, np.inf, (explained / df_num) / (rss1 / df_den))
    values[list(refusals)] = np.nan
    return values, refusals


ESTIMATORS = {
    "ls": ls_estimate,
    "gmm": gmm_optimal,
    "twmr": twmr_shrunk_estimate,
}


def estimate(stats, method="ls", bonferroni_threshold=BONFERRONI_DEFAULT):
    """Estimate with a named estimator ('ls', 'gmm' or 'twmr'), with inference.

    When ``stats.n_outcome`` is set the result carries the summary-mode
    standard errors, p-values and Bonferroni flags at
    ``bonferroni_threshold``; otherwise it holds the effects only.  Every
    step reads the factorisation cached on ``stats``, and a numerical
    refusal is an ``MvmrError`` recorded per replicate: each replicate
    refused by the first step that refuses it, with NaN rows.
    """
    try:
        fn = ESTIMATORS[method]
    except KeyError:
        raise ValueError(
            f"unknown estimator {method!r}; choose from {sorted(ESTIMATORS)}"
        ) from None
    result = fn(stats)
    if stats.n_outcome is None:
        return result
    se = standard_errors(result, stats)
    p, significant = p_values(result.effects, se, bonferroni_threshold)
    refusals = {**stats._moments[3], **result.refusals}
    if refusals:
        rows = list(refusals)
        effects, se, p = (np.array(a) for a in (result.effects, se, p))
        effects[rows] = se[rows] = p[rows] = np.nan
        significant[rows] = False
        return EstimateResult(effects, se, p, significant, refusals)
    return EstimateResult(result.effects, se, p, significant)

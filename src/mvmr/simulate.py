"""Synthetic genotype / exposure / outcome studies with replicate harness.

Genotypes are binomial (two allele draws per SNP) with a Markov dependence
between consecutive SNPs so that per-SNP minor allele frequencies and
consecutive-pair correlations hit their targets exactly in expectation.
Scenarios that need an arbitrary full correlation matrix (e.g. Wishart
perturbation experiments) use a Gaussian genotype mode instead, since only
second moments enter the estimators.  A perturbed LD matrix is one Wishart
draw by the Bartlett decomposition, in numpy.

A scenario's LD policy is two fields, and each takes effect in one-sample
and two-sample (``n_outcome`` set) designs alike.  ``ld_choice`` picks the
LD matrix the estimators read: the exposure cohort's sample LD, the outcome
cohort's (the one cohort of a one-sample design, as for ``exposure``) or
the reference LD on the analysed instruments.  ``ld_wishart_df`` draws
every cohort of a Gaussian scenario from its own Wishart perturbation of
the reference LD.

Exposures follow ``X_j = sum_i A[i, j] * E_i + noise`` and the outcome
``Y = sum_j c_j * X_j + noise`` with noise variance 1 by default.  What the
estimators read of a cohort is the centred cross-product matrix of
[E | X | Y].  A Markov cohort draws that matrix directly, at a cost that
does not grow with N: the N genotype vectors are one multinomial draw of
counts over the model's table of 3^L possible vectors, and the noise cross
products follow exactly given the genotypes.  A Gaussian cohort draws its
N-row arrays and reduces them by one centring pass and one cross product.
A replicate cell stacks its replicates' cross-product matrices and derives
statistics, estimates and inference once, on the stack.
Estimates are mapped back to the generative scale (multiplying by the
sample sd(Y)/sd(X_k) ratio) so that replicate bias is measured against the
scenario's true effect vector.

The master seed and the estimators are arguments of every runner
(``run_replicates`` and the experiments); the replicate count is the
scenario's ``replicates`` field, which every runner reads.  Replicates
draw independent RNG streams spawned from the seed by replicate index,
making results bit-identical regardless of the degree of parallelism.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import (
    FeasibilityError,
    IllConditionedLdError,
    InvalidStatisticsError,
    MvmrError,
    ScenarioError,
)
from .estimators import (
    ESTIMATORS,
    IndividualData,
    SummaryStatistics,
    centred_cross,
    check_correlation,
    conditional_f,
    estimate,
    one_design,
    _floats,
    _read_only,
    _unit_diagonal,
)

MAX_MARKOV_SNPS = 10  # a Markov model's genotype table holds 3^L vectors: 59,049 at the cap

# ---------------------------------------------------------------------------
# Genotype models


@dataclass(frozen=True)
class GenotypeModel:
    """Markov-chain binomial genotype model.

    ``mafs[k]`` is the minor allele frequency of SNP k (in (0, 0.5]) and
    ``successive_r[k]`` the target correlation between SNPs k and k+1.
    Each genotype is the sum of two allele draws; the allele chain for SNP
    k+1 is Bernoulli with success probability linear in the paired allele
    of SNP k, which reproduces both the MAF and the pairwise correlation.
    Chains longer than ``MAX_MARKOV_SNPS`` are refused, as the genotype
    table grows as 3^L.
    """

    mafs: tuple
    successive_r: tuple = ()

    def __init__(self, mafs, successive_r=()):
        try:
            object.__setattr__(self, "mafs", tuple(float(m) for m in mafs))
            object.__setattr__(self, "successive_r", tuple(float(r) for r in successive_r))
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError("genotype mafs and successive_r must be lists of numbers") from None
        if not 0 < len(self.mafs) <= MAX_MARKOV_SNPS:
            raise ScenarioError(
                f"a Markov genotype model needs 1 to {MAX_MARKOV_SNPS} SNPs "
                f"(MAX_MARKOV_SNPS), got {len(self.mafs)}"
            )
        if len(self.successive_r) != len(self.mafs) - 1:
            raise ScenarioError("need one successive correlation per SNP pair")
        for k, m in enumerate(self.mafs):
            if not 0.0 < m <= 0.5:
                raise ScenarioError(f"maf[{k}]={m} outside (0, 0.5]")
        for k, r in enumerate(self.successive_r):
            if not -1.0 < r < 1.0:
                raise ScenarioError(f"successive r[{k}]={r} outside (-1, 1)")
            _conditional_allele_probs(self.mafs[k], self.mafs[k + 1], r, k)

    @property
    def n_snps(self):
        return len(self.mafs)

    @classmethod
    def pair(cls, correlation, maf=0.3):
        return cls((maf, maf), (correlation,))

    @classmethod
    def from_ld_matrix(cls, ld, mafs):
        """Markov model matching the first off-diagonal of an LD matrix."""
        ld = np.asarray(ld, dtype=float)
        succ = tuple(ld[k, k + 1] for k in range(ld.shape[0] - 1))
        return cls(tuple(mafs), succ)

    def implied_ld(self):
        """Full correlation matrix implied by the Markov chain closure."""
        L = self.n_snps
        out = np.eye(L)
        for i in range(L):
            acc = 1.0
            for j in range(i + 1, L):
                acc *= self.successive_r[j - 1]
                out[i, j] = out[j, i] = acc
        return out

    @property
    def genotype_table(self):
        """``(vectors, probabilities)``: all 3^L genotype vectors (int8 rows)
        and the probability of each, sorted by descending probability.
        Built on first use and shared by equal models."""
        return _genotype_table(self)


@lru_cache(maxsize=8)
def _genotype_table(model):
    """:attr:`GenotypeModel.genotype_table`, by a forward pass over the two
    allele chains: ``probs[code, a1, a2]`` is the probability of the
    genotype prefix ``code`` (base 3, first SNP most significant) whose last
    SNP carries alleles ``a1`` and ``a2``."""
    allele = np.array([1.0 - model.mafs[0], model.mafs[0]])
    probs = np.zeros((3, 2, 2))
    for a1, a2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        probs[a1 + a2, a1, a2] = allele[a1] * allele[a2]
    for k in range(1, model.n_snps):
        p0, p1 = _conditional_allele_probs(
            model.mafs[k - 1], model.mafs[k], model.successive_r[k - 1], k - 1
        )
        step = np.array([[1.0 - p0, p0], [1.0 - p1, p1]])  # step[allele, next allele]
        # moved[c, (a1', a2')] = sum over (a1, a2) of probs[c, a1, a2] step[a1, a1'] step[a2, a2']
        moved = probs.reshape(-1, 4) @ np.kron(step, step)
        probs = np.zeros((moved.shape[0], 3, 2, 2))
        for a1, a2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            probs[:, a1 + a2, a1, a2] = moved[:, 2 * a1 + a2]
        probs = probs.reshape(-1, 2, 2)
    probs = probs.sum(axis=(1, 2))
    # descending, so that the multinomial draw stops after few cells
    order = np.argsort(-probs, kind="stable")
    vectors = np.indices((3,) * model.n_snps, dtype=np.int8).reshape(model.n_snps, -1).T
    return _read_only(vectors[order]), _read_only(probs[order])


def _conditional_allele_probs(maf_prev, maf_next, r, pair_index):
    """Bernoulli success probabilities for the next allele given the previous.

    Raises :class:`FeasibilityError` naming the pair when the target
    correlation is unreachable for the MAF combination.
    """
    slope = r * np.sqrt(maf_next * (1 - maf_next) / (maf_prev * (1 - maf_prev)))
    p0 = maf_next + slope * (0.0 - maf_prev)
    p1 = maf_next + slope * (1.0 - maf_prev)
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise FeasibilityError(
            f"SNP pair {pair_index}-{pair_index + 1}: correlation {r} is "
            f"infeasible for MAFs ({maf_prev}, {maf_next}); conditional "
            f"allele probabilities ({p0:.4f}, {p1:.4f}) leave [0, 1]"
        )
    return p0, p1


def sample_genotypes(model, n, seed):
    """Draw n genotype vectors from the Markov model as their counts.

    Returns the int64 multinomial counts over ``model.genotype_table``, one
    per table row: n iid vectors are exactly one multinomial draw.
    """
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, model.genotype_table[1])


def _genotype_cross(model, counts):
    """Centred cross-product matrix of the genotypes counted by ``counts``,
    summed over the drawn table rows only."""
    drawn = np.flatnonzero(counts)
    g = model.genotype_table[0][drawn].astype(float)
    w = counts[drawn].astype(float)
    sums = w @ g
    return (g.T * w) @ g - np.outer(sums, sums) / counts.sum()


def _bartlett_factor(df, dim, rng):
    """Lower-triangular A with A A^T ~ Wishart(df, I_dim) (Bartlett; Smith &
    Hocking 1972, AS 53): standard normals below the diagonal, then
    sqrt(chi2(df - i)) on it, in scipy.stats.wishart's variate order."""
    factor = np.zeros((dim, dim))
    factor[np.tri(dim, k=-1, dtype=bool)] = rng.normal(size=dim * (dim - 1) // 2)
    factor.flat[:: dim + 1] = np.sqrt(rng.chisquare(df - np.arange(dim)))
    return factor


def _with_noise_cross(cross_EE, n, dim, rng):
    """Centred cross-product matrix of [E | W] given E's, ``cross_EE``, for W
    an (n, dim) matrix of independent standard normals, drawn exactly.

    With E_c the centred genotypes and S S^T = cross_EE (S from the
    eigendecomposition, r = rank columns, so a singular matrix is fine),
    E_c^T W is S Z for an (r, dim) standard normal Z, and W^T W centred is
    Z^T Z plus an independent Wishart(n - 1 - r, I_dim): the part of W
    orthogonal to the constant and to E_c.  Below dim degrees of freedom the
    Wishart is drawn as the cross product of its normal rows.
    """
    values, vectors = np.linalg.eigh(cross_EE)
    kept = values > values[-1] * len(values) * np.finfo(float).eps
    root = vectors[:, kept] * np.sqrt(values[kept])
    z = rng.standard_normal((root.shape[1], dim))
    df = n - 1 - root.shape[1]
    if df >= dim:
        factor = _bartlett_factor(df, dim, rng)
        residual = factor @ factor.T
    else:
        rows = rng.standard_normal((df, dim))
        residual = rows.T @ rows
    L = cross_EE.shape[0]
    cross = np.empty((L + dim, L + dim))
    cross[:L, :L] = cross_EE
    cross[:L, L:] = root @ z
    cross[L:, :L] = cross[:L, L:].T
    cross[L:, L:] = z.T @ z + residual
    return cross


def _exposure_outcome_cross(cross, A, effects, noise_sd):
    """Centred cross-product matrix of [E | X | Y] from that of [E | U | V],
    for X = E A + noise_sd U and Y = X c + noise_sd V: [E | X | Y] is
    [E | U | V] T, so the result is T^T cross T, made exactly symmetric."""
    L, K = A.shape
    c = np.asarray(effects, dtype=float)
    T = np.zeros((L + K + 1, L + K + 1))
    T[:L, :L] = np.eye(L)
    T[:L, L:-1] = A
    T[:L, -1] = A @ c
    T[L:-1, L:-1] = noise_sd * np.eye(K)
    T[L:-1, -1] = noise_sd * c
    T[-1, -1] = noise_sd
    mapped = T.T @ cross @ T
    return (mapped + mapped.T) / 2.0


def perturb_ld(reference, df, seed):
    """Sample a unit-diagonal LD matrix from a Wishart centred on ``reference``.

    The scatter matrix is Wishart(df, reference/df), so its expectation is
    the reference itself before renormalisation to unit diagonal.  It is
    drawn by the Bartlett decomposition (Smith & Hocking 1972, AS 53): with
    C the Cholesky factor of reference/df and A lower triangular with
    standard normals below the diagonal and sqrt(chi2(df - i)) on it, the
    draw is (CA)(CA)^T.  The variates are taken in scipy.stats.wishart's
    order, so a seed gives the same matrix.  ``df`` below the dimension is
    rejected (the chi-square degrees of freedom would not stay positive).
    """
    reference = np.asarray(reference, dtype=float)
    dim = reference.shape[0]
    if df < dim:
        raise ScenarioError(
            f"Wishart degrees of freedom {df} below matrix dimension {dim}"
        )
    try:
        scale_factor = np.linalg.cholesky(reference / df)
    except np.linalg.LinAlgError:
        raise ScenarioError("reference LD matrix must be positive definite") from None
    rng = np.random.default_rng(seed)
    factor = scale_factor @ _bartlett_factor(df, dim, rng)
    return _unit_diagonal(factor @ factor.T)


def pc1_explained_variance(r):
    """Expected share of variance on the first principal component, (1+r)/2."""
    if _finite(r) is None or not -1.0 < r < 1.0:
        raise ScenarioError(f"correlation must lie strictly inside (-1, 1), got {r!r}")
    return (1.0 + r) / 2.0


def empirical_pc1_share(r, n=2000, repetitions=2000, seed=0):
    """Mean empirical PC1 variance share over repeated genotype-pair samples
    (both minor allele frequencies 0.3).

    Each sample's correlation matrix z^T z / n comes from its genotype counts.
    """
    model = GenotypeModel.pair(r)
    rng = np.random.default_rng(seed)
    shares = np.empty(repetitions)
    for rep in range(repetitions):
        cross = _genotype_cross(model, sample_genotypes(model, n, rng))
        diagonal = np.diag(cross)
        if np.any(diagonal <= 0):
            raise InvalidStatisticsError(f"a sample of {n} genotype pairs has a constant column")
        scale = np.sqrt(diagonal)
        eig = np.linalg.eigvalsh(cross / np.outer(scale, scale))
        shares[rep] = eig[-1] / eig.sum()
    return float(shares.mean())


# ---------------------------------------------------------------------------
# Scenario description


def _is_int(value):
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value):
    """``value`` as a float if it is a finite real number (not a boolean), else None."""
    if type(value) is float:
        return value if math.isfinite(value) else None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


def _finite_numbers(values, key):
    """``values``, a list of finite numbers, as a tuple of floats."""
    out = [_finite(v) for v in values] if isinstance(values, (list, tuple)) else [None]
    if None in out:
        raise ScenarioError(f"{key} must be a list of numbers, not {values!r}")
    return tuple(out)


def _indices(values, bound, key):
    """``values``, a list of distinct integers in [0, bound), as a tuple."""
    if not isinstance(values, (list, tuple)) or not all(_is_int(i) for i in values):
        raise ScenarioError(f"{key} must be a list of integer indices, not {values!r}")
    if not all(0 <= i < bound for i in values):
        raise ScenarioError(f"{key} entries must lie in [0, {bound}), got {list(values)}")
    if len(set(values)) < len(values):
        raise ScenarioError(f"{key} repeats an index: {list(values)}")
    return tuple(int(i) for i in values)


def check_seed(seed):
    """``seed`` when it is a non-negative integer, the seeds numpy takes."""
    if not _is_int(seed) or seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, not {seed!r}")
    return seed


def check_replicates(n):
    """``n`` when it is a replicate count, an integer of at least 1."""
    if not _is_int(n):
        raise ScenarioError(f"replicates must be an integer, not {n!r}")
    if n < 1:
        raise ScenarioError("need at least one replicate")
    return n


def _causal_layout(causal_rows, n_instruments, n_exposures):
    """The causal instruments checked, as ``(rows, mask, shared_rows)``.

    ``causal_rows`` is None (every instrument affects every exposure), one
    list of instrument indices shared by all exposures, or one list per
    exposure.  ``rows`` is it as tuples, ``mask[i, k]`` says whether
    instrument i affects exposure k, and ``shared_rows`` is the shared
    list (enabling determinant constraints), else None.
    """
    mask = np.zeros((n_instruments, n_exposures), dtype=bool)
    key = "causal_instruments"
    if causal_rows is None:
        rows, shared_rows = None, list(range(n_instruments))
        mask[:] = True
    elif (
        isinstance(causal_rows, (list, tuple))
        and causal_rows
        and all(isinstance(sub, (list, tuple)) for sub in causal_rows)
    ):
        if len(causal_rows) != n_exposures:
            raise ScenarioError("need one causal-instrument list per exposure")
        rows = tuple(_indices(sub, n_instruments, f"{key}[{k}]") for k, sub in enumerate(causal_rows))
        shared_rows = None
        for k, sub in enumerate(rows):
            mask[list(sub), k] = True
    else:
        rows = _indices(causal_rows, n_instruments, key)
        shared_rows = list(rows)
        mask[shared_rows, :] = True
    if np.count_nonzero(mask.any(axis=1)) < n_exposures:
        raise ScenarioError("need at least as many causal instruments as exposures")
    return rows, _read_only(mask), shared_rows


# candidate effect matrices drawn and screened together; an unconstrained
# spec reads only candidate 0 and skips the stream past the rest
DRAW_BATCH = 256
MAX_DRAWS = 2_000_000  # candidates drawn before the design constraints are refused


@dataclass(frozen=True)
class EffectSizes:
    """Instrument -> exposure effect matrix, fixed or resampled per replicate.

    When ``matrix`` is None, causal entries get magnitudes drawn uniformly
    from [low, high] (positive, or random-signed when ``signs='random'``),
    rejection-sampled per replicate until all requested design constraints
    hold:

    * ``det_min`` / ``det_max``: determinant of the square causal block
      above (strong designs) or in absolute value below (weak designs) the
      bound;
    * ``design_gram_min``: determinant of the normalized Gram matrix of the
      population instrument-exposure correlations at least this large (the
      identifiability screen);
    * ``design_strength_min``: every exposure's instrument-signal column
      norm, in correlation units, at least this large (no weak designs).

    The last two read the scenario's reference LD and instrument SDs and
    are what keeps highly correlated instrument panels estimable.
    """

    matrix: tuple | None = None
    low: float = 0.1
    high: float = 0.3
    signs: str = "positive"  # or "random"
    det_min: float | None = None
    det_max: float | None = None
    design_gram_min: float | None = None
    design_strength_min: float | None = None

    def __post_init__(self):
        if self.signs not in ("positive", "random"):
            raise ScenarioError(f"unknown sign policy {self.signs!r}")
        for key in ("low", "high", "det_min", "det_max", "design_gram_min", "design_strength_min"):
            value = getattr(self, key)
            if (value is not None or key in ("low", "high")) and _finite(value) is None:
                raise ScenarioError(f"effects {key} must be a finite number, not {value!r}")
        if not self.low <= self.high or _finite(self.high - self.low) is None:
            raise ScenarioError(f"effects low {self.low!r} must not exceed high {self.high!r}")
        if self.matrix is not None:
            matrix = _floats(self.matrix, "effects matrix", ScenarioError)
            if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
                raise ScenarioError("effects matrix must be a finite instruments x exposures matrix")
            object.__setattr__(self, "matrix", tuple(map(tuple, matrix)))

    def realize(self, rng, scenario):
        """One effect matrix for ``scenario``'s instruments and exposures.

        A constrained spec (a determinant band on a square causal block, or
        a Gram or strength screen) draws batches of ``DRAW_BATCH`` candidates
        and returns the first that passes.  An unconstrained spec accepts
        candidate 0 of the first batch, so it draws that candidate alone and
        moves ``rng`` with PCG64's O(1) ``bit_generator.advance`` past the
        draws of the other candidates: the returned matrix and every later
        draw of ``rng`` are those of the whole batch, bit for bit.  A
        magnitude takes one 64-bit step; a random sign is one 32-bit half
        (``integers(0, 2)`` never rejects), two halves to a step, and
        ``advance`` drops a buffered half.  So ``rng`` must be a PCG64
        Generator holding no buffered half, as a fresh stream such as the
        replicate stream ``_draw`` passes is.
        """
        n_instruments, n_exposures = scenario.n_instruments_total, scenario.n_exposures
        if self.matrix is not None:
            A = np.asarray(self.matrix, dtype=float)
            if A.shape != (n_instruments, n_exposures):
                raise ScenarioError(
                    f"fixed effect matrix shape {A.shape} does not match "
                    f"(L={n_instruments}, K={n_exposures})"
                )
            return A
        mask, shared_rows = scenario.causal_layout
        square = shared_rows is not None and len(shared_rows) == n_exposures
        needs_screen = (
            self.design_gram_min is not None or self.design_strength_min is not None
        )
        banded = square and (self.det_min is not None or self.det_max is not None)
        if not (banded or needs_screen):
            size = n_instruments * n_exposures
            A = rng.uniform(self.low, self.high, size=(1, n_instruments, n_exposures))[0]
            rng.bit_generator.advance((DRAW_BATCH - 1) * size)
            if self.signs == "random":
                A *= 2.0 * rng.integers(0, 2, size=A.shape) - 1.0
                rng.bit_generator.advance(DRAW_BATCH * size // 2 - (size + 1) // 2)
            A *= mask
            return A
        if needs_screen:
            sds = scenario.instrument_sds
            cov_E = scenario.reference_ld * np.outer(sds, sds)

        for _ in range(0, MAX_DRAWS, DRAW_BATCH):
            A_full = rng.uniform(self.low, self.high, size=(DRAW_BATCH, n_instruments, n_exposures))
            if self.signs == "random":
                # the stream and values of rng.choice([-1.0, 1.0]), drawn
                # without choice()'s per-call argument handling
                A_full *= 2.0 * rng.integers(0, 2, size=A_full.shape) - 1.0
            A_full *= mask[None, :, :]
            ok = np.ones(DRAW_BATCH, dtype=bool)
            if banded:
                det = np.linalg.det(A_full[:, shared_rows, :])
                if self.det_min is not None:
                    ok &= det > self.det_min
                if self.det_max is not None:
                    ok &= np.abs(det) < self.det_max
            if needs_screen and ok.any():
                # score only the draws the determinant band kept; each
                # draw's score does not depend on the others in the batch
                rows = np.flatnonzero(ok)
                A = A_full[rows]
                covEX = np.einsum("ij,bjk->bik", cov_E, A)
                varX = np.einsum("bji,jk,bkl->bil", A, cov_E, A)
                sdX = np.sqrt(np.einsum("bii->bi", varX) + scenario.noise_variance)
                S = covEX / sds[None, :, None] / sdX[:, None, :]
                norms = np.linalg.norm(S, axis=1)
                if self.design_strength_min is not None:
                    ok[rows] &= norms.min(axis=1) >= self.design_strength_min
                with np.errstate(invalid="ignore", divide="ignore"):
                    Sn = S / np.where(norms > 0, norms, 1.0)[:, None, :]
                    grams = np.einsum("bji,bjk->bik", Sn, Sn)
                    if self.design_gram_min is not None:
                        ok[rows] &= np.linalg.det(grams) > self.design_gram_min
            hits = np.flatnonzero(ok)
            if hits.size:
                return A_full[hits[0]]
        raise ScenarioError(
            f"could not satisfy the effect-matrix design constraints after "
            f"{MAX_DRAWS} draws"
        )


@dataclass(frozen=True)
class SimulationScenario:
    """Declarative description of one simulation cell, checked when built;
    what every replicate reads of it but does not draw is derived once.
    ``causal_layout`` is the ``(mask, shared_rows)`` of the causal
    instruments (see :func:`_causal_layout`); a Gaussian scenario's
    ``ld_factor`` is the Cholesky factor of its LD matrix, which also
    serves as its positive-definiteness check."""

    true_effects: tuple
    n_samples: int
    genotypes: GenotypeModel | None = None  # Markov mode when set
    ld_matrix: tuple | None = None  # Gaussian mode when set (row tuples)
    effects: EffectSizes = field(default_factory=EffectSizes)
    causal_instruments: tuple | None = None
    noise_variance: float = 1.0
    hidden_exposures: tuple = ()
    hidden_effect_grid: tuple | None = None
    instrument_subset: tuple | None = None
    n_outcome: int | None = None
    ld_choice: str = "exposure"  # estimation LD in either design: exposure|outcome cohort's|reference
    ld_wishart_df: int | None = None  # Gaussian: each cohort from its own Wishart(df) LD around the reference
    replicates: int = 1000
    name: str = "scenario"
    exposure_names: tuple | None = None

    def __post_init__(self):
        effects = _finite_numbers(self.true_effects, "true_effects")
        if not effects:
            raise ScenarioError("true_effects must name at least one exposure")
        object.__setattr__(self, "true_effects", effects)
        if (self.genotypes is None) == (self.ld_matrix is None):
            raise ScenarioError("specify exactly one of genotypes (Markov) or ld_matrix (Gaussian)")
        if self.ld_matrix is not None:
            ld, _ = check_correlation(one_design(self.ld_matrix), "ld_matrix", ScenarioError)
            object.__setattr__(self, "ld_matrix", tuple(map(tuple, ld[0])))
            try:
                factor = np.linalg.cholesky(self.reference_ld)
            except np.linalg.LinAlgError:
                raise ScenarioError("ld_matrix must be positive definite") from None
            object.__setattr__(self, "ld_factor", _read_only(factor))
        L, K = self.n_instruments_total, self.n_exposures
        if self.instrument_subset is not None:
            subset = _indices(self.instrument_subset, L, "instrument_subset")
            if len(subset) < K:
                raise ScenarioError(f"instrument_subset needs at least one instrument per exposure, got {list(subset)}")
            object.__setattr__(self, "instrument_subset", subset)
        rows, mask, shared_rows = _causal_layout(self.causal_instruments, L, K)
        object.__setattr__(self, "causal_instruments", rows)
        object.__setattr__(self, "causal_layout", (mask, shared_rows))
        hidden = _indices(self.hidden_exposures, K, "hidden_exposures")
        if len(hidden) >= K:
            raise ScenarioError("hidden exposures must be a strict subset")
        object.__setattr__(self, "hidden_exposures", hidden)
        if self.hidden_effect_grid is not None:
            grid = _finite_numbers(self.hidden_effect_grid, "hidden_effect_grid")
            object.__setattr__(self, "hidden_effect_grid", grid)
        if self.exposure_names is not None:
            names = self.exposure_names
            if not isinstance(names, (list, tuple)) or len(names) != K or not all(isinstance(n, str) for n in names):
                raise ScenarioError(f"exposure_names must be a list of {K} strings, one per exposure, not {names!r}")
            object.__setattr__(self, "exposure_names", tuple(names))
        if self.ld_choice not in ("exposure", "outcome", "reference"):
            raise ScenarioError(f"unknown ld_choice {self.ld_choice!r}")
        noise = _finite(self.noise_variance)
        if noise is None or noise < 0:
            raise ScenarioError(f"noise variance must be a finite number >= 0, not {self.noise_variance!r}")
        if self.ld_wishart_df is not None:
            if self.ld_matrix is None:
                raise ScenarioError(
                    "generative LD perturbation needs the Gaussian genotype mode "
                    "(ld_matrix); the Markov sampler cannot target an arbitrary "
                    "perturbed matrix"
                )
            if not _is_int(self.ld_wishart_df) or self.ld_wishart_df < L:
                raise ScenarioError(f"ld_wishart_df must be an integer of at least {L}, the instrument count, not {self.ld_wishart_df!r}")
        for key in ("n_samples", "n_outcome"):
            n = getattr(self, key)
            if key == "n_outcome" and n is None:
                continue
            if not _is_int(n):
                raise ScenarioError(f"{key} must be an integer, not {n!r}")
        check_replicates(self.replicates)
        for key, n in (("n_samples", self.n_samples), ("n_outcome", self.n_outcome)):
            if n is not None and n <= self.n_instruments:
                raise ScenarioError(f"{key} {n} must exceed the instrument count {self.n_instruments}")

    @property
    def n_exposures(self):
        return len(self.true_effects)

    @property
    def n_instruments_total(self):
        if self.genotypes is not None:
            return self.genotypes.n_snps
        return len(self.ld_matrix)

    @property
    def n_instruments(self):
        if self.instrument_subset is not None:
            return len(self.instrument_subset)
        return self.n_instruments_total

    @cached_property
    def reference_ld(self):
        """Population LD matrix of all instruments (read-only)."""
        if self.ld_matrix is not None:
            return _read_only(np.asarray(self.ld_matrix, dtype=float))
        return _read_only(self.genotypes.implied_ld())

    @cached_property
    def instrument_sds(self):
        """Population instrument standard deviations on the generative scale."""
        if self.genotypes is not None:
            m = np.asarray(self.genotypes.mafs)
            return _read_only(np.sqrt(2.0 * m * (1.0 - m)))
        return _read_only(np.ones(self.n_instruments_total))

    @cached_property
    def analysed_reference_ld(self):
        """``reference_ld`` on the analysed instruments (``instrument_subset``)."""
        if self.instrument_subset is None:
            return self.reference_ld
        keep = list(self.instrument_subset)
        return _read_only(self.reference_ld[np.ix_(keep, keep)])


def select_by_ld_threshold(ld, max_r2):
    """Greedy instrument subset whose mutual r^2 stays at or below ``max_r2``.

    SNPs are scanned in order; a SNP is retained when its squared
    correlation with every already-retained SNP does not exceed the
    threshold.
    """
    ld = np.asarray(ld, dtype=float)
    kept = []
    for k in range(ld.shape[0]):
        if all(ld[k, j] ** 2 <= max_r2 for j in kept):
            kept.append(k)
    return kept


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass
class GeneratedDataset:
    """The simulated datasets of a cell: sufficient statistics plus
    generative scales, each with a leading replicate axis."""

    individual: IndividualData
    statistics: SummaryStatistics
    sd_exposures: np.ndarray
    sd_outcome: np.ndarray


def _cholesky(ld):
    try:
        return np.linalg.cholesky(ld)
    except np.linalg.LinAlgError:
        raise IllConditionedLdError("LD matrix is not positive definite") from None


def _generate_arrays(scenario, A, n, rng, factor):
    """N-row genotypes, exposures and outcome of one Gaussian-mode cohort
    whose genotypes have the LD matrix ``factor @ factor.T``."""
    e_raw = rng.standard_normal((n, factor.shape[0])) @ factor.T
    noise_sd = np.sqrt(scenario.noise_variance)
    x = e_raw @ A + noise_sd * rng.standard_normal((n, scenario.n_exposures))
    y = x @ np.asarray(scenario.true_effects) + noise_sd * rng.standard_normal(n)
    return e_raw, x, y


def _markov_cross(scenario, A, n, rng):
    """Centred cross-product matrix of [E | X | Y] for one Markov-mode
    cohort of n, all instruments: genotype counts, then the noise given
    the genotypes, then the linear map to exposures and outcome."""
    model = scenario.genotypes
    cross_EE = _genotype_cross(model, sample_genotypes(model, n, rng))
    cross = _with_noise_cross(cross_EE, n, scenario.n_exposures + 1, rng)
    return _exposure_outcome_cross(cross, A, scenario.true_effects, np.sqrt(scenario.noise_variance))


def _draw_cohort(scenario, A, n, rng):
    """One cohort of n: the centred cross-product matrix of [E | X | Y] on
    the analysed instruments."""
    subset = scenario.instrument_subset
    if scenario.genotypes is not None:
        cross = _markov_cross(scenario, A, n, rng)
        if subset is not None:
            keep = [*subset, *range(scenario.n_instruments_total, cross.shape[0])]
            cross = cross[np.ix_(keep, keep)]
        return cross
    if scenario.ld_wishart_df is None:
        factor = scenario.ld_factor
    else:
        factor = _cholesky(perturb_ld(scenario.reference_ld, scenario.ld_wishart_df, rng))
    e_raw, x, y = _generate_arrays(scenario, A, n, rng, factor)
    if subset is not None:
        e_raw = e_raw[:, list(subset)]
    return centred_cross(e_raw, x, y)


def _draw(scenario, rng):
    """One replicate's draws: its effect matrix, then the cross-product
    matrices of its exposure cohort and, in a two-sample design, of its
    outcome cohort (else None)."""
    A = scenario.effects.realize(rng, scenario)
    exposure = _draw_cohort(scenario, A, scenario.n_samples, rng)
    if scenario.n_outcome is None:
        return exposure, None
    return exposure, _draw_cohort(scenario, A, scenario.n_outcome, rng)


def _estimation_ld(scenario, exposure, outcome):
    """The LD matrix that ``scenario.ld_choice`` picks, one per replicate of
    a stack."""
    if scenario.ld_choice == "reference":
        ld = scenario.analysed_reference_ld
        return np.broadcast_to(ld, exposure.corr.shape[:-2] + ld.shape)
    return (exposure if scenario.ld_choice == "exposure" else outcome).ld


def _stacked_dataset(scenario, draws):
    """The :class:`GeneratedDataset` of ``draws``, stacked.  A refusal is
    that of the lowest replicate any construction step refuses, as if each
    replicate were built in turn."""
    if not draws:
        return None
    exposure_cross, outcome_cross = zip(*draws)
    L = scenario.n_instruments
    try:
        exposure = IndividualData(scenario.n_samples, L, np.stack(exposure_cross))
        outcome = exposure if outcome_cross[0] is None else IndividualData(scenario.n_outcome, L, np.stack(outcome_cross))
        stats = exposure.summary_statistics(outcome, _estimation_ld(scenario, exposure, outcome))
    except MvmrError as exc:
        _stacked_dataset(scenario, draws[: exc.replicate])  # raises an earlier replicate's refusal, if any
        raise
    return GeneratedDataset(exposure, stats, exposure.sds[..., L:-1], outcome.sds[..., -1])


def generate_dataset(scenario, seed, threads=1):
    """Simulate a cell of ``scenario.replicates`` datasets and their one
    :class:`SummaryStatistics`.

    Returns a :class:`GeneratedDataset`, replicate i drawn from its own
    stream ``_replicate_rng(seed, i)`` (on ``threads`` threads) and
    stacked on a leading replicate axis.  Two-sample scenarios
    (``n_outcome`` set) draw independent exposure and outcome cohorts, and
    ``IndividualData.summary_statistics`` mixes the first's
    instrument-exposure block with the second's instrument-outcome
    correlations; see :func:`_estimation_ld` for the LD matrix.  The cell
    refuses with the refusal of its lowest refused replicate, whether a
    draw or a construction step refused it.
    """
    draws = [None] * scenario.replicates

    def one(index, rng):
        draws[index] = _draw(scenario, rng)

    try:
        _run_indexed(one, scenario.replicates, seed, threads)
    except MvmrError:
        _stacked_dataset(scenario, draws[: draws.index(None)])  # the replicates drawn before the refused one
        raise
    return _stacked_dataset(scenario, draws)


# ---------------------------------------------------------------------------
# Replicate harness


@contextlib.contextmanager
def _nan_quiet():
    """Silence numpy's RuntimeWarning where a NaN-aware reduction (np.nanmean,
    np.nanstd, np.nanmedian) meets a slice with too few non-NaN values, as
    when every replicate of a cell failed; the reduction gives NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


# the columns of a replicates.csv row after its label columns, in the order
# ReplicateSummary.iter_rows writes them
REPLICATE_FIELDS = ["replicate", "estimator", "exposure", "true_effect", "estimate", "se", "p_value"]


class ReplicateSummary:
    """Per-replicate estimates for each estimator plus derived summaries.

    Built empty for the scenario's ``replicates`` replicates: NaN
    estimates, standard errors and p-values, and with
    ``collect_conditional_f`` a NaN (K, replicates) ``conditional_f`` which
    the caller fills.  :meth:`fill` writes the whole cell from its stacked
    statistics.
    """

    def __init__(self, scenario, estimators, seed, collect_conditional_f=False):
        for est in estimators:
            if est not in ESTIMATORS:
                raise ScenarioError(f"unknown estimator {est!r}")
        shape = (scenario.replicates, scenario.n_exposures)
        self.scenario = scenario
        self.estimator_names = tuple(estimators)
        self.seed = seed
        self.estimates = {est: np.full(shape, np.nan) for est in estimators}
        self.standard_errors = {est: np.full(shape, np.nan) for est in estimators}
        self.p_values = {est: np.full(shape, np.nan) for est in estimators}
        self.conditional_f = np.full(shape[::-1], np.nan) if collect_conditional_f else None
        self._messages = {est: [None] * scenario.replicates for est in estimators}

    @property
    def failures(self):
        """``{estimator: [(replicate, message), ...]}`` in replicate order."""
        return {
            est: [(i, msg) for i, msg in enumerate(messages) if msg is not None]
            for est, messages in self._messages.items()
        }

    def fill(self, stats, sd_x, sd_y):
        """Estimate every replicate of the stacked ``stats`` with every
        estimator, effects and SEs mapped back to the generative scale by
        ``sd_y / sd_x`` (per replicate); a replicate an estimator refuses
        keeps its NaN row and records the message."""
        scale = sd_y[:, None] / sd_x
        for est in self.estimator_names:
            result = estimate(stats, est)
            self.estimates[est][:] = result.effects * scale
            self.standard_errors[est][:] = result.standard_errors * scale
            self.p_values[est][:] = result.p_values
            for index, exc in result.refusals.items():
                self._messages[est][index] = str(exc)

    def mean(self, estimator):
        with _nan_quiet():
            return np.nanmean(self.estimates[estimator], axis=0)

    def sd(self, estimator):
        with _nan_quiet():
            return np.nanstd(self.estimates[estimator], axis=0, ddof=1)

    def bias(self, estimator):
        return self.mean(estimator) - np.asarray(self.scenario.true_effects)

    def failure_rate(self, estimator):
        return len(self.failures[estimator]) / self.scenario.replicates

    def exposure_labels(self):
        if self.scenario.exposure_names:
            return list(self.scenario.exposure_names)
        return [f"X{k + 1}" for k in range(len(self.scenario.true_effects))]

    def summary_dict(self):
        """Per-estimator mean, sd, bias and failure rate over the replicates
        (NaN where too few succeeded), and with ``conditional_f`` its median
        per exposure."""
        true_effects = np.asarray(self.scenario.true_effects)
        out = {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "replicates": self.scenario.replicates,
            "true_effects": list(self.scenario.true_effects),
            "estimators": {},
        }
        with _nan_quiet():
            for est in self.estimator_names:
                mean = np.nanmean(self.estimates[est], axis=0)
                out["estimators"][est] = {
                    "mean": mean.tolist(),
                    "sd": np.nanstd(self.estimates[est], axis=0, ddof=1).tolist(),
                    "bias": (mean - true_effects).tolist(),
                    "failure_rate": self.failure_rate(est),
                }
            if self.conditional_f is not None:
                out["median_conditional_f"] = np.nanmedian(self.conditional_f, axis=1).tolist()
        return out

    def iter_rows(self, lead):
        """Long-format rows, by estimator, then replicate, then exposure:
        the ``lead`` values followed by the ``REPLICATE_FIELDS`` columns."""
        names = self.exposure_labels()
        for est in self.estimator_names:
            columns = (self.estimates[est], self.standard_errors[est], self.p_values[est])
            for rep, values in enumerate(zip(*(c.tolist() for c in columns))):
                for row in zip(names, self.scenario.true_effects, *values):
                    yield [*lead, rep, est, *row]


def _replicate_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _run_indexed(fn, replicates, seed, threads):
    """Call ``fn(index, rng)`` for every replicate, possibly on a thread
    pool.  ``fn`` writes its result by replicate index, so parallel and
    serial execution agree exactly."""
    if threads is None or threads <= 1:
        for i in range(replicates):
            fn(i, _replicate_rng(seed, i))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(fn, i, _replicate_rng(seed, i)) for i in range(replicates)]:
            future.result()


def run_replicates(scenario, seed, estimators, threads=1, collect_conditional_f=False):
    """Replicate study of a scenario, ``scenario.replicates`` replicates,
    under one or more estimators.

    Each replicate is drawn on its own stream (:func:`generate_dataset`),
    and the cell is estimated once, on the stacked statistics.
    Deterministic for a given ``seed`` regardless of ``threads``.
    Estimator failures inside a replicate are recorded (NaN estimates)
    rather than raised; the failure rate is part of the summary.  A
    replicate whose conditional F is refused keeps a NaN column.
    """
    summary = ReplicateSummary(scenario, estimators, seed, collect_conditional_f)
    data = generate_dataset(scenario, seed, threads=threads)
    summary.fill(data.statistics, data.sd_exposures, data.sd_outcome)
    if collect_conditional_f:
        summary.conditional_f[:] = conditional_f(data.individual)[0].T
    return summary


# ---------------------------------------------------------------------------
# Experiments


def pleiotropy_experiment(scenario, seed, estimators, threads=1):
    """Paired correct/misspecified estimates over the scenario's
    ``hidden_effect_grid``.

    For each grid value the true effects of ``scenario.hidden_exposures``
    are set to that value, ``scenario.replicates`` datasets are generated
    from the full model, and both the full model and the model omitting
    the hidden exposures are estimated on each.  Grid value g runs with
    seed ``seed + g``.  Returns ``(labels, summary)`` cells in grid order,
    the full model before the misspecified one, labelled
    ``{"hidden_effect": value, "model": "full" | "misspecified"}``.
    """
    hidden = scenario.hidden_exposures
    if not hidden:
        raise ScenarioError("pleiotropy experiment needs hidden exposures")
    grid = scenario.hidden_effect_grid
    if not grid:
        raise ScenarioError("pleiotropy experiment needs a hidden-effect grid")
    keep = [k for k in range(scenario.n_exposures) if k not in hidden]

    cells = []
    for g, value in enumerate(grid):
        effects = list(scenario.true_effects)
        for h in hidden:
            effects[h] = value
        cell = replace(
            scenario,
            true_effects=tuple(effects),
            name=f"{scenario.name}[hidden={value}]",
        )
        causal = cell.causal_instruments
        if cell.causal_layout[1] is None:  # one causal list per exposure: the modelled ones
            causal = tuple(causal[k] for k in keep)
        missp_scenario = replace(
            cell,
            true_effects=tuple(np.asarray(cell.true_effects)[keep]),
            causal_instruments=causal,
            hidden_exposures=(),
            exposure_names=tuple(np.asarray(cell.exposure_names)[keep])
            if cell.exposure_names
            else None,
            name=f"{cell.name}/misspecified",
        )
        full = ReplicateSummary(cell, estimators, seed + g)
        missp = ReplicateSummary(missp_scenario, estimators, seed + g)
        data = generate_dataset(cell, seed + g, threads=threads)
        full.fill(data.statistics, data.sd_exposures, data.sd_outcome)
        missp.fill(data.statistics.drop_exposures(hidden), data.sd_exposures[:, keep], data.sd_outcome)
        cells += [
            ({"hidden_effect": value, "model": "full"}, full),
            ({"hidden_effect": value, "model": "misspecified"}, missp),
        ]
    return cells


def two_sample_experiment(scenario, n_exposure_grid, n_outcome_grid, seed, estimators, threads=1):
    """Replicate summaries over a grid of (exposure, outcome) sample sizes.

    Exposure and outcome cohorts are drawn independently per replicate; a
    shared effect matrix links them.  Every cell replaces both sizes of
    ``scenario``, and an empty grid is refused before ``scenario`` is read.
    Cell (i, j) of the grid runs ``scenario.replicates`` replicates with
    seed ``seed + 1000 * i + j``.  Returns ``(labels, summary)`` cells in
    grid order, labelled ``{"n_exposure": size, "n_outcome": size}``.
    """
    if not n_exposure_grid or not n_outcome_grid:
        raise ScenarioError("two-sample grids must be nonempty")
    cells = []
    for i, ne in enumerate(n_exposure_grid):
        for j, no in enumerate(n_outcome_grid):
            cell = replace(
                scenario,
                n_samples=ne,
                n_outcome=no,
                name=f"{scenario.name}[n_exp={ne},n_out={no}]",
            )
            summary = run_replicates(cell, seed + 1000 * i + j, estimators, threads=threads)
            cells.append(({"n_exposure": ne, "n_outcome": no}, summary))
    return cells


def type1_power(null_scenario, alt_scenario, seed, estimators, alpha=0.05, threads=1):
    """Rejection rates under a null-effect and an alternative scenario,
    each run for its own ``replicates``.

    The tested exposure is the first whose effect is zero in the null
    scenario and nonzero in the alternative.  The null replicates run with
    ``seed``, the alternative ones with ``seed + 7919``.  Type-1 error is
    the fraction of null replicates with p < alpha, power the same fraction
    under the alternative; replicates whose estimator failed (no p-value)
    are left out of both.  Returns ``(cells, exposure, rates)``: the
    ``(labels, summary)`` cells, labelled ``{"scenario": "null" |
    "alternative"}``, the tested exposure's index and ``{estimator:
    {"type1": rate, "power": rate}}``.
    """
    pairs = zip(null_scenario.true_effects, alt_scenario.true_effects)
    candidates = [k for k, (c0, c1) in enumerate(pairs) if c0 == 0.0 and c1 != 0.0]
    if not candidates:
        raise ScenarioError("no exposure has a zero null effect and nonzero alternative")
    exposure = candidates[0]
    if _finite(alpha) is None or not 0.0 < alpha <= 1.0:
        raise ScenarioError(f"alpha must be a number in (0, 1], not {alpha!r}")

    null_summary = run_replicates(null_scenario, seed, estimators, threads=threads)
    alt_summary = run_replicates(alt_scenario, seed + 7919, estimators, threads=threads)

    def rejection_rate(summary, est):
        """Share of the replicates with a finite p-value that reject."""
        p = summary.p_values[est][:, [exposure]]
        rejected = np.where(np.isfinite(p), p < alpha, np.nan)
        with _nan_quiet():
            return float(np.nanmean(rejected, axis=0)[0])

    rates = {
        est: {
            "type1": rejection_rate(null_summary, est),
            "power": rejection_rate(alt_summary, est),
        }
        for est in estimators
    }
    cells = [({"scenario": "null"}, null_summary), ({"scenario": "alternative"}, alt_summary)]
    return cells, exposure, rates


# ---------------------------------------------------------------------------
# Scenario files (declarative JSON)


def _json(value):
    import json

    return json.dumps(value)


def _is_count(value):
    return type(value) is int and value > 0  # a JSON integer, not a boolean


def _is_names(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def parse_estimators(text):
    """The estimators of a comma list: at least one, each a known name."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ScenarioError("need at least one estimator")
    for n in names:
        if n not in ESTIMATORS:
            raise ScenarioError(f"unknown estimator {n!r}; choose from {sorted(ESTIMATORS)}")
    return tuple(names)


def _checked(ok, message):
    """A parser that refuses a value ``ok`` rejects with ``message``, formatted with it and its JSON."""
    def parse(value):
        if not ok(value):
            raise ScenarioError(message.format(value, _json(value)))
        return value

    return parse


def _estimator_list(value):
    if not _is_names(value):
        raise ScenarioError(f"scenario key 'estimators' must be a list of estimator names, not {_json(value)}")
    return parse_estimators(",".join(value))


_EFFECT_KEYS = {f.name for f in fields(EffectSizes)}


def _effects(value):
    if not isinstance(value, dict):
        raise ScenarioError("scenario 'effects' must be an object")
    unknown = sorted(set(value) - _EFFECT_KEYS)
    if unknown:
        raise ScenarioError(f"unknown effects keys: {unknown}")
    return EffectSizes(**value)


def _frozen(value):
    """``value`` parsed from JSON, with every list a tuple and every object
    a read-only mapping."""
    if isinstance(value, list):
        return tuple(map(_frozen, value))
    if isinstance(value, dict):
        return MappingProxyType({key: _frozen(item) for key, item in value.items()})
    return value


@lru_cache(maxsize=None)
def _bundled_fixtures():
    """Bundled fixture name -> its parsed content, read once per process."""
    import importlib.resources as resources
    import json

    fixtures = resources.files("mvmr").joinpath("data", "fixtures")
    return _frozen({
        entry.name[: -len(".json")]: json.loads(entry.read_text(encoding="utf-8"))
        for entry in fixtures.iterdir()
        if entry.name.endswith(".json")
    })


def load_fixture(name):
    """A bundled locus fixture (LD matrix, MAFs, names) by name.

    The fixtures are read and parsed once per process and handed out
    read-only, every JSON object a ``MappingProxyType`` and every list a
    tuple, so that no caller can change what the next one reads."""
    fixtures = _bundled_fixtures()
    if not isinstance(name, str) or name not in fixtures:
        raise ScenarioError(f"no bundled fixture named {name!r}")
    return fixtures[name]


@lru_cache(maxsize=None)
def _fixture_model(fixture):
    """The Markov model of a bundled fixture, built once per process and
    shared, as the model is immutable."""
    fixture = load_fixture(fixture)
    return GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]), None


def _gaussian_pair(correlation):
    r = _finite(correlation)
    if r is None:
        raise ScenarioError(f"gaussian_pair correlation must be a number, not {correlation!r}")
    return None, ((1.0, r), (r, 1.0))


# genotype mode -> its tables, each (keys, build): a genotypes object holds
# the first key of exactly one table, no key but "mode" and that table's,
# and build(**keys) gives the scenario's (genotypes, ld_matrix)
GENOTYPE_MODES = {
    "pair": [(("correlation", "maf"), lambda correlation, maf=0.3: (GenotypeModel.pair(correlation, maf), None))],
    "gaussian_pair": [(("correlation",), _gaussian_pair)],
    "markov": [
        (("mafs", "successive_r"), lambda mafs, successive_r=(): (GenotypeModel(mafs, successive_r), None)),
        (("fixture",), _fixture_model),
    ],
    "gaussian": [(("ld",), lambda ld: (None, ld)), (("fixture",), lambda fixture: (None, load_fixture(fixture)["ld"]))],
}


def _genotypes(value):
    if not isinstance(value, dict):
        raise ScenarioError("scenario needs a 'genotypes' object")
    mode = value.get("mode", "markov")
    tables = GENOTYPE_MODES.get(mode) if isinstance(mode, str) else None
    if tables is None:
        raise ScenarioError(f"unknown genotype mode {mode!r}")
    chosen = [(keys, build) for keys, build in tables if keys[0] in value]
    if len(chosen) != 1:
        needs = " or ".join(repr(keys[0]) for keys, _ in tables)
        raise ScenarioError(f"{mode} genotypes need {needs}" + (", not both" if chosen else ""))
    [(keys, build)] = chosen
    unknown = sorted(set(value) - {"mode", *keys})
    if unknown:
        raise ScenarioError(f"unknown keys for {mode} genotypes given by {keys[0]!r}: {unknown}")
    if "fixture" in value:
        load_fixture(value["fixture"])  # refuses a name no fixture has before a cache hashes it
    return build(**{key: value[key] for key in keys if key in value})


_SCENARIO_FIELDS = {f.name for f in fields(SimulationScenario)} - {"genotypes", "ld_matrix"}  # set by name in a file


def _scenario(parsed):
    """The :class:`SimulationScenario` of a file's parsed keys."""
    genotypes, ld_matrix = parsed["genotypes"]
    kwargs = {key: value for key, value in parsed.items() if key in _SCENARIO_FIELDS}
    scenario = SimulationScenario(genotypes=genotypes, ld_matrix=ld_matrix, **kwargs)
    if parsed.get("ld_prune_r2") is not None:
        subset = select_by_ld_threshold(scenario.reference_ld, float(parsed["ld_prune_r2"]))
        scenario = replace(scenario, instrument_subset=tuple(subset))
    return scenario


def _replicate_cells(parsed, grids):
    """One ``(labels, scenario)`` cell per combination of the grids' values."""
    import itertools

    cells = []
    for combination in itertools.product(*(values for _, values in grids.values())):
        labels = {label: raw for (label, _), (raw, _) in zip(grids.values(), combination)}
        cell = {**parsed, **{key: value for key, (_, value) in zip(grids, combination)}}
        if labels:
            suffix = ",".join(f"{k}={v}" for k, v in labels.items())
            cell["name"] = f"{parsed.get('name', 'scenario')}[{suffix}]"
        cells.append((labels, _scenario(cell)))
    return {"cells": cells, "collect_conditional_f": parsed.get("conditional_f", False)}


def _two_sample_inputs(parsed, grids):
    sizes = [[v for _, v in grids[key][1]] if key in grids else [parsed[key]] for key in ("n_samples", "n_outcome")]
    template = _scenario({**parsed, "n_samples": sizes[0][0], "n_outcome": sizes[1][0]})
    return {"scenario": template, "n_exposure_grid": sizes[0], "n_outcome_grid": sizes[1]}


def _type1_power_inputs(parsed, grids):
    null = {**parsed, "true_effects": parsed["null_effects"]}
    return {"scenario": _scenario(parsed), "null_scenario": _scenario(null), "alpha": parsed.get("alpha", 0.05)}


# the keys that may hold a grid, in expansion order ("correlation" is the genotypes object's)
GRID_KEYS = ("correlation", "n_samples", "n_outcome", "ld_prune_r2")
_REQUIRED = ("true_effects", "n_samples", "genotypes")


@dataclass(frozen=True)
class ScenarioKind:
    """The table of one kind of scenario file: ``keys`` maps every key the
    file may hold to its parser (None: as written, for the scenario or the
    runner to check), of which it must hold the ``required``.  ``grids``
    are the ``GRID_KEYS`` a list may fill, ``count`` the key --replicates
    replaces, and ``inputs(parsed, grids)`` the runner's arguments."""

    keys: dict
    inputs: object
    required: tuple = _REQUIRED
    grids: tuple = ()
    count: str = "replicates"


_SIMULATED = {  # the keys of every kind that simulates a scenario
    **dict.fromkeys(("kind", "name", "true_effects", "n_samples", "n_outcome", "causal_instruments", "noise_variance")),
    **dict.fromkeys(("instrument_subset", "ld_choice", "ld_wishart_df", "exposure_names")),
    "seed": check_seed,
    "estimators": _estimator_list,
    "replicates": check_replicates,
    "genotypes": _genotypes,
    "effects": _effects,
    "ld_prune_r2": _checked(lambda v: v is None or _finite(v) is not None, "ld_prune_r2 must be a number, not {0!r}"),
}
_SIZES = {  # every two_sample cell sets both sizes: a null one would run the one-sample design
    key: _checked(lambda v: v is not None, f"two_sample scenario key {key!r} must hold sample sizes, not null") for key in ("n_samples", "n_outcome")
}
_PCA = {  # the runner's pc1_explained_variance refuses a correlation outside (-1, 1)
    "kind": None,
    "seed": check_seed,
    "correlations": _checked(lambda v: isinstance(v, list), "pca scenarios need 'correlations', a list of numbers"),
    **{key: _checked(_is_count, f"pca scenario key {key!r} must be a positive integer, not {{1}}") for key in ("n_samples", "pca_repetitions")},
}
SCENARIO_KINDS = {
    "replicates": ScenarioKind(
        {**_SIMULATED, "conditional_f": _checked(lambda v: isinstance(v, bool), "scenario key 'conditional_f' must be true or false, not {1}")},
        _replicate_cells,
        grids=GRID_KEYS,
    ),
    "pleiotropy": ScenarioKind(
        {**_SIMULATED, "hidden_exposures": None, "hidden_effect_grid": None},
        lambda parsed, grids: {"scenario": _scenario(parsed)},
        (*_REQUIRED, "hidden_exposures", "hidden_effect_grid"),
    ),
    "two_sample": ScenarioKind({**_SIMULATED, **_SIZES}, _two_sample_inputs, (*_REQUIRED, "n_outcome"), ("n_samples", "n_outcome")),
    "type1_power": ScenarioKind({**_SIMULATED, "null_effects": None, "alpha": None}, _type1_power_inputs, (*_REQUIRED, "null_effects")),
    "pca": ScenarioKind(_PCA, lambda parsed, grids: parsed, ("correlations",), count="pca_repetitions"),
}


def expand_scenario_config(config, replicates=None):
    """Check a scenario file's mapping against its kind's table and parse it,
    refusing, by key and kind, a key outside the table, a missing required
    key, a list for a grid key the kind does not expand and an empty grid.
    ``replicates`` replaces the file's replicate count once that is checked.
    Returns ``(kind, seed, estimators, inputs)``: the file's seed and
    estimators (None if unset) and the kind runner's keyword arguments."""
    kind = config.get("kind", "replicates")
    spec = SCENARIO_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    unknown = [key for key in config if key not in spec.keys]
    if unknown:
        raise ScenarioError(f"unknown {kind} scenario keys: {sorted(unknown)}")
    missing = [key for key in spec.required if key not in config]
    if missing:
        raise ScenarioError(f"{kind} scenario lacks required keys: {missing}")

    def parse(key, value):
        return value if spec.keys[key] is None else spec.keys[key](value)

    grids = {}  # file key -> (grid key, [(value as written, parsed), ...])
    for key in GRID_KEYS:
        owner = "genotypes" if key == "correlation" else key
        holder = config.get(owner) if owner != key else config
        listed = holder.get(key) if isinstance(holder, dict) else None
        if isinstance(listed, (list, tuple)):
            if key not in spec.grids:
                raise ScenarioError(f"{kind} scenario key {key!r} may not be a grid: {_json(listed)}")
            if not listed:
                raise ScenarioError(f"{kind} scenario grids must be nonempty: {key!r} is []")
            options = listed if owner == key else [{**holder, key: value} for value in listed]
            grids[owner] = (key, [(value, parse(owner, option)) for value, option in zip(listed, options)])
    parsed = {key: parse(key, value) for key, value in config.items() if key not in grids}
    if replicates is not None:
        parsed[spec.count] = parse(spec.count, replicates)
    parsed.pop("kind", None)
    return kind, parsed.pop("seed", None), parsed.pop("estimators", None), spec.inputs(parsed, grids)


def scenario_from_dict(config):
    """The one scenario of a scenario file's mapping, read by
    :func:`expand_scenario_config`: a replicates mapping's one cell, or the
    scenario a pleiotropy, two_sample or type1_power runner takes."""
    kind, _, _, inputs = expand_scenario_config(config)
    cells = inputs.get("cells", [({}, inputs.get("scenario"))])
    if len(cells) != 1 or cells[0][1] is None:
        raise ScenarioError(f"this {kind} scenario does not describe exactly one scenario")
    return cells[0][1]


def load_scenario_file(path, replicates=None):
    """Read the scenario file at ``path``, which must be UTF-8 JSON text
    holding one object, and parse it as :func:`expand_scenario_config` does."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid scenario JSON in {path}: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"scenario file {path} is nested too deeply to parse") from None
    if not isinstance(config, dict):
        raise ScenarioError(f"scenario file {path} must hold a JSON object")
    return expand_scenario_config(config, replicates)

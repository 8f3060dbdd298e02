"""Property tests for ``estimate`` on summary statistics.

Whatever one-design statistics the ``SummaryStatistics`` constructor
accepts, each estimator either estimates the design or refuses it with an
``MvmrError``, which the command line reports with exit code 3 or 4; no
other exception escapes.  The LD matrices drawn include near-singular ones (condition
numbers up to 1e14) and ones made indefinite by rounding (smallest
eigenvalue down to -1e-10, the constructor's tolerance); the instrument-
exposure covariances include zero columns, proportional columns and
magnitudes down to 1e-200.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from mvmr import estimators as est
from mvmr.errors import IllConditionedLdError, InvalidStatisticsError, MvmrError

from helpers import design, single_design

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


def _matrix(draw, rows, cols, elements=UNIT):
    return np.array(draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


def _unit_diagonal(a):
    """``a`` rescaled to an exactly symmetric matrix with an exactly unit diagonal."""
    d = np.sqrt(np.diag(a))
    c = a / np.outer(d, d)
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return c


LD_KINDS = ("conditioned", "rounding_indefinite", "near_duplicate")


@st.composite
def _ld(draw, L, kinds):
    """An LD matrix: well or badly conditioned, exactly singular plus a
    rounding error, or with a near-duplicate pair of instruments."""
    q, _ = np.linalg.qr(_matrix(draw, L, L) + 2.0 * np.eye(L))
    kind = draw(st.sampled_from(kinds))
    if kind == "conditioned":
        decades = draw(st.floats(0.0, 14.0))
        eigenvalues = 10.0 ** (-decades * np.linspace(0.0, 1.0, L))
    else:
        eigenvalues = np.linspace(1.0, 2.0, L)
    if kind == "rounding_indefinite" and L > 1:
        eigenvalues[-1] = -draw(st.floats(1e-13, 1e-10))
    a = q @ np.diag(eigenvalues) @ q.T
    assume(np.all(np.diag(a) > 0.0))  # fails only when the negative eigenvector is a unit vector
    ld = _unit_diagonal(a)
    if kind == "near_duplicate" and L > 1:
        r = 1.0 - 10.0 ** -draw(st.integers(4, 17))
        ld[0, 1:] = ld[1:, 0] = ld[1, 1:] * r
        ld[1, 0] = ld[0, 1] = r
        ld = _unit_diagonal(ld)
    return ld


N_OUTCOME = st.one_of(st.none(), st.integers(1, 10**7))


@st.composite
def _statistics(draw, kinds=LD_KINDS, n_outcome=N_OUTCOME):
    L = draw(st.integers(1, 5))
    K = draw(st.integers(1, L))
    sigma_EX = _matrix(draw, L, K) * 10.0 ** -draw(st.sampled_from([0, 0, 0, 3, 8, 160, 200]))
    for k in range(K):
        column = draw(st.sampled_from(["drawn", "zero", "proportional"]))
        if column == "zero":
            sigma_EX[:, k] = 0.0
        elif column == "proportional":
            sigma_EX[:, k] = draw(UNIT) * sigma_EX[:, 0]
    sigma_EY = _matrix(draw, L, 1).ravel()
    try:
        return single_design(sigma_EX, sigma_EY, draw(_ld(L, kinds)), n_outcome=draw(n_outcome))
    except InvalidStatisticsError:
        reject()


@pytest.mark.parametrize("method", sorted(est.ESTIMATORS))
@PROPERTY
@given(stats=_statistics())
def test_estimate_returns_or_raises_a_typed_error(method, stats):
    try:
        result = design(est.estimate(stats, method))
    except MvmrError:
        return
    assert isinstance(result, est.EstimateResult)
    assert result.effects.shape == (stats.n_exposures,)
    assert np.all(np.isfinite(result.effects))
    inference = (result.standard_errors, result.p_values, result.bonferroni_significant)
    if stats.n_outcome is None:
        assert inference == (None, None, None)
    else:
        assert all(a.shape == (stats.n_exposures,) for a in inference)
        assert not np.isnan(result.standard_errors).any()


@pytest.mark.parametrize("method", sorted(est.ESTIMATORS))
@PROPERTY
@given(stats=_statistics(kinds=("rounding_indefinite",), n_outcome=st.integers(1, 10**7)))
def test_no_inference_on_an_ld_matrix_that_is_not_positive_definite(method, stats):
    assume(np.linalg.eigvalsh(stats.sigma_EE).min() <= 0.0)
    with pytest.raises(MvmrError) as raised:
        design(est.estimate(stats, method))
    if method != "ls":  # LS checks the design before it reads Sigma_EE^-1
        assert raised.type is IllConditionedLdError

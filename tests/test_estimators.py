import dataclasses

import numpy as np
import pytest

from mvmr import estimators as est
from mvmr import simulate as sim
from mvmr.errors import (
    CollinearExposuresError,
    IllConditionedLdError,
    InvalidStatisticsError,
    UnderdeterminedError,
)
from helpers import (
    design,
    near_singular_ld_payload,
    population_statistics,
    random_mvmr_graph,
    rounding_indefinite_ld_payload,
    single_dataset,
    single_design,
)
from test_graph import fig_2a_model


def individual_standard_errors(result, stats, individual):
    """Individual-level standard errors of ``result``, the estimate of a
    one-design stack's design: the summary-mode sandwich with the empirical
    residual variance of ``y - x c`` on the standardized scale, read from
    the correlations as ``N (1 - 2 c^T S_XY + c^T S_XX c)``, over the
    observation count."""
    c = result.effects
    L, n = individual.n_instruments, individual.n_observations
    sigma_XX = individual.corr[0, L:-1, L:-1]
    sigma_XY = individual.corr[0, L:-1, -1]
    rss = n * max(0.0, 1.0 - 2.0 * float(c @ sigma_XY) + float(c @ sigma_XX @ c))
    sigma_u2 = rss / max(n - stats.n_exposures, 1)
    sandwich = stats._moments[2][0]
    return np.sqrt(np.clip(np.diag(sandwich) * sigma_u2 / n, 0.0, None))


def fig_2a_statistics(n_outcome=None):
    diagram, sem = fig_2a_model()
    return population_statistics(
        diagram, sem, ["E1", "E2"], ["X1", "X2"], "Y", n_outcome=n_outcome
    )


class TestSummaryStatistics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            single_design(np.ones((2, 3)), np.ones(2), np.eye(2))

    def test_requires_unit_diagonal_ld(self):
        with pytest.raises(ValueError):
            single_design(np.eye(2), [0.1, 0.2], 2.0 * np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            single_design(
                np.array([[np.nan], [0.1]]), [0.1, 0.2], np.eye(2)
            )


class TestLsEstimate:
    def test_identity_design(self):
        stats = single_design(np.eye(2), [0.2, 0.6], np.eye(2))
        assert np.allclose(design(est.ls_estimate(stats)).effects, [0.2, 0.6], atol=1e-15)

    def test_population_fig2a_recovery(self):
        result = design(est.ls_estimate(fig_2a_statistics()))
        assert np.allclose(result.effects, [0.2, 0.6], atol=1e-10)

    def test_proportional_columns_underdetermined(self):
        stats = single_design(
            np.array([[0.3, 0.6], [0.2, 0.4]]), [0.1, 0.2], np.eye(2)
        )
        with pytest.raises(UnderdeterminedError, match=r"rank 1 < 2 exposures"):
            design(est.ls_estimate(stats))
        assert stats.diagnostics.rows()[0]["rank_EX"] == 1


    def test_bitwise_equal_to_the_identity_weighted_form(self):
        # the reference c(I) = (S^T I S)^-1 S^T I s_y is the product order of
        # the fingerprinted LS outputs; numpy's symmetric S^T S differs from
        # it in the last bit for more than half of these designs
        rng = np.random.default_rng(1601)
        for L in range(1, 9):
            for K in range(1, L + 1):
                for _ in range(20):
                    S, s_y = rng.normal(size=(L, K)), rng.normal(size=L)
                    stats = single_design(S, s_y, np.eye(L))
                    identity = np.eye(L)
                    SI = stats.sigma_EX[0].T @ identity
                    expected = np.linalg.solve(SI @ stats.sigma_EX[0], SI @ stats.sigma_EY[0])
                    assert design(est.ls_estimate(stats)).effects.tobytes() == expected.tobytes()


class TestGmm:
    def test_exactly_determined_weighting_free(self):
        # with one instrument per exposure both weightings solve the same equations
        stats = fig_2a_statistics()
        a = design(est.gmm_optimal(stats)).effects
        assert np.allclose(a, design(est.ls_estimate(stats)).effects, atol=1e-10)

    def test_overdetermined_population_recovery(self):
        # 3 exposures, 7 instruments: optimal weighting recovers the truth
        rng = np.random.default_rng(12)
        L, K = 7, 3
        links = rng.uniform(0.3, 0.7, size=L - 1)
        R = sim.GenotypeModel([0.3] * L, links).implied_ld()
        A = np.zeros((L, K))
        A[:K + 1] = rng.uniform(0.1, 0.4, size=(K + 1, K))
        c = np.array([0.15, -0.05, -0.27])
        sd_x = np.sqrt(np.einsum("li,lm,mi->i", A, R, A) + 1.0)
        sigma_EX = (R @ A) / sd_x[None, :]
        sigma_XX = (A.T @ R @ A + np.eye(K)) / np.outer(sd_x, sd_x)
        c_std = c * sd_x
        var_y = float(c_std @ sigma_XX @ c_std) + 1.0
        sigma_EY = sigma_EX @ (c_std / np.sqrt(var_y))
        stats = single_design(sigma_EX, sigma_EY, R)
        result = design(est.gmm_optimal(stats))
        assert np.allclose(result.effects, c_std / np.sqrt(var_y), atol=1e-10)

    def test_perfect_ld_rejected(self):
        R = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises((IllConditionedLdError, ValueError)):
            stats = single_design(
                np.array([[0.3, 0.1], [0.2, 0.25]]), [0.1, 0.2], R
            )
            design(est.gmm_optimal(stats))


class TestTwmrShrunk:
    def test_shrinks_the_optimal_inverse_hessian_by_the_fixed_factor(self):
        stats = fig_2a_statistics()
        W = stats.sigma_EX[0].T @ np.linalg.inv(stats.sigma_EE[0])
        H = np.linalg.inv(W @ stats.sigma_EX[0])
        alpha = 1.0 / np.sqrt(3781)
        expected = ((1.0 - alpha) * H + alpha * np.eye(2)) @ W @ stats.sigma_EY[0]
        assert est.TWMR_ALPHA == alpha
        assert np.allclose(design(est.twmr_shrunk_estimate(stats)).effects, expected, atol=1e-12)

    def test_default_alpha_biased_on_population(self):
        stats = fig_2a_statistics()
        shrunk = design(est.twmr_shrunk_estimate(stats)).effects
        exact = design(est.gmm_optimal(stats)).effects
        gap = np.abs(shrunk - exact)
        assert gap.max() > 1e-4  # nonzero deviation from the exact solution


class TestStandardErrors:
    def test_scaling_with_outcome_sample_size(self):
        stats_small = fig_2a_statistics(n_outcome=1000)
        stats_large = fig_2a_statistics(n_outcome=100_000)
        r1 = est.ls_estimate(stats_small)
        r2 = est.ls_estimate(stats_large)
        se1 = est.standard_errors(r1, stats_small)
        se2 = est.standard_errors(r2, stats_large)
        assert np.all(se2 < se1)
        assert np.allclose(se1 / se2, np.sqrt(100.0), rtol=1e-10)

    def test_missing_n_outcome_rejected(self):
        stats = fig_2a_statistics()
        result = est.ls_estimate(stats)
        with pytest.raises(ValueError):
            est.standard_errors(result, stats)

    def test_noiseless_outcome_zero_se(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(500, 2))
        x = e @ np.array([[0.5, 0.2], [0.1, 0.6]])
        y = x @ np.array([0.2, 0.6])
        e = (e - e.mean(0)) / e.std(0)
        x = (x - x.mean(0)) / x.std(0)
        y = (y - y.mean()) / y.std()
        data = est.IndividualData.from_arrays(e, x, y)
        stats = data.summary_statistics()
        result = design(est.ls_estimate(stats))
        se = individual_standard_errors(result, stats, data)
        assert np.allclose(se, 0.0, atol=1e-6)

    def test_summary_and_individual_modes_agree(self):
        """One-sample locus-style simulation: the summary approximation
        tracks the exact individual-level standard errors (median relative
        gap under 15% across replicates)."""
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        scenario = sim.SimulationScenario(
            true_effects=tuple(fixture["true_effects"]),
            n_samples=1000,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=0.1, high=0.3),
            causal_instruments=tuple(fixture["causal_instruments"]),
        )
        rng_root = np.random.SeedSequence(2024)
        ratios = []
        for rep, child in enumerate(rng_root.spawn(2000)):
            data = single_dataset(scenario, child)
            result = est.gmm_optimal(data.statistics)
            summary = est.standard_errors(result, data.statistics)[0]
            individual = individual_standard_errors(design(result), data.statistics, data.individual)
            ratios.append(summary / individual)
        ratios = np.array(ratios)
        median_gap = np.median(np.abs(ratios - 1.0), axis=0)
        assert np.all(median_gap < 0.15)


def overidentified_statistics(n_outcome=2000):
    """L = 5 correlated instruments, K = 3 exposures."""
    rng = np.random.default_rng(4)
    R = np.array([[0.4 ** abs(i - j) for j in range(5)] for i in range(5)])
    return single_design(
        rng.uniform(-0.3, 0.3, size=(5, 3)),
        rng.uniform(-0.1, 0.1, size=5),
        R,
        n_outcome=n_outcome,
    )


METHODS = ("ls", "gmm", "twmr")


def typed(rows):
    """``rows`` of a report with each value paired with its type, so that
    ``==`` tells 1 from 1.0 and a Python scalar from a numpy one."""
    return [{name: (type(value), value) for name, value in row.items()} for row in rows]


class TestSharedFactorisation:
    def test_one_diagnostics_pass_per_statistics(self, monkeypatch):
        calls = []
        diagnostics = est.identifiability_diagnostics

        def counting(stats):
            calls.append(stats)
            return diagnostics(stats)

        monkeypatch.setattr(est, "identifiability_diagnostics", counting)
        stats = overidentified_statistics()
        for method in METHODS:
            est.estimate(stats, method)
        assert len(calls) == 1

    def test_statistics_are_immutable(self):
        sigma_EX = np.array([[0.3, 0.1], [0.1, 0.4], [0.2, 0.2]])
        sigma_EE = np.eye(3)
        stats = single_design(sigma_EX, [0.1, 0.2, 0.1], sigma_EE, n_outcome=500)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.n_outcome = 10
        with pytest.raises(ValueError):
            stats.sigma_EE[0, 0, 1] = 0.5
        before = est.estimate(stats, "gmm")
        sigma_EX[0, 0] = 5.0
        sigma_EE[0, 1] = sigma_EE[1, 0] = 0.5
        assert stats.sigma_EX[0, 0, 0] == 0.3
        assert stats.sigma_EE[0, 0, 1] == 0.0
        after = est.estimate(stats, "gmm")
        assert np.array_equal(after.effects, before.effects)
        assert np.array_equal(after.standard_errors, before.standard_errors)

    @pytest.mark.parametrize("method", METHODS)
    def test_derived_statistics_get_fresh_caches(self, method):
        stats = overidentified_statistics()
        stacked = est.SummaryStatistics(  # two designs: the statistics and a rescaled copy
            np.concatenate([stats.sigma_EX, 0.5 * stats.sigma_EX]),
            np.concatenate([stats.sigma_EY, -stats.sigma_EY]),
            np.concatenate([stats.sigma_EE, stats.sigma_EE]),
            n_outcome=stats.n_outcome,
        )
        for source in (stats, stacked):
            est.estimate(source, method)  # fill the cache of the source statistics
            got = source.drop_exposures([1])
            direct = est.SummaryStatistics(source.sigma_EX[..., [0, 2]], source.sigma_EY, source.sigma_EE, n_outcome=source.n_outcome)
            a, b = est.estimate(got, method), est.estimate(direct, method)
            assert np.array_equal(a.effects, b.effects)
            assert np.array_equal(a.standard_errors, b.standard_errors)
            assert typed(got.diagnostics.rows()) == typed(direct.diagnostics.rows())
        # statistics built from permuted arrays start with their own cache
        order = [3, 0, 4, 1, 2]
        permuted = single_design(
            stats.sigma_EX[0][order], stats.sigma_EY[0][order], stats.sigma_EE[0][np.ix_(order, order)], n_outcome=stats.n_outcome
        )
        assert permuted._ld[0] is not stats._ld[0]
        np.testing.assert_allclose(permuted._ld[0][0], stats._ld[0][0][np.ix_(order, order)], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(est.estimate(permuted, method).effects, est.estimate(stats, method).effects, rtol=1e-10)

    @pytest.mark.parametrize("method", METHODS)
    def test_estimate_attaches_inference_when_n_outcome_set(self, method):
        stats = overidentified_statistics()
        result = est.estimate(stats, method, bonferroni_threshold=0.2)
        bare = est.ESTIMATORS[method](stats)
        se = est.standard_errors(bare, stats)
        assert bare.standard_errors is None  # standard_errors writes into nothing
        p, significant = est.p_values(bare.effects, se, 0.2)
        assert np.array_equal(result.effects, bare.effects)
        assert np.array_equal(result.standard_errors, se)
        assert np.array_equal(result.p_values, p)
        assert np.array_equal(result.bonferroni_significant, significant)

        plain = est.estimate(dataclasses.replace(stats, n_outcome=None), method)
        assert np.array_equal(plain.effects, bare.effects)
        assert plain.standard_errors is None
        assert plain.p_values is None
        assert plain.bonferroni_significant is None

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            est.estimate(overidentified_statistics(), "ols")


class TestErrorOrder:
    @pytest.mark.parametrize("method", ["gmm", "twmr"])
    def test_ill_conditioned_ld_before_rank_check(self, method):
        R = np.array([[1.0, 1.0 - 1e-14, 0.0], [1.0 - 1e-14, 1.0, 0.0], [0.0, 0.0, 1.0]])
        stats = single_design(
            np.array([[0.3, 0.6], [0.2, 0.4], [0.1, 0.2]]), [0.1, 0.2, 0.1], R, n_outcome=1000
        )
        with pytest.raises(IllConditionedLdError):
            design(est.estimate(stats, method))
        with pytest.raises(UnderdeterminedError):
            design(est.estimate(stats, "ls"))


class TestLdGate:
    """``_ld`` is the one check of Sigma_EE and ``_moments`` the one check
    of the weighted moment matrix; the estimators solve what they cached."""

    def test_near_singular_positive_definite_ld_is_estimated(self):
        stats = single_design(**near_singular_ld_payload())
        assert 5e5 < stats.diagnostics.condition_EE[0] < 2e6
        for method in METHODS:
            result = design(est.estimate(stats, method))
            assert np.all(np.isfinite(result.effects))
            assert np.all(result.standard_errors > 0)
        np.testing.assert_allclose(design(est.gmm_optimal(stats)).effects, [0.2, -0.1], atol=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    def test_rounding_indefinite_ld_refused(self, method):
        stats = single_design(**rounding_indefinite_ld_payload())
        assert stats.diagnostics.condition_EE[0] < est.LD_CONDITION_LIMIT
        with pytest.raises(IllConditionedLdError, match="not positive definite"):
            design(est.estimate(stats, method))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_singular_moment_matrix_is_underdetermined(self, method, scale):
        # full rank, but M = S^T S underflows to zero (1e-170) or to a
        # subnormal whose inverse overflows (1e-160)
        stats = single_design(scale * np.eye(2), [0.1, 0.2], np.eye(2), n_outcome=100)
        assert stats.diagnostics.rank_EX[0] == 2
        with pytest.raises(UnderdeterminedError, match="singular"):
            design(est.estimate(stats, method))


class TestPValues:
    def test_zero_statistic(self):
        p, flags = est.p_values(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
        assert np.allclose(p, 1.0)
        assert not flags.any()

    def test_normal_quantile(self):
        p, _ = est.p_values(np.array([1.959964]), np.array([1.0]))
        assert p[0] == pytest.approx(0.05, abs=1e-6)

    def test_bonferroni_threshold(self):
        p, flags = est.p_values(np.array([3.72]), np.array([1.0]))  # two-sided p ~ 2e-4
        assert p[0] < 3e-4
        assert flags[0]

    def test_degenerate_se(self):
        p, flags = est.p_values(np.array([0.5, 0.0]), np.array([0.0, 0.0]))
        assert p[0] == 0.0
        assert p[1] == 1.0
        assert flags.tolist() == [True, False]

    def test_tail_matches_scipy_norm_sf_bitwise(self):
        from scipy import stats as sps

        z = np.concatenate(
            [[0.0, 1e-300, 8.0, 40.0, np.inf, -np.inf], np.linspace(-45.0, 45.0, 9001)]
        )
        p, _ = est.p_values(z, np.ones_like(z))
        reference = 2.0 * sps.norm.sf(np.abs(z))
        assert p.tobytes() == reference.tobytes()

    def test_random_statistics_and_nan_match_scipy_bitwise(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(2401)
        z = np.concatenate([rng.normal(0.0, 6.0, 100_000), [np.nan]])
        p, _ = est.p_values(z, np.ones_like(z))
        assert np.isnan(p[-1])
        assert p.tobytes() == (2.0 * ndtr(-np.abs(z))).tobytes()

    def test_cephes_port_matches_scipy_special_bitwise(self):
        # every branch of ndtr, erf and erfc: |x| below and above 1/sqrt(2),
        # 1 and 8, exp underflow, signed zeros, infinities and NaN
        from scipy import special

        rng = np.random.default_rng(2402)
        x = np.concatenate(
            [
                [0.0, -0.0, 5e-324, 1.0, -1.0, 8.0, -8.0, 27.0, -27.0, 40.0, np.inf, -np.inf, np.nan],
                np.linspace(-40.0, 40.0, 8001),
                rng.uniform(-30.0, 30.0, 20_000),
            ]
        )
        for port, reference in ((est._ndtr, special.ndtr), (est._erf, special.erf), (est._erfc, special.erfc)):
            values = np.array([port(v) for v in x.tolist()])
            assert values.tobytes() == reference(x).tobytes(), port.__name__


class TestConditionalF:
    @staticmethod
    def _simulate(effect_low, effect_high, n=2000, seed=0, replicates=200):
        fixture = sim.load_fixture("adamts7_ctsh_mam")
        scenario = sim.SimulationScenario(
            true_effects=(0.27, -0.05),
            n_samples=n,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=effect_low, high=effect_high, signs="random"),
            causal_instruments=(0, 2, 4),
        )
        summary = sim.run_replicates(
            dataclasses.replace(scenario, replicates=replicates),
            seed=seed,
            estimators=("ls",),
            collect_conditional_f=True,
        )
        return np.nanmedian(summary.conditional_f, axis=1)

    def test_strong_instruments_above_ten(self):
        medians = self._simulate(0.1, 0.3, seed=21)
        assert np.all(medians > 10)

    def test_weak_instruments_below_ten(self):
        medians = self._simulate(0.001, 0.01, seed=22)
        assert np.all(medians < 10)

    def test_single_exposure_matches_first_stage_f(self):
        rng = np.random.default_rng(9)
        n, L = 400, 3
        e = rng.normal(size=(n, L))
        x = e @ np.array([0.4, 0.2, 0.1]) + rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        e = (e - e.mean(0)) / e.std(0)
        xs = ((x - x.mean()) / x.std()).reshape(-1, 1)
        ys = (y - y.mean()) / y.std()
        data = est.IndividualData.from_arrays(e, xs, ys)
        f = design(est.conditional_f(data))[0]
        # ordinary first-stage F of x on the instruments
        proj, *_ = np.linalg.lstsq(e, xs[:, 0], rcond=None)
        rss1 = float(np.sum((xs[:, 0] - e @ proj) ** 2))
        rss0 = float(xs[:, 0] @ xs[:, 0])
        expected = ((rss0 - rss1) / L) / (rss1 / (n - L))
        assert f == pytest.approx(expected, rel=1e-10)

    def test_collinear_exposures_rejected(self):
        # two exposures proportional as columns: their instrument-fitted
        # values coincide, so conditioning for the third is impossible
        rng = np.random.default_rng(4)
        e = rng.normal(size=(300, 3))
        x1 = e @ np.array([0.4, 0.2, 0.1]) + rng.normal(size=300)
        x2 = e @ np.array([0.1, 0.5, 0.2]) + rng.normal(size=300)
        x = np.column_stack([x1, x2, 2.0 * x2])
        x = (x - x.mean(0)) / x.std(0)
        e = (e - e.mean(0)) / e.std(0)
        y = rng.normal(size=300)
        y = (y - y.mean()) / y.std()
        data = est.IndividualData.from_arrays(e, x, y)
        with pytest.raises(CollinearExposuresError):
            design(est.conditional_f(data))


def standardized(a):
    return (a - a.mean(axis=0)) / a.std(axis=0)


def reference_conditional_f(e, x):
    """Conditional F from standardized N-row arrays by least squares."""
    n, L = e.shape
    K = x.shape[1]
    fitted = e @ np.linalg.solve(e.T @ e, e.T @ x)
    out = np.empty(K)
    for k in range(K):
        others = np.delete(fitted, k, axis=1)
        resid = x[:, k]
        if others.shape[1]:
            coef, *_ = np.linalg.lstsq(others, resid, rcond=None)
            resid = resid - others @ coef
        proj, *_ = np.linalg.lstsq(e, resid, rcond=None)
        rss0 = float(resid @ resid)
        rss1 = float(np.sum((resid - e @ proj) ** 2))
        out[k] = ((rss0 - rss1) / (L - K + 1)) / (rss1 / (n - L))
    return out


def triangular_solve_conditional_f(individual):
    """Conditional F of a one-cohort stack, with the fitted exposures from
    scipy's triangular solve."""
    from scipy.linalg import solve_triangular

    n, L, corr = individual.n_observations, individual.n_instruments, individual.corr[0]
    K = corr.shape[0] - L - 1
    fitted = solve_triangular(np.linalg.cholesky(corr[:L, :L]), corr[:L, L:-1], lower=True)
    out = np.empty(K)
    for k in range(K):
        target = fitted[:, k]
        resid = target
        if K > 1:
            others = np.delete(fitted, k, axis=1)
            coef, *_ = np.linalg.lstsq(others, target, rcond=None)
            resid = target - others @ coef
        rss1 = n * (1.0 - float(target @ target))
        out[k] = (n * float(resid @ resid) / (L - K + 1)) / (rss1 / (n - L))
    return out


class TestConditionalFSolve:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_triangular_solve_on_markov_datasets(self, K):
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        scenario = sim.SimulationScenario(
            true_effects=(0.3, -0.1, 0.2)[:K],
            n_samples=2000,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=0.05, high=0.3, signs="random"),
            causal_instruments=(0, 3, 5)[:K],
        )
        for seed in range(20):
            individual = single_dataset(scenario, seed).individual
            np.testing.assert_allclose(
                design(est.conditional_f(individual)),
                triangular_solve_conditional_f(individual),
                rtol=1e-12,
                atol=0,
            )


class TestIndividualDataSufficientStatistics:
    """The correlation representation against the array formulas it replaced."""

    @staticmethod
    def draw(rng, n, L, K):
        e = rng.normal(size=(n, L)) @ rng.uniform(-0.5, 1.0, size=(L, L))
        e = 3.0 + 0.5 * e  # off-centre and off-scale
        x = e @ rng.uniform(0.2, 0.6, size=(L, K)) + rng.normal(size=(n, K))
        x = x * rng.uniform(0.1, 10.0, size=K) - 2.0
        y = x @ rng.uniform(-1.0, 1.0, size=K) + rng.normal(size=n) + 7.0
        return e, x, y

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("prestandardized", [False, True])
    def test_matches_array_formulas(self, K, prestandardized):
        rng = np.random.default_rng(100 + K)
        n, L = 600, K + 2
        e, x, y = self.draw(rng, n, L, K)
        if prestandardized:
            e, x, y = standardized(e), standardized(x), standardized(y)
        data = est.IndividualData.from_arrays(e, x, y)
        es, xs, ys = standardized(e), standardized(x), standardized(y)

        stats = data.summary_statistics()
        close = dict(rtol=1e-10, atol=0)
        np.testing.assert_allclose(stats.sigma_EX[0], es.T @ xs / n, **close)
        np.testing.assert_allclose(stats.sigma_EY[0], es.T @ ys / n, **close)
        np.testing.assert_allclose(stats.sigma_EE[0], es.T @ es / n, **close)
        np.testing.assert_allclose(data.sds[0, L:-1], x.std(axis=0), **close)
        np.testing.assert_allclose(data.sds[0, -1], y.std(), **close)

        result = design(est.ls_estimate(stats))
        se = individual_standard_errors(result, stats, data)
        resid = ys - xs @ result.effects
        sandwich = np.linalg.inv(
            stats.sigma_EX[0].T @ np.linalg.inv(stats.sigma_EE[0]) @ stats.sigma_EX[0]
        )
        expected = np.sqrt(np.diag(sandwich) * float(resid @ resid) / (n - K) / n)
        np.testing.assert_allclose(se, expected, **close)

        np.testing.assert_allclose(
            design(est.conditional_f(data)), reference_conditional_f(es, xs), **close
        )

    def test_mismatched_n_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            est.IndividualData.from_arrays(rng.normal(size=(50, 2)), rng.normal(size=(49, 1)), rng.normal(size=50))

    def test_too_few_observations_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            est.IndividualData.from_arrays(rng.normal(size=(3, 3)), rng.normal(size=(3, 1)), rng.normal(size=3))

    @pytest.mark.parametrize(
        "entry, value, message",
        [((0, 1), np.nan, "non-finite"), ((2, 2), 0.0, "constant"), ((3, 3), -1.0, "constant")],
    )
    def test_cross_product_constructor_checks(self, entry, value, message):
        rng = np.random.default_rng(3)
        e, x, y = self.draw(rng, 40, 2, 1)
        cross = est.IndividualData.from_arrays(e, x, y).corr.copy()
        est.IndividualData(40, 2, cross)
        cross[0][entry] = value
        with pytest.raises(InvalidStatisticsError, match=message):
            est.IndividualData(40, 2, cross)
        with pytest.raises(InvalidStatisticsError, match="square"):
            est.IndividualData(40, 3, np.eye(4)[None, :, :3])

    def test_constant_generated_column_is_invalid_statistics(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.2, 0.6),
            n_samples=200,
            genotypes=sim.GenotypeModel((0.3, 0.3), (0.5,)),
            effects=sim.EffectSizes(matrix=((0.3, 0.0), (0.2, 0.0))),
            noise_variance=0.0,
        )
        with pytest.raises(InvalidStatisticsError, match="constant"):
            single_dataset(scenario, 3)


class TestIdentifiabilityDiagnostics:
    def test_pass_verdict(self):
        stats = single_design(
            np.array([[0.5, 0.1], [0.1, 0.5]]), [0.1, 0.2], np.eye(2)
        )
        (report,) = est.identifiability_diagnostics(stats).rows()
        assert report["verdict"] == "pass"
        assert report["det_normalized_gram"] > 0.05

    def test_fail_verdict_near_singular(self):
        stats = single_design(
            np.array([[0.5, 0.5001], [0.3, 0.30001]]), [0.1, 0.2], np.eye(2)
        )
        (report,) = est.identifiability_diagnostics(stats).rows()
        assert report["verdict"] == "fail"

    def test_rank_zero_det_for_proportional_columns(self):
        stats = single_design(
            np.array([[0.4, 0.8], [0.2, 0.4]]), [0.1, 0.2], np.eye(2)
        )
        (report,) = est.identifiability_diagnostics(stats).rows()
        assert report["rank_EX"] == 1
        assert report["det_normalized_gram"] == pytest.approx(0.0, abs=1e-12)
        assert report["verdict"] == "fail"

    def test_rows_of_a_stack_are_those_of_each_design(self):
        # a full-rank design with a pass verdict, then a rank-deficient one
        designs = [
            ([[0.5, 0.1], [0.1, 0.5], [0.2, 0.3]], [0.1, 0.2, 0.15], [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]),
            ([[0.4, 0.8], [0.2, 0.4], [0.1, 0.2]], [0.1, 0.2, 0.05], np.eye(3)),
        ]
        stacked = est.SummaryStatistics(*(np.array(arrays) for arrays in zip(*designs)))
        rows = stacked.diagnostics.rows()
        assert [row["rank_EX"] for row in rows] == [2, 1]
        assert typed(rows) == [typed(single_design(*d).diagnostics.rows())[0] for d in designs]
        assert {type(value) for row in rows for value in row.values()} == {int, float, str}


class TestInvariants:
    def test_population_identified_graphs_recovered(self):
        """Estimators recover the SEM effects whenever the instrumental-set
        check passes (standardized population covariances)."""
        from mvmr import graph

        rng = np.random.default_rng(77)
        found = 0
        while found < 30:
            sabotage = rng.choice([None, None, "pleiotropy", "missing_variant"])
            diagram, sem, instruments, exposures, outcome, _ = random_mvmr_graph(
                rng, n_exposures=int(rng.integers(1, 4)), sabotage=sabotage
            )
            verdict = graph.check_instrumental_set(diagram, instruments, exposures, outcome)
            if not verdict.satisfied:
                continue
            found += 1
            stats = population_statistics(diagram, sem, instruments, exposures, outcome)
            truth = np.array(
                [sem.coefficient(diagram, x, outcome) for x in exposures]
            )
            for method in ("ls", "gmm"):
                assert np.allclose(
                    design(est.estimate(stats, method)).effects, truth, atol=1e-10
                )

    def test_instrument_reordering_invariance(self):
        rng = np.random.default_rng(31)
        diagram, sem, instruments, exposures, outcome, _ = random_mvmr_graph(
            rng, n_exposures=3
        )
        stats = population_statistics(diagram, sem, instruments, exposures, outcome)
        order = [2, 0, 1]
        shuffled = single_design(
            stats.sigma_EX[0][order], stats.sigma_EY[0][order], stats.sigma_EE[0][np.ix_(order, order)]
        )
        for method in ("ls", "gmm"):
            a = design(est.estimate(stats, method)).effects
            b = design(est.estimate(shuffled, method)).effects
            assert np.allclose(a, b, atol=1e-12)

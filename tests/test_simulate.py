import importlib.resources as resources
import json
import sys
import warnings

import numpy as np
import pytest
from dataclasses import replace

from mvmr import estimators as est
from mvmr import simulate as sim
from mvmr.errors import FeasibilityError, InvalidStatisticsError, MvmrError, ScenarioError, UnderdeterminedError

from helpers import design, every_replicate, reference_markov_cross, refuse_replicates, single_dataset


def bundled_cell(name, n_samples):
    text = resources.files("mvmr").joinpath("data", "scenarios", f"{name}.json").read_text(encoding="utf-8")
    for labels, scenario in sim.expand_scenario_config(json.loads(text))[3]["cells"]:
        if scenario.n_samples == n_samples:
            return scenario
    raise LookupError(f"{name} has no cell with n_samples={n_samples}")


def assert_same_summaries(a, b):
    """Two replicate summaries hold the same rows, failures and conditional F."""
    assert a.estimator_names == b.estimator_names
    for name in a.estimator_names:
        for rows in ("estimates", "standard_errors", "p_values"):
            assert np.array_equal(getattr(a, rows)[name], getattr(b, rows)[name], equal_nan=True), (name, rows)
    assert a.failures == b.failures
    if a.conditional_f is None:
        assert b.conditional_f is None
    else:
        assert np.array_equal(a.conditional_f, b.conditional_f, equal_nan=True)


def z_mean(a, b):
    """Per column: difference of the means of two independent samples over
    its standard error."""
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    return (a.mean(axis=0) - b.mean(axis=0)) / se


def z_log_sd(a, b):
    """Per column: log ratio of the SDs of two independent samples over its
    large-sample standard error, sqrt((kurtosis - 1) / 4n) for each."""
    def log_sd(x):
        centred = x - x.mean(axis=0)
        m2 = np.mean(centred**2, axis=0)
        m4 = np.mean(centred**4, axis=0)
        return 0.5 * np.log(m2), (m4 / m2**2 - 1.0) / (4 * len(x))

    (la, va), (lb, vb) = log_sd(a), log_sd(b)
    return (la - lb) / np.sqrt(va + vb)


def count_moments(model, counts):
    """Mean vector and correlation matrix of the genotypes ``counts`` draws,
    from the table rows weighted by their counts."""
    vectors = model.genotype_table[0].astype(float)
    n = counts.sum()
    mean = counts @ vectors / n
    cov = (vectors.T * counts) @ vectors / n - np.outer(mean, mean)
    sd = np.sqrt(np.diag(cov))
    return mean, cov / np.outer(sd, sd)


class TestGenotypeSampling:
    def test_single_snp_binomial_mean(self):
        model = sim.GenotypeModel((0.25,), ())
        counts = sim.sample_genotypes(model, 20000, 2)
        assert counts.dtype == np.int64 and counts.sum() == 20000
        mean, _ = count_moments(model, counts)
        assert abs(mean[0] - 0.5) < 0.02
        assert set(np.unique(model.genotype_table[0])) <= {0, 1, 2}

    def test_zero_correlation_independent(self):
        model = sim.GenotypeModel((0.3, 0.3), (0.0,))
        _, corr = count_moments(model, sim.sample_genotypes(model, 20000, 3))
        assert abs(corr[0, 1]) < 0.03

    def test_moment_matching(self):
        model = sim.GenotypeModel((0.3, 0.3), (0.7,))
        mean, corr = count_moments(model, sim.sample_genotypes(model, 20000, 1))
        mafs = mean / 2.0
        assert np.max(np.abs(mafs - 0.3)) < 0.01
        assert abs(corr[0, 1] - 0.7) < 0.02

    def test_infeasible_pair_named(self):
        with pytest.raises(FeasibilityError, match="pair 0-1"):
            sim.GenotypeModel((0.05, 0.45), (0.9,))

    def test_markov_closure_matches_samples(self):
        model = sim.GenotypeModel((0.3, 0.35, 0.28), (0.8, 0.6))
        implied = model.implied_ld()
        assert implied[0, 2] == pytest.approx(0.48)
        _, corr = count_moments(model, sim.sample_genotypes(model, 40000, 4))
        assert abs(corr[0, 2] - 0.48) < 0.02


def random_feasible_models(seed, count):
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        L = int(rng.integers(1, 8))
        try:
            models.append(
                sim.GenotypeModel(rng.uniform(0.02, 0.5, size=L), rng.uniform(-0.95, 0.95, size=L - 1))
            )
        except FeasibilityError:
            continue
    return models


TABLE_MODELS = {
    **{
        name: sim.GenotypeModel.from_ld_matrix(sim.load_fixture(name)["ld"], sim.load_fixture(name)["mafs"])
        for name in ("slc22a3_lpa_plg", "mras_esyt3", "adamts7_ctsh_mam")
    },
    **{f"random{i}": model for i, model in enumerate(random_feasible_models(23, 6))},
}


class TestGenotypeTable:
    """The table is the exact distribution of one genotype vector."""

    @pytest.mark.parametrize("name", sorted(TABLE_MODELS))
    def test_moments_are_exact(self, name):
        model = TABLE_MODELS[name]
        vectors, probs = model.genotype_table
        L = model.n_snps
        assert vectors.shape == (3**L, L) and probs.shape == (3**L,)
        assert len({tuple(v) for v in vectors.tolist()}) == 3**L
        assert np.all(probs[:-1] >= probs[1:])
        assert abs(probs.sum() - 1.0) <= 1e-12
        mean = probs @ vectors
        np.testing.assert_allclose(mean, 2.0 * np.asarray(model.mafs), rtol=0, atol=1e-12)
        cov = (vectors.T * probs) @ vectors - np.outer(mean, mean)
        sd = np.sqrt(np.diag(cov))
        np.testing.assert_allclose(cov / np.outer(sd, sd), model.implied_ld(), rtol=0, atol=1e-12)

    def test_cross_from_counts_matches_rows(self):
        model = sim.GenotypeModel((0.3, 0.2, 0.4), (0.6, -0.3))
        counts = sim.sample_genotypes(model, 700, 8)
        rows = np.repeat(model.genotype_table[0], counts, axis=0).astype(float)
        rows -= rows.mean(axis=0)
        np.testing.assert_allclose(sim._genotype_cross(model, counts), rows.T @ rows, rtol=1e-12, atol=1e-9)

    def test_chain_length_cap(self):
        assert sim.GenotypeModel((0.3,) * sim.MAX_MARKOV_SNPS, (0.5,) * (sim.MAX_MARKOV_SNPS - 1))
        with pytest.raises(ScenarioError, match="MAX_MARKOV_SNPS"):
            sim.GenotypeModel((0.3,) * (sim.MAX_MARKOV_SNPS + 1), (0.5,) * sim.MAX_MARKOV_SNPS)


class TestMarkovCohortDraw:
    def test_linear_map_of_explicit_arrays(self):
        rng = np.random.default_rng(12)
        n, L, K = 300, 4, 3
        A = rng.uniform(-0.4, 0.4, size=(L, K))
        effects = (0.3, -0.2, 0.1)
        noise_sd = 0.7
        e = rng.integers(0, 3, size=(n, L)).astype(float)
        u = rng.standard_normal((n, K))
        v = rng.standard_normal(n)
        x = e @ A + noise_sd * u
        y = x @ np.asarray(effects) + noise_sd * v

        def centred_cross(*columns):
            z = np.column_stack(columns)
            z -= z.mean(axis=0)
            return z.T @ z

        mapped = sim._exposure_outcome_cross(centred_cross(e, u, v), A, effects, noise_sd)
        np.testing.assert_allclose(mapped, centred_cross(e, x, y), rtol=0, atol=1e-10)
        assert np.array_equal(mapped, mapped.T)

    @staticmethod
    def singular_genotypes(n):
        """Centred genotypes of n individuals whose second SNP copies the
        first: a rank-2 block, leaving n - 3 residual degrees of freedom."""
        g = np.array([0.0, 1.0, 2.0, 1.0] * 100)[:n]
        e = np.column_stack([g, g, np.arange(n) % 2])
        return e - e.mean(axis=0)

    @pytest.mark.parametrize("n", [4, 5, 400])
    def test_noise_cross_keeps_genotype_block(self, n):
        # at n = 4 and 5 the residual has fewer degrees of freedom than noise columns
        e = self.singular_genotypes(n)
        cross_EE = e.T @ e
        cross = sim._with_noise_cross(cross_EE, n, 3, np.random.default_rng(n))
        assert np.array_equal(cross[:3, :3], cross_EE)
        assert np.array_equal(cross, cross.T)
        assert np.linalg.eigvalsh(cross)[0] > -1e-9 * np.abs(cross).max()
        # E_c^T W lies in the column space of E_c: the copied SNPs agree
        np.testing.assert_allclose(cross[0, 3:], cross[1, 3:], rtol=1e-12)

    @pytest.mark.parametrize("n", [5, 8])
    def test_noise_cross_matches_explicit_noise(self, n):
        """The noise blocks against the centred cross product of explicit
        (n, 3) normal draws, below (n = 5) and above (n = 8) three residual
        degrees of freedom: means and SDs within Monte-Carlo error."""
        e = self.singular_genotypes(n)
        rng = np.random.default_rng(40 + n)
        upper = np.triu_indices(6)
        noise = upper[1] >= 3  # the E block is fixed
        drawn = np.array([sim._with_noise_cross(e.T @ e, n, 3, rng)[upper][noise] for _ in range(10_000)])
        explicit = []
        for _ in range(10_000):
            d = np.column_stack([e, rng.standard_normal((n, 3))])
            d -= d.mean(axis=0)
            explicit.append((d.T @ d)[upper][noise])
        explicit = np.array(explicit)
        assert np.max(np.abs(z_mean(drawn, explicit))) < 4.0
        assert np.max(np.abs(z_log_sd(drawn, explicit))) < 4.0


class TestMarkovDrawMatchesArraySampler:
    """The count draw against the N-row reference sampler of
    ``helpers.reference_markov_cross``.  Both draw each replicate's effect
    matrix first from the same stream, so the centred cross products of
    [E | X | Y] and the LS and GMM replicate estimates must agree in
    distribution: means and SDs within Monte-Carlo error."""

    REPLICATES = 2000
    Z_LIMIT = 4.0
    CELLS = {
        "fig3_ls_vs_gmm_n500": ("fig3_ls_vs_gmm", 500),
        "fig3_ls_vs_gmm_n2000": ("fig3_ls_vs_gmm", 2000),
        "s3_conditional_f_strong": ("s3_conditional_f_strong", 2000),
    }

    def _run(self, scenario, draw, monkeypatch):
        crosses = []

        def recording(scenario, A, n, rng):
            crosses.append(draw(scenario, A, n, rng))
            return crosses[-1]

        monkeypatch.setattr(sim, "_markov_cross", recording)
        summary = sim.run_replicates(replace(scenario, replicates=self.REPLICATES), seed=2024, estimators=("ls", "gmm"))
        upper = np.triu_indices(crosses[0].shape[0])
        return np.array([cross[upper] for cross in crosses]), summary

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_same_distribution(self, cell, monkeypatch):
        scenario = bundled_cell(*self.CELLS[cell])
        counted, counted_summary = self._run(scenario, sim._markov_cross, monkeypatch)
        rows, rows_summary = self._run(scenario, reference_markov_cross, monkeypatch)
        checks = {"cross products": (counted, rows)}
        for est in ("ls", "gmm"):
            assert not counted_summary.failures[est] and not rows_summary.failures[est]
            checks[est] = (counted_summary.estimates[est], rows_summary.estimates[est])
        for what, (a, b) in checks.items():
            assert np.max(np.abs(z_mean(a, b))) < self.Z_LIMIT, f"{what}: means"
            assert np.max(np.abs(z_log_sd(a, b))) < self.Z_LIMIT, f"{what}: SDs"


class TestPerturbLd:
    def test_concentration_at_high_df(self):
        ref = sim.GenotypeModel((0.3,) * 3, (0.8, 0.5)).implied_ld()
        rng = np.random.default_rng(0)
        errors = [
            np.max(np.abs(sim.perturb_ld(ref, 1_000_000, rng) - ref))
            for _ in range(100)
        ]
        assert np.median(errors) < 0.01

    def test_unit_diagonal_and_symmetry(self):
        ref = sim.GenotypeModel((0.3,) * 4, (0.7, 0.6, 0.5)).implied_ld()
        out = sim.perturb_ld(ref, 50, 7)
        assert np.allclose(np.diag(out), 1.0)
        assert np.allclose(out, out.T)

    def test_low_df_rejected(self):
        ref = np.eye(5)
        with pytest.raises(ScenarioError):
            sim.perturb_ld(ref, 3, 0)

    def test_non_pd_reference_rejected(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ScenarioError):
            sim.perturb_ld(bad, 50, 0)


class TestPerturbLdMatchesScipyWishart:
    """The numpy Bartlett draw is scipy.stats.wishart's draw, variate for variate."""

    PAIR = ((1.0, 0.6), (0.6, 1.0))

    @pytest.mark.parametrize("name", ["slc22a3_lpa_plg", "mras_esyt3", "pair"])
    def test_same_matrix_as_scipy(self, name):
        from scipy import linalg, stats

        reference = np.asarray(self.PAIR if name == "pair" else sim.load_fixture(name)["ld"])
        dim = reference.shape[0]
        exact = 0
        for df in (dim, dim + 1, 50, 400, 12345):
            scale = reference / df
            # scipy factors the scale with its own Cholesky; where numpy's
            # factor differs in its last bits, so may the draw
            same_factor = np.array_equal(
                np.linalg.cholesky(scale), linalg.cholesky(scale, lower=True)
            )
            exact += same_factor
            for seed in range(100):
                expected = est._unit_diagonal(
                    stats.wishart.rvs(df=df, scale=scale, random_state=np.random.default_rng(seed))
                )
                drawn = sim.perturb_ld(reference, df, seed)
                if same_factor:
                    np.testing.assert_array_equal(drawn, expected, err_msg=f"df={df} seed={seed}")
                else:
                    np.testing.assert_allclose(
                        drawn, expected, rtol=1e-12, atol=0, err_msg=f"df={df} seed={seed}"
                    )
        assert exact >= 4  # the exact leg is not vacuous

    def test_leaves_the_stream_where_scipy_does(self):
        from scipy import stats

        reference = np.asarray(sim.load_fixture("mras_esyt3")["ld"])
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        sim.perturb_ld(reference, 40, ours)
        stats.wishart.rvs(df=40, scale=reference / 40, random_state=theirs)
        assert ours.random() == theirs.random()


class TestPc1:
    def test_formula(self):
        assert sim.pc1_explained_variance(0.0) == 0.5
        assert sim.pc1_explained_variance(0.9) == pytest.approx(0.95)

    def test_domain(self):
        with pytest.raises(ValueError):
            sim.pc1_explained_variance(1.0)

    def test_constant_sample_column_refused(self):
        # one genotype pair has no variance: its share was a silent NaN
        with pytest.raises(InvalidStatisticsError, match="constant column"):
            sim.empirical_pc1_share(0.5, n=1, repetitions=1)

    def test_empirical_matches_formula(self):
        share = sim.empirical_pc1_share(0.7, n=2000, repetitions=300, seed=11)
        assert abs(share - 0.85) < 0.01


class TestScenario:
    @staticmethod
    def _markov(n_instruments, spec, causal_instruments=None):
        """A two-exposure Markov scenario of ``n_instruments`` SNPs whose
        effect matrix ``spec`` draws."""
        return sim.SimulationScenario(
            true_effects=(0.1, 0.1),
            n_samples=100,
            genotypes=sim.GenotypeModel((0.3,) * n_instruments, (0.2,) * (n_instruments - 1)),
            effects=spec,
            causal_instruments=causal_instruments,
        )

    def test_requires_one_genotype_source(self):
        with pytest.raises(ScenarioError):
            sim.SimulationScenario(true_effects=(0.3,), n_samples=100)

    def test_causal_subset_size_invariant(self):
        with pytest.raises(ScenarioError):
            sim.SimulationScenario(
                true_effects=(0.2, 0.6),
                n_samples=100,
                genotypes=sim.GenotypeModel((0.3, 0.3), (0.5,)),
                causal_instruments=(0,),
            )

    def test_effect_range_respected(self):
        rng = np.random.default_rng(0)
        spec = sim.EffectSizes(low=0.1, high=0.3, signs="random")
        A = spec.realize(rng, self._markov(4, spec, (0, 2)))
        nonzero = A[[0, 2]]
        assert np.all((np.abs(nonzero) >= 0.1) & (np.abs(nonzero) <= 0.3))
        assert np.all(A[[1, 3]] == 0.0)

    def test_determinant_rejection(self):
        rng = np.random.default_rng(1)
        strong = sim.EffectSizes(low=0.1, high=0.3, det_min=0.05)
        for _ in range(10):
            A = strong.realize(rng, self._markov(2, strong))
            assert np.linalg.det(A) > 0.05
        weak = sim.EffectSizes(low=0.001, high=0.01, det_max=0.001)
        A = weak.realize(rng, self._markov(2, weak))
        assert abs(np.linalg.det(A)) < 0.001

    def test_per_exposure_causal_rows(self):
        rng = np.random.default_rng(2)
        spec = sim.EffectSizes(low=0.1, high=0.3)
        A = spec.realize(rng, self._markov(5, spec, ((0, 1), (3, 4))))
        assert np.all(A[[0, 1], 0] != 0) and np.all(A[[3, 4], 0] == 0)
        assert np.all(A[[3, 4], 1] != 0) and np.all(A[[0, 1], 1] == 0)

    def test_ld_threshold_subsets(self):
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        ld = np.asarray(fixture["ld"])
        sizes = {
            t: len(sim.select_by_ld_threshold(ld, t))
            for t in (0.25, 0.3, 0.4, 0.5, 0.8, 0.96)
        }
        assert sizes == {0.25: 3, 0.3: 4, 0.4: 5, 0.5: 6, 0.8: 7, 0.96: 8}


def realize_scoring_every_draw(spec, rng, scenario, batch=256):
    """Reference rejection loop that runs the determinant band twice and
    scores the Gram/strength screen on every draw of a batch."""
    n_instruments, n_exposures = scenario.n_instruments_total, scenario.n_exposures
    mask, shared_rows = scenario.causal_layout
    square = shared_rows is not None and len(shared_rows) == n_exposures
    sds = scenario.instrument_sds
    cov_E = scenario.reference_ld * np.outer(sds, sds)
    noise_variance = scenario.noise_variance
    while True:
        A_full = rng.uniform(spec.low, spec.high, size=(batch, n_instruments, n_exposures))
        if spec.signs == "random":
            A_full *= rng.choice([-1.0, 1.0], size=A_full.shape)
        A_full *= mask[None, :, :]
        ok = np.ones(batch, dtype=bool)
        if square and spec.det_min is not None:
            ok &= np.linalg.det(A_full[:, shared_rows, :]) > spec.det_min
        if square and spec.det_max is not None:
            ok &= np.abs(np.linalg.det(A_full[:, shared_rows, :])) < spec.det_max
        if ok.any():
            covEX = np.einsum("ij,bjk->bik", cov_E, A_full)
            varX = np.einsum("bji,jk,bkl->bil", A_full, cov_E, A_full)
            sdX = np.sqrt(np.einsum("bii->bi", varX) + noise_variance)
            S = covEX / sds[None, :, None] / sdX[:, None, :]
            norms = np.linalg.norm(S, axis=1)
            if spec.design_strength_min is not None:
                ok &= norms.min(axis=1) >= spec.design_strength_min
            with np.errstate(invalid="ignore", divide="ignore"):
                Sn = S / np.where(norms > 0, norms, 1.0)[:, None, :]
                grams = np.einsum("bji,bjk->bik", Sn, Sn)
                if spec.design_gram_min is not None:
                    ok &= np.linalg.det(grams) > spec.design_gram_min
        hits = np.flatnonzero(ok)
        if hits.size:
            return A_full[hits[0]]


class TestSurvivorScreen:
    """The design screen scores only the determinant band's survivors and
    must pick the same draw, leaving the RNG stream where it did."""

    @staticmethod
    def assert_same_draws(scenario, seeds):
        for seed in seeds:
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            A_new = scenario.effects.realize(rng_new, scenario)
            A_old = realize_scoring_every_draw(scenario.effects, rng_old, scenario)
            assert np.array_equal(A_new, A_old), seed
            assert rng_new.random() == rng_old.random(), seed

    def test_determinant_band_gram_and_strength(self):
        config = json.loads(
            resources.files("mvmr").joinpath("data", "scenarios", "fig2_corr_desk.json").read_text()
        )
        for _, scenario in sim.expand_scenario_config(config)[3]["cells"]:
            self.assert_same_draws(scenario, range(50))

    def test_gram_only_on_locus_ld(self):
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        scenario = sim.SimulationScenario(
            true_effects=tuple(fixture["true_effects"]),
            n_samples=1000,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=0.1, high=0.3, signs="random", design_gram_min=0.5),
            causal_instruments=tuple(fixture["causal_instruments"]),
        )
        self.assert_same_draws(scenario, range(100, 160))

    @pytest.mark.parametrize("signs", ["positive", "random"])
    @pytest.mark.parametrize(
        "n_instruments, causal_instruments",
        [
            (5, None),  # L*K = 15, every instrument causal
            (5, (0, 2, 4)),  # a square shared block without a determinant band
            (5, ((0, 1), (2, 3), (4,))),
            (4, None),  # L*K = 12
            (4, (0, 1, 3)),
            (4, ((0, 1), (1, 2), (3,))),
        ],
    )
    def test_unconstrained_spec_skips_the_batch_exactly(self, signs, n_instruments, causal_instruments):
        """An unconstrained spec draws candidate 0 alone and advances past
        the rest of the batch.  The next integers(0, 2) after the skip
        catches a 32-bit half lost or kept by it when L*K is odd."""
        spec = sim.EffectSizes(low=0.1, high=0.3, signs=signs)
        scenario = sim.SimulationScenario(
            true_effects=(0.1, 0.2, 0.3),
            n_samples=100,
            genotypes=sim.GenotypeModel((0.3,) * n_instruments, (0.2,) * (n_instruments - 1)),
            effects=spec,
            causal_instruments=causal_instruments,
        )
        for seed in range(200):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            A_new = spec.realize(rng_new, scenario)
            A_old = realize_scoring_every_draw(spec, rng_old, scenario)
            assert np.array_equal(A_new, A_old) and np.array_equal(np.signbit(A_new), np.signbit(A_old)), seed
            assert rng_new.random() == rng_old.random(), seed
            assert rng_new.integers(0, 2) == rng_old.integers(0, 2), seed


class TestGenerateDataset:
    def test_standardized_columns_and_stats(self):
        # Gaussian mode: the one mode that still draws N-row arrays
        scenario = sim.SimulationScenario(
            true_effects=(0.2, 0.6),
            n_samples=500,
            ld_matrix=((1.0, 0.7), (0.7, 1.0)),
            effects=sim.EffectSizes(matrix=((0.3, 0.1), (0.2, 0.25))),
        )
        data = single_dataset(scenario, 5)
        assert np.allclose(np.diag(data.individual.corr[0]), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(np.diag(data.statistics.sigma_EE[0]), 1.0)
        # the same draws, standardized explicitly as columns of N rows
        A = np.asarray(scenario.effects.matrix)
        e, x, y = sim._generate_arrays(scenario, A, 500, np.random.default_rng(5), scenario.ld_factor)
        e, x, y = ((a - a.mean(axis=0)) / a.std(axis=0) for a in (e, x, y))
        assert np.allclose(data.statistics.sigma_EX[0], e.T @ x / 500, rtol=0, atol=1e-12)
        assert np.allclose(data.statistics.sigma_EY[0], e.T @ y / 500, rtol=0, atol=1e-12)
        assert np.allclose(data.statistics.sigma_EE[0], e.T @ e / 500, rtol=0, atol=1e-12)

    def test_noiseless_exact_recovery(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.2, 0.6),
            n_samples=400,
            genotypes=sim.GenotypeModel((0.3, 0.3), (0.5,)),
            effects=sim.EffectSizes(matrix=((0.3, 0.1), (0.2, 0.25))),
            noise_variance=0.0,
        )
        data = single_dataset(scenario, 9)
        result = design(est.ls_estimate(data.statistics))
        rescaled = result.effects * data.sd_outcome[0] / data.sd_exposures[0]
        assert np.allclose(rescaled, (0.2, 0.6), atol=1e-10)

    def test_instrument_subset_restricts_stats(self):
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        scenario = sim.SimulationScenario(
            true_effects=(0.15, -0.05, -0.27),
            n_samples=300,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=0.1, high=0.3),
            causal_instruments=(0, 3, 5),
            instrument_subset=(0, 3, 5, 6),
        )
        data = single_dataset(scenario, 3)
        assert data.statistics.sigma_EX.shape == (1, 4, 3)

    def test_instrument_subset_slices_the_cross_product(self, monkeypatch):
        """A Markov cohort's subset statistics equal those of the subset
        arrays: the cross product is drawn for all instruments and sliced."""
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        scenario = sim.SimulationScenario(
            true_effects=(0.15, -0.05, -0.27),
            n_samples=300,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=0.1, high=0.3),
            causal_instruments=(0, 3, 5),
            instrument_subset=(0, 3, 5, 6),
        )
        drawn = []

        def arrays_cross(scenario, A, n, rng):
            e = rng.integers(0, 3, size=(n, scenario.n_instruments_total)).astype(float)
            x = e @ A + rng.standard_normal((n, scenario.n_exposures))
            y = x @ np.asarray(scenario.true_effects) + rng.standard_normal(n)
            drawn.append((e, x, y))
            z = np.column_stack([e, x, y])
            z -= z.mean(axis=0)
            return z.T @ z

        monkeypatch.setattr(sim, "_markov_cross", arrays_cross)
        got = single_dataset(scenario, 3).statistics
        e, x, y = drawn[0]
        want = est.IndividualData.from_arrays(e[:, list(scenario.instrument_subset)], x, y).summary_statistics()
        for name in ("sigma_EX", "sigma_EY", "sigma_EE"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12, err_msg=name)

    def test_two_sample_split(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.3,),
            n_samples=400,
            genotypes=sim.GenotypeModel((0.3,), ()),
            effects=sim.EffectSizes(matrix=((0.5,),)),
            n_outcome=900,
        )
        data = single_dataset(scenario, 4)
        assert data.individual.n_observations == 400
        assert data.statistics.n_outcome == 900

    # one-sample with the sample and the reference LD, two-sample with each
    # LD source (each cohort from its own perturbed LD)
    ASSEMBLY_CASES = {
        "one_sample": {},
        "one_sample_reference_ld": {"ld_choice": "reference"},
        "two_sample_exposure_ld": {"n_outcome": 700, "ld_choice": "exposure"},
        "two_sample_outcome_ld": {"n_outcome": 700, "ld_choice": "outcome"},
        "two_sample_reference_ld": {"n_outcome": 700, "ld_choice": "reference"},
    }

    @staticmethod
    def _assembly_scenario(**kwargs):
        ld = 0.4 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
        return sim.SimulationScenario(
            true_effects=(0.2, -0.3),
            n_samples=400,
            ld_matrix=ld,
            effects=sim.EffectSizes(low=0.1, high=0.3, signs="random"),
            instrument_subset=(0, 1, 3, 4),
            ld_wishart_df=300 if kwargs.get("n_outcome") else None,
            **kwargs,
        )

    @staticmethod
    def _statistics_assembled_per_cohort(scenario, seed):
        """Statistics built as each cohort's own statistics and then mixed,
        from the same draws as ``single_dataset``."""
        rng = np.random.default_rng(seed)
        A = scenario.effects.realize(rng, scenario)
        keep = list(scenario.instrument_subset)
        reference = np.asarray(scenario.ld_matrix)[np.ix_(keep, keep)][None]

        def cohort_statistics(n):
            ld = np.asarray(scenario.ld_matrix)
            if scenario.ld_wishart_df is not None:
                ld = sim.perturb_ld(ld, scenario.ld_wishart_df, rng)
            e, x, y = sim._generate_arrays(scenario, A, n, rng, np.linalg.cholesky(ld))
            return est.IndividualData.from_arrays(e[:, keep], x, y).summary_statistics()

        exposure = cohort_statistics(scenario.n_samples)
        if scenario.n_outcome is None:
            sigma_EE = reference if scenario.ld_choice == "reference" else exposure.sigma_EE
            return est.SummaryStatistics(exposure.sigma_EX, exposure.sigma_EY, sigma_EE, n_outcome=scenario.n_samples)
        outcome = cohort_statistics(scenario.n_outcome)
        if scenario.ld_choice == "reference":
            sigma_EE = reference
        elif scenario.ld_choice == "outcome":
            sigma_EE = outcome.sigma_EE
        else:
            sigma_EE = exposure.sigma_EE
        return est.SummaryStatistics(exposure.sigma_EX, outcome.sigma_EY, sigma_EE, n_outcome=scenario.n_outcome)

    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_one_summary_statistics_per_dataset(self, case, monkeypatch):
        scenario = self._assembly_scenario(**self.ASSEMBLY_CASES[case])
        built = []
        validate = est.SummaryStatistics.__post_init__

        def counting(stats):
            built.append(stats)
            validate(stats)

        monkeypatch.setattr(est.SummaryStatistics, "__post_init__", counting)
        data = single_dataset(scenario, 21)
        assert built == [data.statistics]

    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_statistics_match_per_cohort_assembly(self, case):
        scenario = self._assembly_scenario(**self.ASSEMBLY_CASES[case])
        got = single_dataset(scenario, 21).statistics
        want = self._statistics_assembled_per_cohort(scenario, 21)
        for name in ("sigma_EX", "sigma_EY", "sigma_EE"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.n_outcome == want.n_outcome

    def test_ld_sources_differ(self):
        """The five cases do not collapse onto one LD matrix."""
        ld = {
            case: single_dataset(self._assembly_scenario(**kwargs), 21).statistics.sigma_EE
            for case, kwargs in self.ASSEMBLY_CASES.items()
        }
        assert not np.array_equal(ld["two_sample_exposure_ld"], ld["two_sample_outcome_ld"])
        assert not np.array_equal(ld["two_sample_exposure_ld"], ld["two_sample_reference_ld"])
        assert not np.array_equal(ld["one_sample"], ld["one_sample_reference_ld"])

    @pytest.mark.parametrize("n_outcome", [None, 700])
    def test_wishart_df_perturbs_every_cohort(self, n_outcome, monkeypatch):
        scenario = sim.SimulationScenario(
            true_effects=(0.2, -0.3),
            n_samples=400,
            ld_matrix=0.4 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5))),
            n_outcome=n_outcome,
            ld_wishart_df=40,
        )
        perturb, perturbed = sim.perturb_ld, []
        monkeypatch.setattr(sim, "perturb_ld", lambda *args: perturbed.append(perturb(*args)) or perturbed[-1])
        single_dataset(scenario, 5)
        assert len(perturbed) == (1 if n_outcome is None else 2)
        assert not any(np.array_equal(ld, scenario.reference_ld) for ld in perturbed)

    def test_markov_with_wishart_rejected(self):
        with pytest.raises(ScenarioError):
            sim.SimulationScenario(
                true_effects=(0.3,),
                n_samples=100,
                genotypes=sim.GenotypeModel((0.3, 0.3), (0.5,)),
                ld_wishart_df=50,
            )


def _mras_two_sample(**kwargs):
    return sim.scenario_from_dict({
        "true_effects": [0.208, -0.294], "n_samples": 300, "n_outcome": 1000, "genotypes": {"mode": "gaussian", "fixture": "mras_esyt3"},
        "effects": {"low": 0.05, "high": 0.15}, "causal_instruments": [[0, 1], [3, 4]], **kwargs,
    })


class TestStackedCellMatchesSingleReplicates:
    """Every replicate of a stacked cell reads as the replicate alone: its
    statistics, estimates, inference and conditional F equal, bit for bit,
    those of the one-replicate stack drawn from that replicate's own
    stream, and every refusal has the same type and message."""

    SEED = 11
    CELLS = {
        "markov": lambda: bundled_cell("fig3_ls_vs_gmm", 500),
        "markov_conditional_f": lambda: bundled_cell("s3_conditional_f_strong", 2000),
        "gaussian_one_sample": lambda: bundled_cell("fig2_corr_desk", 2000),
        "two_sample_outcome_ld": lambda: _mras_two_sample(ld_choice="outcome"),
        "two_sample_reference_ld": lambda: _mras_two_sample(ld_choice="reference", instrument_subset=[0, 1, 3, 4]),
        "markov_instrument_subset": lambda: bundled_cell("fig3_ld_accuracy", 2000),
        "gaussian_wishart_reference_ld": lambda: bundled_cell("fig3_ld_perturb", 2000),
        "near_perfect_ld": lambda: sim.scenario_from_dict({
            "true_effects": [0.2], "n_samples": 200, "genotypes": {"mode": "gaussian_pair", "correlation": 0.999999999998},
            "effects": {"low": 0.2, "high": 0.4},
        }),
        "singular_markov_ld": lambda: sim.SimulationScenario(
            true_effects=(0.2, 0.6), n_samples=200, genotypes=sim.GenotypeModel((0.3, 0.3), (0.999,)), effects=sim.EffectSizes(low=0.1, high=0.3)
        ),
        "too_few_observations_for_conditional_f": lambda: sim.SimulationScenario(
            true_effects=(0.2, 0.1), n_samples=4, ld_matrix=((1.0, 0.3), (0.3, 1.0)), effects=sim.EffectSizes(low=0.2, high=0.4)
        ),
        "collinear_exposures": lambda: sim.SimulationScenario(
            true_effects=(0.2, 0.3, -0.1), n_samples=300, ld_matrix=((1.0, 0.3, 0.1), (0.3, 1.0, 0.3), (0.1, 0.3, 1.0)),
            effects=sim.EffectSizes(matrix=((0.3, 0.2, 0.2), (0.1, 0.25, 0.25), (0.2, 0.05, 0.05))), noise_variance=0.0,
        ),
    }

    @staticmethod
    def _same(got, want):
        """Bitwise equality of arrays, or of refusals by type and message."""
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            want = np.asarray(want, dtype=float)
            assert np.asarray(got, dtype=float).tobytes() == want.tobytes()

    def _singles(self, scenario):
        return [single_dataset(scenario, sim._replicate_rng(self.SEED, i)) for i in range(scenario.replicates)]

    def _check(self, stacked, singles, derive):
        """``derive`` maps a dataset to ``(statistics, individual)``."""
        stats, individual = derive(stacked)
        refused = {}
        for est_name in sim.ESTIMATORS:
            result = est.estimate(stats, est_name)
            for i, single in enumerate(singles):
                try:
                    want = design(est.estimate(derive(single)[0], est_name))
                except MvmrError as exc:
                    self._same(result.refusals[i], exc)
                    assert np.isnan(result.effects[i]).all() and np.isnan(result.standard_errors[i]).all()
                    assert np.isnan(result.p_values[i]).all() and not result.bonferroni_significant[i].any()
                    refused.setdefault(est_name, []).append(i)
                    continue
                assert i not in result.refusals
                for field in ("effects", "standard_errors", "p_values", "bonferroni_significant"):
                    self._same(getattr(result, field)[i], getattr(want, field))
        values, refusals = est.conditional_f(individual)
        for i, single in enumerate(singles):
            try:
                want = design(est.conditional_f(derive(single)[1]))
            except MvmrError as exc:
                self._same(refusals[i], exc)
                assert np.isnan(values[i]).all()
                refused.setdefault("conditional_f", []).append(i)
                continue
            assert i not in refusals
            self._same(values[i], want)
        return refused

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_every_replicate_matches(self, cell):
        scenario = replace(self.CELLS[cell](), replicates=12)
        stacked = sim.generate_dataset(scenario, self.SEED)
        singles = self._singles(scenario)
        for i, single in enumerate(singles):
            for name in ("sigma_EX", "sigma_EY", "sigma_EE"):
                self._same(getattr(stacked.statistics, name)[i], getattr(single.statistics, name)[0])
            self._same(stacked.individual.corr[i], single.individual.corr[0])
            self._same(stacked.sd_exposures[i], single.sd_exposures[0])
            self._same(stacked.sd_outcome[i], single.sd_outcome[0])
        refused = self._check(stacked, singles, lambda data: (data.statistics, data.individual))
        expected = {
            "near_perfect_ld": {"ls": 7, "gmm": 7, "twmr": 7},
            "singular_markov_ld": {"ls": 10, "gmm": 10, "twmr": 10, "conditional_f": 10},
            "collinear_exposures": {"ls": 12, "gmm": 12, "twmr": 12, "conditional_f": 12},
            "too_few_observations_for_conditional_f": {"conditional_f": 12},
        }.get(cell, {})
        assert {key: len(indices) for key, indices in refused.items()} == expected

    def test_pleiotropy_misspecified_cell(self):
        scenario = replace(TestPleiotropyExperiment._fig2(), replicates=12)
        scenario = replace(scenario, true_effects=tuple(0.3 if k in scenario.hidden_exposures else c for k, c in enumerate(scenario.true_effects)))
        stacked = sim.generate_dataset(scenario, self.SEED)
        dropped = lambda data: (data.statistics.drop_exposures(scenario.hidden_exposures), data.individual)
        assert self._check(stacked, self._singles(scenario), dropped) == {}

    def test_summary_rows_are_the_single_estimates_rescaled(self):
        scenario = replace(self.CELLS["near_perfect_ld"](), replicates=12)
        summary = sim.run_replicates(scenario, self.SEED, ("ls", "gmm", "twmr"), collect_conditional_f=True)
        for i, single in enumerate(self._singles(scenario)):
            scale = single.sd_outcome[0] / single.sd_exposures[0]
            for est_name in summary.estimator_names:
                try:
                    want = design(est.estimate(single.statistics, est_name))
                except MvmrError as exc:
                    assert (i, str(exc)) in summary.failures[est_name]
                    assert np.isnan(summary.estimates[est_name][i]).all()
                    continue
                self._same(summary.estimates[est_name][i], want.effects * scale)
                self._same(summary.standard_errors[est_name][i], want.standard_errors * scale)
                self._same(summary.p_values[est_name][i], want.p_values)
            self._same(summary.conditional_f[:, i], design(est.conditional_f(single.individual)))
        assert summary.failure_rate("gmm") == 7 / 12

    def test_construction_refusal_names_the_lowest_replicate(self, monkeypatch):
        """A refusal that aborts a cell is that of its lowest refused
        replicate, whichever construction step refuses it."""
        scenario = replace(self.CELLS["gaussian_one_sample"](), replicates=6)
        draw = sim._draw

        def spoiled(scenario, rng):
            exposure, outcome = draw(scenario, rng)
            index = spoiled.calls
            spoiled.calls += 1
            if index == 4:  # a constant column: refused by IndividualData
                exposure[:, 0] = exposure[0, :] = 0.0
            if index == 2:  # an indefinite LD matrix: refused later, by SummaryStatistics
                L = scenario.n_instruments
                exposure[:L, :L] = np.diag(np.sqrt(np.diag(exposure)[:L])) @ [[1.0, 1.5], [1.5, 1.0]] @ np.diag(np.sqrt(np.diag(exposure)[:L]))
            return exposure, outcome

        spoiled.calls = 0
        monkeypatch.setattr(sim, "_draw", spoiled)
        with pytest.raises(InvalidStatisticsError, match="sigma_EE must be positive definite") as info:
            sim.generate_dataset(scenario, self.SEED)
        assert info.value.replicate == 2


class TestRunReplicates:
    @staticmethod
    def _pair_scenario(**kwargs):
        defaults = dict(
            true_effects=(0.2, 0.6),
            n_samples=500,
            genotypes=sim.GenotypeModel.pair(0.3, 0.3),
            effects=sim.EffectSizes(low=0.1, high=0.3, signs="random", det_min=0.05),
        )
        defaults.update(kwargs)
        return sim.SimulationScenario(**defaults)

    def test_deterministic_across_threads(self, monkeypatch):
        """Everything the pool writes agrees at 1 and 3 threads, with gmm
        failing on some replicates and not on others.  A short switch
        interval interleaves the workers' writes into the shared summary."""
        fails_on_some_replicates = refuse_replicates(
            est.ESTIMATORS["gmm"],
            lambda stats: np.flatnonzero(stats.sigma_EY[:, 0] > 0).tolist(),  # reads the replicates' data, not the call order
            lambda stats, i: MvmrError(f"forced failure at {stats.sigma_EY[i, 0]!r}"),
        )
        monkeypatch.setitem(est.ESTIMATORS, "gmm", fails_on_some_replicates)
        scenario = self._pair_scenario()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, parallel = (
                sim.run_replicates(replace(scenario, replicates=40), seed=9, estimators=("ls", "gmm"), threads=threads, collect_conditional_f=True)
                for threads in (1, 3)
            )
        finally:
            sys.setswitchinterval(interval)
        assert_same_summaries(serial, parallel)
        assert 0 < len(serial.failures["gmm"]) < 40 and not serial.failures["ls"]
        assert np.isfinite(serial.conditional_f).all()

    def test_single_replicate_matches_direct_estimate(self):
        scenario = self._pair_scenario()
        summary = sim.run_replicates(replace(scenario, replicates=1), seed=13, estimators=("ls",))
        data = single_dataset(scenario, np.random.default_rng(np.random.SeedSequence(13, spawn_key=(0,))))
        result = design(est.ls_estimate(data.statistics))
        rescaled = result.effects * data.sd_outcome[0] / data.sd_exposures[0]
        assert np.allclose(summary.estimates["ls"][0], rescaled, atol=1e-12)
        assert np.allclose(summary.mean("ls"), rescaled, atol=1e-12)

    def test_failures_recorded_not_fatal(self):
        # instruments in essentially perfect LD give a singular sample LD
        # matrix: gmm fails per replicate, recorded instead of raised
        scenario = sim.SimulationScenario(
            true_effects=(0.2, 0.6),
            n_samples=200,
            genotypes=sim.GenotypeModel((0.3, 0.3), (0.9999999,)),
            effects=sim.EffectSizes(low=0.1, high=0.3),
        )
        summary = sim.run_replicates(replace(scenario, replicates=10), seed=3, estimators=("gmm",))
        assert summary.failure_rate("gmm") == 1.0
        assert np.all(np.isnan(summary.estimates["gmm"]))
        assert all("LD" in msg or "rank" in msg for _, msg in summary.failures["gmm"])

    def test_consistency_with_sample_size(self):
        biases = []
        for n in (500, 10000):
            scenario = self._pair_scenario(n_samples=n)
            summary = sim.run_replicates(replace(scenario, replicates=300), seed=17, estimators=("ls",))
            biases.append(np.abs(summary.bias("ls")).max())
        assert biases[1] < biases[0]
        assert biases[1] < 0.01


class TestPleiotropyExperiment:
    @staticmethod
    def _fig2():
        text = resources.files("mvmr").joinpath("data", "scenarios", "fig2_pleiotropy.json").read_text(encoding="utf-8")
        return sim.scenario_from_dict(json.loads(text))

    def test_zero_hidden_effect_unbiased(self):
        fixture = sim.load_fixture("slc22a3_lpa_plg")
        scenario = sim.SimulationScenario(
            true_effects=(0.15, -0.05, -0.27),
            n_samples=1000,
            genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
            effects=sim.EffectSizes(low=0.1, high=0.3),
            causal_instruments=((0, 1), (4, 6), (5, 7)),
            hidden_exposures=(0,),
            hidden_effect_grid=(0.0,),
        )
        cells = sim.pleiotropy_experiment(replace(scenario, replicates=300), seed=21, estimators=("ls",))
        labels, missp = cells[1]
        assert labels == {"hidden_effect": 0.0, "model": "misspecified"}
        sem = missp.sd("ls") / np.sqrt(missp.scenario.replicates)
        assert np.all(np.abs(missp.bias("ls")) < 4 * sem + 0.01)

    def test_estimator_failures_are_counted(self, monkeypatch):
        underdetermined = refuse_replicates(est.ESTIMATORS["ls"], every_replicate, lambda stats, i: UnderdeterminedError("forced failure"))
        monkeypatch.setitem(est.ESTIMATORS, "ls", underdetermined)
        scenario = self._fig2()
        cells = sim.pleiotropy_experiment(
            replace(scenario, hidden_effect_grid=(0.0, 0.2), replicates=4), seed=3, estimators=("ls",)
        )
        assert [labels for labels, _ in cells] == [
            {"hidden_effect": value, "model": model} for value in (0.0, 0.2) for model in ("full", "misspecified")
        ]
        for _, summary in cells:
            assert summary.failure_rate("ls") == 1.0
            assert [i for i, _ in summary.failures["ls"]] == [0, 1, 2, 3]
            assert all(msg == "forced failure" for _, msg in summary.failures["ls"])
            assert np.all(np.isnan(summary.estimates["ls"]))

    def test_deterministic_across_threads(self):
        scenario = replace(self._fig2(), hidden_effect_grid=(0.0, 0.3), replicates=12)
        serial, parallel = (
            sim.pleiotropy_experiment(scenario, seed=5, estimators=("ls", "gmm"), threads=threads)
            for threads in (1, 3)
        )
        assert [labels for labels, _ in serial] == [labels for labels, _ in parallel]
        for (_, a), (_, b) in zip(serial, parallel):
            assert_same_summaries(a, b)

    def test_needs_a_replicate(self):
        with pytest.raises(ScenarioError, match="need at least one replicate"):
            replace(self._fig2(), replicates=0)

    def test_unknown_estimator_rejected(self):
        scenario = self._fig2()
        with pytest.raises(ScenarioError, match="unknown estimator"):
            sim.pleiotropy_experiment(replace(scenario, replicates=2), seed=3, estimators=("ols",))

    def test_requires_hidden_exposures(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.2, 0.6),
            n_samples=100,
            genotypes=sim.GenotypeModel.pair(0.3),
            effects=sim.EffectSizes(low=0.1, high=0.3),
            hidden_effect_grid=(0.0,),
        )
        with pytest.raises(ScenarioError, match="needs hidden exposures"):
            sim.pleiotropy_experiment(scenario, seed=1, estimators=("ls",))


class TestTwoSampleExperiment:
    def test_one_sample_reduction_matches_run_replicates(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.3,),
            n_samples=300,
            genotypes=sim.GenotypeModel((0.3,), ()),
            effects=sim.EffectSizes(matrix=((0.5,),)),
        )
        scenario = replace(scenario, replicates=50)
        direct = sim.run_replicates(scenario, seed=31, estimators=("ls",))
        [(labels, summary)] = sim.two_sample_experiment(scenario, [300], [None], seed=31, estimators=("ls",))
        assert labels == {"n_exposure": 300, "n_outcome": None}
        assert np.array_equal(direct.estimates["ls"], summary.estimates["ls"])

    def test_empty_grid_rejected(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.3,),
            n_samples=300,
            genotypes=sim.GenotypeModel((0.3,), ()),
            effects=sim.EffectSizes(matrix=((0.5,),)),
        )
        with pytest.raises(ScenarioError):
            sim.two_sample_experiment(scenario, [], [100], seed=1, estimators=("ls",))


class TestType1Power:
    def test_alpha_one_degenerate(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.0,),
            n_samples=300,
            genotypes=sim.GenotypeModel((0.3,), ()),
            effects=sim.EffectSizes(matrix=((0.5,),)),
        )
        null, alt = (replace(scenario, true_effects=effects, replicates=30) for effects in ((0.0,), (0.27,)))
        cells, exposure, rates = sim.type1_power(null, alt, alpha=1.0, seed=2, estimators=("ls",))
        assert [labels for labels, _ in cells] == [{"scenario": "null"}, {"scenario": "alternative"}]
        assert [summary.seed for _, summary in cells] == [2, 2 + 7919]
        assert exposure == 0
        assert rates["ls"]["type1"] == 1.0
        assert rates["ls"]["power"] == 1.0

    @staticmethod
    def _s9_scenarios(replicates):
        path = resources.files("mvmr").joinpath("data", "scenarios", "s9_type1_power.json")
        _, _, _, inputs = sim.expand_scenario_config(json.loads(path.read_text(encoding="utf-8")), replicates)
        return inputs["null_scenario"], inputs["scenario"]

    def test_failed_replicates_left_out_of_rates(self, monkeypatch):
        every_other_replicate_fails = refuse_replicates(
            sim.ESTIMATORS["ls"], lambda stats: range(1, len(stats.sigma_EX), 2), lambda stats, i: MvmrError("forced failure")
        )
        monkeypatch.setitem(sim.ESTIMATORS, "ls", every_other_replicate_fails)
        null, alt = self._s9_scenarios(20)
        ((_, null_summary), _), _, rates = sim.type1_power(null, alt, alpha=1.0, seed=3, estimators=("ls",))
        assert len(null_summary.failures["ls"]) == 10
        assert rates["ls"] == {"type1": 1.0, "power": 1.0}

    def test_all_failed_rates_are_nan_without_warning(self, monkeypatch):
        always_fails = refuse_replicates(sim.ESTIMATORS["ls"], every_replicate, lambda stats, i: MvmrError("forced failure"))
        monkeypatch.setitem(sim.ESTIMATORS, "ls", always_fails)
        null, alt = self._s9_scenarios(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, rates = sim.type1_power(null, alt, alpha=0.05, seed=3, estimators=("ls",))
        assert np.isnan(rates["ls"]["type1"])
        assert np.isnan(rates["ls"]["power"])

    def test_null_scenario_validated(self):
        scenario = sim.SimulationScenario(
            true_effects=(0.2,),
            n_samples=300,
            genotypes=sim.GenotypeModel((0.3,), ()),
            effects=sim.EffectSizes(matrix=((0.5,),)),
        )
        with pytest.raises(ScenarioError, match="no exposure has a zero null effect"):
            sim.type1_power(scenario, scenario, seed=3, estimators=("ls",))


class TestScenarioFiles:
    def test_round_trip_and_grid_expansion(self):
        cfg = {
            "name": "demo",
            "n_samples": [100, 200],
            "true_effects": [0.2, 0.6],
            "effects": {"low": 0.1, "high": 0.3, "det_min": 0.05},
            "genotypes": {"mode": "pair", "correlation": [0.1, 0.9], "maf": 0.3},
            "replicates": 5,
        }
        cells = sim.expand_scenario_config(cfg)[3]["cells"]
        assert len(cells) == 4
        labels = [l for l, _ in cells]
        assert {"correlation", "n_samples"} == set(labels[0])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match=r"unknown replicates scenario keys: \['not_a_key'\]"):
            sim.scenario_from_dict(
                {
                    "true_effects": [0.3],
                    "n_samples": 100,
                    "genotypes": {"mode": "markov", "mafs": [0.3]},
                    "effects": {},
                    "not_a_key": 1,
                }
            )

    def test_fixture_reference(self):
        scenario = sim.scenario_from_dict(
            {
                "true_effects": [0.15, -0.05, -0.27],
                "n_samples": 100,
                "genotypes": {"mode": "markov", "fixture": "slc22a3_lpa_plg"},
                "effects": {"low": 0.1, "high": 0.3},
                "causal_instruments": [0, 3, 5],
            }
        )
        assert scenario.n_instruments_total == 8

    @pytest.mark.parametrize("mode", ["markov", "gaussian"])
    def test_fixture_cannot_be_changed_by_a_caller(self, mode):
        config = {
            "true_effects": [0.208, -0.294],
            "n_samples": 100,
            "genotypes": {"mode": mode, "fixture": "mras_esyt3"},
            "effects": {"low": 0.1, "high": 0.3},
            "causal_instruments": [[0, 1], [3, 4]],
        }
        before = sim.scenario_from_dict(config)
        fixture = sim.load_fixture("mras_esyt3")
        with pytest.raises(TypeError):
            fixture["ld"] = [[1.0]]
        with pytest.raises(TypeError):
            del fixture["mafs"]
        with pytest.raises(TypeError):
            fixture["ld"][0][1] = 0.0
        with pytest.raises(AttributeError):
            fixture["mafs"].append(0.5)
        copy = dict(fixture)
        copy["ld"] = [[1.0]]
        assert sim.load_fixture("mras_esyt3") is fixture
        assert sim.scenario_from_dict(config) == before
        raw = json.loads(resources.files("mvmr").joinpath("data", "fixtures", "mras_esyt3.json").read_text())
        assert fixture["ld"] == tuple(map(tuple, raw["ld"])) and fixture["mafs"] == tuple(raw["mafs"])

    @pytest.mark.parametrize("name", ["no_such_locus", "mras_esyt3.json", 3, ["mras_esyt3"]])
    def test_unknown_fixture_refused(self, name):
        with pytest.raises(ScenarioError) as info:
            sim.load_fixture(name)
        assert str(info.value) == f"no bundled fixture named {name!r}"

    def test_bundled_scenarios_parse(self):
        """Every bundled file of every kind parses through the one reader."""
        root = resources.files("mvmr").joinpath("data", "scenarios")
        names = [e.name for e in root.iterdir() if e.name.endswith(".json")]
        assert len(names) >= 12
        kinds = set()
        for name in names:
            kind, seed, estimators, inputs = sim.load_scenario_file(root.joinpath(name))
            kinds.add(kind)
            assert seed is None
            assert (estimators is None) == (kind == "pca")
            if kind == "replicates":
                assert inputs["cells"]
            elif kind != "pca":
                assert isinstance(inputs["scenario"], sim.SimulationScenario)
        assert kinds == set(sim.SCENARIO_KINDS)

    def test_ld_prune_key(self):
        scenario = sim.scenario_from_dict(
            {
                "true_effects": [0.15, -0.05, -0.27],
                "n_samples": 100,
                "genotypes": {"mode": "markov", "fixture": "slc22a3_lpa_plg"},
                "effects": {"low": 0.1, "high": 0.3},
                "causal_instruments": [0, 3, 5],
                "ld_prune_r2": 0.4,
            }
        )
        assert scenario.n_instruments == 5

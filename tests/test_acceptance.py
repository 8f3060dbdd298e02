"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantities (run with -s to see
them on success)."""

import importlib.resources as resources
import json
import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mvmr import estimators as est
from mvmr import graph
from mvmr import loci
from mvmr import simulate as sim
from mvmr.errors import UnderdeterminedError
from helpers import (
    design,
    export_locus_files,
    population_statistics,
    random_mvmr_graph,
    random_standardized_sem,
    single_dataset,
    single_design,
)

SCENARIOS = resources.files("mvmr").joinpath("data", "scenarios")


def scenario_config(name):
    return json.loads(SCENARIOS.joinpath(f"{name}.json").read_text(encoding="utf-8"))


def report(number, ok, detail):
    line = f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_oracle_identification():
    """LS on implied covariances recovers the SEM effects for 500 random
    graphs passing the instrumental-set check (max abs error < 1e-9)."""
    rng = np.random.default_rng(20240810)
    start = time.monotonic()
    worst = 0.0
    accepted = 0
    while accepted < 500:
        sabotage = rng.choice([None, None, None, "pleiotropy", "missing_variant"])
        diagram, sem, instruments, exposures, outcome, _ = random_mvmr_graph(
            rng, n_exposures=int(rng.integers(1, 4)), sabotage=sabotage
        )
        verdict = graph.check_instrumental_set(diagram, instruments, exposures, outcome)
        if not verdict.satisfied:
            continue
        accepted += 1
        stats = population_statistics(diagram, sem, instruments, exposures, outcome)
        truth = np.array([sem.coefficient(diagram, x, outcome) for x in exposures])
        effects = design(est.ls_estimate(stats)).effects
        worst = max(worst, float(np.max(np.abs(effects - truth))))
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-9 and elapsed < 30.0,
        f"500 identified SEMs, max |err| = {worst:.2e} (< 1e-9), {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_02_path_rule_equivalence():
    """Path-sum covariances equal the matrix closed form entrywise < 1e-10
    on 500 random standardized SEMs."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(500):
        diagram, sem = random_standardized_sem(rng, n_nodes=int(rng.integers(3, 8)))
        sigma = graph.implied_covariance(sem)
        for a in diagram.nodes:
            for b in diagram.nodes:
                w = (
                    graph.wright_covariance(diagram, sem, a, b)
                    if a != b
                    else 1.0  # standardized-mode diagonal
                )
                worst = max(
                    worst, abs(w - sigma[diagram.index(a), diagram.index(b)])
                )
    report(2, worst < 1e-10, f"500 SEMs, max |path sum - matrix| = {worst:.2e} (< 1e-10)")


def test_criterion_03_correlated_instruments_desk_scale():
    """Two correlated instruments, N=2000, 1000 replicates: unbiased at
    correlations 0.1 and 0.9, variance ratio within [1, 3]."""
    start = time.monotonic()
    config = scenario_config("fig2_corr_desk")
    cells = {
        labels["correlation"]: sim.run_replicates(
            replace(scenario, replicates=1000), seed=42 + i, estimators=("ls",)
        )
        for i, (labels, scenario) in enumerate(sim.expand_scenario_config(config))
    }
    elapsed = time.monotonic() - start
    bias_low = np.abs(cells[0.1].bias("ls"))
    bias_high = np.abs(cells[0.9].bias("ls"))
    ratio = cells[0.9].sd("ls") ** 2 / cells[0.1].sd("ls") ** 2
    ok = (
        bias_low.max() < 0.01
        and bias_high.max() < 0.01
        and np.all(ratio >= 1.0)
        and np.all(ratio <= 3.0)
        and elapsed < 120.0
    )
    report(
        3,
        ok,
        f"|bias| corr0.1 {bias_low.max():.4f}, corr0.9 {bias_high.max():.4f} (< 0.01); "
        f"var ratio {np.round(ratio, 2)} in [1, 3]; {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_04_weak_instruments():
    """Weak designs at N=500 inflate the estimate sd at least 3x over strong
    designs; conditional F medians separate below/above 10 at N=2000."""
    strong_cfg = {**scenario_config("fig2_strong"), "n_samples": 500}
    weak_cfg = {**scenario_config("fig2_weak"), "n_samples": 500}
    strong = sim.run_replicates(
        replace(sim.scenario_from_dict(strong_cfg), replicates=600), seed=404, estimators=("ls",)
    )
    weak = sim.run_replicates(
        replace(sim.scenario_from_dict(weak_cfg), replicates=600), seed=405, estimators=("ls",)
    )
    sd_ratio = (weak.sd("ls") / strong.sd("ls")).min()

    f_medians = {}
    for name, seed in (("s3_conditional_f_strong", 406), ("s3_conditional_f_weak", 407)):
        cfg = scenario_config(name)
        summary = sim.run_replicates(
            replace(sim.scenario_from_dict(cfg), replicates=800),
            seed=seed,
            estimators=("gmm",),
            collect_conditional_f=True,
        )
        f_medians[name] = np.nanmedian(summary.conditional_f, axis=1)
    strong_f = f_medians["s3_conditional_f_strong"]
    weak_f = f_medians["s3_conditional_f_weak"]
    ok = sd_ratio >= 3.0 and np.all(strong_f > 10.0) and np.all(weak_f < 10.0)
    report(
        4,
        ok,
        f"weak/strong sd ratio {sd_ratio:.1f} (>= 3); median conditional F "
        f"strong {np.round(strong_f, 1)} (> 10) vs weak {np.round(weak_f, 2)} (< 10)",
    )


def test_criterion_05_ls_gmm_variance_equivalence():
    """Overdetermined one-sample replicates: LS and GMM variances agree
    within 10% per exposure.  The largest gap (PLG) is about 0.075; its
    Monte-Carlo SD is about 0.02 at 1,000 replicates and about 0.005 at
    10,000, so the bound sits some 5 SDs above the gap instead of 1.5."""
    cfg = {**scenario_config("fig3_ls_vs_gmm"), "n_samples": 2000}
    scenario = sim.scenario_from_dict(cfg)
    summary = sim.run_replicates(
        replace(scenario, replicates=10_000), seed=505, estimators=("ls", "gmm")
    )
    v_ls = summary.sd("ls") ** 2
    v_gmm = summary.sd("gmm") ** 2
    gap = np.abs(v_ls - v_gmm) / v_gmm
    report(5, bool(np.all(gap < 0.10)), f"relative variance gap {np.round(gap, 3)} (< 0.10)")


def test_criterion_06_pleiotropy_bias_envelope():
    """Hidden-exposure bias stays within one correct-model sd up to a hidden
    effect of 0.15 and exceeds it at 0.4 (N=2000, 1000 replicates)."""
    start = time.monotonic()
    cfg = {**scenario_config("fig2_pleiotropy"), "hidden_effect_grid": [0.0, 0.15, 0.4]}
    scenario = sim.scenario_from_dict(cfg)
    cells = sim.pleiotropy_experiment(
        replace(scenario, replicates=1000),
        seed=606,
        estimators=("ls",),
    )
    full, missp = ([s for labels, s in cells if labels["model"] == model] for model in ("full", "misspecified"))
    keep = [k for k in range(scenario.n_exposures) if k not in scenario.hidden_exposures]
    ratios = [float(np.max(np.abs(m.bias("ls")) / f.sd("ls")[keep])) for f, m in zip(full, missp)]
    elapsed = time.monotonic() - start
    ok = ratios[0] <= 1.0 and ratios[1] <= 1.0 and ratios[2] > 1.0 and elapsed < 120.0
    report(
        6,
        ok,
        f"max |bias|/sd at hidden 0/0.15/0.4 = {np.round(ratios, 2)} "
        f"(<=1, <=1, >1); {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_07_ld_perturbation_bias():
    """Wishart-perturbed (df=50) generating LD adds < 0.02 absolute bias to
    the optimally weighted estimator using the reference LD."""
    reference = sim.scenario_from_dict(scenario_config("fig3_ld_reference"))
    perturbed = sim.scenario_from_dict(scenario_config("fig3_ld_perturb"))
    ref = sim.run_replicates(replace(reference, replicates=1000), seed=707, estimators=("gmm",))
    pert = sim.run_replicates(replace(perturbed, replicates=1000), seed=707, estimators=("gmm",))
    added = np.abs(pert.bias("gmm") - ref.bias("gmm"))
    report(7, bool(np.all(added < 0.02)), f"added |bias| {np.round(added, 4)} (< 0.02)")


def test_criterion_08_two_sample_convergence():
    """Two-sample bias at (4000, 140000) is at least 4x smaller than at
    (300, 10000) for the two-gene aorta fixture (200 replicates)."""
    start = time.monotonic()
    cfg = dict(scenario_config("fig3_two_sample"))
    cfg.pop("n_samples")
    cfg.pop("n_outcome")
    scenario = replace(sim.scenario_from_dict({**cfg, "n_samples": 300}), replicates=200)
    assert scenario.true_effects == (0.208, -0.294)
    [(_, small)] = sim.two_sample_experiment(scenario, [300], [10000], seed=808, estimators=("ls",))
    [(_, large)] = sim.two_sample_experiment(scenario, [4000], [140000], seed=808, estimators=("ls",))
    b_small = float(np.linalg.norm(small.bias("ls")))
    b_large = float(np.linalg.norm(large.bias("ls")))
    elapsed = time.monotonic() - start
    ok = b_small >= 4.0 * b_large and elapsed < 600.0
    report(
        8,
        ok,
        f"|bias| (300,10k) = {b_small:.4f} vs (4000,140k) = {b_large:.4f}, "
        f"ratio {b_small / b_large:.1f} (>= 4); {elapsed:.0f} s (< 600 s)",
    )


def test_criterion_09_twmr_shrinkage_bias():
    """The hard-coded shrinkage produces a deviation from the exact optimal
    estimator that persists at every sample size."""
    fixture = sim.load_fixture("slc22a3_lpa_plg")
    scenario = sim.scenario_from_dict(
        {
            "true_effects": [0.15, -0.05, -0.27],
            "n_samples": 2000,
            "genotypes": {"mode": "markov", "fixture": "slc22a3_lpa_plg"},
            "effects": {"low": 0.1, "high": 0.3},
            "causal_instruments": [[0, 1, 2], [3, 4, 5], [6, 7]],
        }
    )
    # population deviation for one realized design
    rng = np.random.default_rng(909)
    A = scenario.effects.realize(rng, scenario)
    mafs = np.asarray(fixture["mafs"])
    sds = np.sqrt(2 * mafs * (1 - mafs))
    cov_E = np.asarray(fixture["ld"]) * np.outer(sds, sds)
    sd_x = np.sqrt(np.einsum("li,lm,mi->i", A, cov_E, A) + 1.0)
    S = (cov_E @ A) / sds[:, None] / sd_x[None, :]
    c_std = np.asarray(scenario.true_effects) * sd_x
    sigma_xx = (A.T @ cov_E @ A + np.eye(3)) / np.outer(sd_x, sd_x)
    sd_y = np.sqrt(float(c_std @ sigma_xx @ c_std) + 1.0)
    pop = single_design(S, S @ (c_std / sd_y), np.asarray(fixture["ld"]))
    dev_pop = design(est.twmr_shrunk_estimate(pop)).effects - design(est.gmm_optimal(pop)).effects
    pop_scale = float(np.max(np.abs(dev_pop)))

    deviations = {}
    for n in (2000, 50000):
        summary = sim.run_replicates(
            replace(scenario, n_samples=n, replicates=300),
            seed=909,
            estimators=("gmm", "twmr"),
        )
        paired = summary.estimates["twmr"] - summary.estimates["gmm"]
        deviations[n] = float(np.max(np.abs(np.nanmean(paired, axis=0))))
    ok = (
        pop_scale > 1e-3
        and deviations[2000] > 0.5 * pop_scale
        and deviations[50000] > 0.5 * pop_scale
    )
    report(
        9,
        ok,
        f"population deviation {pop_scale:.4f} (> 1e-3); paired simulated "
        f"deviation {deviations[2000]:.4f} @N=2000, {deviations[50000]:.4f} @N=50000 "
        f"(both > half the population value)",
    )


def test_criterion_10_pc1_variance_law():
    """Mean empirical PC1 variance share matches (1+r)/2 within 0.01 for
    r in {0, 0.3, 0.7, 0.9} (n=2000, 2000 repetitions)."""
    gaps = {}
    for i, r in enumerate((0.0, 0.3, 0.7, 0.9)):
        expected = sim.pc1_explained_variance(r)
        observed = sim.empirical_pc1_share(r, n=2000, repetitions=2000, seed=1010 + i)
        gaps[r] = abs(observed - expected)
    worst = max(gaps.values())
    report(
        10,
        worst < 0.01,
        "max |empirical - (1+r)/2| = "
        + ", ".join(f"r={r}: {g:.4f}" for r, g in gaps.items())
        + " (< 0.01)",
    )


def test_criterion_11_pipeline_round_trip(tmp_path):
    """Simulated summary files run through the locus pipeline recover the
    scenario truth within 3 Monte-Carlo sd; reports are byte-identical
    across repeated runs."""
    fixture = sim.load_fixture("slc22a3_lpa_plg")
    A = np.zeros((8, 3))
    A[(0, 1, 2), 0] = (0.28, 0.22, 0.17)
    A[(3, 4, 5), 1] = (0.25, 0.30, 0.21)
    A[(6, 7), 2] = (0.27, 0.24)
    scenario = sim.SimulationScenario(
        true_effects=(0.15, -0.05, -0.27),
        n_samples=20000,
        genotypes=sim.GenotypeModel.from_ld_matrix(fixture["ld"], fixture["mafs"]),
        effects=sim.EffectSizes(matrix=tuple(map(tuple, A))),
    )
    data = single_dataset(scenario, 333)
    eqtl, gwas, ld = export_locus_files(
        data.statistics, str(tmp_path / "files"), gene_names=["SLC22A3", "LPA", "PLG"]
    )

    outs = []
    for tag in "abc":
        out = tmp_path / tag
        loci.run_pipeline(eqtl, gwas, ld, str(out))
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    byte_identical = all(
        (outs[0] / n).read_bytes() == (other / n).read_bytes()
        for other in outs[1:]
        for n in names
    )

    calls_csv = (outs[0] / "causal_gene_calls.csv").read_text().splitlines()[1:]
    effects = {}
    ses = {}
    for line in calls_csv:
        parts = line.split(",")
        effects[parts[1]] = float(parts[3])
        ses[parts[1]] = float(parts[4])

    # population truth on the standardized (correlation) scale
    mafs = np.asarray(fixture["mafs"])
    sds = np.sqrt(2 * mafs * (1 - mafs))
    cov_E = np.asarray(fixture["ld"]) * np.outer(sds, sds)
    sd_x = np.sqrt(np.einsum("li,lm,mi->i", A, cov_E, A) + 1.0)
    c = np.asarray(scenario.true_effects)
    sigma_xx = A.T @ cov_E @ A + np.eye(3)
    sd_y = np.sqrt(float(c @ sigma_xx @ c) + 1.0)
    c_std = c * sd_x / sd_y

    gaps = np.array(
        [abs(effects[g] - c_std[k]) for k, g in enumerate(("SLC22A3", "LPA", "PLG"))]
    )
    limits = np.array([3 * ses[g] for g in ("SLC22A3", "LPA", "PLG")])
    ok = byte_identical and bool(np.all(gaps < limits))
    report(
        11,
        ok,
        f"round-trip |effect - truth| {np.round(gaps, 4)} < 3 sd {np.round(limits, 4)}; "
        f"byte-identical across runs: {byte_identical}",
    )


def test_criterion_12_missing_variant_refused():
    """A graph whose last instrument lost its edges, so that only LD links
    it, fails the instrumental-set check at condition 1 or 3, and ls, gmm
    and twmr each refuse its population design as rank deficient (200
    graphs per K = 1..3, one stack per K)."""
    rng = np.random.default_rng(1)
    failed = Counter()  # (K, failed condition) -> graphs
    deficient = refused = 0
    for K in (1, 2, 3):
        designs = []
        for _ in range(200):
            diagram, sem, instruments, exposures, outcome, _ = random_mvmr_graph(rng, n_exposures=K, sabotage="missing_variant")
            failed[K, graph.check_instrumental_set(diagram, instruments, exposures, outcome).failed_condition] += 1
            designs.append(population_statistics(diagram, sem, instruments, exposures, outcome))
        stats = est.SummaryStatistics(
            *(np.concatenate([getattr(d, name) for d in designs]) for name in ("sigma_EX", "sigma_EY", "sigma_EE"))
        )
        deficient += sum(row["rank_EX"] < K for row in stats.diagnostics.rows())
        for method in ("ls", "gmm", "twmr"):
            refusals = est.estimate(stats, method).refusals
            refused += sum(isinstance(refusals.get(i), UnderdeterminedError) for i in range(len(designs)))
    ok = all(condition in (1, 3) for _, condition in failed) and deficient == 600 and refused == 1800
    report(
        12,
        ok,
        "failed condition by (K, condition): "
        + ", ".join(f"{key}: {n}" for key, n in sorted(failed.items(), key=str))
        + f"; rank < K in {deficient}/600 designs; {refused}/1800 estimates refused as underdetermined",
    )

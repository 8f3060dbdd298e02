"""Tests of the benchmark itself: inputs, failure accounting, trace coverage.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from mvmr.errors import StandardizationError  # noqa: E402


def _read_all(directory):
    return {name: open(os.path.join(directory, name), "rb").read() for name in sorted(os.listdir(directory))}


def test_loci_inputs_are_byte_identical_for_a_seed(tmp_path):
    inputs.write_loci_inputs(tmp_path / "a", seed=7, blocks=9)
    inputs.write_loci_inputs(tmp_path / "b", seed=7, blocks=9)
    inputs.write_loci_inputs(tmp_path / "c", seed=8, blocks=9)
    a, b, c = (_read_all(tmp_path / d) for d in "abc")
    assert sorted(a) == ["eqtl.tsv", "expected.json", "gwas.tsv", "ld.txt"]
    assert a == b
    assert a["eqtl.tsv"] != c["eqtl.tsv"]


def test_diagrams_are_byte_identical_for_a_seed(tmp_path):
    paths = [inputs.write_diagrams(str(tmp_path / f"{n}.json"), seed, 30) for n, seed in (("a", 3), ("b", 3), ("c", 4))]
    a, b, c = (open(p, "rb").read() for p in paths)
    assert a == b != c
    diagrams = json.loads(a)
    assert sum(d["identifiable"] is False for d in diagrams) == 30 // inputs.SABOTAGE_EVERY


def test_loci_inputs_plant_every_prune_reason_and_verdict(tmp_path):
    paths = inputs.write_loci_inputs(tmp_path, seed=1, blocks=8)
    expected = json.load(open(paths["expected.json"]))
    verdicts = {v for locus in expected["loci"].values() for v in locus["verdicts"].values()}
    assert verdicts == {"ok", "warn", "non_identifiable", "failed"}
    with open(paths["ld.txt"]) as fh:
        ld_snps = set(fh.readline().split())
    with open(paths["eqtl.tsv"]) as fh:
        eqtl_snps = {line.split("\t")[0] for line in list(fh)[1:]}
    assert len(eqtl_snps - ld_snps) == 2  # one missing SNP per "missing" block


def _write_sim_call(directory, replicates, failure_rates, n_exposures=2, stray_nan=False):
    """A summary.json / replicates.csv pair as ``mvmr simulate`` writes them.

    Failed replicates get NaN rows; ``stray_nan`` also puts a NaN p-value in
    one replicate that did not fail.
    """
    os.makedirs(directory)
    cell = {
        "replicates": replicates,
        "true_effects": [0.1] * n_exposures,
        "estimators": {est: {"failure_rate": rate} for est, rate in failure_rates.items()},
    }
    with open(os.path.join(directory, "summary.json"), "w") as fh:
        json.dump({"cells": [cell]}, fh)
    with open(os.path.join(directory, "replicates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "estimator", "exposure", "true_effect", "estimate", "se", "p_value"])
        for est, rate in failure_rates.items():
            for r in range(replicates):
                value = "nan" if r < round(rate * replicates) else "0.1"
                p_value = "nan" if stray_nan and r == replicates - 1 else value
                for k in range(n_exposures):
                    writer.writerow([r, est, f"X{k + 1}", 0.1, value, value, p_value])


def test_error_rate_counts_every_simulation_failure(tmp_path):
    sim = workloads.Simulation("sim_gaussian", str(tmp_path), seed=0)
    _write_sim_call(tmp_path / "call_0", 20, {"ls": 0.15, "gmm": 0.0, "twmr": 0.5})
    assert sim.check_call(0) == 20
    assert (sim.errors, sim.attempted) == (3 + 0 + 10, 60)
    assert sim.errors / sim.attempted == 13 / 60
    assert sim.failed == sim.errors
    assert sim.problems == []  # failures are counted, not failed checks


def test_non_finite_output_of_a_replicate_that_did_not_fail_is_a_problem(tmp_path):
    sim = workloads.Simulation("sim_gaussian", str(tmp_path), seed=0)
    _write_sim_call(tmp_path / "call_0", 20, {"ls": 0.15, "gmm": 0.0}, stray_nan=True)
    sim.check_call(0)
    assert (sim.errors, sim.attempted) == (3, 40)
    assert len(sim.problems) == 2  # one per estimator


def test_error_rate_counts_failed_verdicts_and_wrong_ones(tmp_path):
    paths = inputs.write_loci_inputs(tmp_path / "in", seed=2, blocks=4)
    loci = workloads.Loci(str(tmp_path / "work"), {"full": paths})
    loci.run_call(0)
    report_dir = tmp_path / "work" / "call_0"
    # turn one planted "ok" verdict into a failure the program did not plan
    report_path = sorted(report_dir.glob("locus_*.json"))[0]
    report = json.loads(report_path.read_text())
    report["tissues"]["T1"]["verdict"] = "failed"
    report_path.write_text(json.dumps(report))
    assert loci.check_call(0) == 4
    assert loci.attempted == 12  # 4 loci x 3 tissues
    assert loci.errors == 2  # the planted failure plus the altered one
    assert loci.failed == 1
    assert len(loci.problems) == 1


def test_error_rate_counts_identification_errors(tmp_path):
    path = inputs.write_diagrams(str(tmp_path / "d.json"), seed=5, count=4)
    ident = workloads.Identify(str(tmp_path), path, batch=4)
    ident.results[0] = [(d, StandardizationError("infeasible")) for d in ident.batches[0][:1]]
    ident.results[0] += [(d, (d["identifiable"] is not False, 0.0)) for d in ident.batches[0][1:]]
    assert ident.check_call(0) == 4
    assert (ident.errors, ident.attempted, ident.failed) == (1, 4, 1)
    assert ident.problems == []


def test_times_at_reference_speed_use_the_faster_neighbouring_probe():
    ref = probe.REFERENCE_S
    # a machine running at half speed doubles the probe: the call's time halves
    assert probe.at_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    # a probe caught by a stall on one side does not stretch the call
    assert probe.at_reference(1.0, ref, 5 * ref) == pytest.approx(1.0)
    assert probe.run() > 0


def test_benchmark_json_lists_exactly_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
    assert {w for _, w, _ in tracing.PER_LAYER.values()} <= {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("name", ["sim_markov", "sim_gaussian", "loci_blocks", "identify"])
def test_traced_run_records_calls_for_every_attributed_metric(name, tmp_path, monkeypatch):
    """A wrapper patched on the wrong binding records no calls and fails here."""
    monkeypatch.chdir(ROOT)
    ins = {}
    if name == "loci_blocks":
        ins = {"warmup": inputs.write_loci_inputs(tmp_path / "in", seed=3, blocks=8)}
    if name == "identify":
        ins = {"diagrams": inputs.write_diagrams(str(tmp_path / "d.json"), seed=3, count=15)}
    workload = workloads.build(name, str(tmp_path / "work"), 3, ins)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for index in range(len(workload.kinds)):
            workload.run_call(index, warmup=True)
    finally:
        restore()
    for index in range(len(workload.kinds)):
        workload.check_call(index)
    assert workload.problems == []
    totals = tracer.layer_totals()
    silent = sorted(
        metric
        for metric, (_, attributed, span) in tracing.PER_LAYER.items()
        if attributed == name and totals.get(span, (0,))[0] == 0
    )
    assert silent == []


def test_install_restores_every_binding():
    import mvmr.cli
    import mvmr.estimators
    import mvmr.simulate

    before = (mvmr.cli.run_replicates, dict(mvmr.estimators.ESTIMATORS), mvmr.simulate.EffectSizes.realize)
    restore = tracing.install(tracing.Tracer())
    assert mvmr.cli.run_replicates is not before[0]
    assert mvmr.estimators.ESTIMATORS["ls"] is not before[1]["ls"]
    restore()
    after = (mvmr.cli.run_replicates, dict(mvmr.estimators.ESTIMATORS), mvmr.simulate.EffectSizes.realize)
    assert after == before


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

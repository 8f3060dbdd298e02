"""The four workloads: short calls of the program, and checks on their outputs.

A workload object is built from the generated inputs, runs calls through
``run_call`` (which returns the call's work time), and checks each call's
outputs in ``check_call`` outside the timed region.  Checks that need every
call pooled run in ``finish``.  Each object keeps:

* ``attempted`` / ``errors``: operations tried and failed, by the workload's
  own definition, for the error rate;
* ``failed``: for the simulations and diagrams the same as ``errors``; for
  loci a verdict that differs from the planted one, as ``failed`` verdicts
  are planted;
* ``problems``: every output check that did not hold.  An operation that
  fails cleanly (an estimator failure written as NaN rows, an
  ``MvmrError``) is counted above, not a problem.
"""

import contextlib
import csv
import json
import math
import os
import shutil
import statistics
import time

SCENARIO_DIR = os.path.join("src", "mvmr", "data", "scenarios")

# scenario -> replicates per call.  Pleiotropy scenarios are left out: their
# summaries hard-code zero estimator failures, so an error rate read from
# them would stay 0 whatever happened.
SIM_CALLS = {
    "sim_markov": [("fig3_ls_vs_gmm", 5), ("s3_conditional_f_strong", 15)],
    "sim_gaussian": [("fig3_two_sample", 1), ("fig2_corr_desk", 10), ("fig3_ld_perturb", 15)],
}
DIAGRAM_BATCH = 15
WARMUP_REPLICATES = 2
# Cells where instruments are strong enough that the consistent estimators'
# replicate mean must sit within MC_SE_LIMIT Monte-Carlo standard errors of
# the true effect.  TWMR is biased by design and is not held to this.
STRONG_CELLS = {
    "fig3_ls_vs_gmm": {"n_samples": "10000"},
    "fig3_two_sample": {"n_exposure": "4000", "n_outcome": "140000"},
}
CONSISTENT_ESTIMATORS = ("ls", "gmm")
MC_SE_LIMIT = 4.0
EFFECT_TOLERANCE = 1e-6
COVARIANCE_TOLERANCE = 1e-9


@contextlib.contextmanager
def _quiet():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def _timed_main(argv):
    import mvmr.cli

    with _quiet():
        start = time.perf_counter()
        code = mvmr.cli.main(argv)
        return code, time.perf_counter() - start


class Workload:
    """Calls of the program, cycling through the workload's kinds of call.

    ``run_call(index)`` runs call ``index`` and returns its work time;
    ``check_call(index)`` checks its outputs and returns the operations it
    completed.  A call's inputs depend only on the seed and its index.
    """

    kinds = ("full",)

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.reset_counts()

    def warmup_calls(self):
        """Untimed calls made first, so lazy set-up is done before timing."""
        return len(self.kinds)

    def reset_counts(self):
        self.attempted = 0
        self.errors = 0
        self.failed = 0
        self.problems = []

    def kind(self, index):
        return self.kinds[index % len(self.kinds)]

    def _call_dir(self, index):
        return os.path.join(self.work_dir, f"call_{index}")

    def discard_call(self, index):
        shutil.rmtree(self._call_dir(index), ignore_errors=True)

    def finish(self):
        return self.problems


class Simulation(Workload):
    """``mvmr simulate`` on bundled scenarios; call ``i`` uses seed ``seed*100000+i+1``."""

    def __init__(self, name, work_dir, seed):
        super().__init__(work_dir)
        self.replicates = dict(SIM_CALLS[name])
        self.kinds = tuple(self.replicates)
        self.seed = seed

    def reset_counts(self):
        super().reset_counts()
        self.strong = {}  # (scenario, estimator, exposure) -> (true effect, {call: {replicate: estimate}})

    def run_call(self, index, warmup=False):
        scenario = self.kind(index)
        argv = [
            "simulate",
            "--scenario", os.path.join(SCENARIO_DIR, f"{scenario}.json"),
            "--seed", str(self.seed * 100000 + index + 1),
            "--replicates", str(WARMUP_REPLICATES if warmup else self.replicates[scenario]),
            "--threads", "1",
            # failures are counted into the error rate, not turned into an exit code
            "--max-failure-rate", "1",
            "--out", self._call_dir(index),
        ]
        code, seconds = _timed_main(argv)
        if code != 0:
            self.problems.append(f"simulate {scenario} exited {code}")
        return seconds

    def check_call(self, index):
        scenario = self.kind(index)
        out = self._call_dir(index)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
        with open(os.path.join(out, "replicates.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_estimator = {}
        for row in rows:
            by_estimator.setdefault(row["estimator"], []).append(row)
        units = 0
        expected_rows = 0
        for cell in cells:
            replicates = cell["replicates"]
            K = len(cell["true_effects"])
            units += replicates
            for est, block in cell["estimators"].items():
                self.attempted += replicates
                failures = round(block["failure_rate"] * replicates)
                self.errors += failures
                self.failed += failures
                expected_rows += replicates * K
                # a failed replicate writes NaN for all its K rows; every
                # other row must be finite
                mine = [
                    row for row in by_estimator.get(est, [])
                    if all(row.get(k) == str(v) for k, v in cell.get("labels", {}).items())
                ]
                values = [[float(row[k]) for k in ("estimate", "se", "p_value")] for row in mine]
                finite = sum(all(map(math.isfinite, v)) for v in values)
                nan = sum(all(map(math.isnan, v)) for v in values)
                if (finite, nan) != (len(mine) - failures * K, failures * K):
                    self.problems.append(
                        f"{cell.get('scenario', scenario)} {est}: {finite} finite and {nan} NaN rows "
                        f"of {len(mine)}, with {failures} failed replicates of {K} exposures"
                    )
        if len(rows) != expected_rows:
            self.problems.append(f"{scenario}: {len(rows)} replicate rows, expected {expected_rows}")
        strong = STRONG_CELLS.get(scenario)
        for row in rows:
            if (
                strong
                and row["estimator"] in CONSISTENT_ESTIMATORS
                and all(row.get(k) == v for k, v in strong.items())
                and math.isfinite(float(row["estimate"]))
            ):
                key = (scenario, row["estimator"], row["exposure"])
                by_call = self.strong.setdefault(key, (float(row["true_effect"]), {}))[1]
                by_call.setdefault(index, {})[row["replicate"]] = float(row["estimate"])
        return units

    def finish(self):
        for (scenario, est, exposure), (truth, by_call) in sorted(self.strong.items()):
            # a call run twice (untraced, then traced) counts once
            values = [v for replicates in by_call.values() for v in replicates.values()]
            if len(values) < 2:
                continue
            mean = statistics.fmean(values)
            se = statistics.stdev(values) / math.sqrt(len(values))
            if abs(mean - truth) > MC_SE_LIMIT * se:
                self.problems.append(
                    f"{scenario} {est} {exposure}: mean {mean:.4f} is more than "
                    f"{MC_SE_LIMIT} Monte-Carlo SEs ({se:.4f}) from {truth}"
                )
        if not self.strong:
            self.problems.append("no strong-cell replicates were checked")
        return self.problems


class Loci(Workload):
    """``mvmr loci`` on generated block inputs, checked against the planted truth."""

    def __init__(self, work_dir, inputs):
        super().__init__(work_dir)
        self.inputs = inputs  # {"full", "warmup" (and "double" when traced): paths, "rows": ...}
        self.size = {}

    def run_call(self, index, warmup=False, size="full"):
        self.size[index] = "warmup" if warmup else size
        paths = self.inputs[self.size[index]]
        argv = [
            "loci",
            "--eqtl", paths["eqtl.tsv"],
            "--gwas", paths["gwas.tsv"],
            "--ld", paths["ld.txt"],
            "--threads", "1",
            "--out", self._call_dir(index),
        ]
        code, seconds = _timed_main(argv)
        if code != 0:
            self.problems.append(f"loci exited {code}")
        return seconds

    def check_call(self, index):
        out = self._call_dir(index)
        with open(self.inputs[self.size.pop(index)]["expected.json"], encoding="utf-8") as fh:
            expected = json.load(fh)
        with open(os.path.join(out, "pipeline_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if sorted(summary["loci"]) != sorted(expected["loci"]):
            self.problems.append(f"loci built {len(summary['loci'])}, planted {len(expected['loci'])}")
        designated = expected["designated_tissue"]
        for report_name in summary["reports"]:
            with open(os.path.join(out, report_name), encoding="utf-8") as fh:
                report = json.load(fh)
            plan = expected["loci"].get(report["locus_id"])
            if plan is None:
                continue
            for tissue, result in report["tissues"].items():
                self.attempted += 1
                self.errors += result["verdict"] == "failed"
                if result["verdict"] != plan["verdicts"].get(tissue):
                    self.failed += 1
                    self.problems.append(
                        f"{report['locus_id']} {tissue}: verdict {result['verdict']}, planted {plan['verdicts'].get(tissue)}"
                    )
            calls = report["tissues"].get(designated, {}).get("calls", [])
            if sorted(c["gene"] for c in calls) != sorted(plan["effects"]):
                self.problems.append(f"{report['locus_id']}: designated tissue calls {len(calls)} genes")
            for call in calls:
                if abs(call["effect"] - plan["effects"][call["gene"]]) > EFFECT_TOLERANCE:
                    self.problems.append(f"{report['locus_id']} {call['gene']}: effect {call['effect']} not recovered")
        return summary["n_loci"]


# The demo's canonical diagrams and their known verdicts:
# (nodes, directed, bidirected, instruments, exposures, satisfied, failed condition)
CANONICAL = [
    (["E", "X", "Y"], [("E", "X"), ("X", "Y")], [("X", "Y")], ["E"], ["X"], True, None),
    (
        ["E1", "E2", "X1", "X2", "Y"],
        [("E1", "X1"), ("E1", "X2"), ("E2", "X1"), ("E2", "X2"), ("X1", "Y"), ("X2", "Y")],
        [("E1", "E2")],
        ["E1", "E2"], ["X1", "X2"], True, None,
    ),
    (
        ["E1", "E2", "X1", "X2", "Y"],
        [("E1", "X1"), ("E1", "X2"), ("X1", "Y"), ("X2", "Y")],
        [("E1", "E2")],
        ["E1", "E2"], ["X1", "X2"], False, 3,
    ),
]


class Identify(Workload):
    """Instrumental-set search, d-separation and path-sum covariances per diagram.

    The diagrams are split into batches of ``batch`` diagrams; call ``i``
    works through batch ``i mod batches``.
    """

    def __init__(self, work_dir, diagrams_path, batch):
        super().__init__(work_dir)
        with open(diagrams_path, encoding="utf-8") as fh:
            diagrams = json.load(fh)
        self.batches = [diagrams[i : i + batch] for i in range(0, len(diagrams), batch)]
        self.kinds = tuple(f"batch{i}" for i in range(len(self.batches)))
        self.results = {}

    def warmup_calls(self):
        return 1  # every batch runs the same code

    def run_call(self, index, warmup=False):
        from mvmr import graph
        from mvmr.errors import MvmrError

        results = []
        start = time.perf_counter()
        for d in self.batches[index % len(self.batches)]:
            try:
                results.append((d, _identify(graph, d)))
            except MvmrError as exc:
                results.append((d, exc))
        seconds = time.perf_counter() - start
        self.results[index] = results
        return seconds

    def check_call(self, index):
        results = self.results.pop(index)
        for d, outcome in results:
            self.attempted += 1
            if isinstance(outcome, Exception):  # an MvmrError: counted, not a failed check
                self.errors += 1
                self.failed += 1
                continue
            satisfied, gap = outcome
            if d["identifiable"] is not None and satisfied != d["identifiable"]:
                self.problems.append(f"{d['name']}: instrumental set found={satisfied}, planted {d['identifiable']}")
            if gap > COVARIANCE_TOLERANCE:
                self.problems.append(f"{d['name']}: path-sum covariance off by {gap:.3e}")
        return len(results)

    def finish(self):
        from mvmr import graph

        for nodes, directed, bidirected, instruments, exposures, satisfied, condition in CANONICAL:
            diagram = graph.CausalDiagram(nodes, directed, bidirected)
            verdict = graph.check_instrumental_set(diagram, instruments, exposures, "Y")
            if (verdict.satisfied, verdict.failed_condition) != (satisfied, condition):
                self.problems.append(f"canonical diagram {nodes}: verdict {verdict.satisfied}/{verdict.failed_condition}")
        return self.problems


def _identify(graph, d):
    """One diagram: returns (instrumental subset found, worst covariance gap)."""
    diagram = graph.CausalDiagram(
        d["nodes"], [(s, t) for s, t, _ in d["edges"]], [(a, b) for a, b, _ in d["bicov"]]
    )
    sem = graph.calibrate_unit_variances(
        diagram, {(s, t): c for s, t, c in d["edges"]}, {(a, b): c for a, b, c in d["bicov"]}
    )
    outcome = d["outcome"]
    subset, _ = graph.find_instrumental_subset(diagram, d["instruments"], d["exposures"], outcome)
    removed = [(x, outcome) for x in d["exposures"]]
    for e in d["instruments"]:
        graph.d_separated(diagram, e, outcome, removed)
    sigma = graph.implied_covariance(sem)
    y = diagram.index(outcome)
    gap = max(
        abs(graph.wright_covariance(diagram, sem, e, outcome) - sigma[diagram.index(e), y])
        for e in d["instruments"]
    )
    return subset is not None, gap


def build(name, work_dir, seed, inputs):
    if name in SIM_CALLS:
        return Simulation(name, work_dir, seed)
    if name == "loci_blocks":
        return Loci(work_dir, inputs)
    return Identify(work_dir, inputs["diagrams"], DIAGRAM_BATCH)

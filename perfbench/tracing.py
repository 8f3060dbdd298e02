"""Spans and counters recorded around the program's public functions.

Nothing here changes the program: ``install`` rebinds each traced function,
wherever an ``mvmr`` module holds a reference to it (module globals and the
estimator registry dict alike), to a wrapper that records a span, and the
returned ``undo`` restores every binding.  A span is (name, start, end,
parent); a layer's self time is its span time minus the time of the spans it
directly caused.  Counters are taken from arguments and return values at the
same boundaries.
"""

import functools
import importlib
import math
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span named ``name``.

        ``before(tracer, args, kwargs)`` returns the arguments to call with;
        ``after(tracer, result, args)`` reads the result into counters.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def layer_totals(self):
        """``{span name: (calls, total seconds, self seconds)}``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return totals


class CountingRng:
    """Forwards to a numpy Generator and counts candidate matrices drawn."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def uniform(self, *args, size=None, **kwargs):
        self._tracer.counters["simulate.realize.draws"] += size[0] if isinstance(size, tuple) else 1
        return self._rng.uniform(*args, size=size, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


# ---------------------------------------------------------------------------
# Hooks that read counters at a boundary


def _realize_rng(tracer, args, kwargs):
    self, rng, *rest = args
    return (self, CountingRng(rng, tracer), *rest), kwargs


def _realize_done(tracer, result, args):
    if args[0].matrix is None:
        tracer.counters["simulate.realize.accepted"] += 1


def _genotype_cells(tracer, result, args):
    tracer.counters["simulate.sample_genotypes.cells"] += result.size


def _replicate_failures(tracer, result, args):
    for est, failures in result.failures.items():
        tracer.counters[f"simulate.failures.{est}"] += len(failures)


def _summaries_loaded(tracer, result, args):
    eqtls, _, ld, _ = result
    tracer.counters["loci.eqtl_rows"] += len(eqtls)
    tracer.counters["loci.ld_snps"] += len(ld.snps)


def _loci_built(tracer, result, args):
    tracer.counters["loci.loci_built"] += len(result)
    for locus in result:
        for _, reason, _ in locus.pruned:
            tracer.counters[f"loci.pruned.{reason}"] += 1
    tracer.counters["loci.dropped_snps"] += len({snp for locus in result for snp, _ in locus.dropped_snps})


def _verdict(tracer, result, args):
    tracer.counters[f"loci.verdict.{result[2]}"] += 1


def _instrumental_verdict(tracer, result, args):
    if not result.satisfied:
        tracer.counters[f"graph.failed_condition.{result.failed_condition}"] += 1


def _subset_found(tracer, result, args):
    tracer.counters["graph.diagrams_satisfied"] += result[0] is not None


def _paths_found(tracer, result, args):
    tracer.counters["graph.enumerate_paths.paths"] += len(result)


# (module, attribute path, span name, before hook, after hook)
TARGETS = [
    ("mvmr.simulate", "sample_genotypes", "simulate.sample_genotypes", None, _genotype_cells),
    ("mvmr.simulate", "generate_dataset", "simulate.generate_dataset", None, None),
    ("mvmr.simulate", "perturb_ld", "simulate.perturb_ld", None, None),
    ("mvmr.simulate", "EffectSizes.realize", "simulate.realize", _realize_rng, _realize_done),
    ("mvmr.simulate", "run_replicates", "simulate.run_replicates", None, _replicate_failures),
    ("mvmr.estimators", "IndividualData.__post_init__", "estimators.IndividualData.validate", None, None),
    ("mvmr.estimators", "IndividualData.summary_statistics", "estimators.IndividualData.summary_statistics", None, None),
    ("mvmr.estimators", "SummaryStatistics.__post_init__", "estimators.SummaryStatistics.validate", None, None),
    ("mvmr.estimators", "identifiability_diagnostics", "estimators.identifiability_diagnostics", None, None),
    ("mvmr.estimators", "ls_estimate", "estimators.ls", None, None),
    ("mvmr.estimators", "gmm_optimal", "estimators.gmm", None, None),
    ("mvmr.estimators", "twmr_shrunk_estimate", "estimators.twmr", None, None),
    ("mvmr.estimators", "standard_errors", "estimators.standard_errors", None, None),
    ("mvmr.estimators", "p_values", "estimators.p_values", None, None),
    ("mvmr.estimators", "conditional_f", "estimators.conditional_f", None, None),
    ("mvmr.loci", "load_summaries", "loci.load_summaries", None, _summaries_loaded),
    ("mvmr.loci", "build_loci", "loci.build_loci", None, _loci_built),
    ("mvmr.loci", "analyze_locus", "loci.analyze_locus", None, _verdict),
    ("mvmr.loci", "verify_closure", "loci.verify_closure", None, None),
    ("mvmr.loci", "run_pipeline", "loci.run_pipeline", None, None),
    ("mvmr.graph", "find_instrumental_subset", "graph.find_instrumental_subset", None, _subset_found),
    ("mvmr.graph", "check_instrumental_set", "graph.check_instrumental_set", None, _instrumental_verdict),
    ("mvmr.graph", "enumerate_paths", "graph.enumerate_paths", None, _paths_found),
    ("mvmr.graph", "d_separated", "graph.d_separated", None, None),
    ("mvmr.graph", "implied_covariance", "graph.implied_covariance", None, None),
    ("mvmr.graph", "wright_covariance", "graph.wright_covariance", None, None),
    ("mvmr.cli", "cmd_simulate", "cli.cmd_simulate", None, None),
    ("mvmr.cli", "cmd_loci", "cli.cmd_loci", None, None),
]


def install(tracer):
    """Wrap every target; returns a function that undoes all rebinding."""
    # import every module first: one imported later would copy wrappers in
    # through its from-imports, and undo would never see those bindings
    modules = {target[0]: importlib.import_module(target[0]) for target in TARGETS}
    undo = []
    for module_name, attr_path, name, before, after in TARGETS:
        *owner_path, attr = attr_path.split(".")
        owner = modules[module_name]
        for part in owner_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, before, after)
        if owner_path:  # a method: the class attribute is the only binding
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
            continue
        undo.extend(_rebind(original, wrapper))

    def restore():
        for holder, key, original in reversed(undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    return restore


def _rebind(original, wrapper):
    """Point every ``mvmr`` module global and registry entry at ``wrapper``."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "mvmr":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                undo.append((module, key, original))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        undo.append((value, k, original))
    return undo


# ---------------------------------------------------------------------------
# Per-layer metrics

COUNT = "count"
SECONDS = "s"
RATIO = "ratio"

# metric name -> (unit, workload it is attributed to, span that must run there)
PER_LAYER = {}


def _metric(name, unit, workload, span):
    PER_LAYER[name] = (unit, workload, span)


for _span, _workload, _kinds in [
    ("simulate.sample_genotypes", "sim_markov", ("calls", "self_s")),
    ("simulate.generate_dataset", "sim_gaussian", ("self_s",)),
    ("estimators.IndividualData.summary_statistics", "sim_gaussian", ("self_s",)),
    ("simulate.realize", "sim_gaussian", ("calls", "self_s")),
    ("simulate.perturb_ld", "sim_gaussian", ("self_s",)),
    ("estimators.SummaryStatistics.validate", "loci_blocks", ("calls", "self_s")),
    ("estimators.identifiability_diagnostics", "loci_blocks", ("calls", "self_s")),
    ("estimators.ls", "loci_blocks", ("calls", "self_s")),
    ("estimators.gmm", "sim_markov", ("calls", "self_s")),
    ("estimators.twmr", "sim_gaussian", ("calls", "self_s")),
    ("estimators.standard_errors", "loci_blocks", ("self_s",)),
    ("estimators.p_values", "loci_blocks", ("self_s",)),
    ("estimators.conditional_f", "sim_markov", ("self_s",)),
    ("loci.load_summaries", "loci_blocks", ("self_s",)),
    ("loci.build_loci", "loci_blocks", ("self_s",)),
    ("loci.analyze_locus", "loci_blocks", ("calls", "self_s")),
    ("loci.verify_closure", "loci_blocks", ("calls", "self_s")),
    ("loci.run_pipeline", "loci_blocks", ("self_s",)),
    ("graph.check_instrumental_set", "identify", ("calls", "self_s")),
    ("graph.enumerate_paths", "identify", ("calls", "self_s")),
    ("graph.d_separated", "identify", ("calls", "self_s")),
    ("graph.implied_covariance", "identify", ("self_s",)),
    ("graph.wright_covariance", "identify", ("self_s",)),
    ("cli.cmd_simulate", "sim_markov", ("self_s",)),
    ("cli.cmd_loci", "loci_blocks", ("self_s",)),
]:
    for _kind in _kinds:
        _metric(f"{_span}.{_kind}", COUNT if _kind == "calls" else SECONDS, _workload, _span)

_metric("estimators.IndividualData.validate_s", SECONDS, "sim_markov", "estimators.IndividualData.validate")
_metric("simulate.sample_genotypes.cells", COUNT, "sim_markov", "simulate.sample_genotypes")
_metric("simulate.realize.draws", COUNT, "sim_gaussian", "simulate.realize")
_metric("simulate.realize.accept_ratio", RATIO, "sim_gaussian", "simulate.realize")
for _est in ("ls", "gmm", "twmr"):
    _metric(f"simulate.failures.{_est}", COUNT, "sim_gaussian", "simulate.run_replicates")
_metric("estimators.work_share", RATIO, "sim_gaussian", "estimators.ls")
for _counter in ("eqtl_rows", "ld_snps"):
    _metric(f"loci.{_counter}", COUNT, "loci_blocks", "loci.load_summaries")
for _counter in ("loci_built", "pruned.perfect_ld_with_lead", "pruned.near_duplicate", "dropped_snps"):
    _metric(f"loci.{_counter}", COUNT, "loci_blocks", "loci.build_loci")
for _verdict_name in ("ok", "warn", "non_identifiable", "failed", "no_data"):
    _metric(f"loci.verdict.{_verdict_name}", COUNT, "loci_blocks", "loci.analyze_locus")
_metric("loci.scaling_exponent", "slope", "loci_blocks", "loci.run_pipeline")
_metric("graph.subset_hit_ratio", RATIO, "identify", "graph.find_instrumental_subset")
_metric("graph.enumerate_paths.paths", COUNT, "identify", "graph.enumerate_paths")
for _condition in (1, 2, 3):
    _metric(f"graph.failed_condition.{_condition}", COUNT, "identify", "graph.check_instrumental_set")
_metric("error_rate", RATIO, "loci_blocks", "loci.analyze_locus")
_metric("tracing_overhead", RATIO, "loci_blocks", "loci.run_pipeline")

ESTIMATOR_SPANS = (
    "estimators.ls",
    "estimators.gmm",
    "estimators.twmr",
    "estimators.standard_errors",
    "estimators.p_values",
)


def layer_metrics(tracer, work_s, extra):
    """Every per-layer metric from one cycle of traced calls.

    ``work_s`` is those calls' work time; ``extra`` supplies the
    metrics measured outside the spans (error rate, tracing overhead and the
    loci scaling exponent).
    """
    totals = tracer.layer_totals()
    counters = tracer.counters
    spans = {target[2] for target in TARGETS}
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s") and span in spans:
            calls, _, own = totals.get(span, (0, 0.0, 0.0))
            values[name] = calls if kind == "calls" else own
        elif name in counters:
            values[name] = counters[name]
    values["estimators.IndividualData.validate_s"] = totals.get("estimators.IndividualData.validate", (0, 0.0, 0.0))[2]
    values["simulate.realize.accept_ratio"] = _ratio(counters["simulate.realize.accepted"], counters["simulate.realize.draws"])
    values["graph.subset_hit_ratio"] = _ratio(counters["graph.diagrams_satisfied"], totals.get("graph.check_instrumental_set", (0,))[0])
    values["estimators.work_share"] = _ratio(sum(totals.get(s, (0, 0.0, 0.0))[2] for s in ESTIMATOR_SPANS), work_s)
    values.update(extra)
    return {name: values.get(name, 0) for name in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def scaling_exponent(times, rows):
    """Log-log slope of work time against input rows between two sizes."""
    (t1, t2), (n1, n2) = times, rows
    return math.log(t2 / t1) / math.log(n2 / n1)

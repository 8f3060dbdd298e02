"""Command-line front end: simulate, estimate, loci, figures.

Every subcommand is side-effect-free outside its output directory and
deterministic for a fixed seed.  Thread counts apply to ``simulate`` and
``figures`` only, and change wall time, not results; ``loci`` runs one
serial pass.  Exit codes: 0 success; 2 usage or input error (an
unreadable file, ScenarioError, SummaryFormatError, a ``loci`` setting
refused with PipelineConfigError, a ``--max-failure-rate`` outside
[0, 1], or ``estimate`` statistics refused with InvalidStatisticsError); 3
non-identifiable ``estimate`` design (UnderdeterminedError); 4 numerical
failure (any other MvmrError, such as a simulated constant column, or a
``simulate`` failure rate above ``--max-failure-rate`` in any cell of any
replicate kind: replicates, pleiotropy, two_sample or type1_power).  ``loci``
records a locus tissue it cannot estimate as that tissue's verdict, and
``estimate --diagram`` reports an instrumental-set check it cannot run
(too many nodes or instruments) as not checked and still estimates.

Each kind of ``simulate`` scenario file, and each genotype mode, accepts
only its own keys (the tables ``SCENARIO_KINDS`` and ``GENOTYPE_MODES`` in
``mvmr/simulate.py``); any other key exits 2.  ``simulate`` takes its
master seed from ``--seed``, else from the file's ``seed`` key; its
estimators from ``--estimators``, else from the file's ``estimators``
list, else ls and gmm; and its replicate count from ``--replicates``, else
from the file's ``replicates`` key (a pca file's ``pca_repetitions``).  A
file value must be valid even when its flag overrides it.  The default
output directory is taken from the MVMR_OUTPUT_DIR environment variable
when set, else ``./mvmr_out``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import graph
from .errors import CombinatorialLimitError, MvmrError, PathEnumerationError, PipelineConfigError, ScenarioError, SummaryFormatError, UnderdeterminedError
from .estimators import (
    ESTIMATORS,
    SummaryStatistics,
    estimate,
    one_design,
)
from .jsonio import dumps, write_json
from .loci import PipelineConfig, run_pipeline
from .simulate import (
    REPLICATE_FIELDS,
    _is_count,
    _is_names,
    check_replicates,
    check_seed,
    empirical_pc1_share,
    load_scenario_file,
    parse_estimators,
    pc1_explained_variance,
    pleiotropy_experiment,
    run_replicates,
    two_sample_experiment,
    type1_power,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NON_IDENTIFIABLE = 3
EXIT_NUMERICAL = 4


def _default_out():
    return os.environ.get("MVMR_OUTPUT_DIR", "mvmr_out")


def _write_rows(path, fieldnames, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _check_failure_rate(rate):
    if not 0.0 <= rate <= 1.0:  # NaN fails too
        raise ScenarioError(f"--max-failure-rate must be a finite number in [0, 1], not {rate}")


# ---------------------------------------------------------------------------
# simulate


def _write_cells(out_dir, seed, cells, extra):
    """Write ``replicates.csv`` (the sorted label columns, then
    ``REPLICATE_FIELDS``) and ``summary.json`` (the summary cells, the seed
    and the ``extra`` keys) for ``(labels, summary)`` cells; returns the
    summary cells."""
    label_fields = sorted({k for labels, _ in cells for k in labels})
    with open(os.path.join(out_dir, "replicates.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(label_fields + REPLICATE_FIELDS)
        for labels, summary in cells:
            writer.writerows(summary.iter_rows([labels[k] for k in label_fields]))
    summaries = [{"labels": labels, **summary.summary_dict()} for labels, summary in cells]
    write_json(os.path.join(out_dir, "summary.json"), {"cells": summaries, "seed": seed, **extra})
    return summaries


# A replicate kind's runner takes what load_scenario_file parsed and returns
# its (labels, summary) cells and the keys it adds to summary.json; no I/O.


def _run_replicates_kind(cells, collect_conditional_f, estimators, seed, threads):
    return [
        (labels, run_replicates(scenario, seed + index, estimators, threads=threads, collect_conditional_f=collect_conditional_f))
        for index, (labels, scenario) in enumerate(cells)
    ], {}


def _run_pleiotropy_kind(scenario, estimators, seed, threads):
    return pleiotropy_experiment(scenario, seed, estimators, threads=threads), {}


def _run_two_sample_kind(scenario, n_exposure_grid, n_outcome_grid, estimators, seed, threads):
    return two_sample_experiment(scenario, n_exposure_grid, n_outcome_grid, seed, estimators, threads=threads), {}


def _run_type1_power_kind(scenario, null_scenario, alpha, estimators, seed, threads):
    cells, exposure, rates = type1_power(null_scenario, scenario, seed, estimators, alpha=alpha, threads=threads)
    return cells, {"alpha": float(alpha), "tested_exposure": exposure, "rates": rates}


def _run_pca(out_dir, seed, correlations, n_samples=2000, pca_repetitions=2000):
    """Write a pca scenario's ``pc1_explained_variance.csv`` and
    ``summary.json``; pca has no estimators, so no replicate cells."""
    rows = []
    for i, r in enumerate(correlations):
        expected = pc1_explained_variance(r)
        observed = empirical_pc1_share(
            float(r), n=n_samples, repetitions=pca_repetitions, seed=seed + i
        )
        rows.append(
            {
                "correlation": float(r),
                "expected_share": expected,
                "empirical_share": observed,
                "n": n_samples,
                "repetitions": pca_repetitions,
            }
        )
    _write_rows(
        os.path.join(out_dir, "pc1_explained_variance.csv"),
        ["correlation", "expected_share", "empirical_share", "n", "repetitions"],
        rows,
    )
    write_json(os.path.join(out_dir, "summary.json"), {"cells": rows, "seed": seed})


_KIND_RUNNERS = {
    "replicates": _run_replicates_kind,
    "pleiotropy": _run_pleiotropy_kind,
    "two_sample": _run_two_sample_kind,
    "type1_power": _run_type1_power_kind,
}


def cmd_simulate(args):
    try:
        _check_failure_rate(args.max_failure_rate)
        # the file's seed and estimators are checked even where a flag overrides them
        kind, file_seed, file_estimators, inputs = load_scenario_file(args.scenario, args.replicates)
        seed = file_seed if args.seed is None else check_seed(args.seed)
        if seed is None:
            raise ScenarioError("a seed is required: pass --seed or set 'seed' in the scenario file")
        estimators = parse_estimators(args.estimators) if args.estimators is not None else file_estimators or ("ls", "gmm")
        out_dir = args.out or _default_out()
        os.makedirs(out_dir, exist_ok=True)
        if kind == "pca":
            _run_pca(out_dir, seed, **inputs)
            print(f"wrote {out_dir}")
            return EXIT_OK
        cells, extra = _KIND_RUNNERS[kind](**inputs, estimators=estimators, seed=seed, threads=args.threads)
        summaries = _write_cells(out_dir, seed, cells, extra)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MvmrError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    worst = 0.0
    for cell in summaries:
        for est, stats_block in cell["estimators"].items():
            worst = max(worst, stats_block["failure_rate"])
            bias = ", ".join(f"{b:+.4f}" for b in stats_block["bias"])
            print(
                f"{est} {cell['labels']}: bias [{bias}] "
                f"failure rate {stats_block['failure_rate']:.3f}"
            )
    if worst > args.max_failure_rate:
        print(
            f"failure rate {worst:.3f} exceeds cap {args.max_failure_rate}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number", str: "a string", list: "an array"}
_STATS_REQUIRED = ("sigma_EX", "sigma_EY", "sigma_EE")


def _non_numbers(value):
    """The entries of ``value``, at any list depth, that are not JSON numbers (a boolean is not one)."""
    bad, pending = [], [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(reversed(item))
        elif type(item) not in (int, float):
            bad.append(item)
    return bad


def _stats_optional(payload, key, valid, expected):
    """``payload[key]``, None when absent or null; a value ``valid`` refuses
    is a ``ScenarioError`` naming the key."""
    value = payload.get(key)
    if value is not None and not valid(value):
        raise ScenarioError(f"statistics key {key!r} must be null or {expected}, not {json.dumps(value)}")
    return value


def _stats_from_json(path):
    """The statistics of the file at ``path`` and the labels of their
    exposures: its ``exposure_names``, else X1, X2, ....  Its
    ``n_exposure`` and ``instrument_names`` are checked, then unused."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ScenarioError(f"statistics file {path} is nested too deeply to parse") from None
    if not isinstance(payload, dict):
        raise ScenarioError(
            f"statistics file {path} must hold a JSON object, not {_JSON_TYPES[type(payload)]}"
        )
    allowed = {*_STATS_REQUIRED, "n_exposure", "n_outcome", "exposure_names", "instrument_names"}
    unknown = set(payload) - allowed
    if unknown:
        raise ScenarioError(f"unknown statistics keys: {sorted(unknown)}")
    missing = [key for key in _STATS_REQUIRED if key not in payload]
    if missing:
        raise ScenarioError(f"statistics file {path} lacks required keys: {missing}")
    for key in _STATS_REQUIRED:
        bad = _non_numbers(payload[key])
        if bad:
            raise ScenarioError(f"statistics key {key!r} must hold numbers or arrays of numbers, not {json.dumps(bad[0])}")
    sizes = {key: _stats_optional(payload, key, _is_count, "a positive integer") for key in ("n_exposure", "n_outcome")}
    names = {key: _stats_optional(payload, key, _is_names, "a list of strings") for key in ("exposure_names", "instrument_names")}
    stats = SummaryStatistics(
        one_design(payload["sigma_EX"]),
        one_design(payload["sigma_EY"], vector=True),
        one_design(payload["sigma_EE"]),
        n_outcome=sizes["n_outcome"],
    )
    for key, count, what in (("exposure_names", stats.n_exposures, "exposures"), ("instrument_names", stats.n_instruments, "instruments")):
        if names[key] is not None and len(names[key]) != count:
            raise ScenarioError(f"statistics key {key!r} has {len(names[key])} entries for {count} {what}")
    return stats, names["exposure_names"] or [f"X{k + 1}" for k in range(stats.n_exposures)]


def _stats_from_diagram(path, instruments, exposures, outcome):
    """The population statistics of the diagram at ``path`` and the
    instrumental-set check of the first square subset of ``instruments``
    that passes it (else of the last tried)."""
    with open(path, encoding="utf-8") as fh:
        diagram, sem = graph.parse_diagram_text(fh.read())
    sigma = graph.implied_covariance(sem)
    d = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(d, d)  # population mode works on the standardized scale
    iE = [diagram.index(e) for e in instruments]
    iX = [diagram.index(x) for x in exposures]
    iY = diagram.index(outcome)
    stats = SummaryStatistics(
        one_design(corr[np.ix_(iE, iX)]),
        one_design(corr[iE, iY], vector=True),
        one_design(corr[np.ix_(iE, iE)]),
    )
    try:
        _, check = graph.find_instrumental_subset(diagram, instruments, exposures, outcome)
    except (PathEnumerationError, CombinatorialLimitError) as exc:
        # the estimators read only the implied covariance, so they still run
        return stats, {"satisfied": None, "failed_condition": None, "detail": f"not checked: {exc}"}
    return stats, {"satisfied": check.satisfied, "failed_condition": check.failed_condition, "detail": check.detail}


def cmd_estimate(args):
    try:
        estimators = parse_estimators(args.estimators)
        check = None
        if args.stats:
            stats, exposures = _stats_from_json(args.stats)
        elif args.diagram:
            if not (args.instruments and args.exposures and args.outcome):
                print(
                    "error: --diagram needs --instruments, --exposures and --outcome",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            exposures = [s for s in args.exposures.split(",") if s]
            stats, check = _stats_from_diagram(
                args.diagram, [s for s in args.instruments.split(",") if s], exposures, args.outcome
            )
        else:
            print("error: provide --stats or --diagram", file=sys.stderr)
            return EXIT_USAGE
    except (OSError, MvmrError, ValueError) as exc:  # JSON, UTF-8 and diagram-argument errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # the statistics are the one-design stack: row 0 is the design
    payload = {"diagnostics": stats.diagnostics.rows()[0], "estimates": {}, "exposures": exposures}
    if check is not None:
        payload["instrumental_set"] = check
    code = EXIT_OK
    try:
        for name in estimators:
            result = estimate(stats, name)
            if result.refusals:
                raise result.refusals[0]
            block = {"effects": [float(v) for v in result.effects[0]]}
            if result.standard_errors is not None:
                block["standard_errors"] = [float(v) for v in result.standard_errors[0]]
                block["p_values"] = [float(v) for v in result.p_values[0]]
                block["bonferroni_significant"] = [
                    bool(v) for v in result.bonferroni_significant[0]
                ]
            payload["estimates"][name] = block
    except UnderdeterminedError as exc:
        payload["error"] = str(exc)
        print(f"non-identifiable: {exc}", file=sys.stderr)
        code = EXIT_NON_IDENTIFIABLE
    except MvmrError as exc:
        payload["error"] = str(exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL

    if args.out:
        write_json(args.out, payload)
    print(dumps(payload))
    return code


# ---------------------------------------------------------------------------
# loci


def cmd_loci(args):
    out_dir = args.out or _default_out()
    try:
        config = PipelineConfig(
            radius=args.radius,
            gwas_p=args.gwas_p,
            nonzero_ld=args.nonzero_ld,
            perfect_ld_r2=args.perfect_ld_r2,
            prune_r2=args.prune_r2,
            causal_threshold=args.causal_threshold,
            bonferroni=args.bonferroni,
            estimator=args.estimator,
        )
        summary = run_pipeline(args.eqtl, args.gwas, args.ld, out_dir, config)
    except SummaryFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PipelineConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MvmrError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for warning in summary["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"analysed {summary['n_loci']} loci, {summary['n_calls']} gene-tissue calls -> {out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures


def bundled_scenarios():
    import importlib.resources as resources

    root = resources.files("mvmr").joinpath("data", "scenarios")
    return sorted(
        (entry.name[: -len(".json")], entry)
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def cmd_figures(args):
    # the run's own settings are checked before any scenario is copied, so
    # that a refused run leaves no output behind
    scenarios = bundled_scenarios()
    try:
        _check_failure_rate(args.max_failure_rate)
        if args.seed is not None:
            check_seed(args.seed)
        if args.replicates is not None:
            check_replicates(args.replicates)
        if args.estimators is not None:
            parse_estimators(args.estimators)
        if args.only:
            only = {n.strip() for n in args.only.split(",")}
            unknown = sorted(only - {name for name, _ in scenarios})
            if unknown:
                raise ScenarioError(f"--only names no bundled scenario: {', '.join(map(repr, unknown))}")
            scenarios = [(name, entry) for name, entry in scenarios if name in only]
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_root = args.out or _default_out()
    for name, entry in scenarios:
        out_dir = os.path.join(out_root, name)
        os.makedirs(out_dir, exist_ok=True)
        scenario_path = os.path.join(out_dir, "scenario.json")
        with open(scenario_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(entry.read_text(encoding="utf-8"))
        sub_args = argparse.Namespace(
            scenario=scenario_path,
            seed=args.seed,
            replicates=args.replicates,
            threads=args.threads,
            out=out_dir,
            estimators=args.estimators,
            max_failure_rate=args.max_failure_rate,
        )
        print(f"== scenario {name} ==")
        code = cmd_simulate(sub_args)
        if code != EXIT_OK:
            return code
    print(f"completed {len(scenarios)} scenario(s) -> {out_root}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvmr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run a scenario file and write replicate CSV + summary JSON"
    )
    sim.add_argument(
        "--scenario", required=True,
        help="scenario JSON file; each kind accepts only its own keys (SCENARIO_KINDS and GENOTYPE_MODES in mvmr/simulate.py)",
    )
    sim.add_argument("--seed", type=int, default=None, help="master RNG seed (required unless the scenario file carries one)")
    sim.add_argument("--replicates", type=int, default=None, help="override the scenario's replicate count (a pca scenario's pca_repetitions)")
    sim.add_argument("--threads", type=int, default=1, help="worker threads; results are identical for any value")
    sim.add_argument("--out", default=None, help="output directory (default $MVMR_OUTPUT_DIR or ./mvmr_out)")
    sim.add_argument("--estimators", default=None, help="comma list from: ls, gmm, twmr (default: the scenario's 'estimators', else ls,gmm)")
    sim.add_argument("--max-failure-rate", type=float, default=0.2, help="exit 4 when any cell's replicate failure rate exceeds this")

    est = sub.add_parser("estimate", help="estimate causal effects from summary statistics or a diagram file")
    est.add_argument("--stats", default=None, help="summary statistics JSON (sigma_EX, sigma_EY, sigma_EE, n_outcome...)")
    est.add_argument("--diagram", default=None, help="diagram text file (population mode)")
    est.add_argument("--instruments", default=None, help="comma list of instrument nodes (diagram mode)")
    est.add_argument("--exposures", default=None, help="comma list of exposure nodes (diagram mode)")
    est.add_argument("--outcome", default=None, help="outcome node (diagram mode)")
    est.add_argument("--estimators", default="ls,gmm", help="comma list from: ls, gmm, twmr")
    est.add_argument("--out", default=None, help="also write the JSON result, with its error on exit 3 or 4, to this file")

    loc = sub.add_parser("loci", help="run the locus pipeline on eQTL/GWAS/LD summary files")
    loc.add_argument("--eqtl", required=True, help="eQTL TSV (snp chrom pos gene tissue beta se maf fdr)")
    loc.add_argument("--gwas", required=True, help="GWAS TSV (snp chrom pos beta se pval n)")
    loc.add_argument("--ld", required=True, help="LD file: SNP id line + square r matrix")
    loc.add_argument("--out", default=None, help="output directory (default $MVMR_OUTPUT_DIR or ./mvmr_out)")
    loc.add_argument("--threads", type=int, default=1, help="has no effect: the pipeline runs one serial pass")
    loc.add_argument("--radius", type=int, default=500_000, help="locus radius around the lead SNP in bp")
    loc.add_argument("--gwas-p", type=float, default=5e-8, help="genome-wide significance threshold")
    loc.add_argument("--nonzero-ld", type=float, default=0.01, help="|r| above this counts as linked to the lead")
    loc.add_argument("--perfect-ld-r2", type=float, default=0.99, help="r^2 at or above this counts as perfect LD with the lead")
    loc.add_argument("--prune-r2", type=float, default=0.95, help="near-duplicate pruning r^2 threshold")
    loc.add_argument("--causal-threshold", type=float, default=0.1, help="|effect| at or above this is called causal")
    loc.add_argument("--bonferroni", type=float, default=3e-4, help="p-value threshold for the multiple-testing flag")
    loc.add_argument("--estimator", default="ls", choices=sorted(ESTIMATORS), help="estimator for locus analyses")

    fig = sub.add_parser("figures", help="batch-run every bundled scenario (figure-ready CSV per scenario)")
    fig.add_argument("--out", default=None, help="output root (default $MVMR_OUTPUT_DIR or ./mvmr_out)")
    fig.add_argument("--seed", type=int, default=None, help="master seed applied to every scenario")
    fig.add_argument("--replicates", type=int, default=None, help="override every scenario's replicate count, and pca_repetitions (quick runs)")
    fig.add_argument("--threads", type=int, default=1, help="worker threads per scenario; results are identical for any value")
    fig.add_argument("--estimators", default=None, help="comma list from: ls, gmm, twmr (default: each scenario's 'estimators', else ls,gmm)")
    fig.add_argument("--only", default=None, help="comma list of scenario names to run; a name no bundled scenario has exits 2")
    fig.add_argument("--max-failure-rate", type=float, default=0.2, help="exit 4 when any cell of a scenario exceeds this replicate failure rate")

    return parser


# subcommand -> the function that runs it; main looks the function up here on
# every call, so rebinding an entry takes effect although the parser is built
# once
COMMANDS = {"simulate": cmd_simulate, "estimate": cmd_estimate, "loci": cmd_loci, "figures": cmd_figures}


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser ``main`` reads, built on first use and then reused: each
    ``parse_args`` call starts from a fresh namespace and the parser's own
    defaults, so no call sees another's arguments."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

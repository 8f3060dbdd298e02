"""Fingerprint the deterministic outputs of ``mvmr simulate``, ``loci`` and ``estimate``.

Runs, in this interpreter:

* ``mvmr simulate --seed 11 --replicates 12 --estimators ls,gmm,twmr
  --max-failure-rate 1`` on every bundled scenario, and on the two
  Gaussian two-sample scenarios in ``LD_SCENARIOS``, which estimate with
  the outcome cohort's LD and with the reference LD on an instrument
  subset (no bundled scenario takes either path);
* the same command on ``markov_random_signs`` (``SIGN_SCENARIOS``): a
  Markov scenario of 5 instruments and 3 exposures, every instrument
  causal, with random-signed effects and no design constraint, whose
  effect-matrix draw takes a 32-bit half per sign and an odd number of
  them (no bundled scenario takes that path);
* the same command on ``near_perfect_ld`` (``FAILING_SCENARIOS``): two
  Gaussian instruments at correlation 0.999999999998, whose sample LD
  condition number straddles ``LD_CONDITION_LIMIT``, so that ls, gmm and
  twmr each fail on some replicates (7 of 12) and not on others, and on
  ``type1_near_perfect_ld``, the same design as a ``type1_power``
  scenario, whose null and alternative cells write their failure rates
  as every other replicate kind's cells do;
* the same command with ``--threads 3`` on the scenarios in
  ``THREAD_SCENARIOS``, whose files must hash as their ``--threads 1``
  counterparts do;
* the same command on each file of ``REFUSED_SCENARIOS``: one per scenario
  kind with a key of another kind, one per genotype mode with a key of
  another mode, and one that is not UTF-8 text.  Each is refused before
  anything is written, so its line is ``exit <code>  refused <name>:
  <first stderr line>``, with the run's directory written as ``<out>``,
  and no file line follows;
* ``mvmr loci --estimator E`` for E in ls, gmm and twmr on the bundled
  eQTL/GWAS/LD fixture trio, and again on a 60-block input written by
  this checkout's ``perfbench/inputs.write_loci_inputs(dir, 5, 60)``
  (every verdict, both prune reasons, dropped SNPs and a warning);
* ``mvmr loci --estimator ls`` on ``LOCI_BENCHMARK``, the benchmark's own
  loci_blocks input ``write_loci_inputs(dir, 1, 60)``, whose calls include
  rows with a zero standard error;
* ``mvmr loci --estimator ls`` on the fixture trio with ``FDR_ROWS``
  added to the eQTL table: rows at FDR 0.05 and 0.2, which the
  ``fdr < EQTL_FDR`` rule (0.05) leaves out;
* ``mvmr loci --estimator ls`` on the fixture trio with the gene id
  ``ESCAPED_GENE[0]`` renamed to ``ESCAPED_GENE[1]``, which holds a
  non-ASCII character and a ``"``, so that the JSON and CSV escaping of
  the reports is pinned;
* ``mvmr loci --estimator ls`` on the fixture trio with the LD entry
  ``INDEFINITE_LD`` changed so that one tissue's LD block is indefinite:
  that tissue reads ``failed`` and the run exits 0;
* ``mvmr estimate --estimators ls,gmm,twmr`` on the statistics files in
  ``ESTIMATE_STATS`` (exactly and over-identified, with and without
  ``n_outcome``, a zero standard error, an ill-conditioned LD matrix that
  exits 4, a rank-deficient design that exits 3, a positive definite LD
  matrix of condition number 9.0e5 that exits 0, an LD matrix made
  indefinite by rounding that exits 4 and a full-rank design whose
  weighted moment matrix is singular at float precision, which exits 3,
  and an over-identified file that also sets ``n_exposure``,
  ``instrument_names`` and ``exposure_names`` other than the default
  X1, X2 labels);
* ``mvmr estimate --diagram --estimators ls,gmm,twmr`` on the diagram
  files in ``DIAGRAMS``: the three locus diagrams of
  ``demos/01_identification.py`` (one gene, two genes with variants in
  LD, and one variant tagging two genes, which exits 3) and an
  over-identified diagram with ``bicov`` and ``var`` lines, so that
  parsing, ``sem_from_values`` and ``implied_covariance`` are covered,
  and a diagram of 22 nodes, over the path enumeration cap, whose
  instrumental-set check is reported as not checked while the estimators
  still run;
* an identification run over this checkout's
  ``perfbench/inputs.make_diagrams(seed, 240)`` for each seed in
  ``GRAPH_SEEDS``, which writes per diagram the ``find_instrumental_subset``
  result, the ``check_instrumental_set`` verdict (satisfied flag, failed
  condition, detail and witness) for every square instrument subset,
  ``d_separated(instrument, outcome)`` for every instrument, with and
  without the exposure -> outcome edges removed, and
  ``repr(wright_covariance)`` for every ordered pair of distinct nodes;
* the same identification run over every fourth of those diagrams with the
  direct edge ``PLEIOTROPY_EDGE`` (instrument -> outcome) added, so that
  condition 2 of the instrumental-set check fails, which it never does on
  the unchanged diagrams;

and prints one ``exit <code>  <command>`` line per command or run followed
by one ``<sha256>  <relative path>`` line per file it wrote.  A command that ends
in an uncaught exception reads ``exit 1``, as the console script would,
and its traceback goes to stderr.  Two source trees
produce the same outputs exactly when their fingerprints are equal:

    python tools/output_fingerprint.py --src /path/to/other/src > before.txt
    python tools/output_fingerprint.py > after.txt
    diff before.txt after.txt

``--src`` switches only the ``mvmr`` package; the generated loci input and
diagrams always come from this checkout.  Besides the standard library this needs
numpy (for the input generator); BLAS runs single-threaded (unless the
environment already says otherwise) and command output on stdout/stderr
is discarded.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

SIMULATE_ARGS = ["--seed", "11", "--replicates", "12", "--estimators", "ls,gmm,twmr", "--max-failure-rate", "1"]
LOCI_ESTIMATORS = ("ls", "gmm", "twmr")
LOCI_BLOCKS = ("blocks60", 5, 60)  # (label, seed, blocks) of the generated loci input
LOCI_BENCHMARK = ("blocks60_seed1", 1, 60)  # the same, for the loci_blocks benchmark input
FDR_ROWS = (  # eQTL rows at and above the significance threshold, for locus 15
    "rs1501\t15\t79139000\tCTSH\tAOR\t0.2\t0.03\t0.3\t0.05\n",
    "rs1503\t15\t79147000\tCTSH\tAOR\t-0.25\t0.03\t0.3\t0.2\n",
)
_TWO_SAMPLE = {"kind": "replicates", "true_effects": [0.208, -0.294], "n_samples": 300, "n_outcome": 1000, "genotypes": {"mode": "gaussian", "fixture": "mras_esyt3"}, "effects": {"low": 0.05, "high": 0.15}, "causal_instruments": [[0, 1], [3, 4]]}
LD_SCENARIOS = {  # name -> scenario file written and simulated as the bundled ones are
    "ld_outcome": {**_TWO_SAMPLE, "ld_choice": "outcome"},
    "ld_reference": {**_TWO_SAMPLE, "ld_choice": "reference", "instrument_subset": [0, 1, 3, 4]},
}
SIGN_SCENARIOS = {  # name -> scenario file whose effect matrices carry an odd count of random signs
    "markov_random_signs": {"kind": "replicates", "true_effects": [0.2, -0.1, 0.3], "n_samples": 400, "genotypes": {"mode": "markov", "mafs": [0.3, 0.25, 0.35, 0.3, 0.2], "successive_r": [0.5, 0.3, 0.6, 0.4]}, "effects": {"low": 0.1, "high": 0.3, "signs": "random"}},
}
FAILING_SCENARIOS = {  # name -> scenario file whose cells fail on some replicates only
    "near_perfect_ld": {"kind": "replicates", "true_effects": [0.2], "n_samples": 200, "genotypes": {"mode": "gaussian_pair", "correlation": 0.999999999998}, "effects": {"low": 0.2, "high": 0.4}},
    "type1_near_perfect_ld": {"kind": "type1_power", "true_effects": [0.2], "null_effects": [0.0], "n_samples": 200, "genotypes": {"mode": "gaussian_pair", "correlation": 0.999999999998}, "effects": {"low": 0.2, "high": 0.4}, "replicates": 12, "estimators": ["ls", "gmm"]},
}
_SMALL = {"true_effects": [0.2, 0.6], "n_samples": 200, "genotypes": {"mode": "gaussian_pair", "correlation": 0.5}, "effects": {"low": 0.1, "high": 0.3}}
REFUSED_SCENARIOS = {  # name -> a scenario file holding a key outside its kind's or genotype mode's table, or bytes that are not UTF-8
    "replicates+alpha": {**_SMALL, "kind": "replicates", "alpha": 0.05},
    "pleiotropy+conditional_f": {**_SMALL, "kind": "pleiotropy", "hidden_exposures": [0], "hidden_effect_grid": [0.1], "conditional_f": True},
    "two_sample+hidden_exposures": {**_SMALL, "kind": "two_sample", "n_outcome": 300, "hidden_exposures": [0]},
    "type1_power+conditional_f": {**_SMALL, "kind": "type1_power", "null_effects": [0.0, 0.6], "conditional_f": True},
    "pca+ld_choice": {"kind": "pca", "correlations": [0.3], "n_samples": 50, "ld_choice": "reference"},
    "pair+ld": {**_SMALL, "genotypes": {"mode": "pair", "correlation": 0.5, "ld": [[1.0, 0.2], [0.2, 1.0]]}},
    "gaussian_pair+maf": {**_SMALL, "genotypes": {"mode": "gaussian_pair", "correlation": 0.5, "maf": 0.2}},
    "markov+correlation": {**_SMALL, "genotypes": {"mode": "markov", "mafs": [0.3, 0.3], "successive_r": [0.5], "correlation": 0.2}},
    "gaussian+mafs": {**_SMALL, "genotypes": {"mode": "gaussian", "ld": [[1.0, 0.5], [0.5, 1.0]], "mafs": [0.3, 0.3]}},
    "not_utf8": b'{"kind": "pca\xff", "correlations": [0.3], "n_samples": 50}',
}
THREAD_SCENARIOS = ("fig2_pleiotropy", "s3_conditional_f_strong", "near_perfect_ld")  # simulated again with --threads 3
GRAPH_SEEDS = (1, 2)  # seeds of the generated diagrams
GRAPH_DIAGRAMS = 240
PLEIOTROPY_EDGE = ("E1", "Y", 0.05)  # added to every PLEIOTROPY_EVERY-th diagram, from the first
PLEIOTROPY_EVERY = 4
ESCAPED_GENE = ("CTSH", 'CTSH"\u00e9')  # a fixture gene id, and the id it is renamed to
INDEFINITE_LD = ("rs600", "rs603", "-0.9")  # r(rs600, rs603) in the fixture LD; the MAM block of chr6:12891000 turns indefinite
_LD3 = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]
_EX3 = [[0.3, 0.1], [0.15, 0.25], [0.2, 0.05]]
# two blocks of three near-identical SNPs (r = 0.999996 within, 0.2 between); SNPs 1 and 4 drive the exposures
_LD_BLOCKS = [[1.0 if i == j else (0.999996 if i // 3 == j // 3 else 0.2) for j in range(6)] for i in range(6)]
_EX_BLOCKS = [[0.3 * row[0], 0.3 * row[3]] for row in _LD_BLOCKS]
_R_ROUNDED = 0.89442719104  # sqrt(0.8) rounded up: SNP 3 tags the sum of SNPs 1 and 2
_TWO_GENES = ["edge E1 -> X1 0.3", "edge E1 -> X2 0.1", "edge E2 -> X1 0.2", "edge E2 -> X2 0.25", "edge X1 -> Y 0.2", "edge X2 -> Y 0.6", "bicov E1 <-> E2 0.9"]
DIAGRAMS = {  # name -> (diagram file lines, instruments, exposures, outcome) for ``mvmr estimate --diagram``
    "single_gene": (["edge E -> X 0.5", "edge X -> Y 0.3", "bicov X <-> Y 0.15"], "E", "X", "Y"),
    "two_genes": (_TWO_GENES, "E1,E2", "X1,X2", "Y"),
    "tagging": ([line for line in _TWO_GENES if not line.startswith("edge E2")], "E1,E2", "X1,X2", "Y"),
    "bicov_var": (
        ["edge E1 -> X1 0.3", "edge E1 -> X2 0.1", "edge E2 -> X2 0.25", "edge E3 -> X2 0.2", "edge X1 -> Y 0.2", "edge X2 -> Y -0.4",
         "bicov E1 <-> E2 0.6", "bicov E2 <-> E3 0.4", "bicov X1 <-> Y 0.15", "var E1 1.5", "var X1 0.8", "var X2 0.75", "var Y 0.5"],
        "E1,E2,E3", "X1,X2", "Y",
    ),
    "over_path_cap": (["edge E -> X 0.5", "edge X -> Y 0.3", *(f"edge Y -> C{i} 0.1" for i in range(19))], "E", "X", "Y"),
}
ESTIMATE_STATS = {  # name -> ``mvmr estimate --stats`` payload
    "exact_toy": {"sigma_EX": [[0.3, 0.1], [0.15, 0.25]], "sigma_EY": [0.12, 0.18], "sigma_EE": [[1.0, 0.6], [0.6, 1.0]], "n_outcome": 20000, "exposure_names": ["X1", "X2"]},
    "over_identified": {"sigma_EX": _EX3, "sigma_EY": [0.1, 0.17, 0.06], "sigma_EE": _LD3, "n_outcome": 50000},
    "over_identified_no_n": {"sigma_EX": _EX3, "sigma_EY": [0.1, 0.17, 0.06], "sigma_EE": _LD3},
    "zero_se": {"sigma_EX": [[1.0, 0.0], [0.0, 1.0]], "sigma_EY": [1.0, 1.0], "sigma_EE": [[1.0, 0.0], [0.0, 1.0]], "n_outcome": 1000},
    "ill_conditioned_ld": {"sigma_EX": [[0.3], [0.2]], "sigma_EY": [0.06, 0.04], "sigma_EE": [[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]], "n_outcome": 1000},
    "rank_deficient": {"sigma_EX": [[0.3, 0.0], [0.2, 0.0]], "sigma_EY": [0.1, 0.05], "sigma_EE": [[1.0, 0.2], [0.2, 1.0]], "n_outcome": 1000},
    "near_singular_ld": {"sigma_EX": _EX_BLOCKS, "sigma_EY": [0.2 * a - 0.1 * b for a, b in _EX_BLOCKS], "sigma_EE": _LD_BLOCKS, "n_outcome": 10000},
    "rounding_indefinite_ld": {"sigma_EX": [[0.3, 0.1], [0.1, 0.3], [0.2236, 0.2236]], "sigma_EY": [0.1, 0.12, 0.15], "sigma_EE": [[1.0, 0.6, _R_ROUNDED], [0.6, 1.0, _R_ROUNDED], [_R_ROUNDED, _R_ROUNDED, 1.0]], "n_outcome": 10000},
    # full rank, but the weighted moment matrix S^T S underflows to zero
    "singular_moment_matrix": {"sigma_EX": [[1e-170, 0.0], [0.0, 1e-170]], "sigma_EY": [0.1, 0.2], "sigma_EE": [[1.0, 0.0], [0.0, 1.0]], "n_outcome": 100},
    "named_exposures": {
        "sigma_EX": _EX3, "sigma_EY": [0.1, 0.17, 0.06], "sigma_EE": _LD3, "n_exposure": 30000, "n_outcome": 50000,
        "exposure_names": ["LPA", "PLG"], "instrument_names": ["rs10455872", "rs3798220", "rs4252120"],
    },
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(main, argv, err=None):
    """The exit code of ``main(argv)``; what it writes to stderr goes to
    ``err`` when given, else it is discarded with its stdout."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err or sink):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # the traceback goes to err or stderr, the fingerprint reads exit 1
        traceback.print_exc(file=err)
        return 1


def _refused(out_root):
    """``(label, argv)`` for every file of ``REFUSED_SCENARIOS``."""
    os.makedirs(os.path.join(out_root, "inputs", "refused"))
    for name, payload in REFUSED_SCENARIOS.items():
        scenario = os.path.join(out_root, "inputs", "refused", f"{name}.json")
        with open(scenario, "wb") as fh:
            fh.write(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        out = os.path.join(out_root, "simulate", "refused", name)
        yield f"refused {name}", ["simulate", "--scenario", scenario, *SIMULATE_ARGS, "--out", out]


def _commands(package_dir, out_root):
    """``(label, argv, out_dir)`` for every fingerprinted command."""
    scenarios = os.path.join(package_dir, "data", "scenarios")
    for name in sorted(os.listdir(scenarios)):
        if name.endswith(".json"):
            out = os.path.join(out_root, "simulate", name[: -len(".json")])
            argv = ["simulate", "--scenario", os.path.join(scenarios, name), *SIMULATE_ARGS, "--out", out]
            yield f"simulate {name} {' '.join(SIMULATE_ARGS)}", argv, out
    os.makedirs(os.path.join(out_root, "inputs", "scenarios"))
    written = {}
    for name, payload in {**LD_SCENARIOS, **SIGN_SCENARIOS, **FAILING_SCENARIOS}.items():
        written[name] = scenario = os.path.join(out_root, "inputs", "scenarios", f"{name}.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = os.path.join(out_root, "simulate", name)
        argv = ["simulate", "--scenario", scenario, *SIMULATE_ARGS, "--out", out]
        yield f"simulate {name} {' '.join(SIMULATE_ARGS)}", argv, out
    for name in THREAD_SCENARIOS:
        out = os.path.join(out_root, "simulate_threads3", name)
        scenario = written.get(name) or os.path.join(scenarios, f"{name}.json")
        label = name if name in written else f"{name}.json"
        argv = ["simulate", "--scenario", scenario, *SIMULATE_ARGS, "--threads", "3", "--out", out]
        yield f"simulate {label} {' '.join(SIMULATE_ARGS)} --threads 3", argv, out
    import inputs

    trio = ("eqtl.tsv", "gwas.tsv", "ld.txt")
    fixtures = os.path.join(package_dir, "data", "fixtures")
    label, seed, blocks = LOCI_BLOCKS
    generated = inputs.write_loci_inputs(os.path.join(out_root, "inputs", label), seed, blocks)
    for name, out_dir, (eqtl, gwas, ld) in (
        ("fixtures", os.path.join(out_root, "loci"), [os.path.join(fixtures, f) for f in trio]),
        (label, os.path.join(out_root, "loci", label), [generated[f] for f in trio]),
    ):
        for estimator in LOCI_ESTIMATORS:
            out = os.path.join(out_dir, estimator)
            argv = ["loci", "--eqtl", eqtl, "--gwas", gwas, "--ld", ld, "--estimator", estimator, "--out", out]
            yield f"loci {name} --estimator {estimator}", argv, out
    label, seed, blocks = LOCI_BENCHMARK
    generated = inputs.write_loci_inputs(os.path.join(out_root, "inputs", label), seed, blocks)
    out = os.path.join(out_root, "loci", label, "ls")
    argv = ["loci", "--eqtl", generated["eqtl.tsv"], "--gwas", generated["gwas.tsv"], "--ld", generated["ld.txt"], "--estimator", "ls", "--out", out]
    yield f"loci {label} --estimator ls", argv, out
    eqtl = os.path.join(out_root, "inputs", "fdr", "eqtl.tsv")
    os.makedirs(os.path.dirname(eqtl))
    with open(os.path.join(fixtures, "eqtl.tsv"), encoding="utf-8") as src, open(eqtl, "w", encoding="utf-8") as dst:
        dst.write(src.read() + "".join(FDR_ROWS))
    out = os.path.join(out_root, "loci", "fdr", "ls")
    argv = ["loci", "--eqtl", eqtl, "--gwas", os.path.join(fixtures, "gwas.tsv"), "--ld", os.path.join(fixtures, "ld.txt"), "--estimator", "ls", "--out", out]
    yield "loci fixtures+fdr_rows --estimator ls", argv, out
    eqtl = os.path.join(out_root, "inputs", "escaped", "eqtl.tsv")
    os.makedirs(os.path.dirname(eqtl))
    old, new = ESCAPED_GENE
    with open(os.path.join(fixtures, "eqtl.tsv"), encoding="utf-8") as src, open(eqtl, "w", encoding="utf-8") as dst:
        dst.write(src.read().replace(f"\t{old}\t", f"\t{new}\t"))
    out = os.path.join(out_root, "loci", "escaped", "ls")
    argv = ["loci", "--eqtl", eqtl, "--gwas", os.path.join(fixtures, "gwas.tsv"), "--ld", os.path.join(fixtures, "ld.txt"), "--estimator", "ls", "--out", out]
    yield "loci fixtures+escaped_gene --estimator ls", argv, out
    with open(os.path.join(fixtures, "ld.txt"), encoding="utf-8") as fh:
        rows = [line.split(" ") for line in fh.read().splitlines()]
    a, b, value = INDEFINITE_LD
    i, j = rows[0].index(a), rows[0].index(b)
    rows[1 + i][j] = rows[1 + j][i] = value
    ld = os.path.join(out_root, "inputs", "indefinite", "ld.txt")
    os.makedirs(os.path.dirname(ld))
    with open(ld, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(row) + "\n" for row in rows))
    out = os.path.join(out_root, "loci", "indefinite", "ls")
    argv = ["loci", "--eqtl", os.path.join(fixtures, "eqtl.tsv"), "--gwas", os.path.join(fixtures, "gwas.tsv"), "--ld", ld, "--estimator", "ls", "--out", out]
    yield "loci fixtures+indefinite_ld --estimator ls", argv, out
    os.makedirs(os.path.join(out_root, "inputs", "estimate"))
    os.makedirs(os.path.join(out_root, "estimate"))
    for name, payload in ESTIMATE_STATS.items():
        stats = os.path.join(out_root, "inputs", "estimate", f"{name}.json")
        with open(stats, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = os.path.join(out_root, "estimate", f"{name}.json")
        argv = ["estimate", "--stats", stats, "--estimators", "ls,gmm,twmr", "--out", out]
        yield f"estimate {name} --estimators ls,gmm,twmr", argv, out
    os.makedirs(os.path.join(out_root, "inputs", "diagram"))
    for name, (lines, instruments, exposures, outcome) in DIAGRAMS.items():
        diagram = os.path.join(out_root, "inputs", "diagram", f"{name}.txt")
        with open(diagram, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        out = os.path.join(out_root, "estimate", f"diagram_{name}.json")
        argv = ["estimate", "--diagram", diagram, "--instruments", instruments, "--exposures", exposures, "--outcome", outcome, "--estimators", "ls,gmm,twmr", "--out", out]
        yield f"estimate --diagram {name} --estimators ls,gmm,twmr", argv, out


def _identify(argv):
    """Write the identification results of ``make_diagrams(seed, GRAPH_DIAGRAMS)``
    to the file ``out``, for ``argv = [seed, out, pleiotropy]``; with
    ``pleiotropy`` only every ``PLEIOTROPY_EVERY``-th diagram, with
    ``PLEIOTROPY_EDGE`` added."""
    import inputs
    from mvmr import graph

    seed, out, pleiotropy = argv
    diagrams = inputs.make_diagrams(seed, GRAPH_DIAGRAMS)
    if pleiotropy:
        diagrams = diagrams[::PLEIOTROPY_EVERY]
        for d in diagrams:
            d["edges"].append(list(PLEIOTROPY_EDGE))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for d in diagrams:
            diagram = graph.CausalDiagram(d["nodes"], [(s, t) for s, t, _ in d["edges"]], [(a, b) for a, b, _ in d["bicov"]])
            sem = graph.calibrate_unit_variances(diagram, {(s, t): c for s, t, c in d["edges"]}, {(a, b): c for a, b, c in d["bicov"]})
            exposures, outcome = d["exposures"], d["outcome"]
            found = graph.find_instrumental_subset(diagram, d["instruments"], exposures, outcome)
            fh.write(f"{d['name']} subset {found!r}\n")
            for subset in itertools.combinations(d["instruments"], len(exposures)):
                fh.write(f"check {list(subset)} {graph.check_instrumental_set(diagram, subset, exposures, outcome)!r}\n")
            removed = [(x, outcome) for x in exposures]
            for e in d["instruments"]:
                fh.write(f"d_separated {e} {graph.d_separated(diagram, e, outcome)!r} {graph.d_separated(diagram, e, outcome, removed)!r}\n")
            for a, b in itertools.permutations(d["nodes"], 2):
                fh.write(f"wright {a} {b} {graph.wright_covariance(diagram, sem, a, b)!r}\n")
    return 0


def _written(out):
    """The files a command wrote to ``out``, a file or a directory tree, in a fixed order."""
    if os.path.isfile(out):
        yield out
    for dirpath, dirnames, filenames in os.walk(out):
        dirnames.sort()
        for filename in sorted(filenames):
            yield os.path.join(dirpath, filename)


def fingerprint(out_root):
    """Lines of the fingerprint, running every command into ``out_root``."""
    import mvmr
    import mvmr.cli

    package_dir = os.path.dirname(os.path.abspath(mvmr.__file__))
    lines = []
    for label, argv, out in _commands(package_dir, out_root):
        lines.append(f"exit {_run(mvmr.cli.main, argv)}  {label}")
        for path in _written(out):
            lines.append(f"{_sha256(path)}  {os.path.relpath(path, out_root)}")
    for label, argv in _refused(out_root):
        err = io.StringIO()
        code = _run(mvmr.cli.main, argv, err)
        first = (err.getvalue().splitlines() or [""])[0]
        lines.append(f"exit {code}  {label}: {first.replace(out_root, '<out>')}")
    for seed in GRAPH_SEEDS:
        out = os.path.join(out_root, "graph", f"diagrams{seed}.txt")
        lines.append(f"exit {_run(_identify, [seed, out, False])}  identify make_diagrams({seed}, {GRAPH_DIAGRAMS})")
        for path in _written(out):
            lines.append(f"{_sha256(path)}  {os.path.relpath(path, out_root)}")
    for seed in GRAPH_SEEDS:
        out = os.path.join(out_root, "graph", f"pleiotropy{seed}.txt")
        label = f"identify make_diagrams({seed}, {GRAPH_DIAGRAMS})[::{PLEIOTROPY_EVERY}] + {PLEIOTROPY_EDGE[0]} -> {PLEIOTROPY_EDGE[1]}"
        lines.append(f"exit {_run(_identify, [seed, out, True])}  {label}")
        for path in _written(out):
            lines.append(f"{_sha256(path)}  {os.path.relpath(path, out_root)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"), help="directory holding the mvmr package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave both source trees as they are
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    with tempfile.TemporaryDirectory(prefix="mvmr_fingerprint_") as work:
        for line in fingerprint(work):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

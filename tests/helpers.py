"""Random model generators, reference samplers, reference readers and
writers, and single-design helpers shared across the test modules."""

import csv
import math
import os

import numpy as np

from mvmr import graph, loci
from mvmr import simulate as sim
from mvmr.errors import GraphStructureError, StandardizationError, SummaryFormatError
from mvmr.estimators import EstimateResult, SummaryStatistics, _ndtr, one_design
from mvmr.simulate import _conditional_allele_probs


def single_design(sigma_EX, sigma_EY, sigma_EE, **kwargs):
    """The statistics of one design as the one-design stack, its arrays
    read as ``mvmr estimate`` reads a statistics file."""
    return SummaryStatistics(one_design(sigma_EX), one_design(sigma_EY, vector=True), one_design(sigma_EE), **kwargs)


def design(outcome):
    """Row 0 of ``outcome`` on a one-design stack, an ``EstimateResult`` or
    the ``(values, refusals)`` of ``conditional_f``; the design's first
    refusal is raised instead."""
    if isinstance(outcome, EstimateResult):
        refusals = outcome.refusals
        arrays = (outcome.effects, outcome.standard_errors, outcome.p_values, outcome.bonferroni_significant)
        row = EstimateResult(*(None if a is None else a[0] for a in arrays))
    else:
        values, refusals = outcome
        row = values[0]
    if refusals:
        raise refusals[0]
    return row


def single_dataset(scenario, seed):
    """The one-replicate dataset drawn from ``np.random.default_rng(seed)``
    (a seed, a ``SeedSequence`` or a ``Generator``, which is drawn from)."""
    return sim._stacked_dataset(scenario, [sim._draw(scenario, np.random.default_rng(seed))])


def random_standardized_sem(rng, n_nodes=6, edge_prob=0.35, bicov_prob=0.15):
    """Random acyclic SEM with unit implied variances.

    Retries until the error-variance calibration is feasible and the error
    covariance stays positive semidefinite.
    """
    names = [f"V{i}" for i in range(n_nodes)]
    while True:
        edges, coeffs = [], {}
        for j in range(n_nodes):
            for i in range(j + 1, n_nodes):
                if rng.random() < edge_prob:
                    edges.append((names[j], names[i]))
                    coeffs[(names[j], names[i])] = rng.uniform(-0.5, 0.5)
        bedges, bicov = [], {}
        for j in range(n_nodes):
            for i in range(j + 1, n_nodes):
                if rng.random() < bicov_prob:
                    bedges.append((names[j], names[i]))
                    bicov[(names[j], names[i])] = rng.uniform(-0.25, 0.25)
        diagram = graph.CausalDiagram(names, edges, bedges)
        try:
            sem = graph.calibrate_unit_variances(diagram, coeffs, bicov)
        except (StandardizationError, GraphStructureError):
            continue
        return diagram, sem


def random_mvmr_graph(rng, n_exposures=2, cross_prob=0.5, sabotage=None):
    """MVMR-shaped SEM: correlated instruments, exposures, one outcome.

    Every exposure gets its own instrument edge plus random cross edges;
    instruments share pairwise error correlations.  ``sabotage`` breaks
    the instrumental-set condition: ``"pleiotropy"`` adds a direct
    instrument-outcome edge, ``"missing_variant"`` removes one exposure's
    causal variant so only LD connects it.

    Returns (diagram, sem, instruments, exposures, outcome, true_effects).
    """
    K = n_exposures
    instruments = [f"E{i + 1}" for i in range(K)]
    exposures = [f"X{i + 1}" for i in range(K)]
    outcome = "Y"
    while True:
        edges, coeffs = [], {}
        for i in range(K):
            for j in range(K):
                if i == j or rng.random() < cross_prob:
                    edges.append((instruments[i], exposures[j]))
                    coeffs[(instruments[i], exposures[j])] = rng.uniform(0.1, 0.4) * rng.choice([-1, 1])
        true_effects = rng.uniform(0.1, 0.6, size=K) * rng.choice([-1, 1], size=K)
        for j in range(K):
            edges.append((exposures[j], outcome))
            coeffs[(exposures[j], outcome)] = true_effects[j]

        bicov = {}
        for i in range(K):
            for j in range(i + 1, K):
                bicov[(instruments[i], instruments[j])] = rng.uniform(0.1, 0.6)
        if K > 1 and rng.random() < 0.5:
            bicov[(exposures[0], exposures[1])] = rng.uniform(-0.2, 0.2)
        if rng.random() < 0.5:
            bicov[(exposures[rng.integers(K)], outcome)] = rng.uniform(-0.2, 0.2)

        if sabotage == "pleiotropy":
            edges.append((instruments[0], outcome))
            coeffs[(instruments[0], outcome)] = rng.uniform(0.1, 0.3)
        elif sabotage == "missing_variant":
            edges = [(s, t) for (s, t) in edges if s != instruments[-1]]
            coeffs = {k: v for k, v in coeffs.items() if k[0] != instruments[-1]}
            # the last instrument now only connects through LD with the others

        diagram = graph.CausalDiagram(
            instruments + exposures + [outcome], edges, list(bicov)
        )
        try:
            sem = graph.calibrate_unit_variances(diagram, coeffs, bicov)
        except (StandardizationError, GraphStructureError):
            continue
        return diagram, sem, instruments, exposures, outcome, np.asarray(true_effects)


def population_statistics(diagram, sem, instruments, exposures, outcome, n_outcome=None):
    """The one-design statistics of the SEM's implied covariance matrix."""
    sigma = graph.implied_covariance(sem)
    iE = [diagram.index(e) for e in instruments]
    iX = [diagram.index(x) for x in exposures]
    iY = diagram.index(outcome)
    return single_design(
        sigma[np.ix_(iE, iX)],
        sigma[iE, iY],
        sigma[np.ix_(iE, iE)],
        n_outcome=n_outcome,
    )


def near_singular_ld_payload():
    """``mvmr estimate --stats`` payload on a positive definite LD matrix of
    condition number 9.0e5: two blocks of three near-identical SNPs (r =
    0.999996 within a block, 0.2 between).  The first SNP of each block
    drives one exposure, and the exposures' effects on the outcome are 0.2
    and -0.1, so every entry is a population covariance."""
    ld = [[1.0 if i == j else (0.999996 if i // 3 == j // 3 else 0.2) for j in range(6)] for i in range(6)]
    sigma_EX = [[0.3 * row[0], 0.3 * row[3]] for row in ld]
    sigma_EY = [0.2 * a - 0.1 * b for a, b in sigma_EX]
    return {"sigma_EX": sigma_EX, "sigma_EY": sigma_EY, "sigma_EE": ld, "n_outcome": 10000}


def rounding_indefinite_ld_payload():
    """``mvmr estimate --stats`` payload whose LD matrix is indefinite by
    rounding: the third SNP is in exact LD with the sum of the first two
    (r = sqrt(0.8) with each), written rounded up in the 11th decimal.  The
    smallest eigenvalue is -5.5e-11, inside the constructor's tolerance,
    and the condition number 4.7e10 is under ``LD_CONDITION_LIMIT``."""
    r = 0.89442719104
    return {
        "sigma_EX": [[0.3, 0.1], [0.1, 0.3], [0.2236, 0.2236]],
        "sigma_EY": [0.1, 0.12, 0.15],
        "sigma_EE": [[1.0, 0.6, r], [0.6, 1.0, r], [r, r, 1.0]],
        "n_outcome": 10000,
    }


def sample_genotype_rows(model, n, rng):
    """Reference Markov sampler: an (n, L) genotype matrix drawn allele by
    allele, two independent allele chains per individual."""
    L = model.n_snps
    alleles = np.empty((2, n, L), dtype=np.int8)
    for copy in range(2):
        alleles[copy, :, 0] = rng.random(n) < model.mafs[0]
        for k in range(1, L):
            p0, p1 = _conditional_allele_probs(
                model.mafs[k - 1], model.mafs[k], model.successive_r[k - 1], k - 1
            )
            prev = alleles[copy, :, k - 1]
            probs = np.where(prev == 1, p1, p0)
            alleles[copy, :, k] = rng.random(n) < probs
    return alleles.sum(axis=0).astype(np.int64)


def reference_markov_cross(scenario, A, n, rng):
    """Reference for ``simulate._markov_cross``: the centred cross-product
    matrix of [E | X | Y] reduced from drawn N-row arrays."""
    e = sample_genotype_rows(scenario.genotypes, n, rng).astype(float)
    noise_sd = np.sqrt(scenario.noise_variance)
    x = e @ A + noise_sd * rng.standard_normal((n, scenario.n_exposures))
    y = x @ np.asarray(scenario.true_effects) + noise_sd * rng.standard_normal(n)
    z = np.column_stack([e, x, y])
    z -= z.mean(axis=0)
    return z.T @ z


def refuse_replicates(estimator, chosen, error):
    """The stacked ``estimator`` with the replicates ``chosen(stats)`` names
    refused by ``error(stats, replicate)``, ahead of any refusal of its own,
    as if they had failed before it ran."""

    def refusing(stats):
        result = estimator(stats)
        result.refusals.update({i: error(stats, i) for i in chosen(stats)})
        return result

    return refusing


def every_replicate(stats):
    return range(len(stats.sigma_EX))


def export_locus_files(stats, out_dir, gene_names):
    """Write eQTL/GWAS/LD summary files for the one-design ``stats``.

    Produces the three files consumed by the locus pipeline so that
    simulated data can complete the full analysis round trip.  SNP i is
    named ``rs{900000 + i}`` and placed on chromosome 1 at 1,000,000 +
    5,000 i bp; every eQTL is in tissue ``SIM``, and the GWAS sample size,
    which also sets every standard error, is ``stats.n_outcome`` (10,000
    when unset).  Returns the (eqtl, gwas, ld) paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    sigma_EX, sigma_EY, sigma_EE = stats.sigma_EX[0], stats.sigma_EY[0], stats.sigma_EE[0]
    L, K = sigma_EX.shape
    snps = [f"rs{900000 + i}" for i in range(L)]
    genes = list(gene_names)
    if len(genes) != K:
        raise ValueError("need one gene name per exposure")
    n_out = stats.n_outcome or 10000

    eqtl_path = os.path.join(out_dir, "eqtl.tsv")
    gwas_path = os.path.join(out_dir, "gwas.tsv")
    ld_path = os.path.join(out_dir, "ld.txt")

    with open(eqtl_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n")
        for i, snp in enumerate(snps):
            pos = 1_000_000 + i * 5_000
            for k, gene in enumerate(genes):
                beta = float(sigma_EX[i, k])
                se = max(1.0 / float(np.sqrt(n_out)), 1e-6)
                fh.write(
                    f"{snp}\t1\t{pos}\t{gene}\tSIM\t{beta!r}\t{se!r}\t0.3\t0.001\n"
                )

    with open(gwas_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("snp\tchrom\tpos\tbeta\tse\tpval\tn\n")
        for i, snp in enumerate(snps):
            pos = 1_000_000 + i * 5_000
            beta = float(sigma_EY[i])
            se = max(1.0 / float(np.sqrt(n_out)), 1e-12)
            z = beta / se
            pval = max(2.0 * _ndtr(-abs(z)), 1e-300)
            pval = min(pval, 4.9e-8)  # keep every simulated SNP genome-wide significant
            fh.write(f"{snp}\t1\t{pos}\t{beta!r}\t{se!r}\t{pval!r}\t{n_out}\n")

    with open(ld_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(" ".join(snps) + "\n")
        for i in range(L):
            fh.write(" ".join(repr(float(v)) for v in sigma_EE[i]) + "\n")

    return eqtl_path, gwas_path, ld_path


def reference_finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None:
    ``json.dumps`` of this, sorted, indented by 2 and strict, is the text
    ``jsonio.dumps`` must write."""
    if isinstance(value, dict):
        return {k: reference_finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# The summary-table reader as it was before rows were converted by direct
# unpacking: one generic conversion loop over the schema per row, then a
# builder that range-checks the record.  ``loci._read_tsv`` must return the
# same records, or raise the same error, on every input.


def _reference_parse_row(parts, schema, path, lineno):
    if len(parts) != len(schema):
        raise SummaryFormatError(
            f"expected {len(schema)} columns, found {len(parts)}", path, lineno
        )
    out = []
    for (name, conv), raw in zip(schema, parts):
        try:
            out.append(conv(raw))
        except ValueError:
            raise SummaryFormatError(
                f"cannot parse column {name!r} from {raw!r}", path, lineno
            ) from None
    return out


@loci._text_reader
def reference_read_tsv(path, header, schema, builder):
    """Rows of a plain tab-separated file, one physical line per record: a
    ``"`` is data, not a quote, so every error names its true line."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            first = next(reader, None)
            if first is None:
                raise SummaryFormatError("empty file, header required", path, 1)
            if [c.strip() for c in first] != header:
                raise SummaryFormatError(
                    f"bad header {first!r}, expected {header!r}", path, 1
                )
            for lineno, parts in enumerate(reader, start=2):
                if not parts or (len(parts) == 1 and not parts[0].strip()):
                    continue
                rows.append(builder(_reference_parse_row(parts, schema, path, lineno), path, lineno))
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise SummaryFormatError(str(exc), path, reader.line_num) from None
    return rows


def reference_build_eqtl(values, path, lineno):
    record = loci.EqtlRecord(*values)
    if not 0.0 <= record.fdr <= 1.0:
        raise SummaryFormatError(f"fdr {record.fdr} outside [0, 1]", path, lineno)
    return record


def reference_build_gwas(values, path, lineno):
    record = loci.GwasRecord(*values)
    if not 0.0 < record.pval <= 1.0:
        raise SummaryFormatError(f"p-value {record.pval} outside (0, 1]", path, lineno)
    return record

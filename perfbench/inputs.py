"""Seeded input generators for the benchmark.

Two generators, both pure functions of their seed and size:

* ``write_loci_inputs`` writes an eQTL/GWAS/LD file trio of independent LD
  blocks for ``mvmr loci``, plus ``expected.json`` with the verdict planted
  in every tissue and the gene effects planted in the designated tissue.
* ``make_diagrams`` returns random locus diagrams (an LD chain of
  instruments, genes, a confounded outcome) for the graph layer.

The same seed and size give byte-identical files.
"""

import json
import os

import numpy as np

# ---------------------------------------------------------------------------
# Locus pipeline inputs

SNPS_PER_BLOCK = 8
GENES_PER_TISSUE = 3
TISSUES = ("T1", "T2", "T3")
DESIGNATED_TISSUE = "T1"  # least squares recovers the planted effects here

# Block kinds repeat with the block index, so every seed yields the same
# number of each prune reason and verdict; the seed moves only the values.
#   plain     : T1 ok, T2 ok, T3 warn
#   pruned    : SNP 5 in perfect LD with the lead, SNP 6 a near-duplicate of
#               SNP 2; T2 has two instruments for three genes
#   singular  : SNP 4 is an exact LD combination of SNPs 1 and 3, which T3
#               uses, so its estimate fails; T2 fails the design screen
#   missing   : SNP 7 is absent from the LD file and gets dropped
BLOCK_KINDS = ("plain", "pruned", "singular", "missing")
TISSUE_PLAN = {
    "plain": {"T1": "ok", "T2": "ok", "T3": "warn"},
    "pruned": {"T1": "ok", "T2": "few_instruments", "T3": "warn"},
    "singular": {"T1": "ok", "T2": "design_fail", "T3": "failed"},
    "missing": {"T1": "ok", "T2": "ok", "T3": "design_fail"},
}
VERDICT_OF_PLAN = {
    "ok": "ok",
    "warn": "warn",
    "few_instruments": "non_identifiable",
    "design_fail": "non_identifiable",
    "failed": "failed",
}
# sin^2 of the angle between the third gene's instrument column and the span
# of the other two: the determinant of the normalised Gram matrix, which the
# pipeline grades pass (> 0.05), warn, or fail (< 0.001).
GRAM_DET = {"warn": 0.01, "design_fail": 1e-4}
BLOCK_SPACING = 3_000_000
SNP_SPACING = 10_000


def _unit(v):
    return v / np.linalg.norm(v)


def _orthogonal_unit(rng, v):
    w = rng.standard_normal(v.shape[0])
    return _unit(w - (w @ v) * v)


def _block_vectors(rng, kind):
    """Unit genotype vectors whose Gram matrix is the block's LD.

    Free SNPs are resampled until they are distinct enough not to be pruned,
    yet linked to the lead (SNP 0) so that every one joins its locus.
    """
    dim = SNPS_PER_BLOCK
    while True:
        v = [_unit(rng.standard_normal(dim)) for _ in range(SNPS_PER_BLOCK)]
        if kind == "pruned":
            v[5] = _unit(v[0] + 0.0709 * _orthogonal_unit(rng, v[0]))  # r^2 = 0.995
            v[6] = _unit(v[2] + 0.176 * _orthogonal_unit(rng, v[2]))  # r^2 = 0.970
        if kind == "singular":
            v[4] = _unit(v[1] + v[3])
        r = np.array([[a @ b for b in v] for a in v])
        free = [i for i in range(SNPS_PER_BLOCK) if not (kind == "pruned" and i in (5, 6))]
        off = [r[i, j] ** 2 for i in free for j in free if i < j]
        linked = all(abs(r[0, j]) > 0.05 for j in range(1, SNPS_PER_BLOCK))
        if max(off) < 0.6 and linked:
            return r


def _design(rng, n_rows, plan):
    """Instrument-by-gene eQTL effects with a chosen normalised-Gram determinant."""
    if plan in GRAM_DET:
        q, _ = np.linalg.qr(rng.standard_normal((n_rows, GENES_PER_TISSUE)))
        s = np.sqrt(GRAM_DET[plan])
        cols = [q[:, 0], q[:, 1], np.sqrt(1.0 - s * s) * q[:, 0] + s * q[:, 2]]
        scale = rng.uniform(0.2, 0.4, size=GENES_PER_TISSUE)
        return np.column_stack(cols) * scale
    while True:
        S = rng.uniform(0.05, 0.4, size=(n_rows, GENES_PER_TISSUE))
        S *= rng.choice([-1.0, 1.0], size=S.shape)
        Sn = S / np.linalg.norm(S, axis=0)
        if plan == "few_instruments" or np.linalg.det(Sn.T @ Sn) > 0.2:
            return S


def _tissue_snps(kind, plan):
    """Indices of the block's SNPs that carry eQTL rows in a tissue."""
    if plan == "few_instruments":
        return [0, 1]
    snps = list(range(SNPS_PER_BLOCK))
    if kind == "singular" and plan != "failed":
        snps.remove(4)  # only the failing tissue sees the singular LD triple
    return snps


def _instruments(kind, snps):
    """The subset of ``snps`` the pipeline keeps as instruments."""
    gone = {"pruned": (5, 6), "missing": (7,)}.get(kind, ())
    return [i for i in snps if i not in gone]


def _fmt(x):
    return repr(float(x))


def write_loci_inputs(out_dir, seed, blocks):
    """Write ``eqtl.tsv``, ``gwas.tsv``, ``ld.txt`` and ``expected.json``.

    Returns a dict of the four paths.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    os.makedirs(out_dir, exist_ok=True)
    eqtl_lines = ["snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr"]
    gwas_lines = ["snp\tchrom\tpos\tbeta\tse\tpval\tn"]
    ld_blocks = []  # (snp ids, block matrix)
    expected = {"designated_tissue": DESIGNATED_TISSUE, "loci": {}}
    for b in range(blocks):
        kind = BLOCK_KINDS[b % len(BLOCK_KINDS)]
        chrom = str(b % 22 + 1)
        base = 1_000_000 + (b // 22) * BLOCK_SPACING
        snps = [f"rs{1_000_000 + SNPS_PER_BLOCK * b + i}" for i in range(SNPS_PER_BLOCK)]
        pos = [base + i * SNP_SPACING + int(rng.integers(0, 5000)) for i in range(SNPS_PER_BLOCK)]
        genes = [f"G{b:04d}_{k}" for k in range(GENES_PER_TISSUE)]
        ld = _block_vectors(rng, kind)
        in_ld = [i for i in range(SNPS_PER_BLOCK) if not (kind == "missing" and i == 7)]
        ld_blocks.append(([snps[i] for i in in_ld], ld[np.ix_(in_ld, in_ld)]))

        gwas_beta = rng.uniform(-0.05, 0.05, size=SNPS_PER_BLOCK)
        effects = rng.uniform(0.15, 0.6, size=GENES_PER_TISSUE) * rng.choice([-1.0, 1.0], size=GENES_PER_TISSUE)
        verdicts = {}
        for tissue in TISSUES:
            plan = TISSUE_PLAN[kind][tissue]
            rows = _tissue_snps(kind, plan)
            keep = _instruments(kind, rows)
            # the design is planted on the instruments the pipeline keeps;
            # pruned and dropped SNPs get rows of their own
            S = np.empty((len(rows), GENES_PER_TISSUE))
            S[[rows.index(i) for i in keep]] = _design(rng, len(keep), plan)
            others = [rows.index(i) for i in rows if i not in keep]
            S[others] = rng.uniform(0.05, 0.4, size=(len(others), GENES_PER_TISSUE))
            if tissue == DESIGNATED_TISSUE:
                gwas_beta[keep] = S[[rows.index(i) for i in keep]] @ effects
            maf = rng.uniform(0.05, 0.5, size=len(rows))
            for r, i in enumerate(rows):
                for k, gene in enumerate(genes):
                    eqtl_lines.append(
                        f"{snps[i]}\t{chrom}\t{pos[i]}\t{gene}\t{tissue}\t"
                        f"{_fmt(S[r, k])}\t0.03\t{round(float(maf[r]), 3)}\t0.001"
                    )
            verdicts[tissue] = VERDICT_OF_PLAN[plan]
        for i in range(SNPS_PER_BLOCK):
            # SNP 0 leads its block; every SNP is genome-wide significant
            pval = 10.0 ** -(40 - 3 * i)
            gwas_lines.append(
                f"{snps[i]}\t{chrom}\t{pos[i]}\t{_fmt(gwas_beta[i])}\t0.004\t{pval!r}\t{150_000 + b}"
            )
        expected["loci"][f"chr{chrom}:{pos[0]}"] = {
            "kind": kind,
            "verdicts": verdicts,
            "effects": {gene: float(c) for gene, c in zip(genes, effects)},
        }

    paths = {name: os.path.join(out_dir, name) for name in ("eqtl.tsv", "gwas.tsv", "ld.txt", "expected.json")}
    with open(paths["eqtl.tsv"], "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(eqtl_lines) + "\n")
    with open(paths["gwas.tsv"], "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(gwas_lines) + "\n")
    _write_ld(paths["ld.txt"], ld_blocks)
    with open(paths["expected.json"], "w", encoding="utf-8", newline="") as fh:
        json.dump(expected, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return paths


def _write_ld(path, ld_blocks):
    """Block-diagonal LD text: ids on the first line, then the r matrix."""
    total = sum(len(ids) for ids, _ in ld_blocks)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(" ".join(snp for ids, _ in ld_blocks for snp in ids) + "\n")
        offset = 0
        for ids, matrix in ld_blocks:
            n = len(ids)
            before = "0.0 " * offset
            after = " 0.0" * (total - offset - n)
            for i in range(n):
                cells = ["1.0" if i == j else _fmt(matrix[i, j]) for j in range(n)]
                fh.write(before + " ".join(cells) + after + "\n")
            offset += n


# ---------------------------------------------------------------------------
# Locus diagrams for the graph layer

DIAGRAM_SHAPES = [(L, K) for L in range(5, 10) for K in range(2, 5)]
# Every fourth diagram has a gene with no instrument at all, so no subset of
# the candidates is an instrumental set and the search is exhaustive.
SABOTAGE_EVERY = 4
# The graph structure is drawn from this fixed stream and the edge weights
# from the seed.  The search cost depends only on the structure, and a few
# diagrams dominate it, so a seeded structure would make one seed's set
# several times costlier than another's; this way every seed's set needs the
# same search work and the seed moves the covariances.
STRUCTURE_SEED = 2401


def make_diagrams(seed, count):
    """Random locus diagrams as plain data.

    Shapes (L instruments, K genes) cycle through L = 5..9, K = 2..4.  The
    instruments form an LD chain (bidirected edges between neighbours);
    each gene gets its own causal instrument plus one random cross edge; every
    gene affects the outcome Y and shares a confounder with it.  Edge
    weights are small enough that unit implied variances are always
    reachable.
    """
    shape_rng = np.random.default_rng(STRUCTURE_SEED)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    out = []
    for d in range(count):
        L, K = DIAGRAM_SHAPES[d % len(DIAGRAM_SHAPES)]
        sabotaged = d % SABOTAGE_EVERY == SABOTAGE_EVERY - 1
        instruments = [f"E{i + 1}" for i in range(L)]
        exposures = [f"X{k + 1}" for k in range(K)]
        own = shape_rng.choice(L, size=K, replace=False)
        cross = [int(shape_rng.choice([i for i in range(L) if i != own[k]])) for k in range(K)]
        edges = {}
        for k, x in enumerate(exposures):
            if sabotaged and k == K - 1:
                continue
            edges[(instruments[own[k]], x)] = rng.uniform(0.1, 0.25)
            edges[(instruments[cross[k]], x)] = rng.uniform(0.05, 0.15)
        for x in exposures:
            edges[(x, "Y")] = rng.uniform(0.1, 0.2) * rng.choice([-1.0, 1.0])
        bicov = [(instruments[i], instruments[i + 1], rng.uniform(0.2, 0.4)) for i in range(L - 1)]
        bicov += [(x, "Y", rng.uniform(0.05, 0.12)) for x in exposures]
        out.append(
            {
                "name": f"d{d}_L{L}_K{K}",
                "nodes": instruments + exposures + ["Y"],
                "edges": [[s, t, round(float(c), 6)] for (s, t), c in edges.items()],
                "bicov": [[a, b, round(float(c), 6)] for a, b, c in bicov],
                "instruments": instruments,
                "exposures": exposures,
                "outcome": "Y",
                "identifiable": False if sabotaged else None,
            }
        )
    return out


def write_diagrams(path, seed, count):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(make_diagrams(seed, count), fh, indent=1)
        fh.write("\n")
    return path


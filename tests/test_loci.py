import dataclasses
import importlib.resources as resources
import json
import os

import numpy as np
import pytest

from mvmr import estimators, loci
from mvmr.errors import MvmrError, PipelineConfigError, SummaryFormatError, UnderdeterminedError
from mvmr.jsonio import dumps

from helpers import design, single_design

FIXTURES = resources.files("mvmr").joinpath("data", "fixtures")


@pytest.fixture(scope="module")
def fixture_paths():
    return (
        str(FIXTURES / "eqtl.tsv"),
        str(FIXTURES / "gwas.tsv"),
        str(FIXTURES / "ld.txt"),
    )


@pytest.fixture(scope="module")
def loaded(fixture_paths):
    return loci.load_summaries(*fixture_paths)


@pytest.fixture(scope="module")
def built(loaded):
    eqtls, gwas, ld, _ = loaded
    return loci.build_loci(eqtls, gwas, ld)


# LD blocks of three SNPs, as (r12, r13, r23); no pair is pruned at the defaults
STACK_BLOCKS = {
    "plain": ("0.3", "0.2", "0.1"),
    "indefinite": ("0.6", "0.9", "0.9"),  # smallest eigenvalue -0.0077: refused while the stack is built
    "ill_conditioned": ("0.6", "0.8944271909999", "0.8944271909999"),  # condition number 1.2e14
}
# one locus per chromosome, in order: (LD block, second gene's betas or None for a rank-deficient design)
STACK_LOCI = (
    ("plain", (0.1, 0.3, 0.25)),
    ("indefinite", (0.1, 0.3, 0.25)),
    ("plain", None),
    ("ill_conditioned", (0.1, 0.3, 0.25)),
    ("plain", (-0.2, 0.15, 0.3)),
    ("indefinite", (0.2, 0.1, -0.3)),
)


def write_stack_trio(tmp_path):
    """An eQTL/GWAS/LD trio of six three-SNP loci whose tissue T designs
    share the shape (3, 2); the first locus's tissue U has a (3, 1) design.
    Paths in ``load_summaries`` order."""
    eqtl = ["snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr"]
    gwas = ["snp\tchrom\tpos\tbeta\tse\tpval\tn"]
    snps, blocks = [], []
    first = (0.4, 0.1, 0.2)
    for i, (block, second) in enumerate(STACK_LOCI):
        chrom = str(i + 1)
        second = second or tuple(2 * b for b in first)
        names = [f"rs{chrom}{j}" for j in range(3)]
        for j, snp in enumerate(names):
            pos = 1000 * (j + 1)
            eqtl.append(f"{snp}\t{chrom}\t{pos}\tG{chrom}A\tT\t{first[j]}\t0.01\t0.3\t0.001")
            eqtl.append(f"{snp}\t{chrom}\t{pos}\tG{chrom}B\tT\t{second[j]}\t0.01\t0.3\t0.001")
            if i == 0:
                eqtl.append(f"{snp}\t{chrom}\t{pos}\tG{chrom}C\tU\t{0.3 - 0.1 * j}\t0.01\t0.3\t0.001")
            beta = 0.2 * first[j] - 0.1 * second[j] + 0.01 * (j - i)
            gwas.append(f"{snp}\t{chrom}\t{pos}\t{beta}\t0.004\t1e-{12 - j}\t{10000 + 1000 * i + 100 * j}")
        snps.extend(names)
        blocks.append(STACK_BLOCKS[block])
    rows = [["1.0" if a == b else "0" for b in range(len(snps))] for a in range(len(snps))]
    for k, (r12, r13, r23) in enumerate(blocks):
        for (a, b), r in zip(((0, 1), (0, 2), (1, 2)), (r12, r13, r23)):
            rows[3 * k + a][3 * k + b] = rows[3 * k + b][3 * k + a] = r
    paths = [tmp_path / name for name in ("eqtl.tsv", "gwas.tsv", "ld.txt")]
    paths[0].write_text("\n".join(eqtl) + "\n")
    paths[1].write_text("\n".join(gwas) + "\n")
    paths[2].write_text(" ".join(snps) + "\n" + "".join(" ".join(row) + "\n" for row in rows))
    return [str(p) for p in paths]


def single_analysis(locus, exposures, gwas, ld, config):
    """Reference: ``(calls, diagnostics, verdict)`` of one design from its own
    one-design ``SummaryStatistics``, with its first refusal raised, as the
    pipeline analysed each design before designs were stacked."""
    column = {exposure: k for k, exposure in enumerate(exposures)}
    rows = {}
    for r in locus.eqtls:
        if (r.gene, r.tissue) in column:
            rows.setdefault(r.snp, [0.0] * len(exposures))[column[(r.gene, r.tissue)]] = r.beta
    snps = [s for s in locus.member_snps if s in rows]
    diagnostics = {}
    try:
        stats = single_design(
            [rows[s] for s in snps],
            [gwas[s].beta for s in snps],
            ld.submatrix(snps),
            n_outcome=int(np.median([gwas[s].n for s in snps])),
        )
        diagnostics = stats.diagnostics.rows()[0]
        if diagnostics["rank_EX"] < len(exposures) or diagnostics["verdict"] == "fail":
            return [], diagnostics, "non_identifiable"
        result = design(estimators.estimate(stats, config.estimator, bonferroni_threshold=config.bonferroni))
    except UnderdeterminedError as exc:
        return [], {**diagnostics, "error": str(exc)}, "non_identifiable"
    except MvmrError as exc:
        return [], {**diagnostics, "error": str(exc)}, "failed"
    calls = [
        loci.CausalGeneCall(
            locus.locus_id, gene, tissue, float(result.effects[k]), float(result.standard_errors[k]), float(result.p_values[k]),
            bool(abs(result.effects[k]) >= config.causal_threshold), bool(result.bonferroni_significant[k]),
        )
        for k, (gene, tissue) in enumerate(exposures)
    ]
    return calls, diagnostics, "ok" if diagnostics["verdict"] == "pass" else "warn"


def full_table_rows(locus, eqtls):
    """Reference: the significant rows of the members, by a pass over the whole table."""
    return {r for r in eqtls if r.fdr < 0.05 and r.snp in locus.member_snps}


def full_table_closure(locus, eqtls):
    """Reference closure check over the whole eQTL table."""
    return all(
        r.gene in locus.genes_by_tissue.get(r.tissue, ())
        for r in full_table_rows(locus, eqtls)
    )


class TestLoadSummaries:
    def test_fixture_counts(self, loaded):
        eqtls, gwas, ld, warnings = loaded
        assert len(eqtls) == 60
        assert len(gwas) == 30
        assert len(ld.snps) == 30
        assert warnings == []

    def test_empty_eqtl_warns(self, tmp_path, fixture_paths):
        empty = tmp_path / "empty.tsv"
        empty.write_text("snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n")
        _, gwas_path, ld_path = fixture_paths
        eqtls, _, _, warnings = loci.load_summaries(str(empty), gwas_path, ld_path)
        assert eqtls == []
        assert any("empty" in w for w in warnings)

    def test_malformed_row_has_line_number(self, tmp_path, fixture_paths):
        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            "rs1\t1\t100\tG\tT\t0.2\t0.01\t0.3\t0.001\n"
            "rs2\t1\tnot_a_number\tG\tT\t0.2\t0.01\t0.3\t0.001\n"
        )
        _, gwas_path, ld_path = fixture_paths
        with pytest.raises(SummaryFormatError, match=":3"):
            loci.load_summaries(str(bad), gwas_path, ld_path)

    def test_duplicate_triplet_rejected(self, tmp_path, fixture_paths):
        dup = tmp_path / "dup.tsv"
        dup.write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            + "rs1\t1\t100\tG\tT\t0.2\t0.01\t0.3\t0.001\n" * 2
        )
        _, gwas_path, ld_path = fixture_paths
        with pytest.raises(SummaryFormatError, match="duplicate"):
            loci.load_summaries(str(dup), gwas_path, ld_path)

    def test_asymmetric_ld_rejected(self, tmp_path, fixture_paths):
        bad = tmp_path / "ld.txt"
        bad.write_text("rs1 rs2\n1.0 0.5\n0.4 1.0\n")
        eqtl_path, gwas_path, _ = fixture_paths
        with pytest.raises(SummaryFormatError, match="symmetric"):
            loci.load_summaries(eqtl_path, gwas_path, str(bad))

    def test_non_square_ld_rejected(self, tmp_path, fixture_paths):
        bad = tmp_path / "ld.txt"
        bad.write_text("rs1 rs2\n1.0 0.5\n")
        eqtl_path, gwas_path, _ = fixture_paths
        with pytest.raises(SummaryFormatError, match="square"):
            loci.load_summaries(eqtl_path, gwas_path, str(bad))

    def test_ld_matches_a_per_entry_parse_bitwise(self, fixture_paths):
        with open(fixture_paths[2], encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        reference = np.array([[float(v) for v in line.split()] for line in lines[1:] if line.strip()])
        ld = loci._read_ld(fixture_paths[2])
        assert ld.snps == tuple(lines[0].split())
        assert ld.matrix.tobytes() == ((reference + reference.T) / 2.0).tobytes()

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("1.0 nan\nnan 1.0\n", 3, "non-finite LD entry"),
            ("1.0 0.5\n0.5 inf\n", 4, "non-finite LD entry"),
            ("1.0 0.5\n\n0.5\n", 5, "1 entries, expected 2"),
            ("1.0 0.5\n\n0.5 x\n", 5, "cannot parse LD entry"),
            ("1.0 0.5\n0.5 1.0\n0.1 0.1\n", 5, "not square"),
            ("1.0 0.5\n\n0.5 0.5\n", 5, "diagonal entry for rs2 is 0.5"),
            ("1.0 1.5\n1.5 1.0\n", 3, r"LD entry for rs1 and rs2 is 1.5, outside \[-1, 1\]"),
            ("1.0 -0.5\n\n-1.0000001 1.0\n", 5, r"LD entry for rs2 and rs1 is -1.0000001, outside"),
        ],
    )
    def test_bad_ld_body_names_its_line(self, tmp_path, fixture_paths, body, line, message):
        bad = tmp_path / "ld.txt"
        bad.write_text("\nrs1 rs2\n" + body)
        eqtl_path, gwas_path, _ = fixture_paths
        with pytest.raises(SummaryFormatError, match=message) as caught:
            loci.load_summaries(eqtl_path, gwas_path, str(bad))
        assert caught.value.line == line

    @pytest.mark.parametrize("kind", ["eqtl", "gwas", "ld"])
    def test_file_that_is_not_utf8_rejected(self, tmp_path, fixture_paths, kind):
        paths = dict(zip(("eqtl", "gwas", "ld"), fixture_paths))
        paths[kind] = str(tmp_path / "gzipped")
        (tmp_path / "gzipped").write_bytes(b"\x1f\x8b\x08\x00rs1\n")
        with pytest.raises(SummaryFormatError, match="not UTF-8"):
            loci.load_summaries(paths["eqtl"], paths["gwas"], paths["ld"])

    def test_field_over_the_csv_limit_rejected(self, tmp_path, fixture_paths):
        bad = tmp_path / "eqtl.tsv"
        bad.write_text("snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n" + "x" * 200_000 + "\n")
        _, gwas_path, ld_path = fixture_paths
        with pytest.raises(SummaryFormatError, match="field limit.*:2"):
            loci.load_summaries(str(bad), gwas_path, ld_path)

    def test_quote_is_data_and_errors_name_their_physical_line(self, tmp_path, fixture_paths):
        # a csv-quoting reader joins lines 3 and 4 into one record whose gene
        # holds a tab and a newline, and then reports line 6 as line 5
        rows = [
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr",
            "rs600\t6\t100\tG0\tT\t0.2\t0.01\t0.3\t0.001",
            'rs601\t6\t200\t"G1\tT\t0.2\t0.01\t0.3\t0.001',
            'rs602\t6\t300\tG2"\tT\t0.2\t0.01\t0.3\t0.001',
            "rs603\t6\t400\tG3\tT\t0.2\t0.01\t0.3\t0.001",
        ]
        _, gwas_path, ld_path = fixture_paths
        good = tmp_path / "good.tsv"
        good.write_text("\n".join(rows) + "\n")
        eqtls, _, _, _ = loci.load_summaries(str(good), gwas_path, ld_path)
        assert [r.gene for r in eqtls] == ["G0", '"G1', 'G2"', "G3"]
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(rows + ["rs604\t6\t500\tG4\tT\toops\t0.01\t0.3\t0.001"]) + "\n")
        with pytest.raises(SummaryFormatError, match="column 'beta'") as caught:
            loci.load_summaries(str(bad), gwas_path, ld_path)
        assert caught.value.line == 6

    @pytest.mark.parametrize("column, value", [("beta", "nan"), ("se", "inf"), ("maf", "-inf")])
    def test_non_finite_eqtl_value_rejected(self, tmp_path, fixture_paths, column, value):
        row = dict(snp="rs1", chrom="1", pos="100", gene="G", tissue="T", beta="0.2", se="0.01", maf="0.3", fdr="0.001")
        row[column] = value
        bad = tmp_path / "eqtl.tsv"
        bad.write_text("\t".join(row) + "\n" + "\t".join(row.values()) + "\n")
        _, gwas_path, ld_path = fixture_paths
        with pytest.raises(SummaryFormatError, match=f"column '{column}'.*:2"):
            loci.load_summaries(str(bad), gwas_path, ld_path)

    @pytest.mark.parametrize("column, value", [("beta", "inf"), ("se", "NaN")])
    def test_non_finite_gwas_value_rejected(self, tmp_path, fixture_paths, column, value):
        row = dict(snp="rs1", chrom="1", pos="100", beta="0.2", se="0.01", pval="1e-9", n="1000")
        row[column] = value
        bad = tmp_path / "gwas.tsv"
        bad.write_text("\t".join(row) + "\n" + "\t".join(row.values()) + "\n")
        eqtl_path, _, ld_path = fixture_paths
        with pytest.raises(SummaryFormatError, match=f"column '{column}'.*:2"):
            loci.load_summaries(eqtl_path, str(bad), ld_path)

    def test_missing_ld_snp_warns(self, tmp_path, fixture_paths):
        eqtl = tmp_path / "eqtl.tsv"
        eqtl.write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            "rs_unknown\t1\t100\tG\tT\t0.2\t0.01\t0.3\t0.001\n"
        )
        _, gwas_path, ld_path = fixture_paths
        _, _, _, warnings = loci.load_summaries(str(eqtl), gwas_path, ld_path)
        assert any("missing from LD" in w for w in warnings)


class TestBuildLoci:
    def test_three_disjoint_loci(self, built):
        assert [loc.chrom for loc in built] == ["15", "19", "6"]

    def test_chr6_geometry(self, built, loaded):
        eqtls, _, ld, _ = loaded
        locus = [l for l in built if l.chrom == "6"][0]
        assert len(locus.member_snps) == 12
        reasons = sorted(p[1] for p in locus.pruned)
        assert reasons == ["near_duplicate", "perfect_ld_with_lead", "perfect_ld_with_lead"]
        sub = ld.submatrix(locus.member_snps)
        r2 = sub[np.triu_indices_from(sub, k=1)] ** 2
        assert r2.min() == pytest.approx(0.17, abs=0.005)
        assert r2.max() == pytest.approx(0.86, abs=0.005)
        assert locus.genes_by_tissue["MAM"] == (
            "GFOD1",
            "PHACTR1",
            "RP1_257A7_4",
            "RP1_257A7_5",
            "TBC1D7",
        )
        assert loci.verify_closure(locus)

    def test_lead_is_most_significant(self, built, loaded):
        _, gwas, _, _ = loaded
        for locus in built:
            member_ps = [gwas[s].pval for s in locus.collected_snps]
            assert gwas[locus.lead_snp].pval == min(member_ps)

    def test_single_snp_singleton_locus(self, tmp_path):
        eqtl = tmp_path / "eqtl.tsv"
        eqtl.write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            "rs1\t1\t100\tGENE1\tLIV\t0.4\t0.01\t0.3\t0.001\n"
        )
        gwas = tmp_path / "gwas.tsv"
        gwas.write_text(
            "snp\tchrom\tpos\tbeta\tse\tpval\tn\n"
            "rs1\t1\t100\t0.08\t0.004\t1e-12\t10000\n"
        )
        ld = tmp_path / "ld.txt"
        ld.write_text("rs1\n1.0\n")
        records, gwas_map, ld_data, _ = loci.load_summaries(str(eqtl), str(gwas), str(ld))
        built = loci.build_loci(records, gwas_map, ld_data)
        assert len(built) == 1
        assert built[0].member_snps == ("rs1",)
        assert built[0].genes_by_tissue == {"LIV": ("GENE1",)}

    def test_radius_separates_same_chromosome(self, tmp_path):
        eqtl_rows = [
            "rs1\t1\t1000000\tGENE1\tLIV\t0.4\t0.01\t0.3\t0.001",
            "rs2\t1\t2000000\tGENE2\tLIV\t0.4\t0.01\t0.3\t0.001",
        ]
        (tmp_path / "eqtl.tsv").write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            + "\n".join(eqtl_rows)
            + "\n"
        )
        (tmp_path / "gwas.tsv").write_text(
            "snp\tchrom\tpos\tbeta\tse\tpval\tn\n"
            "rs1\t1\t1000000\t0.08\t0.004\t1e-12\t10000\n"
            "rs2\t1\t2000000\t0.07\t0.004\t2e-12\t10000\n"
        )
        (tmp_path / "ld.txt").write_text("rs1 rs2\n1.0 0.0\n0.0 1.0\n")
        records, gwas_map, ld_data, _ = loci.load_summaries(
            str(tmp_path / "eqtl.tsv"), str(tmp_path / "gwas.tsv"), str(tmp_path / "ld.txt")
        )
        built = loci.build_loci(records, gwas_map, ld_data)
        assert len(built) == 2

    def test_partition_accounts_for_every_candidate(self, built, loaded):
        eqtls, gwas, ld, _ = loaded
        candidates = {
            r.snp
            for r in eqtls
            if r.fdr < 0.05 and r.snp in gwas and gwas[r.snp].pval < 5e-8 and r.snp in ld
        }
        assigned = set()
        for locus in built:
            assert not (set(locus.collected_snps) & assigned)
            assigned |= set(locus.collected_snps)
        assert assigned == candidates


class TestLocusRows:
    def test_rows_are_the_significant_rows_of_the_members(self, built, loaded):
        eqtls = loaded[0]
        for locus in built:
            assert len(locus.eqtls) == len(set(locus.eqtls))
            assert set(locus.eqtls) == full_table_rows(locus, eqtls)
            assert loci.verify_closure(locus)
            assert full_table_closure(locus, eqtls)

    def test_rows_at_or_above_the_fdr_threshold_are_left_out(self, tmp_path):
        (tmp_path / "eqtl.tsv").write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            "rs1\t1\t100\tGENE1\tLIV\t0.4\t0.01\t0.3\t0.001\n"
            "rs1\t1\t100\tGENE2\tLIV\t0.3\t0.01\t0.3\t0.05\n"
            "rs1\t1\t100\tGENE3\tSKLM\t0.2\t0.01\t0.3\t0.2\n"
            "rs1\t1\t100\tGENE4\tLIV\t0.1\t0.01\t0.3\t0.049\n"
        )
        (tmp_path / "gwas.tsv").write_text(
            "snp\tchrom\tpos\tbeta\tse\tpval\tn\n"
            "rs1\t1\t100\t0.08\t0.004\t1e-12\t10000\n"
        )
        (tmp_path / "ld.txt").write_text("rs1\n1.0\n")
        records, gwas_map, ld_data, _ = loci.load_summaries(
            str(tmp_path / "eqtl.tsv"), str(tmp_path / "gwas.tsv"), str(tmp_path / "ld.txt")
        )
        (locus,) = loci.build_loci(records, gwas_map, ld_data)
        assert [(r.gene, r.tissue) for r in locus.eqtls] == [("GENE1", "LIV"), ("GENE4", "LIV")]
        assert set(locus.eqtls) == full_table_rows(locus, records)
        assert locus.genes_by_tissue == {"LIV": ("GENE1", "GENE4")}

    def test_closure_fails_when_a_gene_is_missing(self, built, loaded):
        eqtls = loaded[0]
        locus = [l for l in built if l.chrom == "6"][0]
        genes = locus.genes_by_tissue["MAM"]
        broken = dataclasses.replace(
            locus, genes_by_tissue={**locus.genes_by_tissue, "MAM": genes[1:]}
        )
        assert not loci.verify_closure(broken)
        assert not full_table_closure(broken, eqtls)


class TestAnalyzeLocus:
    def test_phactr1_like_locus(self, built, loaded):
        eqtls, gwas, ld, _ = loaded
        locus = [l for l in built if l.chrom == "6"][0]
        calls, diagnostics, verdict = loci.analyze_locus(locus, "MAM", gwas, ld)
        assert verdict in ("ok", "warn")
        effects = {c.gene: c.effect for c in calls}
        assert effects["PHACTR1"] == pytest.approx(0.19, abs=1e-6)
        assert all(abs(v) < 0.1 for g, v in effects.items() if g != "PHACTR1")
        causal = [c.gene for c in calls if c.causal]
        assert causal == ["PHACTR1"]

    def test_adamts7_like_locus(self, built, loaded):
        eqtls, gwas, ld, _ = loaded
        locus = [l for l in built if l.chrom == "15"][0]
        calls, _, verdict = loci.analyze_locus(locus, "AOR", gwas, ld)
        effects = {c.gene: c.effect for c in calls}
        assert effects["ADAMTS7"] == pytest.approx(0.18, abs=1e-6)
        assert effects["CTSH"] == pytest.approx(0.025, abs=1e-6)
        flags = {c.gene: c.causal for c in calls}
        assert flags == {"ADAMTS7": True, "CTSH": False}

    def test_rank_deficient_non_identifiable(self, tmp_path):
        # two genes with proportional instrument signatures
        rows = []
        for snp, pos, b in (("rs1", 100, 0.4), ("rs2", 4100, 0.2)):
            rows.append(f"{snp}\t1\t{pos}\tGENE1\tLIV\t{b}\t0.01\t0.3\t0.001")
            rows.append(f"{snp}\t1\t{pos}\tGENE2\tLIV\t{2 * b}\t0.01\t0.3\t0.001")
        (tmp_path / "eqtl.tsv").write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n" + "\n".join(rows) + "\n"
        )
        (tmp_path / "gwas.tsv").write_text(
            "snp\tchrom\tpos\tbeta\tse\tpval\tn\n"
            "rs1\t1\t100\t0.08\t0.004\t1e-12\t10000\n"
            "rs2\t1\t4100\t0.04\t0.004\t2e-10\t10000\n"
        )
        (tmp_path / "ld.txt").write_text("rs1 rs2\n1.0 0.4\n0.4 1.0\n")
        records, gwas_map, ld_data, _ = loci.load_summaries(
            str(tmp_path / "eqtl.tsv"), str(tmp_path / "gwas.tsv"), str(tmp_path / "ld.txt")
        )
        built = loci.build_loci(records, gwas_map, ld_data)
        calls, diagnostics, verdict = loci.analyze_locus(
            built[0], "LIV", gwas_map, ld_data
        )
        assert verdict == "non_identifiable"
        assert calls == []

    def test_more_instruments_than_genes_is_ok(self, built, loaded):
        _, gwas, ld, _ = loaded
        locus = [l for l in built if l.chrom == "19"][0]
        assert len(locus.instruments_by_tissue["LIV"]) > len(locus.genes_by_tissue["LIV"])
        _, _, verdict = loci.analyze_locus(locus, "LIV", gwas, ld)
        assert verdict == "ok"

    def test_more_genes_than_instruments_flagged(self, built, loaded):
        _, gwas, ld, _ = loaded
        locus = [l for l in built if l.chrom == "19"][0]
        liv = [r for r in locus.eqtls if r.tissue == "LIV"]
        extra = tuple(
            r._replace(gene=gene, beta=0.5 * r.beta)
            for gene, r in (("GENE_X", liv[0]), ("GENE_Y", liv[-1]))
        )
        crowded = dataclasses.replace(
            locus,
            eqtls=locus.eqtls + extra,
            genes_by_tissue={**locus.genes_by_tissue, "LIV": locus.genes_by_tissue["LIV"] + ("GENE_X", "GENE_Y")},
        )
        calls, diagnostics, verdict = loci.analyze_locus(crowded, "LIV", gwas, ld)
        assert (calls, diagnostics, verdict) == (
            [],
            {"n_instruments": 3, "n_exposures": 4},
            "non_identifiable",
        )

    def test_tissue_without_genes_is_no_data(self, built, loaded):
        _, gwas, ld, _ = loaded
        assert "SIM" not in built[0].genes_by_tissue
        assert loci.analyze_locus(built[0], "SIM", gwas, ld) == ([], {}, "no_data")

    def test_every_fixture_tissue_reads_as_its_own_design(self, built, loaded):
        _, gwas, ld, _ = loaded
        config = loci.PipelineConfig()
        for locus in built:
            for tissue in locus.tissues():
                exposures = [(g, tissue) for g in locus.genes_by_tissue[tissue]]
                result = loci.analyze_locus(locus, tissue, gwas, ld, config)
                assert result == single_analysis(locus, exposures, gwas, ld, config), (locus.locus_id, tissue)
                assert result[2] == "ok", (locus.locus_id, tissue)

    def test_multi_tissue_locus_reads_tissue_by_tissue(self, built, loaded):
        _, gwas, ld, _ = loaded
        locus = [l for l in built if l.chrom == "19"][0]
        causal = {}
        for tissue in locus.tissues():
            calls, _, verdict = loci.analyze_locus(locus, tissue, gwas, ld)
            assert verdict == "ok"
            causal.update({(c.gene, c.tissue): c.causal for c in calls})
        assert causal == {
            ("RGL3", "LIV"): True,
            ("SMARCA4", "LIV"): False,
            ("CARM1", "SF"): False,
            ("CARM1", "SKLM"): True,
        }
        # the fixture's ground truth is the joint design of all four pairs
        pairs = [("CARM1", "SKLM"), ("RGL3", "LIV"), ("CARM1", "SF"), ("SMARCA4", "LIV")]
        joint, _, verdict = single_analysis(locus, pairs, gwas, ld, loci.PipelineConfig())
        assert verdict == "ok"
        assert [c.effect for c in joint] == pytest.approx([0.18, -0.19, -0.02, -0.01], abs=1e-6)

    def test_causal_boundary_is_inclusive(self, built, loaded):
        _, gwas, ld, _ = loaded
        locus = [l for l in built if l.chrom == "15"][0]
        (ctsh,) = [c for c in loci.analyze_locus(locus, "AOR", gwas, ld)[0] if c.gene == "CTSH"]
        at = abs(ctsh.effect)
        for threshold, causal in ((at, True), (np.nextafter(at, np.inf), False)):
            config = loci.PipelineConfig(causal_threshold=threshold)
            calls, _, _ = loci.analyze_locus(locus, "AOR", gwas, ld, config)
            assert {c.gene: c.causal for c in calls}["CTSH"] is causal


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("radius", -1),  # would collect no lead, so build_loci would never end
            ("radius", 1.5),
            ("radius", True),
            ("gwas_p", float("nan")),
            ("nonzero_ld", float("inf")),
            ("perfect_ld_r2", -1.0),
            ("prune_r2", 1.01),
            ("causal_threshold", float("nan")),
            ("bonferroni", float("nan")),
        ],
    )
    def test_out_of_range_setting_raises(self, field, value):
        with pytest.raises(PipelineConfigError, match=field):
            loci.PipelineConfig(**{field: value})

    @pytest.mark.parametrize("value", ["ols", "LS", None])
    def test_unknown_estimator_names_the_choices(self, value):
        """Refused here, not after every file is parsed and every locus built."""
        with pytest.raises(PipelineConfigError, match=r"estimator must be one of \['gmm', 'ls', 'twmr'\]"):
            loci.PipelineConfig(estimator=value)

    def test_range_ends_accepted(self):
        loci.PipelineConfig(radius=0, gwas_p=1.0, perfect_ld_r2=0.0, prune_r2=1.0, bonferroni=0.0, causal_threshold=-1.0)


class TestPipeline:
    def test_deterministic_output_bytes(self, fixture_paths, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        loci.run_pipeline(*fixture_paths, str(out1))
        loci.run_pipeline(*fixture_paths, str(out2))
        for name in sorted(os.listdir(out1)):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name

    def test_golden_calls_file(self, fixture_paths, tmp_path):
        """The fixture trio reproduces the committed golden calls byte for byte."""
        out = tmp_path / "golden"
        loci.run_pipeline(*fixture_paths, str(out))
        golden = os.path.join(os.path.dirname(__file__), "golden", "causal_gene_calls.csv")
        assert (out / "causal_gene_calls.csv").read_bytes() == open(golden, "rb").read()

    def test_report_contents(self, fixture_paths, tmp_path):
        out = tmp_path / "r"
        summary = loci.run_pipeline(*fixture_paths, str(out))
        assert summary["n_loci"] == 3
        report = json.loads((out / "locus_6_12891000.json").read_text())
        assert report["tissues"]["MAM"]["verdict"] in ("ok", "warn")
        assert report["closure_ok"]
        assert "log-odds" in report["effect_scale"]
        csv_text = (out / "causal_gene_calls.csv").read_text().splitlines()
        assert csv_text[0].startswith("locus_id,gene,tissue,effect")
        assert len(csv_text) == 1 + summary["n_calls"]


class TestStackedPipeline:
    """``run_pipeline`` estimates every design of a run as one stack per
    (L, K) shape; each design reads as it does alone, and as its own
    one-design statistics do."""

    @pytest.mark.parametrize("estimator", sorted(estimators.ESTIMATORS))
    def test_every_tissue_reads_as_its_design_alone(self, tmp_path, estimator):
        paths = write_stack_trio(tmp_path)
        config = loci.PipelineConfig(estimator=estimator)
        loci.run_pipeline(*paths, str(tmp_path / "out"), config)
        eqtls, gwas, ld, _ = loci.load_summaries(*paths)
        verdicts, errors = [], {}
        for locus in loci.build_loci(eqtls, gwas, ld, config):
            report = json.loads((tmp_path / "out" / f"locus_{locus.chrom}_{locus.lead_pos}.json").read_text())
            for tissue in locus.tissues():
                calls, diagnostics, verdict = loci.analyze_locus(locus, tissue, gwas, ld, config)
                exposures = [(g, tissue) for g in locus.genes_by_tissue[tissue]]
                assert single_analysis(locus, exposures, gwas, ld, config) == (calls, diagnostics, verdict)
                alone = {
                    "verdict": verdict,
                    "diagnostics": diagnostics,
                    "calls": [
                        {"gene": c.gene, "effect": c.effect, "se": c.se, "p": c.p, "causal": c.causal, "bonferroni": c.bonferroni}
                        for c in calls
                    ],
                }
                written = report["tissues"][tissue]
                assert {key: written[key] for key in alone} == json.loads(dumps(alone)), (locus.locus_id, tissue)
                verdicts.append(verdict)
                if "error" in diagnostics:
                    errors[locus.chrom] = diagnostics["error"]
        assert verdicts == ["ok", "ok", "failed", "non_identifiable", "failed", "ok", "failed"]
        assert errors["2"] == errors["6"] == "sigma_EE must be positive definite within tolerance"
        assert errors["4"].startswith("LD matrix condition number 1.188e+14 exceeds 1e+12")

    def test_one_stack_per_shape(self, tmp_path, monkeypatch):
        built = []
        validate = estimators.SummaryStatistics.__post_init__

        def counting(stats):
            built.append(stats)
            validate(stats)

        monkeypatch.setattr(estimators.SummaryStatistics, "__post_init__", counting)
        summary = loci.run_pipeline(*write_stack_trio(tmp_path), str(tmp_path / "out"))
        assert summary["n_loci"] == 6
        # shapes (3, 2) and (3, 1), and a rebuild after each of the two indefinite LD blocks
        assert len(built) == 2 + 2
        # the leading axis: six (3, 2) designs, less one after each rebuild, and one (3, 1) design
        assert [len(stats.sigma_EX) for stats in built] == [6, 5, 4, 1]

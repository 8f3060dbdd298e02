import importlib.resources as resources
import json
import os
import warnings

import numpy as np
import pytest

from mvmr import cli, graph, simulate
from mvmr.errors import UnderdeterminedError
from mvmr.estimators import ESTIMATORS
from helpers import every_replicate, near_singular_ld_payload, refuse_replicates, rounding_indefinite_ld_payload

SCENARIOS = resources.files("mvmr").joinpath("data", "scenarios")
FIXTURES = resources.files("mvmr").joinpath("data", "fixtures")


def write_scenario(tmp_path, name="fig2_corr_desk.json", **overrides):
    """A bundled scenario with ``overrides`` applied; an override of None
    leaves its key out."""
    payload = json.loads(SCENARIOS.joinpath(name).read_text(encoding="utf-8"))
    payload.update(overrides)
    payload = {key: value for key, value in payload.items() if value is not None}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# the correlation matrix of (1, 0, 0), (.6, .8, 0), (0, .6, .8) and (.48, .64, .6)
RANK3_LD = [[1, 0.6, 0, 0.48], [0.6, 1, 0.48, 0.8], [0, 0.48, 1, 0.864], [0.48, 0.8, 0.864, 1]]


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def standardized_diagram_text(include_cross=True):
    """Unit-variance two-exposure diagram rendered in the text format."""
    edges = {
        ("E1", "X1"): 0.3,
        ("E2", "X2"): 0.25,
        ("X1", "Y"): 0.2,
        ("X2", "Y"): 0.6,
    }
    if include_cross:
        edges[("E1", "X2")] = 0.1
        edges[("E2", "X1")] = 0.15
    bicov = {("E1", "E2"): 0.6}
    diagram = graph.CausalDiagram(
        ["E1", "E2", "X1", "X2", "Y"], list(edges), list(bicov)
    )
    sem = graph.calibrate_unit_variances(diagram, edges, bicov)
    lines = [f"edge {s} -> {t} {float(edges[(s, t)])!r}" for s, t in edges]
    lines += [f"bicov {a} <-> {b} {float(v)!r}" for (a, b), v in bicov.items()]
    lines += [
        f"var {n} {float(sem.error_covariance(diagram, n, n))!r}" for n in diagram.nodes
    ]
    return "\n".join(lines)


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path)
        for out in ("a", "b"):
            code = cli.main(
                [
                    "simulate",
                    "--scenario",
                    scenario,
                    "--seed",
                    "7",
                    "--replicates",
                    "25",
                    "--out",
                    str(tmp_path / out),
                ]
            )
            assert code == 0
        for name in ("replicates.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "flag, expected",
        [(None, ["gmm"]), ("ls,gmm", ["gmm", "ls"]), ("ls", ["ls"]), ("twmr", ["twmr"])],
    )
    def test_explicit_estimators_win_over_the_scenario(self, tmp_path, flag, expected):
        scenario = write_scenario(tmp_path, "fig3_ld_perturb.json")  # lists only gmm
        argv = ["simulate", "--scenario", scenario, "--seed", "3", "--replicates", "2", "--out", str(tmp_path / "out")]
        if flag is not None:
            argv += ["--estimators", flag]
        assert cli.main(argv) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert sorted(summary["cells"][0]["estimators"]) == expected

    def test_estimators_default_to_ls_gmm(self, tmp_path):
        payload = json.loads(SCENARIOS.joinpath("fig2_corr_desk.json").read_text(encoding="utf-8"))
        del payload["estimators"]
        scenario = tmp_path / "no_estimators.json"
        scenario.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--seed", "3", "--replicates", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(sorted(cell["estimators"]) == ["gmm", "ls"] for cell in summary["cells"])

    def test_thread_count_does_not_change_output(self, tmp_path):
        scenario = write_scenario(tmp_path)
        for out, threads in (("t1", "1"), ("t4", "4")):
            cli.main(
                [
                    "simulate",
                    "--scenario",
                    scenario,
                    "--seed",
                    "11",
                    "--replicates",
                    "16",
                    "--threads",
                    threads,
                    "--out",
                    str(tmp_path / out),
                ]
            )
        assert (tmp_path / "t1" / "replicates.csv").read_bytes() == (
            tmp_path / "t4" / "replicates.csv"
        ).read_bytes()

    def test_missing_seed_usage_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True])
    def test_malformed_file_seed_refused_under_seed_flag(self, tmp_path, capsys, seed):
        scenario = write_scenario(tmp_path, seed=seed)
        code = cli.main(["simulate", "--scenario", scenario, "--seed", "1", "--replicates", "2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == f"error: seed must be a non-negative integer, not {seed!r}\n"
        assert not (tmp_path / "x" / "replicates.csv").exists()

    def test_invalid_scenario_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "replicates", "bogus": 1}))
        code = cli.main(["simulate", "--scenario", str(bad), "--seed", "1"])
        assert code == 2
        scenario = write_scenario(tmp_path, instrument_names=["e1", "e2", "e3"])
        code = cli.main(["simulate", "--scenario", scenario, "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "instrument_names" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ld, message",
        [
            ([[1, 0.5], [0.3, 1]], "ld_matrix must be symmetric"),
            ([[1, 1.2], [1.2, 1]], "ld_matrix must be positive definite"),
            ([[1, 0.5], [0.5]], "ld_matrix must be an array of numbers"),
            ([[1, 0.5, 0.2], [0.5, 1, 0.1]], "ld_matrix must be a square matrix"),
            ([[1, "a"], ["a", 1]], "ld_matrix must be an array of numbers"),
            ([[1, float("nan")], [float("nan"), 1]], "ld_matrix contains non-finite entries"),
            ([[2, 0.5], [0.5, 1]], "ld_matrix must have unit diagonal"),
            # four unit vectors in R^3: smallest eigenvalue +1.4e-16, but no Cholesky factor
            (RANK3_LD, "ld_matrix must be positive definite"),
        ],
    )
    def test_gaussian_ld_checked_where_the_scenario_is_built(self, tmp_path, capsys, ld, message):
        scenario = write_scenario(tmp_path, genotypes={"mode": "gaussian", "ld": ld})
        code = cli.main(["simulate", "--scenario", scenario, "--seed", "1", "--replicates", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("key", ["n_samples", "n_outcome"])
    def test_cohort_no_larger_than_the_instrument_count_exit_2(self, tmp_path, capsys, key):
        scenario = write_scenario(tmp_path, **{key: 2})  # fig2_corr_desk has two instruments
        code = cli.main(["simulate", "--scenario", scenario, "--seed", "1", "--replicates", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} 2 must exceed the instrument count 2" in capsys.readouterr().err

    def test_constant_generated_column_exit_4(self, tmp_path, capsys):
        scenario = tmp_path / "constant.json"
        scenario.write_text(
            json.dumps(
                {
                    "kind": "replicates",
                    "true_effects": [0.2, 0.6],
                    "n_samples": 200,
                    "genotypes": {"mode": "markov", "mafs": [0.3, 0.3], "successive_r": [0.5]},
                    "effects": {"matrix": [[0.3, 0.0], [0.2, 0.0]]},
                    "noise_variance": 0.0,
                }
            )
        )
        code = cli.main(["simulate", "--scenario", str(scenario), "--seed", "3", "--replicates", "2", "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err.startswith("numerical failure: degenerate (constant) column")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"genotypes": {}}, "markov genotypes need 'mafs' or 'fixture'"),
            ({"genotypes": {"mode": "markov"}}, "markov genotypes need 'mafs' or 'fixture'"),
            ({"genotypes": {"mode": "gaussian"}}, "gaussian genotypes need 'ld' or 'fixture'"),
            ({"genotypes": [0.3, 0.3]}, "scenario needs a 'genotypes' object"),
            ({"n_samples": None}, "scenario lacks required keys: ['n_samples']"),
            ({"n_samples": "2000"}, "n_samples must be an integer, not '2000'"),
            ({"n_samples": 2000.0}, "n_samples must be an integer, not 2000.0"),
            ({"true_effects": 0.1}, "true_effects must be a list of numbers, not 0.1"),
            ({"true_effects": ["a", 0.6]}, "true_effects must be a list of numbers"),
            ({"replicates": "5"}, "replicates must be an integer, not '5'"),
            (
                {"genotypes": {"mode": "markov", "mafs": [0.3] * 11, "successive_r": [0.5] * 10}},
                "needs 1 to 10 SNPs (MAX_MARKOV_SNPS), got 11",
            ),
            ({"genotypes": {"mode": "pair", "correlation": -0.9}}, "SNP pair 0-1: correlation -0.9 is infeasible"),
            ({"conditional_f": "no"}, "scenario key 'conditional_f' must be true or false, not \"no\""),
            ({"replicates": 0}, "need at least one replicate"),
            ({"estimators": [""]}, "need at least one estimator"),
            ({"estimators": []}, "need at least one estimator"),
            ({"n_samples": []}, "scenario grids must be nonempty: 'n_samples' is []"),
            ({"n_outcome": []}, "scenario grids must be nonempty: 'n_outcome' is []"),
            ({"ld_prune_r2": []}, "scenario grids must be nonempty: 'ld_prune_r2' is []"),
            ({"genotypes": {"mode": "pair", "correlation": []}}, "scenario grids must be nonempty: 'correlation' is []"),
        ],
    )
    def test_malformed_scenario_exit_2(self, tmp_path, capsys, edit, message):
        scenario = write_scenario(tmp_path, **edit)
        code = cli.main(["simulate", "--scenario", scenario, "--seed", "1", "--replicates", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag", [",", " , ", ""])
    def test_empty_estimators_flag_exit_2(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", write_scenario(tmp_path), "--seed", "1", "--replicates", "2", "--estimators", flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: need at least one estimator\n"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["n_samples", "n_outcome"])
    @pytest.mark.parametrize("value, message", [(None, "two_sample scenario lacks required keys"), ([], "two_sample scenario grids must be nonempty")])
    def test_two_sample_scenario_grids(self, tmp_path, capsys, key, value, message):
        scenario = write_scenario(tmp_path, "fig3_two_sample.json", **{key: value})
        code = cli.main(["simulate", "--scenario", scenario, "--seed", "1", "--replicates", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("fig2_strong.json", {"alpha": 0.1}, "unknown replicates scenario keys: ['alpha']"),
            ("fig2_strong.json", {"null_effects": [0.0, 0.6]}, "unknown replicates scenario keys: ['null_effects']"),
            ("fig2_strong.json", {"hidden_effect_grid": [0.1], "pca_repetitions": 5}, "unknown replicates scenario keys: ['hidden_effect_grid', 'pca_repetitions']"),
            ("s9_type1_power.json", {"conditional_f": True}, "unknown type1_power scenario keys: ['conditional_f']"),
            ("fig2_pleiotropy.json", {"conditional_f": True}, "unknown pleiotropy scenario keys: ['conditional_f']"),
            ("fig3_two_sample.json", {"hidden_exposures": [0], "alpha": "x"}, "unknown two_sample scenario keys: ['alpha', 'hidden_exposures']"),
            ("s8_pca.json", {"replicates": 0, "ld_choice": "nope"}, "unknown pca scenario keys: ['ld_choice', 'replicates']"),
            ("s8_pca.json", {"estimators": ["ls"]}, "unknown pca scenario keys: ['estimators']"),
            ("fig2_pleiotropy.json", {"n_samples": [500, 1000]}, "pleiotropy scenario key 'n_samples' may not be a grid: [500, 1000]"),
            ("fig3_two_sample.json", {"ld_prune_r2": [0.5]}, "two_sample scenario key 'ld_prune_r2' may not be a grid: [0.5]"),
            ("s9_type1_power.json", {"genotypes": {"mode": "pair", "correlation": [0.1, 0.5]}}, "type1_power scenario key 'correlation' may not be a grid"),
            ("s8_pca.json", {"correlations": None}, "pca scenario lacks required keys: ['correlations']"),
            ("s9_type1_power.json", {"null_effects": None}, "type1_power scenario lacks required keys: ['null_effects']"),
            ("fig2_pleiotropy.json", {"hidden_exposures": None}, "pleiotropy scenario lacks required keys: ['hidden_exposures']"),
            (
                "fig3_ls_vs_gmm.json",
                {"genotypes": {"mode": "markov", "fixture": "slc22a3_lpa_plg", "mafs": [0.3], "successive_r": [9]}},
                "markov genotypes need 'mafs' or 'fixture', not both",
            ),
            (
                "fig2_strong.json",
                {"genotypes": {"mode": "pair", "correlation": 0.5, "mafs": [0.3, 0.3], "ld": "junk"}},
                "unknown keys for pair genotypes given by 'correlation': ['ld', 'mafs']",
            ),
            ("fig3_ld_perturb.json", {"genotypes": {"mode": "gaussian", "fixture": "mras_esyt3", "successive_r": []}}, "unknown keys for gaussian genotypes given by 'fixture': ['successive_r']"),
        ],
    )
    def test_key_outside_its_table_exit_2(self, tmp_path, capsys, name, edit, message):
        """A key of another kind or genotype mode, a list for a key that may
        not be a grid there and a missing required key are each refused
        before anything is written."""
        out = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", write_scenario(tmp_path, name, **edit), "--seed", "1", "--replicates", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_scenario_file_not_utf8_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "latin1.json"
        scenario.write_bytes(SCENARIOS.joinpath("s8_pca.json").read_bytes().replace(b'"pca"', b'"pca\xff"'))
        code = cli.main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: scenario file {scenario} is not UTF-8 text (invalid start byte)\n"

    def test_deeply_nested_scenario_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "nested.json"
        scenario.write_text("[" * 100_000)
        code = cli.main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and f"{scenario} is nested too deeply" in err

    @pytest.mark.parametrize("listed", ["gmm", [1], {"ls": True}, ["ls", None]])
    def test_scenario_estimators_must_be_a_list_of_names(self, tmp_path, capsys, listed):
        scenario = write_scenario(tmp_path, estimators=listed)
        for extra in ([], ["--estimators", "ls"]):
            argv = ["simulate", "--scenario", scenario, "--seed", "1", "--out", str(tmp_path / "out")]
            code = cli.main(argv + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: scenario key 'estimators' must be a list")
            assert "Traceback" not in err

    def test_file_estimators_checked_under_flag(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, estimators=["ols"])
        for extra in ([], ["--estimators", "ls"]):
            argv = ["simulate", "--scenario", scenario, "--seed", "1", "--replicates", "2", "--out", str(tmp_path / "out")]
            code = cli.main(argv + extra)
            assert code == 2
            assert capsys.readouterr().err.startswith("error: unknown estimator 'ols'")

    @pytest.mark.parametrize("name", ["s9_type1_power.json", "s8_pca.json", "fig2_corr_desk.json"])
    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_replicates_flag_below_one_exit_2(self, tmp_path, capsys, name, replicates):
        """``--replicates`` is checked alike for every kind; pca reads it as
        its repetition count."""
        out = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", str(SCENARIOS.joinpath(name)), "--seed", "1", "--replicates", replicates, "--out", str(out)])
        err = capsys.readouterr().err
        message = "'pca_repetitions' must be a positive integer" if name == "s8_pca.json" else "need at least one replicate"
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_failed_replicate_rows_read_nan(self, tmp_path, monkeypatch):
        """A replicate whose estimator failed writes ``nan`` for its
        estimate, standard error and p-value, on every exposure's row."""
        fails_on_some_replicates = refuse_replicates(
            ESTIMATORS["gmm"],
            lambda stats: np.flatnonzero((stats.sigma_EY[:, 0] * 1e6).astype(int) % 2).tolist(),  # reads the replicates' data, not the call order
            lambda stats, i: UnderdeterminedError("forced failure"),
        )
        monkeypatch.setitem(ESTIMATORS, "gmm", fails_on_some_replicates)
        scenario = write_scenario(tmp_path)
        argv = ["simulate", "--scenario", scenario, "--seed", "4", "--replicates", "8", "--estimators", "ls,gmm"]
        assert cli.main(argv + ["--max-failure-rate", "1", "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "replicates.csv").read_bytes().decode("ascii").splitlines()
        assert lines[0] == "correlation,replicate,estimator,exposure,true_effect,estimate,se,p_value"
        rows = [line.split(",") for line in lines[1:]]
        failed = {(r[0], r[1]) for r in rows if r[2] == "gmm" and r[5] == "nan"}
        assert 0 < len(failed) < 16
        for r in rows:
            if r[2] == "gmm" and (r[0], r[1]) in failed:
                assert r[5:] == ["nan", "nan", "nan"]
            else:
                assert "nan" not in r
        for cell in json.loads((tmp_path / "out" / "summary.json").read_text())["cells"]:
            failed_here = sum(c == str(cell["labels"]["correlation"]) for c, _ in failed)
            assert cell["estimators"]["gmm"]["failure_rate"] == failed_here / 8

    def test_type1_power_failures_capped_as_every_kind(self, tmp_path, capsys):
        """A type1_power run writes one summary cell per scenario, prints one
        line per estimator per cell and exits 4 when a cell's failure rate
        exceeds the cap; here two near-perfectly linked instruments fail
        7 of the 12 null replicates."""
        scenario = tmp_path / "type1.json"
        scenario.write_text(json.dumps({
            "kind": "type1_power", "true_effects": [0.2], "null_effects": [0.0], "n_samples": 200,
            "genotypes": {"mode": "gaussian_pair", "correlation": 0.999999999998},
            "effects": {"low": 0.2, "high": 0.4}, "replicates": 12, "estimators": ["ls", "gmm"],
        }))
        for cap, expected in (("0", 4), ("1", 0)):
            out = tmp_path / f"cap{cap}"
            argv = ["simulate", "--scenario", str(scenario), "--seed", "11", "--max-failure-rate", cap, "--out", str(out)]
            assert cli.main(argv) == expected
            captured = capsys.readouterr()
            lines = captured.out.splitlines()
            assert [line.split(" {")[0] for line in lines] == ["ls", "gmm", "ls", "gmm"]
            assert ("failure rate 0.583 exceeds cap 0.0" in captured.err) == (cap == "0")
            summary = json.loads((out / "summary.json").read_text())
            assert [cell["labels"] for cell in summary["cells"]] == [{"scenario": "null"}, {"scenario": "alternative"}]
            null = summary["cells"][0]["estimators"]
            assert null["ls"]["failure_rate"] == null["gmm"]["failure_rate"] == 7 / 12
            assert {"alpha", "tested_exposure", "rates", "seed"} < set(summary)

    # a 3-SNP Markov scenario with two exposures; each edit below once ended
    # in a traceback, ran on a wrong reading of the file, or ran every
    # replicate before failing
    MARKOV_3SNP = {
        "true_effects": [0.2, 0.6],
        "n_samples": 500,
        "genotypes": {"mode": "markov", "mafs": [0.3, 0.3, 0.3], "successive_r": [0.4, 0.4]},
        "effects": {"low": 0.1, "high": 0.3},
        "seed": 1,
    }
    # what makes MARKOV_3SNP a pleiotropy file, for the keys only that kind reads
    PLEIOTROPY = {"kind": "pleiotropy", "hidden_exposures": [0], "hidden_effect_grid": [0.0]}

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"instrument_subset": [0, 9]}, "instrument_subset entries must lie in [0, 3), got [0, 9]"),
            ({"instrument_subset": [0, 1, -1]}, "instrument_subset entries must lie in [0, 3), got [0, 1, -1]"),
            ({"instrument_subset": [True, 2]}, "instrument_subset must be a list of integer indices"),
            ({"instrument_subset": [0, 0, 1]}, "instrument_subset repeats an index: [0, 0, 1]"),
            ({"instrument_subset": [1]}, "instrument_subset needs at least one instrument per exposure, got [1]"),
            ({"instrument_subset": 1}, "instrument_subset must be a list of integer indices"),
            ({"causal_instruments": [0, 7]}, "causal_instruments entries must lie in [0, 3), got [0, 7]"),
            ({"causal_instruments": [0.5, 1]}, "causal_instruments must be a list of integer indices"),
            ({"causal_instruments": [True, 2]}, "causal_instruments must be a list of integer indices"),
            ({"causal_instruments": [[0, 1], [2, 5]]}, "causal_instruments[1] entries must lie in [0, 3)"),
            ({"causal_instruments": [[0, 1], 2]}, "causal_instruments must be a list of integer indices"),
            ({"causal_instruments": [[0, 1]]}, "need one causal-instrument list per exposure"),
            ({**PLEIOTROPY, "hidden_exposures": [2]}, "hidden_exposures entries must lie in [0, 2), got [2]"),
            ({**PLEIOTROPY, "hidden_exposures": [[0]]}, "hidden_exposures must be a list of integer indices"),
        ],
    )
    def test_scenario_indices_checked_when_built(self, tmp_path, capsys, edit, message):
        self.assert_refused(tmp_path, capsys, edit, message)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"noise_variance": "a"}, "noise variance must be a finite number >= 0, not 'a'"),
            ({"seed": "x"}, "seed must be a non-negative integer, not 'x'"),
            ({"seed": -1}, "seed must be a non-negative integer, not -1"),
            ({"effects": {"low": 0.5, "high": 0.1}}, "effects low 0.5 must not exceed high 0.1"),
            ({"effects": {"det_min": "x"}}, "effects det_min must be a finite number, not 'x'"),
            ({"effects": {"matrix": [0.1, 0.2]}}, "effects matrix must be a finite instruments x exposures matrix"),
            ({"effects": [0.1]}, "scenario 'effects' must be an object"),
            ({"true_effects": [float("nan"), 0.1]}, "true_effects must be a list of numbers, not [nan, 0.1]"),
            ({"exposure_names": ["A"]}, "exposure_names must be a list of 2 strings, one per exposure"),
            ({**PLEIOTROPY, "hidden_effect_grid": ["a"]}, "hidden_effect_grid must be a list of numbers"),
            ({"ld_prune_r2": "x"}, "ld_prune_r2 must be a number, not 'x'"),
            ({"genotypes": {"mode": ["markov"]}}, "unknown genotype mode ['markov']"),
            ({"genotypes": {"fixture": "../scenarios/fig2_corr"}}, "no bundled fixture named '../scenarios/fig2_corr'"),
            ({"kind": "type1_power", "null_effects": [0.0, 0.6], "alpha": "x"}, "alpha must be a number in (0, 1], not 'x'"),
            ({"kind": "two_sample", "n_outcome": None}, "two_sample scenario key 'n_outcome' must hold sample sizes, not null"),
            ({"kind": "two_sample", "n_outcome": [1000, None]}, "two_sample scenario key 'n_outcome' must hold sample sizes, not null"),
        ],
    )
    def test_scenario_scalars_checked_when_built(self, tmp_path, capsys, edit, message):
        self.assert_refused(tmp_path, capsys, edit, message)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"correlations": ["x"]}, "correlation must lie strictly inside (-1, 1), got 'x'"),
            ({"correlations": [0.5], "pca_repetitions": "x"}, "'pca_repetitions' must be a positive integer"),
        ],
    )
    def test_pca_scalars_checked_when_read(self, tmp_path, capsys, edit, message):
        self.assert_refused(tmp_path, capsys, edit, message, base={"kind": "pca", "seed": 1})

    def assert_refused(self, tmp_path, capsys, edit, message, base=MARKOV_3SNP):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**base, **edit}))
        code = cli.main(["simulate", "--scenario", str(scenario), "--replicates", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    def test_fig2_layout_columns(self, tmp_path):
        scenario = write_scenario(tmp_path, name="fig2_corr.json")
        code = cli.main(
            [
                "simulate",
                "--scenario",
                scenario,
                "--seed",
                "3",
                "--replicates",
                "4",
                "--out",
                str(tmp_path / "fig2"),
            ]
        )
        assert code == 0
        header = (tmp_path / "fig2" / "replicates.csv").read_text().splitlines()[0]
        for column in ("correlation", "n_samples", "estimate", "exposure"):
            assert column in header.split(",")


    def test_pleiotropy_failures_trip_failure_cap(self, tmp_path, monkeypatch, capsys):
        underdetermined = refuse_replicates(ESTIMATORS["ls"], every_replicate, lambda stats, i: UnderdeterminedError("forced failure"))
        monkeypatch.setitem(ESTIMATORS, "ls", underdetermined)
        scenario = write_scenario(
            tmp_path, "fig2_pleiotropy.json", hidden_effect_grid=[0.0], n_samples=500
        )
        code = cli.main(
            [
                "simulate",
                "--scenario",
                scenario,
                "--seed",
                "5",
                "--replicates",
                "3",
                "--max-failure-rate",
                "0.5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 4
        assert "failure rate 1.000 exceeds cap 0.5" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        rates = [cell["estimators"]["ls"]["failure_rate"] for cell in summary["cells"]]
        assert rates == [1.0, 1.0]

    @pytest.mark.parametrize("cap", ["nan", "inf", "-0.1", "1.5"])
    @pytest.mark.parametrize("command", ["simulate", "figures"])
    def test_failure_cap_outside_unit_interval_exit_2(self, tmp_path, capsys, command, cap):
        """A cap that is not a finite number in [0, 1] would switch the
        failure check off (NaN) or make it meaningless: refused before any
        replicate is drawn."""
        source = ["--scenario", write_scenario(tmp_path)] if command == "simulate" else ["--only", "fig2_corr_desk"]
        out = tmp_path / "out"
        code = cli.main([command, *source, "--seed", "11", "--replicates", "2", "--max-failure-rate", cap, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --max-failure-rate must be a finite number in [0, 1]")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(out.rglob("replicates.csv"))

    def test_all_failed_cell_writes_strict_json(self, tmp_path, monkeypatch, capsys):
        def no_conditional_f(individual):
            values, _ = conditional_f(individual)
            return np.full_like(values, np.nan), {i: UnderdeterminedError("forced failure") for i in range(len(values))}

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        conditional_f = simulate.conditional_f
        monkeypatch.setitem(ESTIMATORS, "ls", refuse_replicates(ESTIMATORS["ls"], every_replicate, lambda stats, i: UnderdeterminedError("forced failure")))
        monkeypatch.setattr(simulate, "conditional_f", no_conditional_f)
        scenario = write_scenario(tmp_path, conditional_f=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                [
                    "simulate",
                    "--scenario",
                    scenario,
                    "--seed",
                    "5",
                    "--replicates",
                    "3",
                    "--max-failure-rate",
                    "1",
                    "--out",
                    str(tmp_path / "out"),
                ]
            )
        assert code == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        text = (tmp_path / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        for cell in summary["cells"]:
            block = cell["estimators"]["ls"]
            assert block["failure_rate"] == 1.0
            assert block["mean"] == block["sd"] == block["bias"] == [None, None]
            assert cell["median_conditional_f"] == [None, None]
        assert "ls {'correlation': 0.1}: bias [+nan, +nan]" in capsys.readouterr().out


class TestEstimateCommand:
    def test_identity_toy(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(
            json.dumps(
                {
                    "sigma_EX": [[1.0, 0.0], [0.0, 1.0]],
                    "sigma_EY": [0.2, 0.6],
                    "sigma_EE": [[1.0, 0.0], [0.0, 1.0]],
                    "n_outcome": 10000,
                }
            )
        )
        code = cli.main(["estimate", "--stats", str(stats), "--estimators", "ls"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimates"]["ls"]["effects"] == pytest.approx([0.2, 0.6])

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{}", "lacks required keys: ['sigma_EX', 'sigma_EY', 'sigma_EE']"),
            (
                json.dumps({"sigma_EX": [[1.0]], "sigma_EY": [0.2], "n_outcome": 100}),
                "lacks required keys: ['sigma_EE']",
            ),
            ("null", "must hold a JSON object, not null"),
            ("[]", "must hold a JSON object, not an array"),
            *(
                (
                    json.dumps({"sigma_EX": [[1.0]], "sigma_EY": [0.2], "sigma_EE": [[1.0]], key: value}),
                    message,
                )
                for key, value, message in (
                    ("exposure_names", 5, "'exposure_names' must be null or a list of strings, not 5"),
                    ("exposure_names", "a", "'exposure_names' must be null or a list of strings"),
                    ("exposure_names", ["a", 1], "'exposure_names' must be null or a list of strings"),
                    ("exposure_names", ["a", "b"], "'exposure_names' has 2 entries for 1 exposures"),
                    ("exposure_names", [], "'exposure_names' has 0 entries for 1 exposures"),
                    ("instrument_names", ["e1", "e2"], "'instrument_names' has 2 entries for 1 instruments"),
                    ("instrument_names", {"e1": 1}, "'instrument_names' must be null or a list of strings"),
                    ("n_outcome", "100", "'n_outcome' must be null or a positive integer, not \"100\""),
                    ("n_outcome", True, "'n_outcome' must be null or a positive integer, not true"),
                    ("n_outcome", 100.0, "'n_outcome' must be null or a positive integer"),
                    ("n_outcome", 0, "'n_outcome' must be null or a positive integer"),
                    ("n_exposure", -5, "'n_exposure' must be null or a positive integer"),
                    ("n_exposure", [100], "'n_exposure' must be null or a positive integer"),
                    ("sigma_EX", {"a": 1}, "'sigma_EX' must hold numbers or arrays of numbers, not {\"a\": 1}"),
                    ("sigma_EX", [[True]], "'sigma_EX' must hold numbers or arrays of numbers, not true"),
                    ("sigma_EY", [False], "'sigma_EY' must hold numbers or arrays of numbers, not false"),
                    ("sigma_EY", ["0.2"], "'sigma_EY' must hold numbers or arrays of numbers, not \"0.2\""),
                    ("sigma_EE", [[None]], "'sigma_EE' must hold numbers or arrays of numbers, not null"),
                    ("sigma_EE", [[1.0], [1.0, 0.0]], "sigma_EE must be an array of numbers"),
                    ("sigma_EE", [[10**400]], "sigma_EE must be an array of numbers"),
                    ("sigma_EX", [[[1.0]]], "sigma_EX must be an instruments x exposures matrix"),
                )
            ),
        ],
    )
    def test_malformed_stats_file_exit_2(self, tmp_path, capsys, content, message):
        stats = tmp_path / "stats.json"
        stats.write_text(content)
        code = cli.main(["estimate", "--stats", str(stats)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[" * 100_000, "nested.json is nested too deeply"),
            # parses, but deeper than a recursive walk of the lists could go
            ('{"sigma_EX": ' + "[" * 500 + "1" + "]" * 500 + ', "sigma_EY": [1], "sigma_EE": [[1]]}', "sigma_EX must be an array of numbers"),
        ],
        ids=["past_the_parser", "past_a_recursive_walk"],
    )
    def test_deeply_nested_stats_file_exit_2(self, tmp_path, capsys, content, message):
        stats = tmp_path / "nested.json"
        stats.write_text(content)
        code = cli.main(["estimate", "--stats", str(stats)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    def test_diagram_population_exact_recovery(self, tmp_path, capsys):
        text = standardized_diagram_text()
        path = tmp_path / "diagram.txt"
        path.write_text(text)
        code = cli.main(
            [
                "estimate",
                "--diagram",
                str(path),
                "--instruments",
                "E1,E2",
                "--exposures",
                "X1,X2",
                "--outcome",
                "Y",
                "--estimators",
                "ls",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instrumental_set"]["satisfied"]
        assert payload["estimates"]["ls"]["effects"] == pytest.approx(
            [0.2, 0.6], abs=1e-9
        )

    def test_non_identifiable_diagram_exit_3(self, tmp_path, capsys):
        text = "\n".join(
            [
                "edge E1 -> X1 0.3",
                "edge E1 -> X2 0.25",
                "edge X1 -> Y 0.2",
                "edge X2 -> Y 0.6",
                "bicov E1 <-> E2 0.6",
            ]
        )
        path = tmp_path / "diagram.txt"
        path.write_text(text)
        code = cli.main(
            [
                "estimate",
                "--diagram",
                str(path),
                "--instruments",
                "E1,E2",
                "--exposures",
                "X1,X2",
                "--outcome",
                "Y",
                "--estimators",
                "ls",
            ]
        )
        assert code == 3
        assert "non-identifiable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, instruments, exposures, message",
        [
            (  # E -> X -> Y with 19 children of Y: 22 nodes
                ["edge E -> X 0.5", "edge X -> Y 0.3", *(f"edge Y -> C{i} 0.1" for i in range(19))],
                "E",
                "X",
                "diagram has 22 nodes, exceeding the path enumeration cap MAX_PATH_NODES = 20",
            ),
            (  # nine exposures, each with its own instrument: 19 nodes
                [line for k in range(1, 10) for line in (f"edge E{k} -> X{k} 0.5", f"edge X{k} -> Y 0.1")],
                ",".join(f"E{k}" for k in range(1, 10)),
                ",".join(f"X{k}" for k in range(1, 10)),
                "instrumental-set search over 9! orderings not supported (at most 8 instruments)",
            ),
        ],
    )
    def test_unchecked_instrumental_set_still_estimates(self, tmp_path, capsys, lines, instruments, exposures, message):
        path = tmp_path / "diagram.txt"
        path.write_text("".join(line + "\n" for line in lines))
        argv = ["estimate", "--diagram", str(path), "--instruments", instruments, "--exposures", exposures, "--outcome", "Y"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        check = payload["instrumental_set"]
        assert check["satisfied"] is None and check["failed_condition"] is None
        assert check["detail"].startswith("not checked: ") and message in check["detail"]
        for name in ("ls", "gmm"):
            effects = payload["estimates"][name]["effects"]
            assert len(effects) == len(exposures.split(",")) and np.all(np.isfinite(effects))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_diagram_value_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "diagram.txt"
        path.write_text(f"edge E -> X {value}\nedge X -> Y 0.3\n")
        argv = ["estimate", "--diagram", str(path), "--instruments", "E", "--exposures", "X", "--outcome", "Y"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 1: non-finite value '{value}'\n"
        assert captured.out == ""

    def test_requires_input_source(self, capsys):
        assert cli.main(["estimate"]) == 2

    def test_rank_deficient_stats_print_strict_json(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(
            json.dumps(
                {
                    "sigma_EX": [[0.3, 0.0], [0.2, 0.0]],
                    "sigma_EY": [0.1, 0.05],
                    "sigma_EE": [[1, 0.2], [0.2, 1]],
                    "n_outcome": 1000,
                }
            )
        )
        code = cli.main(["estimate", "--stats", str(stats)])
        assert code == 3
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert payload["diagnostics"]["condition_EX"] is None


    @pytest.mark.parametrize(
        "payload, exit_code, message",
        [
            (  # rank-deficient design: non-identifiable
                {"sigma_EX": [[0.3, 0.0], [0.2, 0.0]], "sigma_EY": [0.1, 0.05], "sigma_EE": [[1.0, 0.2], [0.2, 1.0]], "n_outcome": 1000},
                3,
                "non-identifiable",
            ),
            (  # near-singular LD: numerical failure
                {"sigma_EX": [[0.3], [0.2]], "sigma_EY": [0.06, 0.04], "sigma_EE": [[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]], "n_outcome": 1000},
                4,
                "numerical failure",
            ),
            (  # full rank, but the weighted moment matrix underflows to zero: non-identifiable
                {"sigma_EX": [[1e-170, 0.0], [0.0, 1e-170]], "sigma_EY": [0.1, 0.2], "sigma_EE": [[1.0, 0.0], [0.0, 1.0]], "n_outcome": 100},
                3,
                "non-identifiable: weighted moment matrix is singular",
            ),
        ],
    )
    def test_failure_writes_its_payload_to_out(self, tmp_path, capsys, payload, exit_code, message):
        stats, out = tmp_path / "stats.json", tmp_path / "result.json"
        stats.write_text(json.dumps(payload))
        code = cli.main(["estimate", "--stats", str(stats), "--out", str(out)])
        assert code == exit_code
        captured = capsys.readouterr()
        assert message in captured.err
        printed = json.loads(captured.out, parse_constant=reject_constant)
        written = json.loads(out.read_text(), parse_constant=reject_constant)
        assert written == printed
        assert written["error"]
        assert "diagnostics" in written

    def test_near_singular_positive_definite_ld_exit_0(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(near_singular_ld_payload()))
        code = cli.main(["estimate", "--stats", str(stats), "--estimators", "ls,gmm,twmr"])
        assert code == 0
        estimates = json.loads(capsys.readouterr().out, parse_constant=reject_constant)["estimates"]
        assert sorted(estimates) == ["gmm", "ls", "twmr"]
        assert estimates["gmm"]["effects"] == pytest.approx([0.2, -0.1], abs=1e-9)

    @pytest.mark.parametrize("estimators", ["ls", "gmm", "twmr", "ls,gmm,twmr"])
    def test_rounding_indefinite_ld_exit_4(self, tmp_path, capsys, estimators):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(rounding_indefinite_ld_payload()))
        code = cli.main(["estimate", "--stats", str(stats), "--estimators", estimators])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: LD matrix is not positive definite")
        payload = json.loads(captured.out, parse_constant=reject_constant)
        assert payload["estimates"] == {}  # no effect, let alone a significant one


class TestLociCommand:
    def test_fixture_trio(self, tmp_path, capsys):
        code = cli.main(
            [
                "loci",
                "--eqtl",
                str(FIXTURES / "eqtl.tsv"),
                "--gwas",
                str(FIXTURES / "gwas.tsv"),
                "--ld",
                str(FIXTURES / "ld.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "analysed 3 loci" in capsys.readouterr().out
        assert (tmp_path / "out" / "causal_gene_calls.csv").exists()

    def test_thread_flag_has_no_effect(self, tmp_path):
        """``--threads`` is still accepted and leaves every output byte as
        the default run writes it."""
        argv = ["loci", "--eqtl", str(FIXTURES / "eqtl.tsv"), "--gwas", str(FIXTURES / "gwas.tsv"), "--ld", str(FIXTURES / "ld.txt")]
        assert cli.main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert cli.main(argv + ["--threads", "4", "--out", str(tmp_path / "t4")]) == 0
        names = sorted(os.listdir(tmp_path / "default"))
        assert names == sorted(os.listdir(tmp_path / "t4"))
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--radius", "-1", "radius must be a non-negative integer"),
            ("--bonferroni", "nan", "bonferroni must be finite"),
            ("--gwas-p", "nan", "gwas_p must be finite"),
            ("--prune-r2", "nan", "prune_r2 must be finite"),
            ("--nonzero-ld", "nan", "nonzero_ld must be finite"),
            ("--causal-threshold", "nan", "causal_threshold must be finite"),
            ("--causal-threshold", "-inf", "causal_threshold must be finite"),
            ("--perfect-ld-r2", "-1", "perfect_ld_r2 must lie in [0, 1]"),
            ("--prune-r2", "1.5", "prune_r2 must lie in [0, 1]"),
            ("--gwas-p", "2", "gwas_p must lie in [0, 1]"),
            ("--bonferroni", "-0.01", "bonferroni must lie in [0, 1]"),
        ],
    )
    def test_bad_setting_exit_2(self, tmp_path, capsys, flag, value, message):
        """A setting that would hang the locus build or silently change the
        calls exits 2 with one line, before any file is read or written."""
        out = tmp_path / "out"
        argv = ["loci", "--eqtl", str(FIXTURES / "eqtl.tsv"), "--gwas", str(FIXTURES / "gwas.tsv"), "--ld", str(FIXTURES / "ld.txt")]
        assert cli.main(argv + [f"{flag}={value}", "--out", str(out)]) == 2  # "=" lets a value start with "-"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_malformed_tsv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "eqtl.tsv"
        bad.write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\nrs1\toops\n"
        )
        code = cli.main(
            [
                "loci",
                "--eqtl",
                str(bad),
                "--gwas",
                str(FIXTURES / "gwas.tsv"),
                "--ld",
                str(FIXTURES / "ld.txt"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert ":2" in capsys.readouterr().err

    @staticmethod
    def _fixture_with(tmp_path, name, edit):
        """The fixture trio with ``name`` replaced by ``edit(lines)``; loci argv."""
        paths = {f: str(FIXTURES / f) for f in ("eqtl.tsv", "gwas.tsv", "ld.txt")}
        lines = (FIXTURES / name).read_text().splitlines()
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text("\n".join(edit(lines)) + "\n")
        return ["loci", "--eqtl", paths["eqtl.tsv"], "--gwas", paths["gwas.tsv"], "--ld", paths["ld.txt"], "--out", str(tmp_path / "out")]

    @staticmethod
    def _set(lines, row, col, value, sep):
        cells = lines[row].split(sep)
        cells[col] = value
        return lines[:row] + [sep.join(cells)] + lines[row + 1 :]

    @pytest.mark.parametrize(
        "name, row, col, value, sep, message",
        [
            ("eqtl.tsv", 3, 5, "nan", "\t", "column 'beta'"),
            ("gwas.tsv", 2, 3, "inf", "\t", "column 'beta'"),
            ("ld.txt", 2, 5, "nan", " ", "non-finite LD entry"),
            ("ld.txt", 4, 3, "0.5", " ", "diagonal entry for rs603 is 0.5"),
            ("ld.txt", 2, 0, "1.5", " ", "LD entry for rs601 and rs600 is 1.5, outside [-1, 1]"),
        ],
    )
    def test_non_finite_or_bad_diagonal_exit_2(self, tmp_path, capsys, name, row, col, value, sep, message):
        argv = self._fixture_with(tmp_path, name, lambda lines: self._set(lines, row, col, value, sep))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert f"{name}:{row + 1}]" in err

    def test_indefinite_ld_block_fails_its_tissue_only(self, tmp_path, capsys):
        # r(rs600, rs603) = -0.9 against r ~ +0.93 with rs601: the MAM LD block is indefinite
        edit = lambda lines: self._set(self._set(lines, 1, 3, "-0.9", " "), 4, 0, "-0.9", " ")
        (tmp_path / "bad").mkdir()
        (tmp_path / "clean").mkdir()
        argv = self._fixture_with(tmp_path / "bad", "ld.txt", edit)
        clean = self._fixture_with(tmp_path / "clean", "ld.txt", lambda lines: lines)
        assert cli.main(argv) == 0
        assert cli.main(clean) == 0
        assert "Traceback" not in capsys.readouterr().err

        def verdicts(out):
            reports = [json.loads(p.read_text()) for p in sorted(out.glob("locus_*.json"))]
            return {(r["locus_id"], t): v for r in reports for t, v in r["tissues"].items()}

        bad, good = verdicts(tmp_path / "bad" / "out"), verdicts(tmp_path / "clean" / "out")
        mam = bad.pop(("chr6:12891000", "MAM"))
        assert mam["verdict"] == "failed" and mam["calls"] == []
        assert "positive definite" in mam["diagnostics"]["error"]
        assert good.pop(("chr6:12891000", "MAM"))["verdict"] == "ok"
        assert len(bad) == 4 and bad == good

        def calls_outside_mam(out):
            return [row for row in (out / "causal_gene_calls.csv").read_text().splitlines() if ",MAM," not in row]

        assert calls_outside_mam(tmp_path / "bad" / "out") == calls_outside_mam(tmp_path / "clean" / "out")

    def test_no_significant_gwas_empty_report(self, tmp_path, capsys):
        eqtl = tmp_path / "eqtl.tsv"
        eqtl.write_text(
            "snp\tchrom\tpos\tgene\ttissue\tbeta\tse\tmaf\tfdr\n"
            "rs1\t1\t100\tGENE1\tLIV\t0.4\t0.01\t0.3\t0.001\n"
        )
        gwas = tmp_path / "gwas.tsv"
        gwas.write_text(
            "snp\tchrom\tpos\tbeta\tse\tpval\tn\nrs1\t1\t100\t0.01\t0.02\t0.5\t1000\n"
        )
        ld = tmp_path / "ld.txt"
        ld.write_text("rs1\n1.0\n")
        code = cli.main(
            [
                "loci",
                "--eqtl",
                str(eqtl),
                "--gwas",
                str(gwas),
                "--ld",
                str(ld),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "analysed 0 loci" in capsys.readouterr().out

    def test_zero_beta_gene_writes_strict_json(self, tmp_path, capsys):
        rows = (FIXTURES / "eqtl.tsv").read_text().splitlines()
        zeroed = [rows[0]]
        for row in rows[1:]:
            cols = row.split("\t")
            if cols[3:5] == ["CARM1", "SKLM"]:
                cols[5] = "0.0"
            zeroed.append("\t".join(cols))
        eqtl = tmp_path / "eqtl.tsv"
        eqtl.write_text("\n".join(zeroed) + "\n")
        out = tmp_path / "out"
        code = cli.main(
            ["loci", "--eqtl", str(eqtl), "--gwas", str(FIXTURES / "gwas.tsv"), "--ld", str(FIXTURES / "ld.txt"), "--out", str(out)]
        )
        assert code == 0
        reports = {p.name: json.loads(p.read_text(), parse_constant=reject_constant) for p in out.glob("*.json")}
        assert len(reports) == 4
        assert reports["locus_19_11052000.json"]["tissues"]["SKLM"]["diagnostics"]["condition_EX"] is None


class TestFiguresCommand:
    def test_single_scenario_quick_run(self, tmp_path):
        code = cli.main(
            [
                "figures",
                "--only",
                "s8_pca",
                "--seed",
                "5",
                "--replicates",
                "20",
                "--out",
                str(tmp_path / "figs"),
            ]
        )
        assert code == 0
        assert (tmp_path / "figs" / "s8_pca" / "pc1_explained_variance.csv").exists()

    @pytest.mark.parametrize(
        "setting",
        [["--max-failure-rate", "nan"], ["--seed", "-1"], ["--replicates", "0"], ["--estimators", "ols"]],
    )
    def test_refused_setting_leaves_no_output(self, tmp_path, capsys, setting):
        """A run refused for its own settings copies no scenario first."""
        out = tmp_path / "figs"
        argv = ["figures", "--only", "fig2_corr_desk", "--seed", "1", "--replicates", "2", *setting, "--out", str(out)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["figures", "--only", "nope", "--seed", "1", "--out", str(tmp_path / "f")]
        )
        assert code == 2

    @pytest.mark.parametrize("only, named", [("fig2_weak,nope", "'nope'"), ("zz, fig2_weak ,nope", "'nope', 'zz'"), (" , ", "''")])
    def test_every_unknown_only_name_refused_before_output(self, tmp_path, capsys, only, named):
        out = tmp_path / "f"
        code = cli.main(["figures", "--only", only, "--seed", "1", "--replicates", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: --only names no bundled scenario: {named}\n"
        assert captured.out == "" and not out.exists()

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVMR_OUTPUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = cli.main(
            ["figures", "--only", "s8_pca", "--seed", "2", "--replicates", "5"]
        )
        assert code == 0
        assert (tmp_path / "envout" / "s8_pca" / "summary.json").exists()


class TestHelp:
    def test_subcommand_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["loci", "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--prune-r2", "--causal-threshold", "--bonferroni", "--gwas-p"):
            assert flag in text


class TestParserReuse:
    """``main`` builds its parser once per process: every call must run as
    it would on a freshly built parser, taking no argument or default from
    an earlier call."""

    CALLS = [
        ["simulate", "--scenario", "scenario.json", "--seed", "3", "--replicates", "2", "--estimators", "ls", "--out", "seeded"],
        ["simulate", "--scenario", "scenario.json", "--out", "file_seed"],  # the file's seed, replicates and estimators
        ["estimate", "--stats", "stats.json", "--estimators", "ls,twmr", "--out", "estimate.json"],
        ["loci", "--eqtl", str(FIXTURES / "eqtl.tsv"), "--gwas", str(FIXTURES / "gwas.tsv"), "--ld", str(FIXTURES / "ld.txt"), "--out", "loci"],
        ["simulate", "--seed", "3"],  # no --scenario: a usage error
        ["simulate", "--scenario", "scenario.json", "--replicates", "3", "--max-failure-rate", "1", "--out", "again"],
    ]

    @staticmethod
    def fresh_main(argv):
        args = cli.build_parser().parse_args(argv)
        return cli.COMMANDS[args.command](args)

    def run_calls(self, main, work, capsys, monkeypatch):
        payload = json.loads(SCENARIOS.joinpath("fig2_corr_desk.json").read_text(encoding="utf-8"))
        payload.update(seed=5, replicates=2, estimators=["gmm"])
        work.mkdir()
        (work / "scenario.json").write_text(json.dumps(payload))
        stats = {"sigma_EX": [[0.3, 0.1], [0.15, 0.25]], "sigma_EY": [0.12, 0.18], "sigma_EE": [[1.0, 0.6], [0.6, 1.0]], "n_outcome": 20000}
        (work / "stats.json").write_text(json.dumps(stats))
        monkeypatch.chdir(work)
        results = []
        for argv in self.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        files = {str(path.relative_to(work)): path.read_bytes() for path in sorted(work.rglob("*")) if path.is_file()}
        return results, files

    def test_calls_match_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        reused = self.run_calls(cli.main, tmp_path / "reused", capsys, monkeypatch)
        fresh = self.run_calls(self.fresh_main, tmp_path / "fresh", capsys, monkeypatch)
        assert cli._parser() is cli._parser()
        assert [code for code, _, _ in reused[0]] == [0, 0, 0, 0, 2, 0]
        assert reused == fresh
        seeds = [json.loads(reused[1][f"{out}/summary.json"])["seed"] for out in ("seeded", "file_seed", "again")]
        assert seeds == [3, 5, 5]

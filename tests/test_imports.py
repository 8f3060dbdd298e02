"""``mvmr`` runs on numpy alone: the command-line entry point loads no scipy module.

scipy was most of every ``mvmr`` process's start-up time and resident
memory.  The Wishart draw and the triangular solve are done in numpy, and
the normal tail of the p-values is a port of the Cephes ``ndtr`` that
scipy.special runs (``estimators._ndtr``).  The tests still use scipy, as
the reference those replacements are checked against.
"""

import json
import os
import re
import subprocess
import sys

import mvmr

PACKAGE = os.path.dirname(os.path.abspath(mvmr.__file__))
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))


def _python(code, **kwargs):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120, **kwargs
    )


def test_cli_import_loads_no_scipy():
    code = "import sys; import mvmr.cli; print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python(code, check=True).stdout.strip() == ""


def test_no_module_imports_scipy():
    # import scipy / import scipy.special / from scipy import ... / from scipy.stats import ...
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    offenders = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                offenders += [f"{name}: {m.group(0).strip()}" for m in pattern.finditer(fh.read())]
    assert offenders == []


def test_commands_run_with_scipy_blocked(tmp_path):
    fixtures = os.path.join(PACKAGE, "data", "fixtures")
    stats = tmp_path / "stats.json"
    stats.write_text(
        json.dumps(
            {
                "sigma_EX": [[0.3, 0.1], [0.15, 0.25], [0.2, 0.05]],
                "sigma_EY": [0.1, 0.17, 0.06],
                "sigma_EE": [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]],
                "n_outcome": 50000,
            }
        )
    )
    scenario = os.path.join(PACKAGE, "data", "scenarios", "fig2_corr_desk.json")
    trio = [os.path.join(fixtures, f) for f in ("eqtl.tsv", "gwas.tsv", "ld.txt")]
    commands = [
        ["loci", "--eqtl", trio[0], "--gwas", trio[1], "--ld", trio[2], "--out", str(tmp_path / "loci")],
        ["estimate", "--stats", str(stats), "--estimators", "ls,gmm,twmr", "--out", str(tmp_path / "estimate.json")],
        ["simulate", "--scenario", scenario, "--seed", "3", "--replicates", "4", "--estimators", "ls,gmm,twmr", "--out", str(tmp_path / "simulate")],
    ]
    code = f"""
import sys
sys.modules["scipy"] = None  # every import of scipy or a scipy submodule now fails
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
from mvmr import cli
from helpers import export_locus_files, single_design
codes = [cli.main(argv) for argv in {commands!r}]
stats = single_design([[0.3], [0.2]], [0.06, 0.04], [[1.0, 0.4], [0.4, 1.0]], n_outcome=1000)
export_locus_files(stats, {str(tmp_path / "export")!r}, ["G1"])
print(codes)
"""
    completed = _python(code)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "[0, 0, 0]"
    assert (tmp_path / "loci" / "causal_gene_calls.csv").exists()
    assert (tmp_path / "export" / "gwas.tsv").exists()

"""The command-line entry point loads numpy and scipy.special, not scipy.stats or scipy.linalg.

Loading those two subpackages was most of every ``mvmr`` process's start-up
time and resident memory; the Wishart draw and the triangular solve they
served are done in numpy.
"""

import os
import re
import subprocess
import sys

import mvmr

PACKAGE = os.path.dirname(os.path.abspath(mvmr.__file__))
HEAVY = ("scipy.stats", "scipy.linalg")


def test_cli_import_leaves_out_scipy_stats_and_linalg():
    code = (
        "import sys; import mvmr.cli; "
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert completed.stdout.strip() == ""


def test_no_module_imports_scipy_stats_or_linalg():
    # import scipy.stats / from scipy.linalg import ... / from scipy import stats
    pattern = re.compile(r"^\s*(import|from)\s+scipy(\.|\s+import\s.*\b)(stats|linalg)\b", re.MULTILINE)
    offenders = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                offenders += [f"{name}: {m.group(0).strip()}" for m in pattern.finditer(fh.read())]
    assert offenders == []

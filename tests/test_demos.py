import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IDENTIFICATION_STDOUT = """\
single-gene locus:
  instrumental set? True
  ratio sigma_EY / sigma_EX = 0.300 (true effect 0.3)

two genes, variants in LD (r = 0.9):
  instrumental set? True
  witness paths: [('E1', 'E1->X1->Y'), ('E2', 'E2->X2->Y')]
  4 unblocked paths E1~Y; path-rule covariance = 0.291
  matrix-formula covariance = 0.291
  E1 d-separated from Y without gene->trait edges? True

single causal variant tagging two genes:
  instrumental set? False (violates condition 3)
"""


def test_identification_demo_output():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "01_identification.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert completed.stdout == IDENTIFICATION_STDOUT

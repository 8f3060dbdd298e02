"""Fingerprint the deterministic outputs of ``mvmr simulate`` and ``mvmr loci``.

Runs, in this interpreter:

* ``mvmr simulate --seed 11 --replicates 12 --estimators ls,gmm,twmr
  --max-failure-rate 1`` on every bundled scenario;
* ``mvmr loci --estimator E`` for E in ls, gmm and twmr on the bundled
  eQTL/GWAS/LD fixture trio;

and prints one ``exit <code>  <command>`` line per command followed by one
``<sha256>  <relative path>`` line per file it wrote.  Two source trees
produce the same outputs exactly when their fingerprints are equal:

    python tools/output_fingerprint.py --src /path/to/other/src > before.txt
    python tools/output_fingerprint.py > after.txt
    diff before.txt after.txt

Only the standard library and the ``mvmr`` package under ``--src`` are
used; BLAS runs single-threaded (unless the environment already says
otherwise) and command output on stdout/stderr is discarded.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

SIMULATE_ARGS = ["--seed", "11", "--replicates", "12", "--estimators", "ls,gmm,twmr", "--max-failure-rate", "1"]
LOCI_ESTIMATORS = ("ls", "gmm", "twmr")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(main, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _commands(package_dir, out_root):
    """``(label, argv, out_dir)`` for every fingerprinted command."""
    scenarios = os.path.join(package_dir, "data", "scenarios")
    for name in sorted(os.listdir(scenarios)):
        if name.endswith(".json"):
            out = os.path.join(out_root, "simulate", name[: -len(".json")])
            argv = ["simulate", "--scenario", os.path.join(scenarios, name), *SIMULATE_ARGS, "--out", out]
            yield f"simulate {name} {' '.join(SIMULATE_ARGS)}", argv, out
    fixtures = os.path.join(package_dir, "data", "fixtures")
    inputs = ["--eqtl", os.path.join(fixtures, "eqtl.tsv"), "--gwas", os.path.join(fixtures, "gwas.tsv"), "--ld", os.path.join(fixtures, "ld.txt")]
    for estimator in LOCI_ESTIMATORS:
        out = os.path.join(out_root, "loci", estimator)
        yield f"loci fixtures --estimator {estimator}", ["loci", *inputs, "--estimator", estimator, "--out", out], out


def fingerprint(out_root):
    """Lines of the fingerprint, running every command into ``out_root``."""
    import mvmr
    import mvmr.cli

    package_dir = os.path.dirname(os.path.abspath(mvmr.__file__))
    lines = []
    for label, argv, out in _commands(package_dir, out_root):
        lines.append(f"exit {_run(mvmr.cli.main, argv)}  {label}")
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                lines.append(f"{_sha256(path)}  {os.path.relpath(path, out_root)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"), help="directory holding the mvmr package (default: this checkout's src)")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(prefix="mvmr_fingerprint_") as work:
        for line in fingerprint(work):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

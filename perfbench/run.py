"""Benchmark entry point for the mvmr package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim_markov --seed 1 --seconds 10 --trace 0

It generates the workload's inputs from the seed, measures set-up time (a
fresh interpreter importing ``mvmr.cli``) several times, runs the workload
in a fresh child process for about ``--seconds``, checks the outputs, and
prints one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from spans
recorded around the program's public functions.  End-to-end times are put
at a reference machine speed with ``probe.py``, because the host's speed
drifts.  The exit code is 0 only for a run whose outputs passed every
check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sim_markov", "sim_gaussian", "loci_blocks", "identify")
LOCI_BLOCKS = 60
LOCI_WARMUP_BLOCKS = 8
DIAGRAMS = 240
SETUP_SAMPLES = 5  # import-only children, after one that fills the bytecode cache
# A run is given three times its work seconds plus this margin for input
# generation, set-up samples, warm-up calls and the output checks.
TIMEOUT_MARGIN_S = 90.0
# One process, one thread: numpy's BLAS pool would otherwise spread large
# products over both cores, which measured slower and noisier on 2 cores.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spawn(args, deadline):
    """Run a child interpreter; returns its last stdout line as JSON."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, **SINGLE_THREAD},
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child process timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child process exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["import_done"] - started
    return result


def _prepare(workload, seed, work_dir, trace):
    """Write the workload's generated inputs; returns their paths.

    A traced ``loci_blocks`` run also gets an input of twice as many blocks,
    for the scaling exponent.
    """
    if workload == "identify":
        path = os.path.join(work_dir, "diagrams.json")
        return {"diagrams": inputs.write_diagrams(path, seed, DIAGRAMS)}
    if workload != "loci_blocks":
        return {}
    sizes = {"full": LOCI_BLOCKS, "warmup": LOCI_WARMUP_BLOCKS}
    if trace:
        sizes["double"] = 2 * LOCI_BLOCKS
    paths = {
        size: inputs.write_loci_inputs(os.path.join(work_dir, f"input_{size}"), seed, blocks)
        for size, blocks in sizes.items()
    }
    rows = {}
    for size in sizes.keys() - {"warmup"}:
        with open(paths[size]["eqtl.tsv"], encoding="utf-8") as fh:
            rows[size] = sum(1 for _ in fh) - 1
    paths["rows"] = rows
    return paths


def measure(workload, seed, seconds, trace, root):
    deadline = time.monotonic() + 3 * seconds + TIMEOUT_MARGIN_S
    work_dir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        spec = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": bool(trace),
            "work_dir": work_dir,
            "inputs": _prepare(workload, seed, work_dir, trace),
        }
        spec_path = os.path.join(work_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        _spawn(["--import-only"], deadline)  # fills the bytecode cache; not counted
        setups = []
        before = probe.run()
        for _ in range(SETUP_SAMPLES):
            setup_s = _spawn(["--import-only"], deadline)["setup_s"]
            after = probe.run()
            setups.append(probe.at_reference(setup_s, before, after))
            before = after
        result = _spawn([spec_path], deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    if trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, (unit, _, _) in tracing.PER_LAYER.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mvmr", "cli.py")):
        print("error: run from the root of an mvmr source checkout (src/mvmr not found)", file=sys.stderr)
        return 2
    try:
        result, metrics = measure(args.workload, args.seed, args.seconds, args.trace, root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics if result["correct"] else {},
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run inside a fresh interpreter.

``python3 perfbench/child.py --import-only`` imports ``mvmr.cli`` and prints
the monotonic clock reading when the import is done.  With a JSON spec
argument it then runs the workload: untimed warm-up calls, then
timed calls until the spec's seconds are spent (untraced), or untraced and
traced runs of the same calls (traced), and prints one JSON result line.
Run from the root of a source checkout; ``src`` is put first on the import
path.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import mvmr.cli  # noqa: E402,F401  (the import whose cost is set-up time)

IMPORT_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _call(workload, index, **kwargs):
    seconds = workload.run_call(index, **kwargs)
    units = workload.check_call(index)
    workload.discard_call(index)
    return units, seconds


def run_untraced(workload, seconds, first_index):
    """Whole cycles of calls (one of each kind) until ``seconds`` have passed.

    The probe runs before the first call and after every call, and each
    call's time is put at the reference speed with the probes on either side
    of it (see ``probe.py``).  Returns operations per second at the
    reference speed: the operations completed over the summed normalised
    call times.  Whole cycles keep the mix of kinds the same in every run.
    """
    cycle = len(workload.kinds)
    units = reference_s = 0.0
    started = time.perf_counter()
    before = probe.run()
    index = first_index
    while time.perf_counter() - started < seconds or (index - first_index) % cycle:
        done, call_s = _call(workload, index)
        after = probe.run()
        units += done
        reference_s += probe.at_reference(call_s, before, after)
        before = after
        index += 1
    return units / reference_s


def run_traced(workload, seconds, first_index, name):
    """Each call runs untraced and traced, with the same inputs.

    Per-layer metrics come from the first cycle of traced calls, a fixed
    amount of work; the tracing overhead is the median traced/untraced
    time ratio over all pairs.  On ``loci_blocks`` each pair also runs the
    input of twice as many blocks once, for the scaling exponent.
    """
    first = tracing.Tracer()
    first_s = 0.0
    ratios, full, double = [], [], []
    spent = 0.0
    index = first_index
    cycles = len(workload.kinds)
    while spent < seconds or index - first_index < cycles:
        in_first = index - first_index < cycles
        tracer = first if in_first else tracing.Tracer()
        # alternate which side runs first, so warm caches favour neither
        order = (False, True) if (index - first_index) % 2 == 0 else (True, False)
        times = {}
        for traced in order:
            restore = tracing.install(tracer) if traced else None
            try:
                times[traced] = workload.run_call(index)
            finally:
                if restore is not None:
                    restore()
            workload.check_call(index)
            workload.discard_call(index)
        plain_s, traced_s = times[False], times[True]
        if in_first:
            first_s += traced_s
        ratios.append(traced_s / plain_s)
        full.append(plain_s)
        spent += plain_s + traced_s
        if name == "loci_blocks":
            _, double_s = _call(workload, index, size="double")
            double.append(double_s)
            spent += double_s
        index += 1
    extra = {"tracing_overhead": statistics.median(ratios) - 1.0}
    if double:
        rows = workload.inputs["rows"]
        extra["loci.scaling_exponent"] = tracing.scaling_exponent(
            (statistics.median(full), statistics.median(double)), (rows["full"], rows["double"])
        )
    return first, first_s, extra


def main(spec):
    name = spec["workload"]
    workload = workloads.build(name, spec["work_dir"], spec["seed"], spec["inputs"])
    warmup = workload.warmup_calls()
    for index in range(warmup):
        _call(workload, index, warmup=True)
    workload.reset_counts()  # the warm-up calls are not measured

    if spec["trace"]:
        tracer, traced_s, extra = run_traced(workload, spec["seconds"], warmup, name)
    else:
        ops_per_s = run_untraced(workload, spec["seconds"], warmup)
    problems = workload.finish()
    result = {
        "import_done": IMPORT_DONE,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": workload.attempted,
        "failed": workload.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec["trace"]:
        extra["error_rate"] = workload.errors / workload.attempted if workload.attempted else 0.0
        result["layers"] = tracing.layer_metrics(tracer, traced_s, extra)
    else:
        result["ops_per_s"] = ops_per_s
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1:] == ["--import-only"]:
        print(json.dumps({"import_done": IMPORT_DONE}))
    else:
        with open(sys.argv[1], encoding="utf-8") as fh:
            main(json.load(fh))

"""A fixed reference task that gauges how fast the machine runs right now.

The benchmark shares its host with other tenants, and the host's speed
drifts by up to 2x over seconds to minutes: every task, the program's and
any other, slows down and speeds up together.  Timed between the program's
calls, this task turns a time measured on the moment's machine into a time
on a reference machine: ``seconds * REFERENCE_S / probe seconds``.

The task mixes the kinds of work the program does: interpreted Python on
dicts and strings, a working set larger than the CPU's private caches, and
single-threaded numpy (products and element-wise passes over a large
array).  It must never change, and neither must ``REFERENCE_S``: both fix
the scale of every normalised figure, so a change would read as a change of
the program.
"""

import time

import numpy as np

# The probe's median time on a quiet 2-vCPU machine of the kind the
# baseline in README.md was measured on.
REFERENCE_S = 0.015

_KEYS = [f"rs{(i * 2654435761) % 10_000_019}_{i}" for i in range(40_000)]
_MATRIX = np.random.default_rng(0).standard_normal((160, 160))
_VECTOR = np.random.default_rng(1).standard_normal(400_000)


def _task():
    table = {}
    for key in _KEYS:
        table[key] = len(key)
    total = 0
    for key in reversed(_KEYS):
        total += table[key]
    for i in range(40_000):
        total += (i * i) % 7
    for _ in range(4):
        total += float((_MATRIX @ _MATRIX)[0, 0])
    total += float(np.abs(_VECTOR * 1.5 - 0.25).sum())
    return total


def run():
    """Run the task once; returns its wall time in seconds."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start


def at_reference(seconds, *probe_times):
    """``seconds`` measured between probe runs that took ``probe_times``, as
    seconds on the reference machine.

    The fastest neighbouring probe is used, so that a probe caught by a
    momentary stall does not stretch the call's time.
    """
    return seconds * REFERENCE_S / min(probe_times)

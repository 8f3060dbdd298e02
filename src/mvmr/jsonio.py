"""Strict JSON output: every report the package writes parses as RFC 8259."""

import json
import math


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def dumps(payload):
    """Sorted, indented, strict JSON text: NaN and infinities become null."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False)


def write_json(path, payload):
    """Write :func:`dumps` of ``payload`` plus a newline to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps(payload) + "\n")

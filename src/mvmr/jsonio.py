"""Strict JSON output: every report the package writes parses as RFC 8259.

:func:`dumps` writes the text of ``json.dumps(x, sort_keys=True, indent=2,
allow_nan=False)`` with every non-finite float, at any depth, written as
``null``.  The standard library's C encoder ignores ``indent``, so that call
runs its pure-Python encoder; one recursive writer here does the same work
in a single pass, without a null-mapped copy of the payload:

* a string through ``json.encoder.encode_basestring_ascii``;
* a finite float as ``float.__repr__``, a non-finite one as ``null``;
* an int as ``int.__repr__``; ``true``, ``false`` and ``null``;
* a dict with ``str`` keys, in sorted key order, and a list or tuple, each
  one item per line indented by two spaces, ``{}`` or ``[]`` when empty.

Anything else, a dict key that is not a ``str`` included, raises
``TypeError``.
"""

import math
from json.encoder import encode_basestring_ascii as _string


def _write(value, out, indent):
    """Append the JSON text of ``value`` to ``out``, nested lines at ``indent``."""
    if isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else "null")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(_string(key))
            out.append(": ")
            _write(value[key], out, inner)
            separator = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(payload):
    """Sorted, indented, strict JSON text: NaN and infinities become null."""
    out = []
    _write(payload, out, "\n")
    return "".join(out)


def write_json(path, payload):
    """Write :func:`dumps` of ``payload`` plus a newline to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps(payload) + "\n")

"""JSON text laid out as ``json.dumps(obj, indent=2)`` lays it out, faster.

Any ``indent`` sends :mod:`json` to its pure-Python encoder.  :func:`dumps`
writes the same text byte for byte: it lays out objects and arrays by hand,
and writes an array of ints or of finite floats with one ``join`` over
``int.__repr__`` or ``float.__repr__``, with an item separator that carries
the newline and the indentation.  Every other array is laid out item by item,
and its scalars follow :mod:`json`'s own rules: the C string escaper,
``NaN``/``Infinity``, ``int.__repr__`` and ``float.__repr__``.
"""

from __future__ import annotations

import functools
import json
import math

_INDENT = "  "
_escape = json.encoder.encode_basestring_ascii


@functools.cache
def _breaks(depth: int) -> tuple[str, str, str]:
    """What opens, closes and separates the items of a container at ``depth``."""
    inner = "\n" + _INDENT * (depth + 1)
    return inner, "\n" + _INDENT * depth, "," + inner


def _scalar(value) -> str:
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode(obj, depth: int) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner, close, _ = _breaks(depth)
        return "{" + ",".join([inner + _escape(key) + ": " + _encode(value, depth + 1)
                               for key, value in obj.items()]) + close + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner, close, separator = _breaks(depth)
        kinds = set(map(type, obj))
        if kinds == {int}:
            text = separator.join(map(int.__repr__, obj))
        elif kinds == {float} and all(map(math.isfinite, obj)):
            text = separator.join(map(float.__repr__, obj))
        else:
            text = separator.join([_encode(item, depth + 1) for item in obj])
        return "[" + inner + text + close + "]"
    return _scalar(obj)


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte; object keys must be strings."""
    return _encode(obj, 0)

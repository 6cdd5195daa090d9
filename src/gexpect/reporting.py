"""Deterministic serialization of run results.

Two shapes: a hierarchical plain-text document mirroring the result
dictionary, and flat CSV tables for anything row-oriented.  Both print
numbers with 17 significant digits so reruns of the same configuration
reproduce files byte for byte (wall-clock timing is deliberately kept out
of the serialized artifacts for the same reason).
"""
from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

INDENT = "  "
# Leaves that to_plain returns as they are; checked by exact type, so numpy
# scalars (np.float64 subclasses float) still take the conversions below.
_PLAIN = frozenset({float, int, str, bool, type(None)})


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(value)
    return str(value)


def to_plain(obj):
    """Reduce numpy containers to built-in types.

    The result is built from dict, list and scalars only, which is all
    ``_render`` checks for.
    """
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, Mapping):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return to_plain(obj.item())
        return [to_plain(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_structured(data: Mapping[str, Any], title: str = "report") -> str:
    """One hierarchical text document; keys keep insertion order."""
    out = io.StringIO()
    out.write(f"{title}:\n")
    _render(to_plain(data), out, 1)
    return out.getvalue()


def _render(node, out: io.StringIO, level: int) -> None:
    """Write ``to_plain`` output: its only containers are dict and list."""
    pad = INDENT * level
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, dict) and not value:
                out.write(f"{pad}{key}: {{}}\n")
            elif isinstance(value, dict) or _is_block_list(value):
                out.write(f"{pad}{key}:\n")
                _render(value, out, level + 1)
            elif isinstance(value, list):
                items = ", ".join(_scalar(v) for v in value)
                out.write(f"{pad}{key}: [{items}]\n")
            else:
                out.write(f"{pad}{key}: {_scalar(value)}\n")
        return
    # Block list: one dash entry per element.
    for value in node:
        if isinstance(value, dict) or _is_block_list(value):
            out.write(f"{pad}-\n")
            _render(value, out, level + 1)
        else:
            out.write(f"{pad}- {_scalar(value)}\n")


def _is_block_list(value) -> bool:
    return isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_scalar(to_plain(v)) for v in row])
    return out.getvalue()


"""Deterministic serialization of run results.

Two shapes: a hierarchical plain-text document mirroring the result
dictionary, and flat CSV tables for anything row-oriented.  Both print
numbers with 17 significant digits so reruns of the same configuration
reproduce files byte for byte (wall-clock timing is deliberately kept out
of the serialized artifacts for the same reason).

Every scalar is formatted by its exact type through one table, after
``to_plain`` has turned numpy scalars into the built-ins they hold; ``bool``
is its own exact type, so it never formats as an int, and a numpy scalar
gives the same bytes as its built-in.  A dict whose keys are str and whose
values are all plain scalars is passed through ``to_plain`` as it is and
rendered with one join, so a table of plain rows is neither copied nor
dispatched cell by cell.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

INDENT = "  "
# Leaves that to_plain returns as they are, keyed by exact type, with the
# text each one renders as.
_PLAIN = {
    float: lambda x: format(x, ".17g"),
    int: str,
    str: str,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def format_number(x) -> str:
    return _scalar(to_plain(x))


def _scalar(value) -> str:
    """Text of one ``to_plain`` leaf."""
    return _PLAIN.get(type(value), str)(value)


def _is_flat(obj: dict) -> bool:
    """All values are plain scalars (to_plain emits str keys only)."""
    return all(map(_PLAIN.__contains__, map(type, obj.values())))


def to_plain(obj):
    """Reduce numpy containers to built-in types.

    The result is built from dict, list and scalars only, which is all
    ``_render`` checks for.  A dict with str keys and plain values is
    returned as it is, not copied.
    """
    if type(obj) in _PLAIN:
        return obj
    if type(obj) is dict and all(type(k) is str for k in obj) and _is_flat(obj):
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
        if _is_flat(node):
            out.write("".join([f"{pad}{key}: {_PLAIN[type(value)](value)}\n"
                               for key, value in node.items()]))
            return
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
    writer.writerows([format_number(v) for v in row] for row in rows)
    return out.getvalue()


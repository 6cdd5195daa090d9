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
values are all plain scalars is passed through ``to_plain`` as it is, not
copied.  Such a dict as an entry of a block list, and a CSV row of ints
and floats, is written with one ``str.format`` call: its template is
derived from that same table once per row shape (the keys and the exact
type of every cell), so a table is not dispatched cell by cell.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

INDENT = "  "
# Leaves that to_plain returns as they are, keyed by exact type, with how
# each one renders: the format spec of its values, or for bool and None
# the literal text of each value.
_PLAIN = {
    float: ".17g",
    int: "",
    str: "",
    bool: {False: "false", True: "true"},
    type(None): {None: "null"},
}


def format_number(x) -> str:
    return _scalar(to_plain(x))


def _scalar(value) -> str:
    """Text of one ``to_plain`` leaf."""
    text = _PLAIN.get(type(value))
    if text is None:
        return str(value)
    return format(value, text) if type(text) is str else text[value]


def _cells(values) -> list[str]:
    """str.format fields of plain ``values``: value i is field ``{i}`` with
    its type's spec, and a bool or None is its literal text."""
    cells = []
    for i, value in enumerate(values):
        text = _PLAIN[type(value)]
        cells.append(f"{{{i}:{text}}}" if type(text) is str else text[value])
    return cells


def _template(pad: str, row: dict) -> str:
    """str.format template of a flat dict: a ``key: value`` line per cell,
    the braces of each key escaped."""
    return "".join(f"{pad}{key.replace('{', '{{').replace('}', '}}')}: {cell}\n"
                   for key, cell in zip(row, _cells(row.values())))


def _shape(row: dict) -> tuple:
    """What the template of a dict row depends on: its keys, the exact type
    of every cell and the value of every bool (whose text is literal)."""
    types = tuple(map(type, row.values()))
    if bool in types:
        types += tuple(v for v in row.values() if type(v) is bool)
    return tuple(row), types


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
    if type(obj) is dict and {str}.issuperset(map(type, obj)) and _is_flat(obj):
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


def render_structured(data: Mapping[str, Any]) -> str:
    """One hierarchical text document under ``report:``; keys keep insertion order."""
    out = io.StringIO()
    out.write("report:\n")
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
    # Block list: one dash entry per element.  A non-empty flat dict is
    # written by the template of its shape ("" for a shape that is not flat).
    templates: dict[tuple, str] = {}
    for value in node:
        if type(value) is dict and value:
            shape = _shape(value)
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = (
                    f"{pad}-\n" + _template(pad + INDENT, value) if _is_flat(value) else "")
            if template:
                out.write(template.format(*value.values()))
                continue
        if isinstance(value, dict) or _is_block_list(value):
            out.write(f"{pad}-\n")
            _render(value, out, level + 1)
        else:
            out.write(f"{pad}- {_scalar(value)}\n")


def _is_block_list(value) -> bool:
    return isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the rows.  A row of ints and floats, which never needs
    quoting, is one template line per exact-type shape; any other row goes
    through the csv writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    templates: dict[tuple, str] = {}
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = (
                ",".join(_cells(row)) + "\n" if {int, float}.issuperset(types) else "")
        if template:
            out.write(template.format(*row))
        else:
            writer.writerow([format_number(v) for v in row])
    return out.getvalue()


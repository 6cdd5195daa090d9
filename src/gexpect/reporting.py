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
copied.

A document value may be a :class:`Table`, rows under one header.  It is
written as the block list of its ``dict(zip(header, row))`` entries, byte
for byte.  A row of one int, float or str cell per header key, like a CSV
row of ints and floats, is one printf-style ``%`` of a template derived
once per tuple of exact cell types, so no dict is built and no cell is
dispatched on its own; any other row (a bool, None or numpy cell, a
missing or extra cell) is written as ``to_plain`` of its dict.
``write_structured`` and ``write_csv`` write into an open text
file as they go, so a report of 10^5 profile rows is never held as one
string; ``render_structured`` and ``render_csv`` return that text.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from typing import IO, Any

import numpy as np

INDENT = "  "
# Leaves that to_plain returns as they are, keyed by exact type, with how
# each one renders: the printf conversion of its values, or for bool and
# None the literal text of each value.
_PLAIN = {
    float: "%.17g",
    int: "%d",
    str: "%s",
    bool: {False: "false", True: "true"},
    type(None): {None: "null"},
}


class Table:
    """Rows under one header, written as the dicts ``dict(zip(header, row))``
    would be.  The keys are the header's, as str, and must be distinct."""

    __slots__ = ("header", "rows")

    def __init__(self, header: Iterable, rows: Sequence[Sequence]):
        self.header = [str(key) for key in header]
        if len(set(self.header)) < len(self.header):
            raise ValueError(f"table header repeats a key: {self.header}")
        self.rows = rows


def format_number(x) -> str:
    return _scalar(to_plain(x))


def _scalar(value) -> str:
    """Text of one ``to_plain`` leaf."""
    text = _PLAIN.get(type(value))
    if text is None:
        return str(value)
    return text % value if type(text) is str else text[value]


def _entry(pad: str, header: list[str], types: tuple) -> str:
    """printf template of the block-list entry of a table row whose cells
    have the exact ``types``: the dash, then a ``key: value`` line per cell,
    each ``%`` of a key escaped.  "" unless the row has one int, float or str
    cell per header key."""
    if len(types) != len(header) or not {int, float, str}.issuperset(types):
        return ""
    return f"{pad}-\n" + "".join(
        f"{pad}{INDENT}{key.replace('%', '%%')}: {_PLAIN[t]}\n" for key, t in zip(header, types))


def _is_flat(values: Iterable) -> bool:
    """All values are plain scalars."""
    return all(map(_PLAIN.__contains__, map(type, values)))


def to_plain(obj):
    """Reduce numpy containers to built-in types.

    The result is built from dict, list, :class:`Table` and scalars only,
    which is all ``_render`` checks for.  A dict with str keys and plain
    values is returned as it is, not copied.  A table is returned as it is
    (its rows are reduced as they are written), or as ``[]`` without rows.
    """
    if type(obj) in _PLAIN:
        return obj
    if type(obj) is dict and {str}.issuperset(map(type, obj)) and _is_flat(obj.values()):
        return obj
    if type(obj) is Table:
        return obj if len(obj.rows) else []
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
    write_structured(data, out)
    return out.getvalue()


def write_structured(data: Mapping[str, Any], out: IO[str]) -> None:
    """Write the text of ``render_structured(data)`` into ``out`` as it is made."""
    out.write("report:\n")
    _render(to_plain(data), out, 1)


def _render(node, out: IO[str], level: int) -> None:
    """Write ``to_plain`` output: its only containers are dict, list and Table."""
    pad = INDENT * level
    if type(node) is Table:
        _render_table(node, out, level)
        return
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


def _render_table(table: Table, out: IO[str], level: int) -> None:
    """Write each row as the block-list entry of its dict would be written:
    a row of one int, float or str cell per header key by the template of
    its cell types, any other row as ``to_plain`` of its dict."""
    pad = INDENT * level
    header = table.header
    templates: dict[tuple, str] = {}
    for row in table.rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = _entry(pad, header, types)
        if template:
            out.write(template % tuple(row))
        else:
            _render([to_plain(dict(zip(header, row)))], out, level)


def _is_block_list(value) -> bool:
    return type(value) is Table or (
        isinstance(value, list) and any(isinstance(v, (dict, list, Table)) for v in value))


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the rows."""
    out = io.StringIO()
    write_csv(header, rows, out)
    return out.getvalue()


def write_csv(header: Sequence[str], rows: Iterable[Sequence], out: IO[str]) -> None:
    """Write the text of ``render_csv(header, rows)`` into ``out`` row by row.
    A row of ints and floats, which never needs quoting, is one template
    line per exact-type shape; any other row goes through the csv writer."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    templates: dict[tuple, str] = {}
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = (
                ",".join(map(_PLAIN.get, types)) + "\n" if {int, float}.issuperset(types)
                else "")
        if template:
            out.write(template % tuple(row))
        else:
            writer.writerow([format_number(v) for v in row])

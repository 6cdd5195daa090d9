"""Plain-text and CSV rendering used by the command line runner."""
import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from gexpect.reporting import (
    format_number,
    render_csv,
    render_structured,
    to_plain,
)


class TestFormatNumber:
    def test_basic_types(self):
        assert format_number(True) == "true"
        assert format_number(False) == "false"
        assert format_number(3) == "3"
        assert format_number(0.5) == "0.5"

    def test_floats_round_trip(self):
        for x in (1 / 3, 1e-17, -2.5e300, 0.1 + 0.2):
            assert float(format_number(x)) == x

    def test_numpy_scalars(self):
        assert format_number(np.float64(0.25)) == "0.25"
        assert format_number(np.int64(7)) == "7"
        assert format_number(np.bool_(True)) == "true"


class TestToPlain:
    def test_arrays_and_scalars(self):
        assert to_plain(np.array(2.0)) == 2.0
        assert to_plain(np.arange(3)) == [0, 1, 2]
        assert to_plain({"a": np.float64(1.5)}) == {"a": 1.5}


class TestRenderStructured:
    def test_deterministic_layout(self):
        data = {"b": 1.0, "a": [1, 2], "nested": {"k": True}, "empty": {}}
        out = render_structured(data)
        assert out == render_structured(data)
        lines = out.splitlines()
        assert lines[0] == "report:"
        assert "  b: 1" in lines
        assert "  a: [1, 2]" in lines
        assert "  empty: {}" in lines
        assert "    k: true" in lines

    def test_block_lists(self):
        out = render_structured({"rows": [{"x": 1}, {"x": 2}]})
        assert out.count("-\n") == 2
        assert out.count("x:") == 2

    def test_none_is_null(self):
        assert "x: null" in render_structured({"x": None})


class TestCsv:
    def test_exact_bytes(self):
        text = render_csv(["n", "v"], [[2, 0.5], [4, 1 / 3]])
        assert text == "n,v\n2,0.5\n4,0.33333333333333331\n"


def as_numpy(value):
    """The same cell as a numpy scalar; text and None stay as they are
    (np.str_ would drop trailing NULs)."""
    if isinstance(value, bool):
        return np.bool_(value)
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, float):
        return np.float64(value)
    return value


def assert_numpy_rows_render_alike(header, rows):
    """Rows of built-ins render to the same bytes as the same rows of numpy
    scalars, and each numpy cell formats as its built-in."""
    numpy_rows = [[as_numpy(v) for v in row] for row in rows]
    for row, numpy_row in zip(rows, numpy_rows):
        for v, n in zip(row, numpy_row):
            assert v is None or isinstance(v, str) or type(n).__module__ == "numpy"
            assert format_number(n) == format_number(v)

    def document(table):
        return {"results": dict(zip(header, table[0])),
                "tables": {"t": [dict(zip(header, row)) for row in table]}}

    assert render_structured(document(rows)) == render_structured(document(numpy_rows))
    assert render_csv(header, rows) == render_csv(header, numpy_rows)


class TestNumpyScalars:
    HEADER = ["a", "b", "c", "d", "e", "f"]

    def test_special_values(self):
        rows = [[-0.0, float("nan"), float("inf"), float("-inf"), None, ""],
                [True, False, 0, -7, 2 ** 62, 'say "a, b"'],
                [1 / 3, 1e-300, -2.5e300, 0.0, 1, "plain"]]
        assert_numpy_rows_render_alike(self.HEADER, rows)
        text = render_csv(self.HEADER, rows)
        assert text.splitlines()[1] == "-0,nan,inf,-inf,null,"
        assert text.splitlines()[2] == 'true,false,0,-7,4611686018427387904,"say ""a, b"""'
        doc = render_structured({"tables": {"t": [dict(zip(self.HEADER, rows[1]))]}})
        assert "      a: true\n" in doc and "      c: 0\n" in doc

    def test_plain_dict_is_not_copied(self):
        row = {"x": 1.5, "y": None, "z": True}
        assert to_plain(row) is row
        assert to_plain({"x": np.float64(1.5)}) == {"x": 1.5}
        assert to_plain({1: 2.0}) == {"1": 2.0}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.floats(), st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(), st.none(),
        st.text(max_size=8)), min_size=6, max_size=6), min_size=1, max_size=5))
    def test_random_rows(self, rows):
        assert_numpy_rows_render_alike(self.HEADER, rows)


# The renderer as it was before rows were written through per-shape
# templates: every cell dispatched on its own.  The templated renderer must
# give the same bytes.
_REF_PLAIN = {
    float: lambda x: format(x, ".17g"),
    int: str,
    str: str,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _ref_scalar(value):
    return _REF_PLAIN.get(type(value), str)(value)


def _ref_is_block_list(value):
    return isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)


def _ref_render(node, out, level):
    pad = "  " * level
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, dict) and not value:
                out.write(f"{pad}{key}: {{}}\n")
            elif isinstance(value, dict) or _ref_is_block_list(value):
                out.write(f"{pad}{key}:\n")
                _ref_render(value, out, level + 1)
            elif isinstance(value, list):
                items = ", ".join(_ref_scalar(v) for v in value)
                out.write(f"{pad}{key}: [{items}]\n")
            else:
                out.write(f"{pad}{key}: {_ref_scalar(value)}\n")
        return
    for value in node:
        if isinstance(value, dict) or _ref_is_block_list(value):
            out.write(f"{pad}-\n")
            _ref_render(value, out, level + 1)
        else:
            out.write(f"{pad}- {_ref_scalar(value)}\n")


def reference_structured(data):
    out = io.StringIO()
    out.write("report:\n")
    _ref_render(to_plain(data), out, 1)
    return out.getvalue()


def reference_csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    writer.writerows([_ref_scalar(to_plain(v)) for v in row] for row in rows)
    return out.getvalue()


SPECIAL = "ab{}%,:\"\n -"
keys = st.one_of(st.text(alphabet=SPECIAL, max_size=4), st.text(max_size=3))
cells = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")]),
    st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(), st.none(),
    st.text(alphabet=SPECIAL, max_size=6), st.text(max_size=4),
    st.builds(np.float64, st.floats()), st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.bool_, st.booleans()))
numbers = st.one_of(st.floats(), st.integers(-2 ** 63, 2 ** 63 - 1),
                    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]))


@st.composite
def tables(draw):
    """(header, rows): each row a prefix of the header (so the shape may
    change mid-table), its cells of mixed types down a column; long runs of
    number rows share a shape, as a profile table's do."""
    header = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        width = draw(st.integers(0, len(header)))
        value = numbers if draw(st.booleans()) else cells
        rows.append(draw(st.lists(value, min_size=width, max_size=width)))
        rows.extend([list(rows[-1])] * draw(st.integers(0, 2)))
    return header, rows


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(tables(), st.lists(st.dictionaries(keys, cells, max_size=3), max_size=3))
    def test_same_bytes(self, table, extra):
        header, rows = table
        dict_rows = [dict(zip(header, row)) for row in rows]
        doc = {"results": dict_rows[0] if dict_rows else {},
               "tables": {"t": dict_rows + extra, "u": [[row] for row in dict_rows]},
               "summary": extra + dict_rows, "flat": extra}
        assert render_structured(doc) == reference_structured(doc)
        assert render_csv(header, rows) == reference_csv(header, rows)

    def test_named_cases(self):
        header = ["{x}", "%d", "a,b"]
        rows = [[1, 0.5, -0.0], [2, float("nan"), float("inf")], [3, float("-inf"), ""],
                [4, "say \"a, b\"\nc", None], [True, np.float64(-0.0), np.int64(5)],
                [], [7], ["", ""], [""]]
        dict_rows = [dict(zip(header, row)) for row in rows]
        doc = {"tables": {"t": dict_rows}, "summary": [{"check": "x", "passed": True},
                                                       {"check": "y", "passed": False}]}
        assert render_structured(doc) == reference_structured(doc)
        assert render_csv(header, rows) == reference_csv(header, rows)
        assert "  {x}: 1\n" in render_structured(dict_rows[0])

"""Plain-text and CSV rendering used by the command line runner."""
import numpy as np

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
        out = render_structured(data, title="run")
        assert out == render_structured(data, title="run")
        lines = out.splitlines()
        assert lines[0] == "run:"
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

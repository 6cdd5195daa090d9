"""Driver families, convex conjugates, and class verification."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect.generators import (
    CONVEX,
    DOMINATED,
    SUBLINEAR,
    Generator,
    _GapTracker,
    conjugate,
    conjugate_values,
    entropy,
    quadratic_lower,
    quadratic_upper,
    scaled_abs,
    subdifferential_slices,
    sublinear_interval,
    verify_class,
)
from gexpect.lattice import FULL, TreeProcess, build_tree

Z = np.linspace(-3.0, 3.0, 41)


class TestBuiltins:
    def test_values_match_formulas(self):
        np.testing.assert_allclose(entropy(0.7)(0.0, Z), 0.7 * Z**2)
        np.testing.assert_allclose(quadratic_upper(1.0, 2.0)(0.0, Z),
                                   np.abs(Z) + 2 * Z**2)
        np.testing.assert_allclose(quadratic_lower(1.0, 2.0)(0.0, Z),
                                   -np.abs(Z) - 2 * Z**2)
        np.testing.assert_allclose(sublinear_interval(-1.0, 2.0)(0.0, Z),
                                   np.maximum(-1.0 * Z, 2.0 * Z))
        np.testing.assert_allclose(scaled_abs(1.5)(0.0, Z), 1.5 * np.abs(Z))

    def test_zero_at_zero_enforced(self):
        with pytest.raises(ValueError, match="vanish at z=0"):
            Generator(lambda t, z: z**2 + 1.0, mu=0.0, nu=1.0)

    def test_growth_bounds_validated(self):
        with pytest.raises(ValueError):
            entropy(-1.0)
        with pytest.raises(ValueError):
            quadratic_upper(-0.5, 1.0)
        with pytest.raises(ValueError):
            sublinear_interval(2.0, 1.0)

    def test_flags(self):
        assert CONVEX in entropy(1.0).flags
        assert SUBLINEAR in sublinear_interval(-1.0, 1.0).flags
        assert SUBLINEAR not in entropy(1.0).flags
        assert DOMINATED in quadratic_upper(1.0, 1.0).flags
        assert CONVEX not in quadratic_lower(1.0, 1.0).flags


class TestConjugate:
    def test_quadratic_closed_form(self):
        mu, nu = 1.0, 2.0
        g = quadratic_upper(mu, nu)
        for x in np.linspace(-6, 6, 25):
            expected = max(abs(x) - mu, 0.0) ** 2 / (4 * nu)
            pt = conjugate(g, 0.0, float(x))
            assert pt.value == pytest.approx(expected, abs=1e-12)

    def test_quadratic_numeric_vs_closed(self):
        g = quadratic_upper(0.8, 1.3)
        xs = np.linspace(-5, 5, 1001)
        closed = conjugate_values(g, 0.0, xs)
        numeric_only = dataclasses.replace(g, conjugate_fn=None)
        numeric = np.array([conjugate(numeric_only, 0.0, float(x)).value for x in xs])
        assert np.max(np.abs(numeric - closed)) <= 1e-6

    def test_entropy_conjugate(self):
        nu = 0.6
        g = entropy(nu)
        for x in (-3.0, -0.5, 0.0, 1.7):
            pt = conjugate(g, 0.0, x)
            assert pt.value == pytest.approx(x**2 / (4 * nu), abs=1e-12)

    def test_sublinear_degenerate(self):
        g = sublinear_interval(-1.0, 1.5)
        assert conjugate(g, 0.0, 0.3).value == 0.0
        assert conjugate(g, 0.0, -1.0).value == 0.0
        assert conjugate(g, 0.0, 1.5).value == 0.0
        assert math.isinf(conjugate(g, 0.0, 1.6).value)
        assert math.isinf(conjugate(g, 0.0, -1.01).value)

    def test_concave_driver_conjugate_infinite(self):
        g = quadratic_lower(1.0, 1.0)
        assert math.isinf(conjugate(g, 0.0, 0.5).value)

    def test_fenchel_equality_at_argmax(self):
        mu, nu = 0.5, 1.0
        g = quadratic_upper(mu, nu)
        for x in (2.0, -3.5):
            pt = conjugate(g, 0.0, x)
            z = math.copysign((abs(x) - mu) / (2 * nu), x)
            assert x * z - float(g(0.0, np.array([z]))[0]) == pytest.approx(
                pt.value, abs=1e-10)

    @given(st.floats(-4, 4), st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_weak_fenchel_inequality(self, x, q):
        g = quadratic_upper(1.0, 0.5)
        f = conjugate(g, 0.0, x).value
        assert f + 1e-9 >= x * q - float(g(0.0, np.array([q]))[0])


class TestSubdifferential:
    def test_smooth_point(self):
        g = entropy(0.5)
        (lo,), (hi,) = subdifferential_slices(g, 0.0, [1.2])
        assert lo == pytest.approx(hi, abs=1e-7)
        assert lo == pytest.approx(2 * 0.5 * 1.2, abs=1e-6)

    def test_kink_is_interval(self):
        g = scaled_abs(2.0)
        (lo,), (hi,) = subdifferential_slices(g, 0.0, [0.0])
        assert lo == pytest.approx(-2.0, abs=1e-6)
        assert hi == pytest.approx(2.0, abs=1e-6)

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError, match="convex"):
            subdifferential_slices(quadratic_lower(1.0, 1.0), 0.0, [0.5])


class TestVerifyClass:
    def test_builtins_pass(self):
        for g in (entropy(0.5), quadratic_upper(1.0, 1.0),
                  sublinear_interval(-1.0, 1.0), quadratic_lower(0.3, 0.5), scaled_abs(0.4)):
            report = verify_class(g)
            assert report.passed, report.checks

    def test_underdeclared_growth_fails_with_witness(self):
        # declares mu=0.1 but actually grows like 2|z|
        g = Generator(lambda t, z: 2.0 * np.abs(z), mu=0.1, nu=0.0,
                      flags=frozenset({CONVEX, DOMINATED}))
        report = verify_class(g)
        assert not report.passed
        assert report.checks["growth"].status == "fail"
        w = report.checks["growth"].witness
        assert w is not None and w["gap"] > 0

    def test_nonconvex_flag_fails(self):
        g = Generator(lambda t, z: -np.abs(z), mu=1.0, nu=0.0,
                      flags=frozenset({CONVEX}))
        report = verify_class(g)
        assert not report.passed
        assert report.checks["convexity"].witness is not None

    def test_sublinear_flag_checked(self):
        g = Generator(lambda t, z: z * z, mu=0.0, nu=1.0,
                      flags=frozenset({CONVEX, DOMINATED, SUBLINEAR}))
        report = verify_class(g)
        assert not report.passed
        w = report.checks["sublinearity"].witness
        assert w is not None and w["property"] == "homogeneity"


class TestGapTracker:
    def test_fold_keeps_the_first_maximum(self):
        tr, calls = _GapTracker(), []

        def witness(call):
            return lambda i, gap: calls.append((call, i)) or {"call": call, "i": i, "gap": gap}

        assert tr.fold(np.array([0.5, 2.0, 2.0]), witness(1)) == 2.0
        assert tr.fold(np.array([[2.0, 1.0], [2.0, 0.0]]), witness(2)) == 2.0
        assert tr.witness == {"call": 1, "i": 1, "gap": 2.0}
        assert (tr.gap, tr.count, calls) == (2.0, 7, [(1, 1)])

    def test_fold_returns_a_nan_but_never_keeps_it(self):
        tr = _GapTracker()
        assert math.isnan(tr.fold(np.array([1.0, np.nan, 3.0]), lambda i, gap: {}))
        assert (tr.gap, tr.witness, tr.count) == (0.0, None, 3)

    def test_update_keeps_the_first_maximum(self):
        tree = build_tree(1.0, 3, FULL)
        tr = _GapTracker(tree)
        assert tr.update(np.array([0.0, 1.0, 1.0, 0.5]), 2, {"claim": "a"}) == 1.0
        assert tr.update(np.array([1.0, 1.0]), 1, {"claim": "b"}) == 1.0
        assert list(tr.witness.items()) == [("claim", "a"), ("depth", 2),
                                            ("node", tree.node_label(2, 1)), ("gap", 1.0)]
        assert tr.verdict("x", 0.5).status == "fail"

    def test_compare_covers_the_depths_every_process_holds(self):
        tree = build_tree(1.0, 3, FULL)
        long = TreeProcess(tree, [np.full(2 ** k, float(k)) for k in range(4)])
        short = TreeProcess(tree, [np.zeros(2 ** k) for k in range(3)])
        tr, seen = _GapTracker(tree), []
        tr.compare(lambda a, b: seen.append(a.size) or a - b, (long, short), {})
        assert seen == [1, 2, 4]
        assert (tr.gap, tr.count, tr.witness["depth"]) == (2.0, 7, 2)

    def test_compare_runs_explicit_depths_in_the_given_order(self):
        tree = build_tree(1.0, 3, FULL)
        flat = TreeProcess(tree, [np.ones(2 ** k) for k in range(4)])
        tr, seen = _GapTracker(tree), []
        tr.compare(lambda a: seen.append(a.size) or a, (flat,), {"claim": "a"}, (3, 1))
        assert seen == [8, 2]
        # Equal gaps at both depths: the first one compared is the witness.
        assert tr.witness == {"claim": "a", "depth": 3, "node": tree.node_label(3, 0),
                              "gap": 1.0}
        assert tr.count == 10

    def test_compare_keeps_the_first_maximum(self):
        tree = build_tree(1.0, 2, FULL)
        gaps = TreeProcess(tree, [np.array([0.5]), np.array([0.0, 3.0]),
                                  np.array([3.0, 1.0, 3.0, 2.0])])
        tr = _GapTracker(tree)
        tr.compare(np.negative, (TreeProcess(tree, [-v for v in gaps.values]),), {"i": 0})
        tr.compare(lambda g: g, (gaps,), {"i": 1})
        assert tr.witness == {"i": 0, "depth": 1, "node": tree.node_label(1, 1), "gap": 3.0}
        assert (tr.gap, tr.count) == (3.0, 14)


def _nan_beyond_5(t, z):
    return np.where(np.abs(z) > 5.0, np.nan, z * z)


# One driver per family that can fail, plus a driver that is NaN for |z| > 5
# (its NaN gaps are skipped: every check reads 0 there).
PINNED_DRIVERS = {
    "growth": Generator(lambda t, z: 2.0 * np.abs(z), 0.1, 0.0, frozenset({CONVEX, DOMINATED})),
    "convexity": Generator(lambda t, z: -np.abs(z), 1.0, 0.0, frozenset({CONVEX})),
    "homogeneity": Generator(lambda t, z: z * z, 0.0, 1.0, frozenset({SUBLINEAR})),
    "subadditivity": Generator(lambda t, z: -np.abs(z), 1.0, 0.0, frozenset({SUBLINEAR})),
    "domination": Generator(lambda t, z: z * z, 0.0, 0.25, frozenset({DOMINATED})),
    "nan": Generator(_nan_beyond_5, 0.0, 1.0, frozenset({CONVEX, DOMINATED})),
}

# Per check: passed, max_gap as float.hex, witness items (floats as hex).
PINNED = {
    "growth": {
        "growth": (False, "0x1.6cccccccccccdp+3",
                   [("t", "0x0.0p+0"), ("z", "-0x1.8000000000000p+2"),
                    ("gap", "0x1.6cccccccccccdp+3")]),
        "convexity": (True, "0x0.0p+0", None),
        "domination": (False, "0x1.6cccccccccccdp+3",
                       [("t", "0x0.0p+0"), ("theta", "0x1.999999999999ap-4"),
                        ("z", "-0x1.8000000000000p+2"), ("z_tilde", "0x0.0p+0"),
                        ("gap", "0x1.6cccccccccccdp+3")]),
    },
    "convexity": {
        "growth": (True, "0x0.0p+0", None),
        "convexity": (False, "0x1.8000000000000p+2",
                      [("t", "0x0.0p+0"), ("z1", "-0x1.8000000000000p+2"),
                       ("z2", "0x1.8000000000000p+2"), ("gap", "0x1.8000000000000p+2")]),
    },
    "homogeneity": {
        "growth": (True, "0x0.0p+0", None),
        "sublinearity": (False, "0x1.6800000000000p+9",
                         [("t", "0x0.0p+0"), ("lambda", "0x1.4000000000000p+2"),
                          ("z", "-0x1.8000000000000p+2"), ("gap", "0x1.6800000000000p+9"),
                          ("property", "homogeneity")]),
    },
    "subadditivity": {
        "growth": (True, "0x0.0p+0", None),
        "sublinearity": (False, "0x1.8000000000000p+3",
                         [("t", "0x0.0p+0"), ("z1", "-0x1.8000000000000p+2"),
                          ("z2", "0x1.8000000000000p+2"), ("gap", "0x1.8000000000000p+3"),
                          ("property", "subadditivity")]),
    },
    "domination": {
        "growth": (False, "0x1.b000000000000p+4",
                   [("t", "0x0.0p+0"), ("z", "-0x1.8000000000000p+2"),
                    ("gap", "0x1.b000000000000p+4")]),
        "domination": (False, "0x1.a452d489718cep+4",
                       [("t", "0x0.0p+0"), ("theta", "0x1.999999999999ap-4"),
                        ("z", "-0x1.8000000000000p+2"), ("z_tilde", "-0x1.9999999999998p+0"),
                        ("gap", "0x1.a452d489718cep+4")]),
    },
    "nan": {
        "growth": (True, "0x0.0p+0", None),
        "convexity": (True, "0x0.0p+0", None),
        "domination": (True, "0x0.0p+0", None),
    },
}


def _bits(v):
    return v.hex() if isinstance(v, float) else v


def _outcome(check):
    """(passed, max_gap bits, witness items) of one class check.  Reads a
    check both as a verdict object and as the plain dict verify_class once
    returned, so the same pins hold on either side of that change."""
    if isinstance(check, dict):
        passed, gap, witness = check["ok"], check["max_gap"], check["witness"]
    else:
        passed, gap, witness = check.status == "pass", check.max_gap, check.witness
    items = None if witness is None else [(k, _bits(v)) for k, v in witness.items()]
    return passed, _bits(gap), items


@pytest.mark.parametrize("driver", sorted(PINNED))
def test_verify_class_outcomes_pinned(driver):
    report = verify_class(PINNED_DRIVERS[driver])
    outcomes = {name: _outcome(c) for name, c in report.checks.items()}
    assert list(outcomes) == list(PINNED[driver])
    assert outcomes == PINNED[driver]
    assert report.passed == all(passed for passed, _, _ in PINNED[driver].values())

"""Driver families, convex conjugates, and class verification."""
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
    conjugate,
    conjugate_values,
    entropy,
    quadratic_lower,
    quadratic_upper,
    scaled_abs,
    subdifferential,
    sublinear_interval,
    verify_class,
)

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
        numeric = np.array(
            [conjugate(g, 0.0, float(x), force_numeric=True).value for x in xs])
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
        lo, hi = subdifferential(g, 0.0, 1.2)
        assert lo == pytest.approx(hi, abs=1e-7)
        assert lo == pytest.approx(2 * 0.5 * 1.2, abs=1e-6)

    def test_kink_is_interval(self):
        g = scaled_abs(2.0)
        lo, hi = subdifferential(g, 0.0, 0.0)
        assert lo == pytest.approx(-2.0, abs=1e-6)
        assert hi == pytest.approx(2.0, abs=1e-6)

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError, match="convex"):
            subdifferential(quadratic_lower(1.0, 1.0), 0.0, 0.5)


class TestVerifyClass:
    def test_builtins_pass(self):
        for g in (entropy(0.5), quadratic_upper(1.0, 1.0),
                  sublinear_interval(-1.0, 1.0)):
            report = verify_class(g)
            assert report.passed, report.checks

    def test_underdeclared_growth_fails_with_witness(self):
        # declares mu=0.1 but actually grows like 2|z|
        g = Generator(lambda t, z: 2.0 * np.abs(z), mu=0.1, nu=0.0,
                      flags=frozenset({CONVEX, DOMINATED}))
        report = verify_class(g)
        assert not report.passed
        assert not report.checks["growth"]["ok"]
        w = report.witness("growth")
        assert w is not None and w["gap"] > 0

    def test_nonconvex_flag_fails(self):
        g = Generator(lambda t, z: -np.abs(z), mu=1.0, nu=0.0,
                      flags=frozenset({CONVEX}))
        report = verify_class(g)
        assert not report.passed
        assert report.witness("convexity") is not None

    def test_sublinear_flag_checked(self):
        g = Generator(lambda t, z: z * z, mu=0.0, nu=1.0,
                      flags=frozenset({CONVEX, DOMINATED, SUBLINEAR}))
        report = verify_class(g)
        assert not report.passed
        w = report.witness("sublinearity")
        assert w is not None and w["property"] == "homogeneity"

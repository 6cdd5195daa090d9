"""Backward solvers: explicit scheme, exact entropic scheme, recovery."""
import json
import math

import numpy as np
import pytest

from gexpect import bsde, risk
from gexpect.bsde import (
    entropy_exact,
    entropy_step,
    entropy_step_driver,
    euler_step,
    noise_step,
    solve_bsde,
)
from gexpect.claims import call, linear, path_maximum, sample_claims
from gexpect.cli import parse_config, run
from gexpect.dual import tilt, verify_duality
from gexpect.generators import (
    BUILTINS,
    CONVEX,
    Generator,
    conjugate,
    entropy,
    quadratic_upper,
    sublinear_interval,
    verify_class,
)
from gexpect.lattice import (
    FULL,
    RECOMBINING,
    TreeProcess,
    backward_reduce,
    brownian,
    build_tree,
    cond_expect,
)
from gexpect.risk import check_axioms, check_domination, custom, entropic, from_generator
import oracles
from oracles import entropy_one_exp, entropy_two_exp, extract_z


def leaf_entropic(nu, xi, p=0.5):
    """Certainty-equivalent oracle: (1/2nu) ln E[exp(2nu xi)]."""
    w = np.full(xi.shape, 1.0 / xi.size) if p == 0.5 else None
    m = 2 * nu * xi
    s = m.max()
    return (s + np.log(np.sum(w * np.exp(m - s)))) / (2 * nu)


class TestEntropyExact:
    def test_linear_claim_closed_form(self):
        # xi = B_T gives Y_0 = (N / 2nu) ln cosh(2 nu sqrt(dt))
        for N in (8, 64, 256):
            for nu in (0.25, 0.5, 2.0):
                tree = build_tree(1.0, N, RECOMBINING)
                s = entropy_exact(nu, brownian(tree).terminal, tree)
                expected = N / (2 * nu) * math.log(math.cosh(2 * nu * tree.sqrt_dt))
                assert s.Y.values[0][0] == pytest.approx(expected, abs=1e-12)

    def test_matches_leaf_oracle(self):
        tree = build_tree(1.0, 10, FULL)
        rng = np.random.default_rng(5)
        xi = rng.normal(size=1024)
        s = entropy_exact(0.7, xi, tree)
        assert s.Y.values[0][0] == pytest.approx(leaf_entropic(0.7, xi), rel=1e-12)

    def test_time_consistency_one_step(self):
        # the depth-k value is the one-step entropic mean of depth k+1
        tree = build_tree(1.0, 6, FULL)
        xi = call(0.3).evaluate(tree)
        s = entropy_exact(0.5, xi, tree)
        nxt = s.Y.values[4]
        down, up = nxt[0::2], nxt[1::2]
        m = 2 * 0.5
        manual = np.log(0.5 * (np.exp(m * down) + np.exp(m * up))) / m
        np.testing.assert_allclose(s.Y.values[3], manual, atol=1e-12)

    def test_recombining_agrees_with_full(self):
        nu = 0.4
        full = build_tree(1.0, 8, FULL)
        rec = build_tree(1.0, 8, RECOMBINING)
        a = entropy_exact(nu, call(0.2).evaluate(full), full)
        b = entropy_exact(nu, call(0.2).evaluate(rec), rec)
        assert a.Y.values[0][0] == pytest.approx(b.Y.values[0][0], abs=1e-13)

    @pytest.mark.parametrize("nu", [0.5, 2.0, 1e-3, -0.7])
    def test_one_exp_step_has_the_two_exp_bits(self, nu):
        # Adversarial children: equal, signed zeros, infinities, NaN, a gap
        # of 1e300 (whose exp underflows or overflows), and random values;
        # then the same pairs as a batch of rows.  A NaN equals any NaN.
        inf, nan = math.inf, math.nan
        special = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, inf, -inf, nan]
        pairs = [(d, u) for d in special for u in special]
        rng = np.random.default_rng(11)
        pairs += list(zip(rng.normal(scale=30.0, size=200), rng.normal(scale=30.0, size=200)))
        down, up = (np.array(side) for side in zip(*pairs))
        step = entropy_step(nu)
        with np.errstate(all="ignore"):
            for d, u in ((down, up), (down.reshape(4, -1), up.reshape(4, -1)),
                         (up[::-1], down[::-1])):
                got, want = step(0, d, u), entropy_two_exp(nu, d, u)
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    def test_one_exp_step_keeps_the_infinite_cases(self):
        # (+inf, finite) is NaN, as inf - inf is (|down - up| would give
        # +inf), and (-inf, finite) is the finite child plus log(1/2)/2nu.
        step = entropy_step(0.5)
        with np.errstate(invalid="ignore"):
            assert np.isnan(step(0, np.array([math.inf]), np.array([1.0]))).all()
        assert step(0, np.array([-math.inf]), np.array([1.0]))[0] == 1.0 + math.log(0.5)

    def test_scheme_label_and_generator(self):
        tree = build_tree(1.0, 4, FULL)
        s = entropy_exact(1.0, linear(1.0).evaluate(tree), tree)
        assert s.scheme == "entropy_exact"
        # the certificate reads the growth (0, nu) of the driver nu z^2
        assert s.step_bound == 2.0 * s.Z.max_abs() * tree.sqrt_dt


class TestEulerScheme:
    def test_zero_driver_is_conditional_expectation(self):
        tree = build_tree(1.0, 9, FULL)
        xi = call(0.1).evaluate(tree)
        g = sublinear_interval(0.0, 0.0)
        s = solve_bsde(g, xi, tree)
        for k in range(10):
            np.testing.assert_allclose(
                s.Y.values[k], cond_expect(xi, k, tilt(0.0, tree), tree).at(k), atol=1e-13)

    def test_z_definition(self):
        tree = build_tree(1.0, 5, FULL)
        xi = linear(1.0).evaluate(tree)
        s = solve_bsde(entropy(0.5), xi, tree)
        # xi = B_T carries unit volatility at every node
        for zk in s.Z.values:
            np.testing.assert_allclose(zk, 1.0, atol=1e-12)

    def test_euler_converges_to_exact_halving(self):
        nu = 0.5
        gaps = []
        for N in (64, 128, 256):
            tree = build_tree(1.0, N, RECOMBINING)
            xi = call(0.0).evaluate(tree)
            euler = solve_bsde(entropy(nu), xi, tree).Y.values[0][0]
            exact = entropy_exact(nu, xi, tree).Y.values[0][0]
            gaps.append(abs(euler - exact))
        for a, b in zip(gaps, gaps[1:]):
            assert 0.3 <= b / a <= 0.7  # first order in dt

    def test_step_certificate_flags(self):
        tree = build_tree(1.0, 4, FULL)
        # huge claim scale pushes |Z| up and breaks (mu + 2 nu |Z|) sqrt(dt) <= 1
        s = solve_bsde(quadratic_upper(1.0, 2.0), 50 * linear(1.0).evaluate(tree), tree)
        assert not s.monotone_step
        assert s.step_bound > 1.0
        assert s.warnings == (
            "step-monotonicity certificate fails: (mu + 2 nu max|Z|) sqrt(dt) = "
            f"{s.step_bound:.6g} > 1; refine the grid before trusting "
            "comparison-type output",)
        ok = solve_bsde(quadratic_upper(1.0, 0.1), 0.1 * linear(1.0).evaluate(tree), tree)
        assert ok.monotone_step and ok.step_bound <= 1.0 and not ok.warnings

    def test_path_dependent_claim_full_tree(self):
        tree = build_tree(1.0, 7, FULL)
        xi = path_maximum().evaluate(tree)
        s = solve_bsde(entropy(0.3), xi, tree)
        assert s.Y.values[0][0] >= cond_expect(xi, 0, tilt(0.0, tree), tree).at(0)[0] - 1e-12


class TestRecoverGenerator:
    """The one-step driver g_0(z) = noise_step(op, 0, z) / dt of an operator."""

    def test_euler_scheme_is_exact(self):
        tree = build_tree(1.0, 100, RECOMBINING)
        g = quadratic_upper(1.0, 0.5)
        step = euler_step(g, tree)
        zs = np.array([-2.0, -0.3, 0.0, 1.4])
        got = noise_step(step, 0, zs, tree) / tree.dt
        assert got.shape == zs.shape
        np.testing.assert_allclose(got, np.abs(zs) + 0.5 * zs * zs, rtol=0, atol=1e-10)

    def test_entropy_step_recovers_discrete_driver(self):
        nu = 0.8
        tree = build_tree(1.0, 50, RECOMBINING)
        step = entropy_step(nu)
        z = 1.3
        got = float(noise_step(step, 0, z, tree)) / tree.dt
        exact = math.log(math.cosh(2 * nu * z * tree.sqrt_dt)) / (2 * nu * tree.dt)
        assert got == pytest.approx(exact, abs=1e-12)
        # first order in dt away from nu z^2
        assert abs(got - nu * z * z) <= 2 * (nu * z) ** 4 * tree.dt


class TestEntropyStepDriver:
    """The closed-form one-step driver of the exact recursion: its value is
    noise_step's, its derivative and conjugate are the value's."""

    NU = 0.5

    def driver(self, steps=10):
        tree = build_tree(1.0, steps, FULL)
        return tree, entropy_step_driver(self.NU, tree)

    def test_value_is_the_steps_noise_step(self):
        tree, g = self.driver()
        z = np.array([-800.0, -3.0, -0.4, -1e-9, 0.0, 1e-9, 0.4, 3.0, 800.0])
        want = noise_step(entropy_step(self.NU), 2, z, tree) / tree.dt
        np.testing.assert_allclose(g(0.0, z), want, rtol=1e-13, atol=1e-15)
        # far past where cosh overflows, the value is |z| / sqrt(dt) - log 2 / (2 nu dt)
        big = g(0.0, np.array([1e300]))[0]
        assert big == pytest.approx(1e300 / tree.sqrt_dt, rel=1e-15)
        assert g.scalar(0.0, 0.0) == 0.0 and g(0.0, -0.0)[()] == 0.0

    def test_derivative_is_tanh(self):
        tree, g = self.driver()
        z = np.linspace(-4.0, 4.0, 33)
        lo, hi = g.subdiff_fn(0.0, z)
        assert lo is hi
        x = 2.0 * self.NU * z * tree.sqrt_dt
        np.testing.assert_allclose(lo, np.tanh(x) / tree.sqrt_dt, rtol=1e-15, atol=0.0)
        h = 1e-6
        np.testing.assert_allclose(lo, (g(0.0, z + h) - g(0.0, z - h)) / (2 * h),
                                   rtol=0.0, atol=1e-8)

    def test_conjugate_is_the_grid_supremum(self):
        tree, g = self.driver()
        numeric = Generator(g.fn, g.mu, g.nu, g.flags)  # no closed forms
        for q in (-2.9, -1.0, -0.1, 0.0, 0.5, 2.0, 3.1):
            point = conjugate(numeric, 0.0, q)
            assert conjugate(g, 0.0, q).value == pytest.approx(point.value,
                                                               abs=point.tol + 1e-12)

    def test_fenchel_equality_at_the_derivative(self):
        tree, g = self.driver()
        z = np.linspace(-5.0, 5.0, 41)
        q = g.subdiff_fn(0.0, z)[0]
        np.testing.assert_allclose(g.conjugate_fn(0.0, q), q * z - g(0.0, z),
                                   rtol=1e-12, atol=1e-14)

    def test_conjugate_at_and_past_the_edge(self):
        # |q| sqrt(dt) = 1 is the one-step entropy log 2, past it +inf; no warning
        tree = build_tree(1.0, 4, FULL)  # sqrt(dt) = 1/2 scales exactly
        g = entropy_step_driver(self.NU, tree)
        edge = math.log(2.0) / (2.0 * self.NU * tree.dt)
        with np.errstate(all="raise"):
            got = g.conjugate_fn(0.0, np.array([-2.0, 2.0, -2.5, 3.0, np.nan, 1.0]))
            assert g.conjugate_fn(0.0, 0.0) == 0.0
            assert g.conjugate_fn(0.0, np.array([])).shape == (0,)
        assert list(got[:4]) == [edge, edge, math.inf, math.inf]
        assert math.isnan(got[4]) and 0.0 < got[5] < edge

    def test_flags_hold_on_grids(self):
        tree, g = self.driver()
        assert g.is_(CONVEX) and g.flags == entropy(self.NU).flags
        assert (g.mu, g.nu) == (0.0, self.NU)
        report = verify_class(g)
        assert report.passed and set(report.checks) == {"growth", "convexity", "domination"}

    def test_it_is_the_measures_driver(self):
        tree = build_tree(1.0, 6, FULL)
        z = np.linspace(-2.0, 2.0, 9)
        g = entropic(self.NU, tree).driver
        assert g.kind == "entropy_step"
        np.testing.assert_array_equal(g(0.0, z), entropy_step_driver(self.NU, tree)(0.0, z))
        q = quadratic_upper(0.3, 0.5)
        assert from_generator(q, tree).driver is q
        assert custom(entropy_step(self.NU), tree).driver is None


def overflowing_claim():
    """The theta=0.9 stretched leaf claim of check_domination on a full N=14
    tree; the explicit scheme for quadratic_upper(0.3, 0.5) overflows on it."""
    tree = build_tree(1.0, 14, FULL)
    xs = [c.evaluate(tree) for c in sample_claims(tree, 10, 0, "leaf", scale_to=0.5)]
    return tree, -((xs[0] - 0.9 * xs[1]) / (1.0 - 0.9))


def reference_solve(tree, xi, step, mu, nu):
    """Two-pass solve: reduce, then extract Z, then certify from max|Z|."""
    Y = backward_reduce(tree, xi, step)
    Z = extract_z(Y)
    bound = (mu + 2.0 * nu * Z.max_abs()) * tree.sqrt_dt
    return Y, Z, bound, bound <= 1.0


def assert_bitwise(a, b):
    assert len(a.values) == len(b.values)
    for x, y in zip(a.values, b.values):
        assert x.tobytes() == y.tobytes()


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestOnePass:
    CASES = [(FULL, 10), (RECOMBINING, 400)]

    @pytest.mark.parametrize("layout,N", CASES)
    def test_explicit_matches_two_pass(self, layout, N):
        tree = build_tree(1.0, N, layout)
        for g in (quadratic_upper(0.3, 0.5), quadratic_upper(1.0, 2.0)):
            for xi in (call(0.1).evaluate(tree), 50 * linear(1.0).evaluate(tree)):
                with np.errstate(all="ignore"):  # the large claim overflows at N=400
                    s = solve_bsde(g, xi, tree)
                    Y, Z, bound, ok = reference_solve(tree, xi, euler_step(g, tree),
                                                      g.mu, g.nu)
                assert_bitwise(s.Y, Y)
                assert_bitwise(s.Z, Z)
                assert same_float(s.step_bound, bound)
                assert s.monotone_step == ok

    @pytest.mark.parametrize("layout,N", CASES)
    def test_entropy_exact_matches_two_pass(self, layout, N):
        tree = build_tree(1.0, N, layout)
        xi = 3.0 * call(-0.2).evaluate(tree)
        s = entropy_exact(0.5, xi, tree)
        Y, Z, bound, _ = reference_solve(tree, xi, entropy_step(0.5), 0.0, 0.5)
        assert_bitwise(s.Y, Y)
        assert_bitwise(s.Z, Z)
        assert same_float(s.step_bound, bound)
        assert s.monotone_step

    @pytest.mark.parametrize("layout,N", CASES)
    def test_custom_matches_two_pass(self, layout, N):
        tree = build_tree(1.0, N, layout)
        step = euler_step(quadratic_upper(0.3, 0.5), tree)
        xi = call(0.0).evaluate(tree)
        s = custom(step, tree).solve_terminal(xi)
        Y, Z, _, _ = reference_solve(tree, xi, step, 0.0, 0.0)
        assert_bitwise(s.Y, Y)
        assert_bitwise(s.Z, Z)
        assert math.isnan(s.step_bound) and s.monotone_step and not s.warnings

    def test_batched_terminal_rejected(self):
        # backward_reduce would run a batch; the solvers take one terminal
        tree = build_tree(1.0, 4, FULL)
        g = quadratic_upper(0.3, 0.5)
        batch = TreeProcess(tree, [np.zeros((2, tree.n_nodes(k))) for k in range(5)])
        for solve in (lambda: custom(euler_step(g, tree), tree).solve_terminal(batch.terminal),
                      lambda: solve_bsde(g, batch.terminal, tree)):
            with pytest.raises(ValueError, match="terminal slice does not match"):
                solve()

    def test_overflow_matches_two_pass(self):
        tree, xi = overflowing_claim()
        g = quadratic_upper(0.3, 0.5)
        with np.errstate(all="ignore"):
            s = solve_bsde(g, xi, tree)
            Y, Z, bound, ok = reference_solve(tree, xi, euler_step(g, tree), g.mu, g.nu)
        assert sum(np.count_nonzero(np.isnan(v)) for v in s.Y.values) > 0
        assert_bitwise(s.Y, Y)
        assert_bitwise(s.Z, Z)
        assert math.isnan(s.step_bound) and math.isnan(bound)
        assert s.monotone_step is ok is False

    @pytest.mark.parametrize("solve", ["explicit", "entropy", "custom"])
    def test_each_step_runs_once(self, solve, monkeypatch):
        N = 50
        tree = build_tree(1.0, N, RECOMBINING)
        xi = call(0.0).evaluate(tree)
        calls = []

        def counted(step):
            def wrapper(k, down, up, *z):  # solve_bsde hands the explicit step its z
                calls.append(k)
                return step(k, down, up, *z)
            return wrapper

        if solve == "explicit":
            monkeypatch.setattr(bsde, "euler_step", lambda g, t: counted(euler_step(g, t)))
            solve_bsde(entropy(0.5), xi, tree)
        elif solve == "entropy":
            monkeypatch.setattr(bsde, "entropy_step", lambda nu: counted(entropy_step(nu)))
            entropy_exact(0.5, xi, tree)
        else:
            custom(counted(entropy_step(0.5)), tree).solve_terminal(xi)
        assert sorted(calls) == list(range(N))

    @pytest.mark.parametrize("solve,layout,N", [
        *((solve, layout, N) for layout, N in CASES
          for solve in ("explicit", "entropy", "custom")),
        ("overflow", FULL, 14)])
    def test_keep_folds_the_dropped_depths(self, solve, layout, N):
        tree = build_tree(1.0, N, layout)
        xi = call(0.1).evaluate(tree)
        g = quadratic_upper(0.3, 0.5)
        if solve == "overflow":
            tree, xi = overflowing_claim()
        run = {"explicit": lambda keep: from_generator(g, tree).solve_terminal(xi, keep),
               "overflow": lambda keep: from_generator(g, tree).solve_terminal(xi, keep),
               "entropy": lambda keep: entropic(0.5, tree).solve_terminal(xi, keep),
               "custom": lambda keep: custom(euler_step(g, tree), tree).solve_terminal(
                   xi, keep)}[solve]
        with np.errstate(all="ignore"):
            full = run(None)
            rows = [(float(y.min()), float(y.max()),
                     float(full.Z.values[k].min()) if k < N else None,
                     float(full.Z.values[k].max()) if k < N else None)
                    for k, y in enumerate(full.Y.values)]
            # str() compares NaN equal and tells -0.0 from 0.0
            assert full.dropped == () and str(full.profile()) == str(rows)
            for keep in (0, 1, N - 1, N):
                part = run(keep)
                assert part.Y.last_depth == keep
                assert part.Z.last_depth == min(keep, N - 1)
                assert_bitwise(part.Y, TreeProcess(tree, full.Y.values[: keep + 1]))
                assert_bitwise(part.Z, TreeProcess(tree, full.Z.values[: keep + 1]))
                assert len(part.dropped) == N - keep
                assert str(part.profile()) == str(rows)
                assert same_float(part.step_bound, full.step_bound)
                assert (part.monotone_step, part.warnings) == \
                    (full.monotone_step, full.warnings)

    @pytest.mark.parametrize("layout,N", CASES)
    def test_explicit_step_takes_z_bit_for_bit(self, layout, N):
        tree = build_tree(1.0, N, layout)
        step = euler_step(quadratic_upper(0.3, 0.5), tree)
        down, up = tree.split_children(call(0.1).evaluate(tree))
        z = (up - down) / (2.0 * tree.sqrt_dt)
        assert step(N - 1, down, up).tobytes() == step(N - 1, down, up, z).tobytes()

    def test_nonfinite_certificate_message(self):
        tree, xi = overflowing_claim()
        with np.errstate(all="ignore"):
            s = solve_bsde(quadratic_upper(0.3, 0.5), xi, tree)
        assert not s.monotone_step
        assert s.warnings == ("step-monotonicity certificate fails: max|Z| is not "
                              "finite (the scheme overflowed)",)


def float_bits(x):
    """A profile entry as its IEEE bits (NaN as one token, None as None)."""
    if x is None:
        return None
    assert type(x) is float
    return "nan" if math.isnan(x) else np.float64(x).view(np.uint64).item()


def sign_keeping_step(k, down, up):
    """A test operator that keeps a mix of -0.0 and +0.0 at every depth of a
    zero terminal."""
    return down * up


def profile_bits(solved):
    return [tuple(map(float_bits, row)) for row in solved.profile()]


class TestBlockFold:
    """A root-only solve folds its dropped depths per block of depths; its
    profile and certificate equal, bit for bit, those of a solve that keeps
    every depth and summarizes each stored slice on its own."""

    @staticmethod
    def terminal(tree, kind):
        if kind == "call":
            return call(0.1).evaluate(tree)
        rng = np.random.default_rng(7)
        if kind == "signed_zeros":
            return rng.choice([-0.0, 0.0], size=tree.n_nodes(tree.steps))
        xi = 3.0 * linear(1.0).evaluate(tree)  # "infinite": a few leaves at +-inf
        xi[rng.choice(xi.size, size=max(2, xi.size // 50), replace=False)] = np.inf
        xi[rng.choice(xi.size, size=max(2, xi.size // 50), replace=False)] = -np.inf
        return xi

    @staticmethod
    def solver(kind, tree, xi):
        g = quadratic_upper(0.3, 0.5)
        return {"explicit": lambda keep: from_generator(g, tree).solve_terminal(xi, keep),
                "entropy": lambda keep: entropic(0.5, tree).solve_terminal(xi, keep),
                "custom": lambda keep: custom(euler_step(g, tree), tree).solve_terminal(
                    xi, keep),
                "sign_keeping": lambda keep: custom(sign_keeping_step, tree).solve_terminal(
                    xi, keep)}[kind]

    def assert_fold_matches(self, kind, tree, xi, keeps=(0,)):
        run = self.solver(kind, tree, xi)
        with np.errstate(all="ignore"):
            full = run(None)
            reference = profile_bits(full)
            for keep in keeps:
                part = run(keep)
                assert profile_bits(part) == reference
                assert float_bits(part.step_bound) == float_bits(full.step_bound)
                assert (part.monotone_step, part.warnings) == \
                    (full.monotone_step, full.warnings)
        return full

    @pytest.mark.parametrize("kind", ["explicit", "entropy", "custom"])
    @pytest.mark.parametrize("N", [600, 4000])
    def test_recombining_blocks(self, kind, N):
        tree = build_tree(1.0, N, RECOMBINING)
        # N=600 holds about 22 blocks, N=4000 about a thousand
        keeps = (0, 1, 37, N - 1) if N == 600 else (0,)
        self.assert_fold_matches(kind, tree, self.terminal(tree, "call"), keeps)

    @pytest.mark.parametrize("kind", ["explicit", "entropy", "custom"])
    def test_depths_wider_than_a_block(self, kind):
        # full N=15: depth 14 (16384 nodes) is folded on its own, depth 13
        # (8192 nodes) fills a block exactly
        tree = build_tree(1.0, 15, FULL)
        assert tree.n_nodes(14) > bsde._BLOCK == tree.n_nodes(13)
        self.assert_fold_matches(kind, tree, self.terminal(tree, "call"), (0, 12, 13, 14))

    @pytest.mark.parametrize("kind", ["explicit", "entropy", "custom", "sign_keeping"])
    @pytest.mark.parametrize("layout,N", [(RECOMBINING, 600), (FULL, 15)])
    def test_signed_zeros(self, kind, layout, N):
        tree = build_tree(1.0, N, layout)
        full = self.assert_fold_matches(kind, tree, self.terminal(tree, "signed_zeros"),
                                        (0, 3))
        # the deepest z slice mixes -0.0 and +0.0 for every operator
        signs = np.signbit(full.Z.values[N - 1])
        assert signs.any() and not signs.all()
        if kind == "sign_keeping":  # so does every slice, and the profile
            signs = {math.copysign(1.0, x) for row in full.profile() for x in row
                     if x is not None}
            assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("kind", ["explicit", "entropy", "custom"])
    @pytest.mark.parametrize("layout,N", [(RECOMBINING, 600), (FULL, 15)])
    def test_infinite_and_nan_rows(self, kind, layout, N):
        tree = build_tree(1.0, N, layout)
        full = self.assert_fold_matches(kind, tree, self.terminal(tree, "infinite"), (0, 5))
        values = [x for row in full.profile() for x in row if x is not None]
        assert np.inf in values and -np.inf in values
        assert any(math.isnan(x) for x in values)

    def test_no_block_without_a_dropped_depth(self, monkeypatch):
        tree = build_tree(1.0, 40, RECOMBINING)
        xi = call(0.1).evaluate(tree)
        shapes = []
        real_empty = np.empty

        def spy(shape, *args, **kwargs):
            shapes.append(shape)
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(bsde.np, "empty", spy)
        drm = from_generator(quadratic_upper(0.3, 0.5), tree)
        drm.solve_terminal(xi)
        drm.solve_terminal(xi, 39)
        assert bsde._BLOCK not in shapes
        drm.solve_terminal(xi, 0)
        assert shapes.count(bsde._BLOCK) == 2


def solved_fields(s, keep=None):
    """Every field of a solution but its generator, floats as bits; ``keep``
    cuts Y and Z to the depths a solve keeping 0..keep stores (its profile
    is the whole one)."""
    ys, zs = (v.values if keep is None else v.values[: keep + 1] for v in (s.Y, s.Z))
    return ([y.tobytes() for y in ys], [z.tobytes() for z in zs],
            s.scheme, float_bits(s.step_bound), s.monotone_step,
            s.warnings, str(s.profile()))


class TestSolvePaths:
    """A measure's solve equals the solve function of its scheme, field for
    field, on both layouts and whatever depths the measure's solve keeps; a
    custom operator's solution carries no certificate."""

    CASES = [(FULL, 10), (RECOMBINING, 120)]

    @staticmethod
    def cases(layout, N):
        tree = build_tree(1.0, N, layout)
        terminals = (call(0.1).evaluate(tree), 3.0 * linear(1.0).evaluate(tree))
        return tree, terminals, (None, 0, N // 2)

    @pytest.mark.parametrize("layout,N", CASES)
    def test_explicit(self, layout, N):
        tree, terminals, keeps = self.cases(layout, N)
        certified = set()
        for g in (quadratic_upper(0.3, 0.5), quadratic_upper(1.0, 2.0)):
            drm = from_generator(g, tree)
            for xi in terminals:
                b = solve_bsde(g, xi, tree)
                for keep in keeps:
                    a = drm.solve_terminal(xi, keep)
                    assert solved_fields(a) == solved_fields(b, keep)
                    assert a.scheme == "explicit"
                    assert a.monotone_step == (a.step_bound <= 1.0)
                    assert bool(a.warnings) != a.monotone_step
                    certified.add(a.monotone_step)
        assert certified == {True, False}

    @pytest.mark.parametrize("layout,N", CASES)
    def test_entropy_exact(self, layout, N):
        tree, terminals, keeps = self.cases(layout, N)
        bounds = []
        for nu in (0.5, 2.0):
            drm = entropic(nu, tree)
            for xi in terminals:
                b = entropy_exact(nu, xi, tree)
                for keep in keeps:
                    a = drm.solve_terminal(xi, keep)
                    assert solved_fields(a) == solved_fields(b, keep)
                    assert a.scheme == "entropy_exact"
                    # the exact recursion is monotone whatever its bound
                    assert a.monotone_step is True and a.warnings == ()
                    bounds.append(a.step_bound)
        assert min(bounds) < 1.0 < max(bounds)

    @pytest.mark.parametrize("layout,N", CASES)
    def test_custom(self, layout, N):
        tree, terminals, keeps = self.cases(layout, N)
        g = quadratic_upper(0.3, 0.5)
        step = euler_step(g, tree)
        drm = custom(lambda k, down, up: step(k, down, up), tree)  # three arguments
        for xi in terminals:
            b = solve_bsde(g, xi, tree)
            for keep in keeps:
                a = drm.solve_terminal(xi, keep)
                assert solved_fields(a)[:2] == solved_fields(b, keep)[:2]
                assert str(a.profile()) == str(b.profile())
                assert a.scheme == "custom"
                assert math.isnan(a.step_bound)
                assert a.monotone_step is True and a.warnings == ()

    @pytest.mark.parametrize("nu", [0.0, -0.5])
    def test_entropy_exact_rejects_nu_first(self, nu):
        # the terminal is the wrong width, so any later check would say so
        tree = build_tree(1.0, 4, FULL)
        with pytest.raises(ValueError, match=r"^entropy_exact needs nu > 0$"):
            entropy_exact(nu, np.zeros(3), tree)


class TestBatchedSolve:
    """A measure's solve of a (B, n_nodes(N)) batch gives each row, through
    ``SolvedBSDE.row``, the fields of that row's own solve bit for bit:
    every depth of Y and Z, the certificate and the profile.  An
    overflowing row sits beside finite ones and leaves them unchanged.

    A NaN counts as one value whatever its sign: where two NaNs meet in an
    add, numpy returns the one or the other by the loop it runs (vector
    body or scalar tail), and a row of a batch may fall in the other."""

    @staticmethod
    def fields(s):
        nan_as_one = [[np.where(np.isnan(v), np.nan, v).tobytes() for v in p.values]
                      for p in (s.Y, s.Z)]
        return [*nan_as_one, *solved_fields(s)[2:]]

    @staticmethod
    def terminals(tree):
        # Full N=8 has depths 0-2 of widths 1, 2 and 4, narrower than a
        # vector register, as the rows of a batch are not.
        level = tree.brownian_slice(tree.steps)
        return [call(0.1).evaluate(tree), -3.0 * linear(1.0).evaluate(tree),
                1.5e308 * np.sign(level), np.sin(7.0 * level), np.zeros_like(level)]

    @pytest.mark.parametrize("layout,N", [(FULL, 8), (RECOMBINING, 120)])
    @pytest.mark.parametrize("measure", ["explicit", "gated", "entropy"])
    def test_rows_are_their_own_solves(self, layout, N, measure):
        tree = build_tree(1.0, N, layout)
        drm = {"explicit": lambda: from_generator(quadratic_upper(0.3, 0.5), tree),
               "gated": lambda: from_generator(quadratic_upper(1.0, 2.0), tree),
               "entropy": lambda: entropic(0.5, tree)}[measure]()
        xs = self.terminals(tree)
        with np.errstate(all="ignore"):
            batch = drm.solve_terminal(np.stack(xs))
            rows = [batch.row(r) for r in range(len(xs))]
            alone = [drm.solve_terminal(x) for x in xs]
        for r, (a, b) in enumerate(zip(rows, alone)):
            assert self.fields(a) == self.fields(b), r
        # The explicit scheme overflows to inf and NaN on row 2, the exact
        # recursion only in Z; every row's certificate is its own.
        finite = [all(np.isfinite(v).all() for v in s.Y.values) for s in alone]
        assert finite == [True, True, measure == "entropy", True, True]
        assert not math.isfinite(rows[2].step_bound)
        assert {s.monotone_step for s in rows} == ({True} if measure == "entropy"
                                                   else {True, False})

    def test_batch_keeps_every_depth(self):
        tree = build_tree(1.0, 6, FULL)
        xs = np.stack(self.terminals(tree))
        drm = entropic(0.5, tree)
        with pytest.raises(ValueError, match="a batch of terminals keeps every depth"):
            drm.solve_terminal(xs, 0)
        with np.errstate(all="ignore"):
            assert drm.solve_terminal(xs, None).Y.values[0].shape == (len(xs), 1)


class TestDerivedZ:
    """A solve that keeps every depth and whose step ignores z (the exact
    recursion, a custom operator) records no Z.  Its Z, and the Z of each
    row of a batch, is derived from Y when first read, once, under the
    numpy error state of the solve, with the bits of ``extract_z`` and of
    the Z that a recording pass gives: a solve keeping depths 0..N-1
    records every depth of Z.  A NaN equals any NaN."""

    @pytest.mark.parametrize("layout,N", [(FULL, 8), (RECOMBINING, 120)])
    @pytest.mark.parametrize("measure", ["entropy", "custom"])
    def test_derived_z_has_the_recorded_bits(self, layout, N, measure, monkeypatch):
        tree = build_tree(1.0, N, layout)
        drm = entropic(0.5, tree) if measure == "entropy" else custom(entropy_step(0.5), tree)
        xs = TestBatchedSolve.terminals(tree)  # row 2 is the +-1.5e308 overflow row
        derived = []
        real_z_of = bsde._z_of
        monkeypatch.setattr(bsde, "_z_of", lambda Y: derived.append(Y) or real_z_of(Y))
        with np.errstate(all="ignore"):
            solved = [drm.solve_terminal(x) for x in xs]
            if measure == "entropy":  # a custom measure solves one slice at a time
                batch = drm.solve_terminal(np.stack(xs))
                solved += [batch.row(r) for r in range(len(xs))]
            recorded = [drm.solve_terminal(x, N - 1).Z for x in xs]
            oracle = [extract_z(s.Y) for s in solved]
        assert not derived
        for i, s in enumerate(solved):
            with np.errstate(all="raise"):  # the derivation runs under the solve's state
                z = s.Z
            assert s.Z is z and len(derived) == i + 1  # derived once, on first read
            for want in (recorded[i % len(xs)], oracle[i]):
                assert len(z.values) == len(want.values) == N
                assert all(same_bits(a, b) for a, b in zip(z.values, want.values)), i
        assert not all(np.isfinite(v).all() for v in solved[2].Z.values)


def same_bits(got, want):
    """Same shape and bits, a NaN equal to any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


# Parameters of each built-in driver kind in the kernel tests, as floats.
DRIVER_PARAMS = {"quadratic_upper": (0.3, 0.5), "quadratic_lower": (0.3, 0.5),
                 "entropy": (0.5,), "sublinear_interval": (-0.2, 0.4), "scaled_abs": (0.3,)}


class TestInPlaceKernels:
    """The one-step kernels write into the arrays they allocate, with the
    ufuncs of the expressions in ``oracles`` in their order: every kernel
    gives its expression's bits (a NaN equal to any NaN) and, on scalars,
    its expression's type.  A kernel writes into nothing it did not
    allocate: not the (down, up) views of a stored Y slice, not the stored
    Z slice, not what a custom driver returns."""

    SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5e308, -1.5e308]

    def children(self):
        """(tree, down, up): views of a depth-8 slice on both layouts, for
        one row and for a (4, width) batch; the rows hold +-0, +-inf, NaN
        and +-1.5e308 (whose differences overflow) among random values."""
        rng = np.random.default_rng(27)
        for layout in (FULL, RECOMBINING):
            tree = build_tree(1.0, 8, layout)
            rows = rng.normal(scale=3.0, size=(4, tree.n_nodes(8)))
            n = len(self.SPECIAL)
            rows[0, :n] = self.SPECIAL
            rows[1, -n:] = self.SPECIAL[::-1]
            rows[2, 1:n + 1] = rng.permutation(self.SPECIAL)
            for child in (rows[0], rows[1], rows):
                yield tree, *tree.split_children(child)

    def scalars(self):
        """(down, up) pairs of Python floats and of 0-d arrays."""
        pairs = [(0.3, -1.2), (-0.0, 0.0), (1.5e308, -1.5e308), (-math.inf, 2.0)]
        return pairs + [(np.array(d), np.array(u)) for d, u in pairs]

    @pytest.mark.parametrize("nu", [0.5, 2.0])
    def test_entropy_step(self, nu):
        step = entropy_step(nu)
        with np.errstate(all="ignore"):
            for _, down, up in self.children():
                held = down.copy(), up.copy()
                got = step(3, down, up)
                assert same_bits(got, entropy_one_exp(nu, *held))
                assert type(got) is np.ndarray and got.flags.owndata
                assert same_bits(down, held[0]) and same_bits(up, held[1])
            for down, up in self.scalars():
                got, want = step(0, down, up), entropy_one_exp(nu, down, up)
                assert type(got) is type(want) and same_bits(got, want)

    @pytest.mark.parametrize("kind", [*DRIVER_PARAMS, "returns its input"])
    def test_explicit_step(self, kind):
        g = (Generator(lambda t, z: z, 1.0, 0.0) if kind == "returns its input"
             else BUILTINS[kind](*DRIVER_PARAMS[kind]))
        with np.errstate(all="ignore"):
            for tree, down, up in self.children():
                step = euler_step(g, tree)
                z = (up - down) / (2.0 * tree.sqrt_dt)
                held = down.copy(), up.copy(), z.copy()
                assert same_bits(step(3, down, up), oracles.explicit_step(g, tree, 3, *held[:2]))
                assert same_bits(step(3, down, up, z), oracles.explicit_step(g, tree, 3, *held))
                assert all(same_bits(a, b) for a, b in zip((down, up, z), held))
            tree = build_tree(1.0, 8, FULL)
            for down, up in self.scalars():
                got = euler_step(g, tree)(0, down, up)
                want = oracles.explicit_step(g, tree, 0, down, up)
                assert type(got) is type(want) and same_bits(got, want)

    @pytest.mark.parametrize("kind", DRIVER_PARAMS)
    def test_builtin_driver(self, kind):
        params = DRIVER_PARAMS[kind]
        g, expression = BUILTINS[kind](*params), oracles.DRIVERS[kind]
        with np.errstate(all="ignore"):
            for _, down, up in self.children():
                for z in (down, np.ascontiguousarray(up)):
                    held = z.copy()
                    assert same_bits(g.fn(0.5, z), expression(*params, z))
                    assert same_bits(g(0.5, z), expression(*params, z))
                    assert same_bits(z, held)
            for z in (0.7, -0.0, 1.5e308, math.nan, np.array(0.7), np.array(-2.0),
                      np.arange(-3, 4)):
                got, want = g.fn(0.5, z), expression(*params, z)
                assert type(got) is type(want) and same_bits(got, want)

    @pytest.mark.parametrize("layout,N", [(FULL, 8), (RECOMBINING, 120)])
    @pytest.mark.parametrize("measure", ["explicit", "entropy", "returns its input"])
    def test_batched_solve_keeps_every_slice(self, layout, N, measure):
        # Each row's Y and Z at every depth equal the solve of that row by
        # the expression form on copies; the terminal batch is left as given.
        tree = build_tree(1.0, N, layout)
        g = {"explicit": quadratic_upper(0.3, 0.5), "entropy": None,
             "returns its input": Generator(lambda t, z: z, 1.0, 0.0)}[measure]
        if g is None:
            drm = entropic(0.5, tree)
            step = lambda k, d, u: entropy_one_exp(0.5, d, u)  # noqa: E731
        else:
            drm = from_generator(g, tree)
            step = lambda k, d, u: oracles.explicit_step(g, tree, k, d, u)  # noqa: E731
        xs = np.stack(TestBatchedSolve.terminals(tree))
        given = xs.copy()
        with np.errstate(all="ignore"):
            batch = drm.solve_terminal(xs)
            for r, x in enumerate(given):
                Y = backward_reduce(tree, x.copy(), step)
                row = batch.row(r)
                for got, want in ((row.Y, Y), (row.Z, extract_z(Y))):
                    assert len(got.values) == len(want.values)
                    assert all(same_bits(a, b) for a, b in zip(got.values, want.values)), r
        assert xs.tobytes() == given.tobytes()

    def test_driver_returning_its_input_leaves_z(self):
        # A driver that hands z back must not have it scaled by dt in place.
        tree = build_tree(1.0, 8, FULL)
        s = solve_bsde(Generator(lambda t, z: z, 1.0, 0.0), call(0.1).evaluate(tree), tree)
        assert_bitwise(s.Z, extract_z(s.Y))


class TestLazyCertificate:
    """A solution computes its certificate when one of its three fields is
    first read, once, and a solve whose certificate nobody reads pays none."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"solves": 0, "rows": 0, "certificates": 0}
        real_solve, real_certificate = bsde._solve, bsde._certificate

        def solve(tree, xi, *args, **kwargs):
            seen["solves"] += 1  # backward passes
            seen["rows"] += len(xi) if xi.ndim == 2 else 1
            return real_solve(tree, xi, *args, **kwargs)

        def certificate(solved):
            seen["certificates"] += 1
            return real_certificate(solved)

        monkeypatch.setattr(bsde, "_solve", solve)
        monkeypatch.setattr(risk, "_solve", solve)  # the measures' solve path
        monkeypatch.setattr(bsde, "_certificate", certificate)
        return seen

    @pytest.mark.parametrize("solve", ["explicit", "entropy", "custom"])
    def test_read_once_on_first_access(self, counts, solve):
        tree = build_tree(1.0, 8, FULL)
        xi = call(0.1).evaluate(tree)
        g = quadratic_upper(0.3, 0.5)
        s = {"explicit": lambda: solve_bsde(g, xi, tree),
             "entropy": lambda: entropy_exact(0.5, xi, tree),
             "custom": lambda: custom(euler_step(g, tree), tree).solve_terminal(xi, 0)}[solve]()
        assert counts == {"solves": 1, "rows": 1, "certificates": 0}
        first = [(float_bits(s.step_bound), s.monotone_step, s.warnings) for _ in range(2)]
        assert first[0] == first[1] and counts["certificates"] == 1

    # The certificate counts follow from which checks gate on the
    # certificate: the 10 base solves of check_axioms (read through a
    # short-circuiting all(), so every solve of the suite is certified
    # here), monotonicity, convexity and subadditivity; the upper and lower
    # envelope solves of check_domination.  Changing which solves are gated
    # changes them.  Every row is a solve of its own; at N=8 a family's
    # rows fit one batched pass, so check_axioms makes 9 passes (the base
    # solves and 8 checks) and check_domination 23 (the base solves, the
    # 20 envelope solves, theta and sup-norm).
    def test_check_suites_read_only_gated_solves(self, counts):
        tree = build_tree(1.0, 8, FULL)
        drm = from_generator(quadratic_upper(0.3, 0.5), tree)
        claims = sample_claims(tree, 10, 0, "leaf", scale_to=0.5)
        report = check_axioms(drm, claims)
        assert all(c.status != "skipped" for c in report.checks.values())
        assert counts == {"solves": 9, "rows": 136, "certificates": 35}
        counts.update(solves=0, rows=0, certificates=0)
        check_domination(drm, 0.3, 0.5, claims)
        assert counts == {"solves": 23, "rows": 85, "certificates": 20}

    # The exact recursion's step ignores z and its verdict holds by rule,
    # so its suites neither derive a Z nor certify one of their own solves;
    # only the explicit envelope solves of check_domination are certified.
    def test_entropic_suites_derive_no_z_and_certify_no_own_solve(self, counts,
                                                                 monkeypatch):
        derived, schemes = [], []
        real_z_of, certificate = bsde._z_of, bsde._certificate
        monkeypatch.setattr(bsde, "_z_of", lambda Y: derived.append(Y) or real_z_of(Y))
        monkeypatch.setattr(bsde, "_certificate",
                            lambda s: schemes.append(s.scheme) or certificate(s))
        tree = build_tree(1.0, 8, FULL)
        drm = entropic(0.5, tree)
        claims = sample_claims(tree, 10, 0, "leaf", scale_to=0.5)
        report = check_axioms(drm, claims)
        assert all(c.status != "skipped" for c in report.checks.values())
        assert counts == {"solves": 9, "rows": 136, "certificates": 0} and not derived
        counts.update(solves=0, rows=0, certificates=0)
        report = check_domination(drm, 0.0, 0.5, claims)
        assert all(c.status == "pass" for c in report.checks.values())
        assert counts == {"solves": 23, "rows": 85, "certificates": 20} and not derived
        assert schemes == ["explicit"] * 20

    def test_cli_solve_reads_one_and_duality_none(self, counts):
        cfg = {"tree": {"horizon": 1.0, "steps": 8, "layout": "recombining"},
               "measure": {"kind": "quadratic_upper", "mu": 0.3, "nu": 0.5},
               "claim": {"kind": "call", "strike": 0.0}, "task": "solve"}
        run(parse_config(json.dumps(cfg)))
        assert counts == {"solves": 1, "rows": 1, "certificates": 1}
        counts.update(solves=0, rows=0, certificates=0)
        tree = build_tree(1.0, 8, FULL)
        verify_duality(from_generator(quadratic_upper(0.3, 0.5), tree), call(0.0))
        assert counts["solves"] >= 1 and counts["certificates"] == 0

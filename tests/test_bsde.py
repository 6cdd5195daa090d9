"""Backward solvers: explicit scheme, exact entropic scheme, recovery."""
import json
import math

import numpy as np
import pytest

from gexpect import bsde, risk
from gexpect.bsde import (
    entropy_exact,
    entropy_step,
    euler_step,
    noise_step,
    solve_bsde,
)
from gexpect.claims import call, linear, path_maximum, sample_claims
from gexpect.cli import parse_config, run
from gexpect.dual import verify_duality
from gexpect.generators import entropy, quadratic_upper, sublinear_interval
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
from oracles import entropy_two_exp, extract_z


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
        z = 0.8
        assert s.generator is None or s.generator(0.0, np.array([z]))[0] == z**2


class TestEulerScheme:
    def test_zero_driver_is_conditional_expectation(self):
        tree = build_tree(1.0, 9, FULL)
        xi = call(0.1).evaluate(tree)
        g = sublinear_interval(0.0, 0.0)
        s = solve_bsde(g, xi, tree)
        for k in range(10):
            np.testing.assert_allclose(
                s.Y.values[k], cond_expect(xi, k, tree=tree).at(k), atol=1e-13)

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
        assert s.Y.values[0][0] >= cond_expect(xi, 0, tree=tree).at(0)[0] - 1e-12


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
                      lambda: solve_bsde(g, batch)):
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
                    assert a.scheme == "explicit" and a.generator is g and b.generator is g
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
                    assert a.generator is None and b.generator is None
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
                assert a.scheme == "custom" and a.generator is None
                assert math.isnan(a.step_bound)
                assert a.monotone_step is True and a.warnings == ()

    @pytest.mark.parametrize("nu", [0.0, -0.5])
    def test_entropy_exact_rejects_nu_first(self, nu):
        # the terminal is the wrong width, so any later check would say so
        tree = build_tree(1.0, 4, FULL)
        with pytest.raises(ValueError, match=r"^entropy_exact needs nu > 0$"):
            entropy_exact(nu, np.zeros(3), tree)


class TestLazyCertificate:
    """A solution computes its certificate when one of its three fields is
    first read, once, and a solve whose certificate nobody reads pays none."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"solves": 0, "certificates": 0}
        real_solve, real_certificate = bsde._solve, bsde._certificate

        def solve(*args, **kwargs):
            seen["solves"] += 1
            return real_solve(*args, **kwargs)

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
        assert counts == {"solves": 1, "certificates": 0}
        first = [(float_bits(s.step_bound), s.monotone_step, s.warnings) for _ in range(2)]
        assert first[0] == first[1] and counts["certificates"] == 1

    # The counts follow from which checks gate on the certificate: the 10
    # base solves of check_axioms (read through a short-circuiting all(), so
    # every solve of the suite is certified here), monotonicity, convexity
    # and subadditivity; the upper and lower envelope solves of
    # check_domination.  Changing which solves are gated changes them.
    def test_check_suites_read_only_gated_solves(self, counts):
        tree = build_tree(1.0, 8, FULL)
        drm = from_generator(quadratic_upper(0.3, 0.5), tree)
        claims = sample_claims(tree, 10, 0, "leaf", scale_to=0.5)
        report = check_axioms(drm, claims)
        assert all(c.status != "skipped" for c in report.checks.values())
        assert counts == {"solves": 136, "certificates": 35}
        counts.update(solves=0, certificates=0)
        check_domination(drm, 0.3, 0.5, claims)
        assert counts == {"solves": 85, "certificates": 20}

    def test_cli_solve_reads_one_and_duality_none(self, counts):
        cfg = {"tree": {"horizon": 1.0, "steps": 8, "layout": "recombining"},
               "measure": {"kind": "quadratic_upper", "mu": 0.3, "nu": 0.5},
               "claim": {"kind": "call", "strike": 0.0}, "task": "solve"}
        run(parse_config(json.dumps(cfg)))
        assert counts == {"solves": 1, "certificates": 1}
        counts.update(solves=0, certificates=0)
        tree = build_tree(1.0, 8, FULL)
        verify_duality(from_generator(quadratic_upper(0.3, 0.5), tree), call(0.0))
        assert counts["solves"] >= 1 and counts["certificates"] == 0

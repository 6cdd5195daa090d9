"""Tree construction, processes, and exact conditional expectations."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gexpect.lattice import (
    FULL,
    FULL_DEPTH_CAP,
    RECOMBINING,
    ScenarioTree,
    TimeGrid,
    TreeProcess,
    auto_layout,
    backward_reduce,
    brownian,
    build_tree,
    cond_expect,
    deterministic,
    expectation,
    increment_matrix,
    integrate,
    path_ancestors,
    propagate,
    subtree_indicator,
)


def brute_conditional(tree, terminal, depth, p_up=0.5):
    """Path-enumeration oracle for E[X | F_depth] on a full tree."""
    n = tree.steps
    out = np.empty(tree.n_nodes(depth))
    for node in range(tree.n_nodes(depth)):
        lo = node << (n - depth)
        hi = (node + 1) << (n - depth)
        weights = np.ones(hi - lo)
        for leaf in range(lo, hi):
            ups = bin(leaf & ((1 << (n - depth)) - 1)).count("1")
            weights[leaf - lo] = p_up ** ups * (1 - p_up) ** (n - depth - ups)
        out[node] = np.dot(weights, terminal[lo:hi])
    return out


class TestConstruction:
    def test_time_grid(self):
        grid = TimeGrid(2.0, 8)
        assert grid.dt == 0.25
        assert grid.time(3) == 0.75
        assert np.allclose(grid.times(), np.linspace(0, 2, 9))

    def test_counts(self):
        full = build_tree(1.0, 5, FULL)
        rec = build_tree(1.0, 5, RECOMBINING)
        assert [full.n_nodes(k) for k in range(6)] == [1, 2, 4, 8, 16, 32]
        assert [rec.n_nodes(k) for k in range(6)] == [1, 2, 3, 4, 5, 6]

    def test_depth_caps(self):
        with pytest.raises(ValueError, match="depth cap"):
            build_tree(1.0, FULL_DEPTH_CAP + 1, FULL)
        build_tree(1.0, FULL_DEPTH_CAP + 1, RECOMBINING)
        with pytest.raises(ValueError, match="depth cap"):
            build_tree(1.0, 100_001, RECOMBINING)
        # explicit override raises the ceiling
        build_tree(1.0, 23, FULL, depth_cap=23)

    def test_auto_layout(self):
        assert auto_layout(1.0, 10, True).layout == FULL
        assert auto_layout(1.0, 500, True).layout == RECOMBINING
        with pytest.raises(ValueError, match="path-independent"):
            auto_layout(1.0, 500, False)

    def test_equality_and_hash(self):
        a = build_tree(1.0, 4, FULL)
        b = build_tree(1.0, 4, FULL)
        assert a == b and hash(a) == hash(b)
        assert a != build_tree(1.0, 4, RECOMBINING)

    def test_node_labels(self):
        full = build_tree(1.0, 3, FULL)
        assert full.node_label(0, 0) == "root"
        assert full.node_label(3, 5) == "101"
        rec = build_tree(1.0, 3, RECOMBINING)
        assert rec.node_label(2, 1) == "2:1"


class TestBrownian:
    def test_full_values_match_bit_paths(self):
        tree = build_tree(1.0, 7, FULL)
        B = brownian(tree)
        sdt = tree.sqrt_dt
        for k in (0, 3, 7):
            for node in range(tree.n_nodes(k)):
                ups = bin(node).count("1")
                assert B.at(k)[node] == pytest.approx(
                    (2 * ups - k) * sdt, abs=1e-15)

    def test_recombining_values(self):
        tree = build_tree(4.0, 9, RECOMBINING)
        B = brownian(tree)
        for k in range(10):
            expected = (2 * np.arange(k + 1) - k) * tree.sqrt_dt
            np.testing.assert_allclose(B.at(k), expected, atol=1e-15)

    def test_children_step_by_sqrt_dt(self):
        tree = build_tree(1.0, 6, FULL)
        B = brownian(tree)
        for k in range(6):
            down, up = tree.split_children(B.at(k + 1))
            np.testing.assert_allclose(down, B.at(k) - tree.sqrt_dt, atol=1e-15)
            np.testing.assert_allclose(up, B.at(k) + tree.sqrt_dt, atol=1e-15)


class TestTreeProcess:
    def test_read_only(self):
        tree = build_tree(1.0, 3, FULL)
        B = brownian(tree)
        with pytest.raises(ValueError):
            B.at(2)[0] = 99.0

    def test_arithmetic(self):
        tree = build_tree(1.0, 4, FULL)
        B = brownian(tree)
        combo = 2.0 * B + B - B
        np.testing.assert_allclose(combo.terminal, 2.0 * B.terminal)
        shifted = B + 1.5
        np.testing.assert_allclose(shifted.root(), 1.5)

    def test_constant_and_deterministic(self):
        tree = build_tree(2.0, 4, RECOMBINING)
        c = TreeProcess.constant(tree, 3.0)
        assert c.at(4).tolist() == [3.0] * 5
        f = deterministic(tree, lambda t: t * t)
        assert f.at(2)[0] == pytest.approx(1.0)

    def test_max_abs_propagates_nan_from_any_depth(self):
        tree = build_tree(1.0, 2, FULL)
        for depth in range(3):
            slices = [np.ones(tree.n_nodes(k)) for k in range(3)]
            slices[depth] = np.full(tree.n_nodes(depth), np.nan)
            assert np.isnan(TreeProcess(tree, slices).max_abs())
        assert TreeProcess.constant(tree, -2.0).max_abs() == 2.0

    def test_wrong_shape_rejected(self):
        tree = build_tree(1.0, 3, FULL)
        with pytest.raises(ValueError):
            TreeProcess(tree, [np.zeros(2)])


class TestConditionalExpectation:
    def test_against_path_enumeration(self):
        tree = build_tree(1.0, 6, FULL)
        rng = np.random.default_rng(11)
        x = rng.normal(size=tree.n_nodes(6))
        for depth in (0, 2, 5):
            got = cond_expect(x, depth, tree=tree)
            np.testing.assert_allclose(
                got.at(depth), brute_conditional(tree, x, depth), atol=1e-12)

    def test_tower_property_exact(self):
        tree = build_tree(1.0, 8, FULL)
        rng = np.random.default_rng(3)
        x = rng.normal(size=256)
        inner = cond_expect(x, 5, tree=tree)
        outer = cond_expect(inner.at(5), 2, tree=tree)
        direct = cond_expect(x, 2, tree=tree)
        # iterated averaging visits the same float operations: bit-equal
        assert np.array_equal(outer.at(2), direct.at(2))

    def test_tilted_measure(self):
        tree = build_tree(1.0, 5, FULL)

        class Tilt:
            def p_up(self, depth):
                return np.full(tree.n_nodes(depth), 0.7)

        rng = np.random.default_rng(5)
        x = rng.normal(size=32)
        got = cond_expect(x, 1, measure=Tilt(), tree=tree)
        np.testing.assert_allclose(
            got.at(1), brute_conditional(tree, x, 1, p_up=0.7), atol=1e-12)

    def test_expectation_is_leaf_mean(self):
        tree = build_tree(1.0, 10, FULL)
        rng = np.random.default_rng(8)
        x = rng.normal(size=1024)
        assert expectation(x, tree=tree) == pytest.approx(x.mean(), abs=1e-13)

    def test_recombining_matches_full(self):
        # a path-independent payoff must price identically in both layouts
        for payoff in (lambda b: np.abs(b), lambda b: np.maximum(b - 0.3, 0)):
            full = build_tree(1.0, 10, FULL)
            rec = build_tree(1.0, 10, RECOMBINING)
            e_full = expectation(payoff(full.brownian_slice(10)), tree=full)
            e_rec = expectation(payoff(rec.brownian_slice(10)), tree=rec)
            assert e_full == pytest.approx(e_rec, abs=1e-12)


def reference_propagate(tree, depth, values):
    """Hand-rolled repeat-down and average-up loops (the pre-reduction form)."""
    filled = [np.asarray(values, dtype=float)]
    for _ in range(depth, tree.steps):
        filled.append(np.repeat(filled[-1], 2))
    for _ in range(depth):
        down, up = tree.split_children(filled[0])
        filled.insert(0, 0.5 * (down + up))
    return filled


class TestPropagate:
    def test_subtree_constant_below_and_tower_above(self):
        tree = build_tree(1.0, 5, FULL)
        vals = np.arange(4.0)
        proc = propagate(tree, 2, vals)
        assert proc.last_depth == 5
        np.testing.assert_allclose(proc.at(4)[0:4], np.zeros(4))
        np.testing.assert_allclose(proc.at(1), [0.5, 2.5])
        np.testing.assert_allclose(proc.at(5)[-8:], np.full(8, 3.0))

    def test_recombining_rejected(self):
        tree = build_tree(1.0, 5, RECOMBINING)
        with pytest.raises(ValueError):
            propagate(tree, 2, np.arange(3.0))

    def test_bad_depth_or_shape_rejected(self):
        tree = build_tree(1.0, 5, FULL)
        for depth in (-1, 6):
            with pytest.raises(ValueError, match="outside"):
                propagate(tree, depth, np.zeros(1))
        with pytest.raises(ValueError, match="does not match"):
            propagate(tree, 2, np.zeros(3))

    @pytest.mark.parametrize("depth", [0, 4, 10])
    def test_matches_loop(self, depth):
        tree = build_tree(1.0, 10, FULL)
        vals = np.random.default_rng(depth).normal(size=tree.n_nodes(depth))
        got = propagate(tree, depth, vals)
        want = reference_propagate(tree, depth, vals)
        assert len(got.values) == len(want)
        for a, b in zip(got.values, want):
            assert a.tobytes() == b.tobytes()


class TestIntegrals:
    def test_time_integral_of_one(self):
        tree = build_tree(2.0, 8, FULL)
        one = TreeProcess(tree, [np.ones(tree.n_nodes(k)) for k in range(8)],
                          copy=False)
        I = integrate("time", one)
        for k in (0, 3, 8):
            np.testing.assert_allclose(I.at(k), np.full(tree.n_nodes(k), k * 0.25))

    def test_stochastic_integral_of_one_is_brownian(self):
        tree = build_tree(1.0, 7, FULL)
        one = TreeProcess(tree, [np.ones(tree.n_nodes(k)) for k in range(7)],
                          copy=False)
        I = integrate("stochastic", one)
        B = brownian(tree)
        assert I.allclose(B, atol=1e-14)

    def test_discrete_ito_identity(self):
        # sum B_k dB_k = (B_T^2 - T) / 2 holds exactly on the tree
        tree = build_tree(1.0, 9, FULL)
        B = brownian(tree)
        integrand = TreeProcess(tree, [B.at(k) for k in range(9)], copy=False)
        I = integrate("stochastic", integrand)
        np.testing.assert_allclose(
            I.terminal, 0.5 * (B.terminal ** 2 - 1.0), atol=1e-13)

    def test_window(self):
        tree = build_tree(1.0, 6, FULL)
        one = TreeProcess(tree, [np.ones(tree.n_nodes(k)) for k in range(6)],
                          copy=False)
        I = integrate("time", one, start=2, stop=4)
        assert I.at(2)[0] == 0.0
        np.testing.assert_allclose(I.terminal, np.full(64, 2 / 6))


class TestIndexing:
    def test_subtree_indicator(self):
        tree = build_tree(1.0, 4, FULL)
        ind = subtree_indicator(tree, 2, 3)
        assert ind.sum() == 4
        assert ind[12:16].all()

    def test_path_ancestors(self):
        tree = build_tree(1.0, 4, FULL)
        anc = path_ancestors(tree, 3)
        assert anc.shape == (16,)
        # leaf 11 = bits 1011 descends from depth-3 node 101 = 5
        assert anc[11] == 5
        np.testing.assert_array_equal(path_ancestors(tree, 0), np.zeros(16))

    def test_increment_matrix(self):
        tree = build_tree(1.0, 3, FULL)
        M = increment_matrix(tree)
        assert M.shape == (8, 3)
        np.testing.assert_allclose(M.sum(axis=1), brownian(tree).terminal)
        big = build_tree(1.0, 18, FULL)
        with pytest.raises(ValueError):
            increment_matrix(big)


class TestBackwardReduceProperties:
    @staticmethod
    def _tree():
        return build_tree(1.0, 6, FULL)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity_and_constants(self, seed):
        tree = self._tree()
        rng = np.random.default_rng(seed)
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        a, b = rng.normal(size=2)
        lhs = cond_expect(a * x + b * y, 3, tree=tree).at(3)
        rhs = a * cond_expect(x, 3, tree=tree).at(3) \
            + b * cond_expect(y, 3, tree=tree).at(3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_and_mean_preserving(self, seed):
        tree = self._tree()
        rng = np.random.default_rng(seed)
        x = rng.normal(size=64)
        y = x + rng.uniform(0.0, 1.0, size=64)
        ex = cond_expect(x, 2, tree=tree).at(2)
        ey = cond_expect(y, 2, tree=tree).at(2)
        assert (ex <= ey + 1e-12).all()
        assert expectation(x, tree=tree) == pytest.approx(x.mean(), abs=1e-12)

    @pytest.mark.parametrize("layout", [FULL, RECOMBINING])
    def test_shapes_checked(self, layout):
        tree = build_tree(1.0, 4, layout)
        with pytest.raises(ValueError, match="terminal slice"):
            backward_reduce(tree, np.zeros(tree.n_nodes(3)), lambda k, d, u: d)
        with pytest.raises(ValueError, match="wrong shape at depth 3"):
            backward_reduce(tree, np.zeros(tree.n_nodes(4)), lambda k, d, u: np.zeros(1))

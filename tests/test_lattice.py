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
    expectation,
    propagate,
    subtree_indicator,
)
from oracles import increment_matrix


def bits(values):
    """The bytes of an array with every NaN made the same NaN."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


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

    def test_max_abs_propagates_nan_from_any_depth(self):
        tree = build_tree(1.0, 2, FULL)
        for depth in range(3):
            slices = [np.ones(tree.n_nodes(k)) for k in range(3)]
            slices[depth] = np.full(tree.n_nodes(depth), np.nan)
            assert np.isnan(TreeProcess(tree, slices).max_abs())
        assert TreeProcess(tree, [np.full(tree.n_nodes(k), -2.0)
                                  for k in range(3)]).max_abs() == 2.0

    def test_wrong_shape_rejected(self):
        tree = build_tree(1.0, 3, FULL)
        with pytest.raises(ValueError):
            TreeProcess(tree, [np.zeros(2)])

    @pytest.mark.parametrize("layout", [FULL, RECOMBINING])
    def test_batch_shares_one_leading_shape(self, layout):
        tree = build_tree(1.0, 3, layout)
        widths = [tree.n_nodes(k) for k in range(4)]
        batch = TreeProcess(tree, [np.ones((2, w)) for w in widths])
        assert [v.shape for v in batch.values] == [(2, w) for w in widths]
        with pytest.raises(ValueError, match=r"depth 2 has shape \(3, \d\), expected \(2, \d\)"):
            TreeProcess(tree, [np.ones((2, 1)), np.ones((2, widths[1])),
                               np.ones((3, widths[2]))])
        with pytest.raises(ValueError, match=r"depth 0 has shape \(\), expected \(1,\)"):
            TreeProcess(tree, [np.float64(1.0)])
        # a reduction read through the public entry points takes one process
        for reduce in (lambda: cond_expect(batch, 1), lambda: expectation(batch)):
            with pytest.raises(ValueError, match="terminal slice does not match"):
                reduce()


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

    @pytest.mark.parametrize("layout,N", [(FULL, 10), (RECOMBINING, 200)])
    def test_expectation_is_root_of_cond_expect(self, layout, N):
        # expectation reduces to the root only; its value keeps the bits of
        # the depth-0 conditional expectation, tilted or not
        tree = build_tree(1.0, N, layout)
        rng = np.random.default_rng(21)
        p_up = [rng.uniform(0.2, 0.8, tree.n_nodes(k)) for k in range(N)]

        class Tilt:
            def p_up(self, depth):
                return p_up[depth]

        x = np.cos(3.0 * tree.brownian_slice(N)) + rng.normal(size=tree.n_nodes(N))
        for measure in (None, Tilt()):
            for source in (x, brownian(tree)):
                got = expectation(source, measure=measure, tree=tree)
                want = cond_expect(source, 0, measure=measure, tree=tree).root()
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
        for values in (np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="does not match"):
                propagate(tree, 2, values)

    @pytest.mark.parametrize("depth", [0, 4, 10])
    def test_matches_loop(self, depth):
        tree = build_tree(1.0, 10, FULL)
        vals = np.random.default_rng(depth).normal(size=tree.n_nodes(depth))
        got = propagate(tree, depth, vals)
        want = reference_propagate(tree, depth, vals)
        assert len(got.values) == len(want)
        for a, b in zip(got.values, want):
            assert a.tobytes() == b.tobytes()


class TestIndexing:
    def test_subtree_indicator(self):
        tree = build_tree(1.0, 4, FULL)
        ind = subtree_indicator(tree, 2, 3)
        assert ind.sum() == 4
        assert ind[12:16].all()

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
        for keep in (-1, 5):
            with pytest.raises(ValueError, match=f"keep={keep} outside"):
                backward_reduce(tree, np.zeros(tree.n_nodes(4)), lambda k, d, u: d,
                                keep=keep)

    @pytest.mark.parametrize("layout,N", [(FULL, 7), (RECOMBINING, 60)])
    def test_batch_equals_separate_reductions(self, layout, N):
        # a (B, width) reduction runs every row as its own 1-D reduction would,
        # bit for bit (signed zeros included; a NaN's sign bit may differ),
        # with any keep and last_depth
        tree = build_tree(1.0, N, layout)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, tree.n_nodes(N)))
        x[1, ::3] = -0.0
        x[2, 1] = np.nan
        x[3] = np.inf

        def step(k, d, u):
            z = (u - d) / (2.0 * tree.sqrt_dt)
            return np.maximum(d, u) - 0.3 * np.abs(z) * tree.dt + 0.5 * z * z * tree.dt

        with np.errstate(invalid="ignore", over="ignore"):
            for last in (N, N - 3):
                terminal = x if last == N else backward_reduce(
                    tree, x, step, keep=last).values[last]
                for keep in (None, 0, 1, last // 2, last):
                    batch = backward_reduce(tree, terminal, step, last_depth=last,
                                            keep=keep)
                    assert batch.last_depth == (last if keep is None else keep)
                    for b in range(4):
                        alone = backward_reduce(tree, terminal[b], step, last_depth=last,
                                                keep=keep)
                        for got, want in zip(batch.values, alone.values, strict=True):
                            assert got.shape == (4, want.size)
                            assert bits(got[b]) == bits(want)

    @pytest.mark.parametrize("layout", [FULL, RECOMBINING])
    def test_split_children_indexes_the_last_axis(self, layout):
        tree = build_tree(1.0, 3, layout)
        child = np.arange(2.0 * tree.n_nodes(2)).reshape(2, -1)
        for got, want in zip(tree.split_children(child),
                             zip(*(tree.split_children(row) for row in child))):
            assert got.tolist() == [w.tolist() for w in want]

    @pytest.mark.parametrize("layout,N", [(FULL, 7), (RECOMBINING, 60)])
    def test_keep_returns_the_top_slices_of_the_full_reduction(self, layout, N):
        tree = build_tree(1.0, N, layout)
        x = np.random.default_rng(3).normal(size=tree.n_nodes(N))
        step = lambda k, d, u: np.maximum(d, u) + 0.1 * np.sin(k * d * u)  # noqa: E731
        full = backward_reduce(tree, x, step)
        for last in (N, N - 2):
            top = backward_reduce(tree, full.values[last], step, last_depth=last)
            for keep in (0, 1, last // 2, last - 1, last):
                kept = backward_reduce(tree, full.values[last], step, last_depth=last,
                                       keep=keep)
                assert kept.last_depth == keep
                for a, b in zip(kept.values, top.values[: keep + 1], strict=True):
                    assert a.tobytes() == b.tobytes()

"""Claim families, seeded sampling, and stopping rules."""
import numpy as np
import pytest

from gexpect.claims import (
    Claim,
    call,
    combine,
    constant,
    first_hitting,
    fixed_depth,
    from_leaf_values,
    from_spec,
    indicator,
    linear,
    path_maximum,
    random_stopping,
    sample_claims,
    scale,
    stopped_values,
)
from gexpect.lattice import FULL, RECOMBINING, brownian, build_tree
from oracles import increment_matrix


class TestFamilies:
    def test_small_tree_by_hand(self):
        tree = build_tree(1.0, 2, FULL)
        sdt = tree.sqrt_dt
        b_T = np.array([-2, 0, 0, 2]) * sdt
        np.testing.assert_allclose(linear(2.0).evaluate(tree), 2 * b_T)
        np.testing.assert_allclose(call(0.5).evaluate(tree),
                                   np.maximum(b_T - 0.5, 0.0))
        np.testing.assert_allclose(indicator(0.0).evaluate(tree),
                                   (b_T >= 0).astype(float))
        np.testing.assert_allclose(constant(4.0).evaluate(tree), np.full(4, 4.0))

    def test_path_maximum_oracle(self):
        # the path max includes time 0 where B = 0; the fold over the tree's
        # slices adds the increments in the path matrix's order, bit for bit
        tree = build_tree(1.0, 12, FULL)
        levels = np.cumsum(increment_matrix(tree), axis=1)
        np.testing.assert_array_equal(path_maximum().evaluate(tree),
                                      np.maximum(levels.max(axis=1), 0.0))

    def test_path_claims_need_full_layout(self):
        rec = build_tree(1.0, 30, RECOMBINING)
        assert not path_maximum().path_independent
        with pytest.raises(ValueError):
            path_maximum().evaluate(rec)
        # path-independent families evaluate fine
        call(0.0).evaluate(rec)

    def test_algebra(self):
        tree = build_tree(1.0, 4, FULL)
        a, b = call(0.0), constant(1.0)
        np.testing.assert_allclose(combine(a, b).evaluate(tree),
                                   a.evaluate(tree) + 1.0)
        np.testing.assert_allclose(scale(a, -2.0).evaluate(tree),
                                   -2.0 * a.evaluate(tree))
        np.testing.assert_allclose((a + b).evaluate(tree), a.evaluate(tree) + 1)

    def test_leaf_values_and_path_rule(self):
        tree = build_tree(1.0, 3, FULL)
        v = np.arange(8.0)
        np.testing.assert_allclose(from_leaf_values(v, "v").evaluate(tree), v)
        other = build_tree(1.0, 4, FULL)
        with pytest.raises(ValueError):
            from_leaf_values(v, "v").evaluate(other)
        rule = Claim("path_rule", False, lambda t: increment_matrix(t).sum(axis=1))
        np.testing.assert_allclose(rule.evaluate(tree),
                                   brownian(tree).terminal, atol=1e-14)

    def test_path_maximum_past_the_path_matrix(self):
        # the running maximum folds over the tree's slices, so it evaluates
        # where the 2^N x N path matrix is refused; the oracle counts up-moves
        tree = build_tree(1.0, 18, FULL)
        idx = np.arange(2 ** 18)
        ups = np.zeros_like(idx)
        best = np.zeros_like(idx)  # in units of sqrt(dt), time 0 included
        for k in range(1, 19):
            ups += (idx >> (18 - k)) & 1
            best = np.maximum(best, 2 * ups - k)
        np.testing.assert_allclose(path_maximum().evaluate(tree), best * tree.sqrt_dt,
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("a", [linear(1.0), call(0.2, -1.5),
                                   from_leaf_values(np.sin(np.arange(2 ** 12)), "sin")])
    def test_sum_with_path_claim_adds_the_slices(self, a):
        tree = build_tree(1.0, 12, FULL)
        pm = path_maximum()
        total = combine(a, pm)
        assert not total.path_independent
        np.testing.assert_array_equal(total.evaluate(tree),
                                      a.evaluate(tree) + pm.evaluate(tree))
        np.testing.assert_array_equal(scale(total, -0.5).evaluate(tree),
                                      -0.5 * total.evaluate(tree))
        with pytest.raises(ValueError, match="full layout"):
            total.evaluate(build_tree(1.0, 12, RECOMBINING))

    def test_leaf_sum_past_the_path_matrix(self):
        tree = build_tree(1.0, 17, FULL)
        v = np.random.default_rng(0).uniform(-1.0, 1.0, 2 ** 17)
        np.testing.assert_array_equal((from_leaf_values(v, "v") + constant(1.5)).evaluate(tree),
                                      v + 1.5)

    def test_wrong_length_leaf_vector_in_a_sum(self):
        tree = build_tree(1.0, 4, FULL)
        for claim in (linear(1.0) + from_leaf_values([2.0], "two"),
                      from_leaf_values([2.0], "two") + linear(1.0),
                      scale(from_leaf_values([2.0], "two"), 3.0)):
            with pytest.raises(ValueError, match="leaf value vector does not match this tree"):
                claim.evaluate(tree)

    def test_from_spec(self):
        tree = build_tree(1.0, 3, FULL)
        c = from_spec("call", {"strike": 0.2, "coef": 1.5})
        np.testing.assert_allclose(
            c.evaluate(tree), call(0.2, 1.5).evaluate(tree))
        with pytest.raises(ValueError, match="unknown claim family"):
            from_spec("swaption", {})


class TestSampling:
    def test_deterministic_and_scaled(self):
        tree = build_tree(1.0, 6, FULL)
        a = sample_claims(tree, 8, seed=42, kind="leaf", scale_to=0.7)
        b = sample_claims(tree, 8, seed=42, kind="leaf", scale_to=0.7)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.evaluate(tree), cb.evaluate(tree))
            assert np.abs(ca.evaluate(tree)).max() <= 0.7 + 1e-12
        c = sample_claims(tree, 8, seed=43, kind="leaf")
        assert not np.array_equal(a[0].evaluate(tree), c[0].evaluate(tree))

    def test_mixture_on_recombining(self):
        tree = build_tree(1.0, 100, RECOMBINING)
        for claim in sample_claims(tree, 6, seed=1, kind="mixture", scale_to=1.0):
            assert claim.path_independent
            vals = claim.evaluate(tree)
            assert vals.shape == (101,)
            assert np.abs(vals).max() <= 1.0 + 1e-12


class TestStoppingTimes:
    def test_fixed_depth(self):
        tree = build_tree(1.0, 5, FULL)
        st = fixed_depth(tree, 3)
        np.testing.assert_array_equal(st.stop_depths(), np.full(32, 3))

    def test_first_hitting_oracle(self):
        tree = build_tree(1.0, 6, FULL)
        level = 1.5 * tree.sqrt_dt
        st = first_hitting(tree, level)
        paths = np.cumsum(increment_matrix(tree), axis=1)
        for leaf in range(64):
            hit = np.nonzero(np.abs(paths[leaf]) >= level)[0]
            expected = hit[0] + 1 if hit.size else 6
            assert st.stop_depths()[leaf] == expected

    def test_terminal_forced(self):
        tree = build_tree(1.0, 4, FULL)
        for seed in range(5):
            st = random_stopping(tree, seed=seed)
            d = st.stop_depths()
            assert d.min() >= 0 and d.max() <= 4

    def test_min_with(self):
        tree = build_tree(1.0, 5, FULL)
        a = random_stopping(tree, seed=3)
        b = first_hitting(tree, 0.8)
        both = a.min_with(b)
        np.testing.assert_array_equal(
            both.stop_depths(), np.minimum(a.stop_depths(), b.stop_depths()))

    def test_adaptedness(self):
        # a stopping decision at depth k must be constant on depth-k subtrees:
        # two paths agreeing through depth k stop together at k
        tree = build_tree(1.0, 6, FULL)
        st = random_stopping(tree, seed=9)
        d = st.stop_depths()
        for leaf in range(0, 64, 2):
            if d[leaf] < 6 or d[leaf + 1] < 6:
                k = min(d[leaf], d[leaf + 1])
                if k < 5:
                    continue
                # siblings agree through depth 5; equal stops before 6
                assert d[leaf] == d[leaf + 1] or max(d[leaf], d[leaf + 1]) == 6

    def test_stopped_values(self):
        tree = build_tree(1.0, 4, FULL)
        B = brownian(tree)
        st = first_hitting(tree, 0.9)
        vals = stopped_values(B, st)
        paths = np.cumsum(increment_matrix(tree), axis=1)
        d = st.stop_depths()
        for leaf in range(16):
            expected = paths[leaf, d[leaf] - 1] if d[leaf] > 0 else 0.0
            assert vals[leaf] == pytest.approx(expected, abs=1e-14)

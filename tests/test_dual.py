"""Change of measure on the tree and the penalized dual representation."""
import math

import numpy as np
import pytest

from gexpect.claims import call, sample_claims
from gexpect.dual import (
    DensityProcess,
    constant_density,
    dual_value,
    gibbs_density,
    optimal_density,
    relative_entropy,
    tilt,
    verify_duality,
)
from gexpect.generators import (
    conjugate_values,
    entropy,
    quadratic_lower,
    quadratic_upper,
    sublinear_interval,
)
from gexpect.lattice import (
    FULL,
    RECOMBINING,
    brownian,
    build_tree,
    expectation,
    increment_matrix,
)
from gexpect.risk import entropic, from_generator, rho_solved


class TestDensities:
    def test_admissibility_window(self):
        tree = build_tree(1.0, 4, FULL)
        constant_density(tree, 1.5)  # |q| sqrt(dt) = 0.75 < 1
        with pytest.raises(ValueError) as err:
            constant_density(tree, 2.1)  # 1.05 > 1 - delta
        assert "root" in str(err.value) or "node" in str(err.value)

    def test_girsanov_mean_shift_exact(self):
        q = 0.8
        for layout in (FULL, RECOMBINING):
            tree = build_tree(2.0, 16, layout)
            m = tilt(q, tree)
            got = expectation(brownian(tree).terminal, tree=tree, measure=m)
            assert got == pytest.approx(q * 2.0, abs=1e-13)

    def test_theta_is_positive_unit_mean_martingale(self):
        tree = build_tree(1.0, 8, FULL)
        m = tilt(0.9, tree)
        th = m.theta()
        assert all(np.all(v > 0) for v in th.values)
        assert expectation(th.terminal, tree=tree) == pytest.approx(1.0, abs=1e-13)
        # P-martingale: each node value is the plain average of its children
        for k in range(8):
            down, up = tree.split_children(th.values[k + 1])
            np.testing.assert_allclose(th.values[k], 0.5 * (down + up),
                                       atol=1e-14)

    def test_theta_needs_full_layout(self):
        tree = build_tree(1.0, 32, RECOMBINING)
        with pytest.raises(ValueError, match="full"):
            tilt(0.5, tree).theta()

    def test_bayes_consistency(self):
        # E_Q[xi] computed by reweighting leaves equals the measure route
        tree = build_tree(1.0, 7, FULL)
        xi = call(0.1).evaluate(tree)
        m = tilt(-0.6, tree)
        via_measure = expectation(xi, tree=tree, measure=m)
        via_theta = expectation(m.theta().terminal * xi, tree=tree)
        assert via_theta == pytest.approx(via_measure, abs=1e-13)

    def test_adapted_density_from_slices(self):
        tree = build_tree(1.0, 3, FULL)
        slices = [np.array([0.5]), np.array([0.2, -0.2]),
                  np.array([0.0, 0.1, -0.1, 0.3])]
        d = tilt(slices, tree)
        assert d.p_up(0)[0] == pytest.approx(0.5 * (1 + 0.5 * tree.sqrt_dt))


class TestRelativeEntropy:
    def test_zero_for_untilted(self):
        tree = build_tree(1.0, 6, FULL)
        est = relative_entropy(tilt(0.0, tree))
        assert est.discrete.root() == 0.0
        assert est.continuum.root() == 0.0

    def test_constant_tilt_closed_form(self):
        q, T, N = 0.7, 1.0, 20
        tree = build_tree(T, N, RECOMBINING)
        est = relative_entropy(tilt(q, tree))
        x = q * tree.sqrt_dt
        p = 0.5 * (1 + x)
        h = p * math.log(2 * p) + (1 - p) * math.log(2 * (1 - p))
        assert est.discrete.root() == pytest.approx(N * h, rel=1e-14)
        assert est.continuum.root() == pytest.approx(0.5 * q * q * T, rel=1e-14)
        # per-step binary divergence exceeds its quadratic approximation
        assert est.discrete.root() >= est.continuum.root()

    def test_discrete_approaches_continuum(self):
        q = 1.0
        gaps = []
        for N in (16, 64, 256):
            est = relative_entropy(tilt(q, build_tree(1.0, N, RECOMBINING)))
            gaps.append(est.discrete.root() - est.continuum.root())
        assert gaps[0] > gaps[1] > gaps[2] > 0


class TestDualValue:
    def test_constant_claim_costs_penalty(self):
        # risk orientation: the dual bound is E_Q[-xi] - integral f(q) dt
        tree = build_tree(1.0, 5, FULL)
        g = quadratic_upper(1.0, 1.0)
        m = tilt(0.5, tree)
        dv = dual_value(m, np.full(32, 2.0), g, tree)
        # f vanishes inside the slope band, so only the sure payoff remains
        assert dv.feasible
        assert dv.root() == pytest.approx(-2.0, abs=1e-12)

    def test_infeasible_direction_is_minus_infinity(self):
        tree = build_tree(1.0, 16, FULL)
        g = sublinear_interval(-1.0, 1.0)
        m = tilt(1.2, tree)  # outside the slope interval
        dv = dual_value(m, call(0.0).evaluate(tree), g, tree)
        assert not dv.feasible
        assert dv.root() == -math.inf
        assert dv.infeasible_nodes > 0

    def test_callable_penalty(self):
        tree = build_tree(1.0, 4, FULL)
        m = tilt(0.3, tree)
        xi = brownian(tree).terminal
        dv = dual_value(m, xi, lambda t, x: np.zeros_like(x), tree)
        # E_Q[-B_T] = -qT under the constant tilt, no penalty charged
        assert dv.root() == pytest.approx(-0.3, abs=1e-13)


class TestOptimalDensity:
    def test_fenchel_residual_vanishes(self):
        tree = build_tree(1.0, 64, RECOMBINING)
        g = quadratic_upper(1.0, 0.5)
        s = rho_solved(from_generator(g, tree), call(0.0).evaluate(tree))
        d = optimal_density(s, generator=g)
        assert d.fenchel_residual is not None
        assert max(np.abs(v).max() for v in d.fenchel_residual.values) <= 1e-12

    def test_attains_primal_value(self):
        tree = build_tree(1.0, 32, RECOMBINING)
        g = quadratic_upper(1.0, 0.5)
        xi = call(0.0).evaluate(tree)
        s = rho_solved(from_generator(g, tree), xi)
        d = optimal_density(s, generator=g)
        dv = dual_value(tilt(d, tree), xi, g, tree)
        # rho(xi) = sup_Q (E_Q[-xi] - penalty), attained by the selection
        assert dv.root() == pytest.approx(s.Y.values[0][0], abs=1e-12)

    def test_inadmissible_selection_guides_refinement(self):
        tree = build_tree(1.0, 2, FULL)
        g = quadratic_upper(1.0, 2.0)
        s = rho_solved(from_generator(g, tree), 5.0 * brownian(tree).terminal)
        with pytest.raises(ValueError, match="finer"):
            optimal_density(s, generator=g)


class TestGibbs:
    def test_matches_brute_force_enumeration(self):
        # dQ proportional to exp(-2 nu xi) dP, conditioned node by node
        nu, N = 0.6, 6
        tree = build_tree(1.0, N, FULL)
        rng = np.random.default_rng(17)
        xi = rng.normal(size=2**N)
        d = gibbs_density(nu, xi, tree)
        w = np.exp(-2 * nu * xi - np.max(-2 * nu * xi))
        w /= w.sum()
        inc = increment_matrix(tree) > 0
        m = tilt(d, tree)
        for k in range(N):
            # group leaves by their depth-k ancestor
            anc = np.arange(2**N) >> (N - k)
            for node in range(2**k):
                sel = anc == node
                mass = w[sel].sum()
                up = w[sel & inc[:, k]].sum()
                assert m.p_up(k)[node] == pytest.approx(up / mass, abs=1e-12)

    def test_attains_risk_value(self):
        nu, N = 0.5, 10
        tree = build_tree(1.0, N, FULL)
        from gexpect.bsde import entropy_exact
        for claim in sample_claims(tree, 5, seed=9, kind="leaf", scale_to=1.0):
            xi = claim.evaluate(tree)
            d = gibbs_density(nu, xi, tree)
            m = tilt(d, tree)
            dv = expectation(-xi, tree=tree, measure=m) \
                - relative_entropy(m).discrete.root() / (2 * nu)
            rho0 = entropy_exact(nu, -xi, tree).Y.values[0][0]
            assert dv == pytest.approx(rho0, abs=1e-9)

    def test_full_layout_required(self):
        tree = build_tree(1.0, 32, RECOMBINING)
        with pytest.raises(ValueError, match="full"):
            gibbs_density(0.5, np.zeros(33), tree)


class TestVerifyDuality:
    def test_quadratic_generator_report(self):
        tree = build_tree(1.0, 10, FULL)
        g = quadratic_upper(1.0, 0.5)
        drm = from_generator(g, tree)
        xi = call(0.2).evaluate(tree)
        rep = verify_duality(drm, xi, seed=4)
        assert rep.passed
        assert rep.weak_duality_ok
        assert rep.optimal_gap <= 1e-12
        kinds = {row["density"] for row in rep.rows}
        assert "subdifferential_selection" in kinds
        assert any(k.startswith("constant") for k in kinds)

    def test_entropic_gibbs_exact(self):
        tree = build_tree(1.0, 11, FULL)
        drm = entropic(0.5, tree)
        xi = call(0.0).evaluate(tree)
        rep = verify_duality(drm, xi, seed=1)
        assert rep.passed
        assert rep.gibbs_gap is not None
        assert abs(rep.gibbs_gap) <= 1e-9
        assert rep.penalty == "discrete_relative_entropy"

    def test_recombining_skips_pathwise_rows(self):
        tree = build_tree(1.0, 64, RECOMBINING)
        drm = from_generator(quadratic_upper(1.0, 0.5), tree)
        rep = verify_duality(drm, call(0.0).evaluate(tree), seed=0)
        assert rep.passed
        assert rep.gibbs_gap is None

    def test_nonconvex_driver_rejected(self):
        tree = build_tree(1.0, 8, FULL)
        drm = from_generator(quadratic_lower(1.0, 0.5), tree)
        with pytest.raises(ValueError, match="convex"):
            verify_duality(drm, call(0.0).evaluate(tree))


def reference_relative_entropy(m):
    """Hand-rolled backward loop over both estimates (the pre-reduction form)."""
    tree = m.tree
    n = tree.steps
    sdt = tree.sqrt_dt
    disc = [None] * (n + 1)
    cont = [None] * (n + 1)
    disc[n] = np.zeros(tree.n_nodes(n))
    cont[n] = np.zeros(tree.n_nodes(n))
    for k in range(n - 1, -1, -1):
        q = m.density.q.values[k]
        p = m.p_up(k)
        d_down, d_up = tree.split_children(disc[k + 1])
        c_down, c_up = tree.split_children(cont[k + 1])
        disc[k] = ((1.0 - p) * (d_down + np.log1p(-q * sdt))
                   + p * (d_up + np.log1p(q * sdt)))
        cont[k] = (1.0 - p) * c_down + p * c_up + 0.5 * q * q * tree.dt
    return disc, cont


def reference_dual_value(m, xi, penalty_fn):
    """Hand-rolled backward loop of the penalized tilted expectation."""
    tree = m.tree
    n = tree.steps
    slices = [None] * (n + 1)
    slices[n] = -np.asarray(xi, dtype=float)
    bad = 0
    for k in range(n - 1, -1, -1):
        p = m.p_up(k)
        down, up = tree.split_children(slices[k + 1])
        cost = np.asarray(penalty_fn(k * tree.dt, m.density.q.values[k]), dtype=float)
        bad += int(np.sum(np.isinf(cost)))
        slices[k] = (1.0 - p) * down + p * up - cost * tree.dt
    return slices, bad


def reference_gibbs_q(nu, xi, tree):
    """Hand-rolled partition-sum loop of the Gibbs tilt rates."""
    log_w = -2.0 * float(nu) * np.asarray(xi, dtype=float)
    n = tree.steps
    partition = [None] * (n + 1)
    partition[n] = log_w
    for k in range(n - 1, -1, -1):
        down, up = tree.split_children(partition[k + 1])
        partition[k] = np.logaddexp(down, up)
    q_slices = []
    for k in range(n):
        down, up = tree.split_children(partition[k + 1])
        p_up = np.exp(up - partition[k])
        q_slices.append((2.0 * p_up - 1.0) / tree.sqrt_dt)
    return q_slices


def assert_slices_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def adapted_tilts(tree, seed=4):
    """A constant tilt and a seeded adapted one, both admissible."""
    rng = np.random.default_rng(seed)
    cap = min(2.0, 0.9 / tree.sqrt_dt)
    q = [rng.uniform(-cap, cap, tree.n_nodes(k)) for k in range(tree.steps)]
    return [tilt(0.7, tree), tilt(q, tree)]


class TestOnReduction:
    """The dual recursions run on backward_reduce with the loops' arithmetic."""

    CASES = [(FULL, 10), (RECOMBINING, 300)]

    @pytest.mark.parametrize("layout,N", CASES)
    def test_relative_entropy_matches_loop(self, layout, N):
        tree = build_tree(1.0, N, layout)
        for m in adapted_tilts(tree):
            est = relative_entropy(m)
            disc, cont = reference_relative_entropy(m)
            assert_slices_bitwise(est.discrete.values, disc)
            assert_slices_bitwise(est.continuum.values, cont)

    @pytest.mark.parametrize("layout,N", CASES)
    def test_dual_value_matches_loop(self, layout, N):
        tree = build_tree(1.0, N, layout)
        xi = call(0.0).evaluate(tree)
        for g in (quadratic_upper(0.3, 0.5), sublinear_interval(-1.0, 1.0)):
            for m in adapted_tilts(tree):
                dv = dual_value(m, xi, g, tree)
                slices, bad = reference_dual_value(
                    m, xi, lambda t, x: conjugate_values(g, t, x))
                assert_slices_bitwise(dv.process.values, slices)
                assert dv.infeasible_nodes == bad
                assert dv.feasible == bool(np.isfinite(slices[0][0]))
        # the interval driver charges +inf outside its slopes: counted nodes
        assert bad > 0

    def test_gibbs_density_matches_loop(self):
        tree = build_tree(1.0, 10, FULL)
        for claim in sample_claims(tree, 3, seed=2, kind="leaf", scale_to=1.0):
            xi = claim.evaluate(tree)
            assert_slices_bitwise(gibbs_density(0.5, xi, tree).q.values,
                                  reference_gibbs_q(0.5, xi, tree))

    def test_dual_value_rejects_wrong_shaped_claim(self):
        tree = build_tree(1.0, 4, FULL)
        with pytest.raises(ValueError, match="terminal slice"):
            dual_value(tilt(0.3, tree), np.zeros(8), quadratic_upper(0.3, 0.5), tree)

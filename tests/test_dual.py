"""Change of measure on the tree and the penalized dual representation."""
import math
import tracemalloc

import numpy as np
import pytest

from gexpect.claims import call, sample_claims
from gexpect.dual import (
    DEFAULT_ADMISSIBILITY_MARGIN,
    TiltedMeasure,
    _PenalizedKernel,
    _Workspace,
    _entropy_kernel,
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
    TreeProcess,
    brownian,
    build_tree,
    _tilted_mean,
    cond_expect,
    expectation,
)
from gexpect.risk import entropic, from_generator, rho_solved
from oracles import increment_matrix, theta


class TestDensities:
    def test_admissibility_window(self):
        tree = build_tree(1.0, 4, FULL)
        tilt(1.5, tree)  # |q| sqrt(dt) = 0.75 < 1
        with pytest.raises(ValueError) as err:
            tilt(2.1, tree)  # 1.05 > 1 - delta
        assert "root" in str(err.value) or "node" in str(err.value)

    @pytest.mark.parametrize("bad,message", [
        ("all", "q = nan at depth 0, node root"),
        ("one", "q = nan at depth 3, node 101"),
        ("inf", r"\|q\| sqrt\(dt\) = inf > 0.999999 at depth 2, node 01"),
        ("-inf", r"\|q\| sqrt\(dt\) = inf > 0.999999 at depth 1, node 1")])
    def test_non_finite_rates_are_inadmissible(self, bad, message):
        tree = build_tree(1.0, 4, FULL)
        q = [np.zeros(tree.n_nodes(k)) for k in range(4)]
        if bad == "all":
            q = [np.full(tree.n_nodes(k), np.nan) for k in range(4)]
        elif bad == "one":
            q[3][5] = np.nan
        elif bad == "inf":
            q[2][1] = np.inf
        else:
            q[1][1] = -np.inf
        with pytest.raises(ValueError, match=f"^inadmissible density: {message}$"):
            TiltedMeasure(TreeProcess(tree, q))

    @pytest.mark.parametrize("rate,message", [
        (np.nan, "q = nan"),
        (np.inf, r"\|q\| sqrt\(dt\) = inf > 0.999999"),
        (-np.inf, r"\|q\| sqrt\(dt\) = inf > 0.999999")])
    def test_non_finite_constant_rates_are_inadmissible(self, rate, message):
        tree = build_tree(1.0, 4, FULL)
        with pytest.raises(ValueError,
                           match=f"^inadmissible density: {message} at depth 0, node root$"):
            tilt(rate, tree)

    def test_the_edge_rate_is_admitted_and_the_next_float_refused(self):
        # sqrt(dt) = 1/2 scales exactly, so |q| = 2 (1 - delta) sits on the
        # edge |q| sqrt(dt) = 1 - delta, and the float above it is past it
        tree = build_tree(1.0, 4, FULL)
        cap = 1.0 - DEFAULT_ADMISSIBILITY_MARGIN
        edge = 2.0 * cap
        above = np.nextafter(edge, np.inf)
        assert edge * tree.sqrt_dt == cap < above * tree.sqrt_dt
        q = [np.zeros(tree.n_nodes(k)) for k in range(4)]
        refused = r"^inadmissible density: \|q\| sqrt\(dt\) = 0.999999 > 0.999999 at depth "
        for sign in (1.0, -1.0):
            tilt(sign * edge, tree)
            q[3][6] = sign * edge
            TiltedMeasure(TreeProcess(tree, q))
            with pytest.raises(ValueError, match=refused + "0, node root$"):
                tilt(sign * above, tree)
            q[3][6] = sign * above
            with pytest.raises(ValueError, match=refused + "3, node 110$"):
                TiltedMeasure(TreeProcess(tree, q))

    @pytest.mark.parametrize("first,second,label", [(2, 5, "010"), (5, 6, "101")])
    def test_a_tie_for_the_largest_rate_names_the_first_node(self, first, second, label):
        tree = build_tree(1.0, 4, FULL)
        q = [np.zeros(tree.n_nodes(k)) for k in range(4)]
        q[3][first], q[3][second] = -2.5, 2.5
        with pytest.raises(ValueError, match=r"^inadmissible density: \|q\| sqrt\(dt\) "
                                             rf"= 1.25 > 0.999999 at depth 3, node {label}$"):
            TiltedMeasure(TreeProcess(tree, q))
        # a shallower bad depth is named first
        q[1][1] = 2.5
        with pytest.raises(ValueError, match="at depth 1, node 1$"):
            TiltedMeasure(TreeProcess(tree, q))

    def test_rates_need_one_slice_per_step(self):
        tree = build_tree(1.0, 4, FULL)
        q = [np.zeros(tree.n_nodes(k)) for k in range(5)]
        for slices in (q[:3], q):
            with pytest.raises(ValueError, match="one slice per step"):
                TiltedMeasure(TreeProcess(tree, slices))

    def test_tilt_returns_a_measure_as_it_is(self):
        tree = build_tree(1.0, 4, FULL)
        m = tilt(0.5, tree)
        assert tilt(m) is m and tilt(m, tree) is m

    def test_a_measure_built_on_another_tree_is_refused(self):
        # T=2 and T=1 trees share N=4 and every slice width, so nothing but
        # the tree comparison tells the tilt's sqrt(dt) is the wrong one
        t1, t2 = build_tree(1.0, 4, FULL), build_tree(2.0, 4, FULL)
        xi, m1 = brownian(t2).terminal, tilt(0.5, t1)
        assert expectation(xi, measure=tilt(0.5, t2), tree=t2) == pytest.approx(1.0)
        for wrong in (lambda: expectation(xi, measure=m1, tree=t2),
                      lambda: cond_expect(xi, 2, measure=m1, tree=t2),
                      lambda: tilt(m1, t2)):
            with pytest.raises(ValueError, match=r"^measure and tree disagree$"):
                wrong()

        class OnlyPUp:  # a duck-typed measure carries no tree to compare
            def p_up(self, depth):
                return m1.p_up(depth)

        assert expectation(xi, measure=OnlyPUp(), tree=t2) == \
            expectation(xi, measure=m1, tree=t1)

    def test_selections_are_measures(self):
        # optimal_density and gibbs_density return measures that feed every
        # tilted evaluation as they are, with the bits of a measure rebuilt
        # from their rates
        tree = build_tree(1.0, 8, FULL)
        xi = call(0.0).evaluate(tree)
        g = quadratic_upper(1.0, 0.5)
        opt = optimal_density(rho_solved(from_generator(g, tree), xi), generator=g)
        for m in (opt, gibbs_density(0.5, xi, tree)):
            assert isinstance(m, TiltedMeasure)
            rebuilt = TiltedMeasure(m.q, m.delta)
            assert_slices_bitwise(dual_value(m, xi, g).process.values,
                                  dual_value(rebuilt, xi, g).process.values)
            assert np.float64(expectation(xi, measure=m, tree=tree)).tobytes() \
                == np.float64(expectation(xi, measure=rebuilt, tree=tree)).tobytes()
            assert_slices_bitwise(relative_entropy(m).discrete.values,
                                  relative_entropy(rebuilt).discrete.values)

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
        th = theta(m)
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
            theta(tilt(0.5, tree))

    def test_bayes_consistency(self):
        # E_Q[xi] computed by reweighting leaves equals the measure route
        tree = build_tree(1.0, 7, FULL)
        xi = call(0.1).evaluate(tree)
        m = tilt(-0.6, tree)
        via_measure = expectation(xi, tree=tree, measure=m)
        via_theta = expectation(theta(m).terminal * xi, tree=tree)
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

    def test_an_empty_sweep_gives_no_constant_rows(self):
        tree = build_tree(1.0, 6, FULL)
        xi = call(0.0).evaluate(tree)
        for drm, last in ((entropic(0.5, tree), ["gibbs"]),
                          (from_generator(quadratic_upper(0.3, 0.5), tree), [])):
            rep = verify_duality(drm, xi, q_sweep=[], seed=1)
            assert [r["density"] for r in rep.rows] == [
                "subdifferential_selection", "random[0]", "random[1]", "random[2]"] + last
            assert rep.passed

    @pytest.mark.parametrize("measure", ["entropic", "quadratic_upper"])
    def test_peak_memory_of_a_full_n16_verification(self, measure):
        # The bound is 3.89 MiB (entropic) and 3.76 MiB (quadratic_upper),
        # the peaks of evaluating every density root-only in one workspace
        # with the selection built from temporaries, plus 0.6 MiB; with the
        # selection formed in place both peak at 3.4 MiB.  Node-width
        # buffers for the sweep's nine width-1 entropy rows, three of
        # (9, 2^15) floats, add 6.75 MiB.
        tree = build_tree(1.0, 16, FULL)
        xi = call(0.0).evaluate(tree)
        drm = entropic(0.5, tree) if measure == "entropic" \
            else from_generator(quadratic_upper(0.3, 0.5), tree)
        verify_duality(drm, xi)  # anything cached on first use is not counted
        tracemalloc.start()
        try:
            verify_duality(drm, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2 ** 20

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
        q = m.q.values[k]
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
        cost = np.asarray(penalty_fn(k * tree.dt, m.q.values[k]), dtype=float)
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

    @pytest.mark.parametrize("layout,N", CASES)
    def test_entropic_rows_match_two_reductions(self, layout, N):
        # each entropic row is E_Q[-xi] - H(Q|P) / (2 nu): the tilted
        # expectation and the discrete relative entropy, bit for bit
        nu, seed, q_sweep = 0.5, 3, (-1.5, 0.0, 0.7)
        tree = build_tree(1.0, N, layout)
        drm = entropic(nu, tree)
        xi = call(0.0).evaluate(tree)
        rep = verify_duality(drm, xi, q_sweep=q_sweep, seed=seed, n_random=2)
        densities = [optimal_density(rho_solved(drm, xi), generator=entropy(nu))]
        densities += [tilt(q, tree) for q in q_sweep]
        if layout == FULL:
            rng = np.random.default_rng(seed)
            cap = min(2.0, 0.9 / tree.sqrt_dt)
            densities += [TiltedMeasure(TreeProcess(tree, [
                rng.uniform(-cap, cap, tree.n_nodes(k)) for k in range(N)]))
                for _ in range(2)]
            densities.append(gibbs_density(nu, xi, tree))
        assert len(rep.rows) == len(densities)
        for row, d in zip(rep.rows, densities):
            m = tilt(d)
            want = cond_expect(-xi, 0, measure=m, tree=tree).root() \
                - relative_entropy(m).discrete.root() / (2 * nu)
            assert np.float64(row["value"]).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("layout,N", CASES + [(FULL, 17)])
    def test_conjugate_rows_match_dual_value(self, layout, N):
        # each conjugate-penalized row is the root of dual_value, bit for bit;
        # at N=17 the widest step (2^16 nodes, 512 KB) exceeds 128 KB
        seed, q_sweep = 3, (-1.5, 0.0, 0.7)
        n_random = 2 if N < 17 else 1
        tree = build_tree(1.0, N, layout)
        xi = call(0.0).evaluate(tree)
        for g in (quadratic_upper(0.3, 0.5), sublinear_interval(-1.0, 1.0)):
            drm = from_generator(g, tree)
            rep = verify_duality(drm, xi, q_sweep=q_sweep, seed=seed, n_random=n_random)
            densities = [optimal_density(rho_solved(drm, xi), generator=g)]
            densities += [tilt(q, tree) for q in q_sweep]
            if layout == FULL:
                rng = np.random.default_rng(seed)
                cap = min(2.0, 0.9 / tree.sqrt_dt)
                densities += [TiltedMeasure(TreeProcess(tree, [
                    rng.uniform(-cap, cap, tree.n_nodes(k)) for k in range(N)]))
                    for _ in range(n_random)]
            assert len(rep.rows) == len(densities)
            infeasible = 0
            for row, d in zip(rep.rows, densities):
                m = tilt(d)
                dv = dual_value(m, xi, g)
                assert np.float64(row["value"]).tobytes() == np.float64(dv.root()).tobytes()
                assert row["feasible"] == dv.feasible
                kernel = _PenalizedKernel(m, g)
                root = _Workspace(tree).root(-xi, kernel)
                assert np.float64(root).tobytes() == np.float64(dv.root()).tobytes()
                assert kernel.infinite == dv.infeasible_nodes
                infeasible += not dv.feasible
            # the interval driver charges +inf outside its slopes: -inf rows
            assert (infeasible > 0) == (g.kind == "sublinear_interval")

    def test_back_to_back_verifications_match_fresh_ones(self):
        tree = build_tree(1.0, 9, FULL)
        a, b = (c.evaluate(tree) for c in (call(-0.25), call(0.5)))
        for drm in (entropic(0.5, tree), from_generator(quadratic_upper(0.3, 0.5), tree)):
            fresh = verify_duality(drm, b, seed=2).rows
            verify_duality(drm, a, seed=1)
            again = verify_duality(drm, b, seed=2).rows
            assert [np.float64(r["value"]).tobytes() for r in again] \
                == [np.float64(r["value"]).tobytes() for r in fresh]
            assert again == fresh

    def test_public_processes_share_no_memory(self):
        tree = build_tree(1.0, 6, FULL)
        xi = call(0.0).evaluate(tree)
        g = quadratic_upper(0.3, 0.5)
        m1, m2 = adapted_tilts(tree)
        pairs = [(relative_entropy(m1).discrete, relative_entropy(m2).discrete),
                 (dual_value(m1, xi, g).process, dual_value(m2, xi, g).process)]
        for p1, p2 in pairs:
            for u in p1.values:
                assert not any(np.shares_memory(u, v) for v in p2.values)

    def test_dual_value_rejects_wrong_shaped_claim(self):
        tree = build_tree(1.0, 4, FULL)
        # a second axis would run a batch of reductions: refused like a bad width
        for xi in (np.zeros(8), np.zeros((2, 16))):
            with pytest.raises(ValueError, match="terminal slice"):
                dual_value(tilt(0.3, tree), xi, quadratic_upper(0.3, 0.5), tree)
            with pytest.raises(ValueError, match="terminal slice"):
                gibbs_density(0.5, xi, tree)


def _materialized(tree, c):
    """The constant density c stored as one full slice per depth."""
    return TiltedMeasure(TreeProcess(tree, [np.full(tree.n_nodes(k), c)
                                            for k in range(tree.steps)]))


class TestConstantDensity:
    """A constant density, stored as one value per depth, computes what the
    same density stored node by node computes, bit for bit."""

    CASES = [(FULL, 10), (RECOMBINING, 300)]

    @pytest.mark.parametrize("layout,N", CASES)
    @pytest.mark.parametrize("c", [-1.5, -0.0, 0.0, 0.7])
    def test_constant_equals_materialized(self, layout, N, c):
        tree = build_tree(1.0, N, layout)
        xi = call(0.0).evaluate(tree)
        const, full = tilt(c, tree), _materialized(tree, c)
        got, want = relative_entropy(const), relative_entropy(full)
        assert_slices_bitwise(got.discrete.values, want.discrete.values)
        assert_slices_bitwise(got.continuum.values, want.continuum.values)
        for depth in (0, N // 2):
            assert_slices_bitwise(cond_expect(-xi, depth, measure=const, tree=tree).values,
                                  cond_expect(-xi, depth, measure=full, tree=tree).values)
        assert np.float64(expectation(xi, measure=const, tree=tree)).tobytes() \
            == np.float64(expectation(xi, measure=full, tree=tree)).tobytes()
        work = _Workspace(tree)
        for g in (quadratic_upper(0.3, 0.5), sublinear_interval(-1.0, 1.0)):
            got, want = dual_value(const, xi, g), dual_value(full, xi, g)
            assert_slices_bitwise(got.process.values, want.process.values)
            assert (got.feasible, got.infeasible_nodes) \
                == (want.feasible, want.infeasible_nodes)
            roots = [work.root(-xi, _PenalizedKernel(m, g)) for m in (const, full)]
            assert np.float64(roots[0]).tobytes() == np.float64(roots[1]).tobytes()
        for kernel, terminal in ((_entropy_kernel, work.zeros), (_tilted_mean, -xi)):
            roots = [work.root(terminal, kernel(m)) for m in (const, full)]
            assert np.float64(roots[0]).tobytes() == np.float64(roots[1]).tobytes()

    def test_constant_slices_are_read_only(self):
        tree = build_tree(1.0, 6, FULL)
        for m in (tilt(0.7, tree), _materialized(tree, 0.7)):
            for k in (0, 3):
                for v in (m.q.values[k], m.p_up(k)):
                    assert v.shape == (tree.n_nodes(k),)
                    with pytest.raises(ValueError):
                        v[0] = 0.0

    def test_constant_tilt_stores_one_value_per_depth(self):
        tree = build_tree(1.0, 20, FULL)
        tracemalloc.start()
        try:
            tilt(0.5, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one slice of the deepest step alone would take 4 MiB
        assert peak < 2 ** 20

    def test_constant_entropy_rows_hold_one_float_per_depth(self):
        # both rows of a constant tilt's entropy run at width 1 from a zero
        # terminal; a node-width buffer kept behind one depth-17 float alone
        # would hold 1 MiB
        tree = build_tree(1.0, 18, FULL)
        m = tilt(0.5, tree)
        tracemalloc.start()
        try:
            est = relative_entropy(m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2 ** 20
        assert est.discrete.values[17].strides == est.continuum.values[17].strides == (0,)

    def test_per_depth_scalars_store_one_value_per_depth(self):
        tree = build_tree(1.0, 20, FULL)
        tracemalloc.start()
        try:
            tilt([0.5] * 20, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("layout,N", CASES)
    def test_per_depth_scalars_equal_the_scalar_form(self, layout, N):
        tree = build_tree(1.0, N, layout)
        xi = call(0.0).evaluate(tree)
        listed, scalar = tilt([0.7] * N, tree), tilt(0.7, tree)
        got, want = relative_entropy(listed), relative_entropy(scalar)
        assert_slices_bitwise(got.discrete.values, want.discrete.values)
        assert_slices_bitwise(got.continuum.values, want.continuum.values)
        assert np.float64(expectation(xi, measure=listed, tree=tree)).tobytes() \
            == np.float64(expectation(xi, measure=scalar, tree=tree)).tobytes()

    def test_node_wide_values_are_copied(self):
        tree = build_tree(1.0, 3, FULL)
        slices = [np.array([0.5]), np.array([0.2, -0.2]), np.array([0.0, 0.1, -0.1, 0.3])]
        m = tilt(slices, tree)
        slices[2][:] = 9.0
        assert list(m.q.values[2]) == [0.0, 0.1, -0.1, 0.3]

    @pytest.mark.parametrize("layout,N,nodes", [(FULL, 16, 65535),
                                                (RECOMBINING, 300, 45150)])
    def test_infinite_penalties_count_nodes(self, layout, N, nodes):
        # q = 1.2 leaves the slopes [-1, 1]: every node of depths 0..N-1 pays +inf
        tree = build_tree(1.0, N, layout)
        assert nodes == sum(tree.n_nodes(k) for k in range(N))
        m, g = tilt(1.2, tree), sublinear_interval(-1.0, 1.0)
        xi = call(0.0).evaluate(tree)
        assert dual_value(m, xi, g, tree).infeasible_nodes == nodes
        kernel = _PenalizedKernel(m, g)
        assert _Workspace(tree).root(-xi, kernel) == -math.inf
        assert kernel.infinite == nodes

"""Dynamic risk measure layer: axioms, domination, stopping, representation."""
import math
import warnings

import numpy as np
import pytest

from gexpect.bsde import noise_step
from gexpect.claims import call, constant, linear, sample_claims
from gexpect.dual import verify_duality
from gexpect.generators import (
    CONVEX,
    DOMINATED,
    SUBLINEAR,
    entropy,
    quadratic_lower,
    quadratic_upper,
    scaled_abs,
    sublinear_interval,
)
from gexpect.lattice import FULL, RECOMBINING, TreeProcess, brownian, build_tree
from gexpect import risk
from gexpect.bsde import euler_step
from gexpect.risk import (
    AXIOMS,
    check_axioms,
    check_domination,
    custom,
    entropic,
    from_generator,
    optional_stopping_check,
    represent,
    rho,
    rho_solved,
    supermartingale_gap,
)
from gexpect.claims import first_hitting, fixed_depth, random_stopping
from gexpect.penalization import canonical_supermartingale
from oracles import scale


class TestRho:
    def test_constants_map_to_negated_constants(self):
        # risk convention: holding a sure payoff c carries risk -c
        tree = build_tree(1.0, 6, FULL)
        for drm in (entropic(0.5, tree), from_generator(quadratic_upper(1, 1), tree)):
            Y = rho(drm, constant(3.0).evaluate(tree))
            for slice_ in Y.values:
                np.testing.assert_allclose(slice_, -3.0, atol=1e-12)

    def test_entropic_closed_form_through_drm(self):
        nu, N = 0.5, 128
        tree = build_tree(1.0, N, RECOMBINING)
        drm = entropic(nu, tree)
        y0 = rho(drm, brownian(tree).terminal).at(0)[0]
        assert y0 == pytest.approx(
            N / (2 * nu) * math.log(math.cosh(2 * nu * tree.sqrt_dt)), abs=1e-12)

    def test_depth_slices_consistent(self):
        tree = build_tree(1.0, 5, FULL)
        drm = from_generator(entropy(0.4), tree)
        xi = call(0.1).evaluate(tree)
        full_run = rho(drm, xi)
        for depth in (0, 2, 5):
            partial = rho_solved(drm, xi, keep=depth).Y
            assert partial.last_depth == depth
            for a, b in zip(partial.values, full_run.values):
                assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match="outside"):
            rho_solved(drm, xi, keep=6)

    def test_entropic_records_its_driver(self):
        # the driver nu z^2 is what the exact recursion solves; rebinding keeps it
        tree = build_tree(1.0, 8, FULL)
        drm = entropic(0.5, tree)
        g = drm.generator
        assert (g.kind, g.mu, g.nu) == ("entropy", 0.0, 0.5)
        assert g(0.0, 1.5) == entropy(0.5)(0.0, 1.5)
        assert drm.rebind(build_tree(1.0, 4, FULL)).generator.nu == 0.5
        assert not hasattr(drm, "nu")

    @pytest.mark.parametrize("layout", [FULL, RECOMBINING])
    def test_scheme_is_the_one_its_solutions_report(self, layout):
        tree = build_tree(1.0, 6, layout)
        g = quadratic_upper(0.3, 0.5)
        step = from_generator(g, tree).one_step
        for drm, scheme in ((from_generator(g, tree), "explicit"),
                            (entropic(0.5, tree), "entropy_exact"),
                            (custom(lambda k, down, up: step(k, down, up), tree), "custom")):
            assert drm.scheme == scheme and not hasattr(drm, "kind")
            for keep in (None, 0, 3):
                assert rho_solved(drm, call(0.1), keep).scheme == scheme
            if scheme != "custom":
                assert drm.rebind(build_tree(1.0, 4, layout)).scheme == scheme

    def test_rho_solved_carries_certificate(self):
        tree = build_tree(1.0, 8, FULL)
        s = rho_solved(entropic(0.5, tree), call(0.0).evaluate(tree))
        assert s.monotone_step
        assert s.step_bound <= 1.0


class TestAxioms:
    def test_entropic_fails_homogeneity_with_witness(self):
        tree = build_tree(1.0, 8, FULL)
        drm = entropic(0.5, tree)
        claims = sample_claims(tree, 10, 11, "leaf", scale_to=0.5)
        rep = check_axioms(drm, claims, seed=11)
        assert set(rep.checks) == set(AXIOMS)
        # convex but not coherent: scaling (and with it subadditivity) breaks
        assert "positive_homogeneity" in rep.failing()
        assert set(rep.failing()) <= {"positive_homogeneity", "subadditivity"}
        w = rep.checks["positive_homogeneity"].witness
        assert w is not None and w["gap"] > 0
        # reproducible witness: same seed, same offending comparison
        rep2 = check_axioms(drm, claims, seed=11)
        assert rep2.checks["positive_homogeneity"].witness == w

    @pytest.mark.parametrize("depth", [100, -1])
    def test_depth_outside_the_tree_is_rejected(self, depth):
        tree = build_tree(1.0, 4, FULL)
        with pytest.raises(ValueError, match=rf"depth {depth} outside \[0, 4\]"):
            check_axioms(entropic(0.5, tree), sample_claims(tree, 2, 0, "leaf"),
                         depths=[0, depth])

    def test_sublinear_passes_all(self):
        tree = build_tree(1.0, 8, FULL)
        drm = from_generator(sublinear_interval(-1.0, 1.0), tree)
        rep = check_axioms(drm, sample_claims(tree, 10, 3, "leaf", scale_to=0.5), seed=3)
        assert rep.passed
        assert all(c.status == "pass" for c in rep.checks.values())

    def test_convex_dominated_profile(self):
        tree = build_tree(1.0, 10, FULL)
        drm = from_generator(quadratic_upper(1.0, 0.25), tree)
        claims = sample_claims(tree, 20, seed=7, kind="leaf", scale_to=0.4)
        rep = check_axioms(drm, claims=claims, seed=7)
        by = {n: c.status for n, c in rep.checks.items()}
        for name in ("monotonicity", "time_consistency", "constant_preservation",
                     "convexity", "translation_invariance", "regularity"):
            assert by[name] == "pass", (name, rep.checks[name])
        # quadratic growth is neither subadditive nor homogeneous
        assert by["positive_homogeneity"] == "fail"

    def test_gating_skips_comparisons_when_certificate_breaks(self):
        tree = build_tree(1.0, 4, FULL)
        drm = from_generator(quadratic_upper(1.0, 2.0), tree)
        claims = sample_claims(tree, 6, seed=5, kind="leaf", scale_to=25.0)
        rep = check_axioms(drm, claims=claims, seed=5)
        gated = [n for n, c in rep.checks.items() if c.status == "skipped"]
        assert "monotonicity" in gated
        assert rep.checks["monotonicity"].note


    def test_checks_with_nothing_to_compare_are_skipped(self):
        tree = build_tree(1.0, 4, FULL)
        drm = entropic(0.5, tree)
        rep = check_axioms(drm, sample_claims(tree, 1, 0, "leaf"), depths=[])
        compared = {n for n, c in rep.checks.items() if c.comparisons}
        assert compared == {"positive_homogeneity"}
        for name in set(AXIOMS) - compared:
            check = rep.checks[name]
            assert (check.status, check.note) == ("skipped", "nothing compared")
        with pytest.raises(ValueError, match="at least one claim"):
            check_axioms(drm, [])
        with pytest.raises(ValueError, match="at least one claim"):
            check_domination(drm, 0.0, 0.5, [])


def unreachable_step(k, down, up):
    raise AssertionError("a solve ran before the inputs were checked")


class TestDomination:
    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5])
    def test_theta_outside_the_unit_interval_is_rejected_before_any_solve(self, theta):
        # theta = 1 divides by zero; theta > 1 is outside the inequality's domain
        tree = build_tree(1.0, 4, FULL)
        drm = custom(unreachable_step, tree)
        with pytest.raises(ValueError, match=rf"theta in \(0, 1\), got {theta}"):
            check_domination(drm, 0.0, 0.5, sample_claims(tree, 2, 0, "leaf"),
                             thetas=(0.5, theta))

    def test_entropic_is_zero_nu_dominated(self):
        tree = build_tree(1.0, 8, FULL)
        drm = entropic(0.5, tree)
        rep = check_domination(drm, 0.0, 0.5, sample_claims(tree, 10, 2, "leaf", scale_to=0.5))
        assert rep.passed
        assert all(c.status == "pass" for c in rep.checks.values())

    def test_halved_envelope_fails_with_witness(self):
        tree = build_tree(1.0, 8, FULL)
        drm = entropic(0.5, tree)
        rep = check_domination(drm, 0.0, 0.25, sample_claims(tree, 10, 2, "leaf", scale_to=0.5))
        assert not rep.passed
        bad = [c for c in rep.checks.values() if c.status == "fail"]
        assert bad and bad[0].witness is not None


def suite_reports(drm, claims):
    """Both suites' reports as text: a NaN gap is ``nan`` whatever its sign."""
    g = drm.bounds
    return repr((check_axioms(drm, claims, seed=4), check_domination(drm, *g, claims)))


class TestBatchedSuites:
    """The suites solve each check's terminals in chunks of rows; the rows
    are compared in the order of the one-at-a-time loops, so the reports are
    theirs whatever the chunk width."""

    @pytest.mark.parametrize("layout,N,rows", [
        (FULL, 8, 256), (FULL, 13, 8), (FULL, 14, 4), (FULL, 15, 2), (FULL, 16, 1),
        (RECOMBINING, 100, 25), (RECOMBINING, 2000, 1)])
    def test_rows_per_chunk(self, layout, N, rows):
        tree = build_tree(1.0, N, layout)
        assert risk._chunk_rows(entropic(0.5, tree)) == rows
        assert risk._chunk_rows(from_generator(quadratic_upper(0.3, 0.5), tree)) == rows
        assert risk._chunk_rows(custom(lambda k, d, u: 0.5 * (d + u), tree)) == 1

    @pytest.mark.parametrize("values,rows", [(1, 1), (3 * 127, 3), (2 ** 17, 1032)])
    def test_reports_do_not_depend_on_the_chunk_width(self, monkeypatch, values, rows):
        # 3 rows a chunk splits the sup-norm pairs and every check's rows
        # unevenly; the scale-25 suite breaks the certificate of some solves.
        tree = build_tree(1.0, 6, FULL)
        monkeypatch.setattr(risk, "_CHUNK_VALUES", values)
        claims = sample_claims(tree, 7, 5, "leaf", scale_to=25.0)
        for drm in (from_generator(quadratic_upper(1.0, 2.0), tree), entropic(0.5, tree)):
            assert risk._chunk_rows(drm) == rows
            with np.errstate(all="ignore"):
                report = suite_reports(drm, claims)
            monkeypatch.setattr(risk, "_CHUNK_VALUES", 1)
            with np.errstate(all="ignore"):
                assert report == suite_reports(drm, claims)
            monkeypatch.setattr(risk, "_CHUNK_VALUES", values)
        assert "skipped" in report and "fail" in report

    def test_custom_suites_solve_one_slice_at_a_time(self, monkeypatch):
        # The custom measure of the explicit step reports what the batched
        # explicit measure does, but for the certificate it cannot read.
        tree = build_tree(1.0, 8, FULL)
        g = quadratic_upper(0.3, 0.5)
        claims = sample_claims(tree, 10, 1, "leaf", scale_to=0.5)
        shapes = []
        real = risk.DynamicRiskMeasure.solve_terminal

        def solve_terminal(drm, terminal):
            shapes.append((drm.scheme, np.shape(terminal)))
            return real(drm, terminal)

        monkeypatch.setattr(risk.DynamicRiskMeasure, "solve_terminal", solve_terminal)
        batched = suite_reports(from_generator(g, tree), claims)
        assert {n for s, (n, *_) in shapes if s == "explicit"} == {10, 5, 30, 6, 15, 40, 25}
        shapes.clear()
        one_at_a_time = suite_reports(
            custom(euler_step(g, tree), tree, "generator[quadratic_upper]", (g.mu, g.nu)), claims)
        assert set(shapes) == {("custom", (tree.n_nodes(8),))} and len(shapes) == 136 + 65
        assert one_at_a_time == batched

    def test_domination_with_nothing_to_compare_is_skipped(self):
        tree = build_tree(1.0, 4, FULL)
        drm = entropic(0.5, tree)
        two = sample_claims(tree, 2, 0, "leaf")
        for claims, thetas, z_grid in ((two[:1], (0.5,), (0.0,)), (two, (), (0.0,)),
                                       (two, (0.5,), ())):
            rep = check_domination(drm, 0.0, 0.5, claims, thetas=thetas, z_grid=z_grid)
            assert rep.checks["two_sided_envelope"].status == "pass"
            empty = {"theta_domination": not thetas or len(claims) < 2,
                     "sup_norm_bound": not z_grid or len(claims) < 2}
            for name, skipped in empty.items():
                check = rep.checks[name]
                assert (check.status, check.note) == (("skipped", "nothing compared")
                                                      if skipped else ("pass", "")), name


class TestSupermartingale:
    def test_canonical_process_has_nonnegative_gap(self):
        tree = build_tree(1.0, 64, RECOMBINING)
        drm = entropic(0.5, tree)
        W = canonical_supermartingale(1.0, 0.5, 1.0, tree)
        gap, witness = supermartingale_gap(drm, W)
        assert gap <= 0.0 + 1e-12
        assert witness is None

    def test_violation_carries_node(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        # an undershooting drift: the driver needs nu z^2 t, give it half
        W = canonical_supermartingale(0.0, 0.25, 4.0, tree)
        gap, witness = supermartingale_gap(drm, W)
        assert gap > 0
        assert witness is not None and "node" in witness


def with_nan(Y, depth, node):
    """A copy of the process Y with one node set to NaN."""
    values = [v.copy() for v in Y.values]
    values[depth][node] = np.nan
    return TreeProcess(Y.tree, values)


class TestNanPrecheck:
    """The value process of a claim is a one-step supermartingale for its
    measure; with a NaN node it is not, and no precheck may pass it."""

    def test_gap_is_nan_at_the_first_nan_defect(self):
        tree = build_tree(1.0, 6, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = rho_solved(drm, call(0.0)).Y
        assert supermartingale_gap(drm, Y)[0] <= 1e-12
        gap, witness = supermartingale_gap(drm, with_nan(Y, 3, 1))
        assert math.isnan(gap)
        # depth 2 reads the NaN as a child, at nodes 2:0 and 2:1; argmax
        # names the first
        assert witness["depth"] == 2 and witness["node"] == "2:0"
        assert math.isnan(witness["gap"])

    def test_nan_of_the_operator_is_not_the_inputs(self):
        # on finite values, a NaN that the operator answers is left to the
        # checks that judge the measure (here: the violation elsewhere counts)
        tree = build_tree(1.0, 6, RECOMBINING)
        step = entropic(0.5, tree).one_step
        drm = custom(lambda k, down, up: np.where(down > 0.5, np.nan, step(k, down, up)),
                     tree)
        with np.errstate(invalid="ignore"):
            gap, witness = supermartingale_gap(drm, scale(brownian(tree), 2.0))
        assert gap > 0 and witness["gap"] == gap

    def test_optional_stopping_rejects_nan(self):
        tree = build_tree(1.0, 6, FULL)
        drm = entropic(0.5, tree)
        Y = rho_solved(drm, call(0.0)).Y
        with pytest.raises(ValueError, match=r"not a one-step supermartingale.*"
                                             r"violation nan.*'node': '10'"):
            optional_stopping_check(drm, with_nan(Y, 3, 5), fixed_depth(tree, 2),
                                    fixed_depth(tree, 5))


class TestOptionalStopping:
    def test_stopped_supermartingale_passes(self):
        tree = build_tree(1.0, 10, FULL)
        drm = entropic(0.5, tree)
        W = canonical_supermartingale(1.0, 0.5, 1.0, tree)
        sigma = fixed_depth(tree, 3)
        tau = first_hitting(tree, 0.8)
        chk = optional_stopping_check(drm, W, sigma, tau)
        assert chk.passed
        assert chk.max_violation <= chk.tol

    def test_seeded_pairs(self):
        tree = build_tree(1.0, 9, FULL)
        drm = entropic(0.4, tree)
        W = canonical_supermartingale(0.8, 0.4, 0.9, tree)
        for seed in range(5):
            sigma = random_stopping(tree, seed=seed)
            tau = random_stopping(tree, seed=seed + 100)
            chk = optional_stopping_check(drm, W, sigma, tau)
            assert chk.passed, chk.witness

    def test_precondition_rejected(self):
        tree = build_tree(1.0, 8, FULL)
        drm = entropic(0.5, tree)
        # B_t itself is a rho-submartingale here, not a supermartingale
        W = scale(brownian(tree), 2.0)
        with pytest.raises(ValueError, match="supermartingale"):
            optional_stopping_check(drm, W, fixed_depth(tree, 2),
                                    fixed_depth(tree, 6))


class TestRepresent:
    def test_entropic_recovers_quadratic(self):
        tree = build_tree(1.0, 512, RECOMBINING)
        drm = entropic(0.5, tree)
        zs = np.linspace(-2, 2, 9)
        ghat = represent(drm, zs)
        got = ghat(0.0, zs)
        np.testing.assert_allclose(got, 0.5 * zs**2, rtol=0.02, atol=1e-4)

    def test_round_trip_reproduces_values(self):
        tree = build_tree(1.0, 256, RECOMBINING)
        g = quadratic_upper(0.5, 0.5)
        drm = from_generator(g, tree)
        ghat = represent(drm, np.linspace(-1.5, 1.5, 25))
        back = from_generator(ghat, tree)
        for claim in sample_claims(tree, 5, seed=21, kind="mixture", scale_to=1.0):
            a = rho(drm, claim.evaluate(tree)).at(0)[0]
            b = rho(back, claim.evaluate(tree)).at(0)[0]
            assert b == pytest.approx(a, abs=5e-3)

    def test_precheck_aborts_on_non_measure(self):
        tree = build_tree(1.0, 6, FULL)

        def bad_step(k, down, up):
            return 1.5 * down - 0.5 * up  # anti-monotone in the up state

        drm = custom(bad_step, tree, label="bad", bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="monotonicity"):
            represent(drm, np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("z_grid,t_grid,message", [
        ([0.5], (0.0,), "at least two z grid points"),
        ([-1.0, 1.0], (), "t_grid must not be empty"),
        ([0.0, 0.0, 1.0], (0.0,), "z grid points must be distinct; 0 repeats"),
        ([0.0, math.nan, 1.0], (0.0,), "z grid points must be finite; got nan"),
        ([-1.0, math.inf, 1.0], (0.0,), "z grid points must be finite; got inf"),
        ([-1.0, 1.0], (0.0, math.nan), "t_grid points must be finite; got nan")])
    def test_grids_are_checked_before_the_precheck(self, z_grid, t_grid, message):
        drm = custom(unreachable_step, build_tree(1.0, 4, FULL), bounds=(0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                represent(drm, z_grid, t_grid)

    def test_repeated_z_point_raises_without_a_numeric_warning(self):
        # Once divided by zero in the row-convexity test and gave a NaN edge slope.
        drm = entropic(0.5, build_tree(1.0, 8, FULL))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="z grid points must be distinct"):
                represent(drm, [0.0, 0.0, 1.0])

    def test_custom_source_needs_bounds(self):
        tree = build_tree(1.0, 4, FULL)
        drm = custom(lambda k, d, u: 0.5 * (d + u), tree)
        with pytest.raises(ValueError, match="bounds"):
            represent(drm, np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("z_grid", [np.linspace(-2.0, 2.0, 40), [0.5, 1.0, 2.0],
                                        [-1.0, 1.0]], ids=["40_points", "positive", "two"])
    @pytest.mark.parametrize("measure", ["entropic", "quadratic_upper"])
    def test_grid_without_zero(self, measure, z_grid):
        # An interpolated table once missed g(0) = 0 off such grids and raised.
        tree = build_tree(1.0, 64, RECOMBINING)
        drm = (entropic(0.5, tree) if measure == "entropic"
               else from_generator(quadratic_upper(0.3, 0.5), tree))
        ghat = represent(drm, z_grid, (0.0, 0.5))
        assert ghat.scalar(0.0, 0.0) == 0.0
        assert ghat.is_(CONVEX)

    @pytest.mark.parametrize("make", [lambda tree: entropic(0.5, tree),
                                      lambda tree: from_generator(quadratic_upper(0.3, 0.5), tree),
                                      lambda tree: from_generator(scaled_abs(0.4), tree)],
                             ids=["entropic", "quadratic_upper", "scaled_abs"])
    def test_rebuilt_measure_is_the_measure(self, make):
        # The driver is read exactly, so the explicit scheme of it reproduces
        # the measure to rounding, between the grid points and outside them.
        tree = build_tree(1.0, 1024, RECOMBINING)
        drm = make(tree)
        back = from_generator(represent(drm, np.linspace(-2.0, 2.0, 41)), tree)
        for xi in sample_claims(tree, 8, seed=11):
            assert rho(back, xi).root() == pytest.approx(rho(drm, xi).root(), rel=0, abs=1e-12)

    def test_off_grid_value_is_the_one_step_driver(self):
        tree = build_tree(1.0, 64, RECOMBINING)
        drm = entropic(0.5, tree)
        ghat = represent(drm, np.linspace(-1.0, 1.0, 5), (0.0, 0.5))
        zs = np.array([-3.1, -0.37, 0.123, 0.9, 2.7])
        for t, k in ((0.0, 0), (0.37, 24), (0.99, 63), (5.0, 63), (-1.0, 0)):
            np.testing.assert_array_equal(ghat(t, zs),
                                          noise_step(drm.one_step, k, zs, tree) / tree.dt)

    def test_two_point_grid_asserts_no_flag(self):
        drm = from_generator(quadratic_lower(0.3, 0.5), build_tree(1.0, 6, FULL))
        ghat = represent(drm, [0.0, 1.0], precheck=False)
        assert ghat.flags == frozenset()
        assert ghat.scalar(0.0, 1.0) == pytest.approx(-0.8)

    def test_precheck_refuses_a_skipped_required_check(self):
        # nu = 0.8 breaks the step certificate on full N=6: monotonicity is
        # skipped, so nothing proves the operator monotone.
        drm = from_generator(quadratic_upper(0.3, 0.8), build_tree(1.0, 6, FULL))
        with pytest.raises(ValueError, match="skipped monotonicity on the sample suite.*"
                                             "step certificate violated"):
            represent(drm, np.linspace(-1, 1, 5))

    def test_precheck_refuses_a_skipped_domination_check(self):
        # The linear expectation passes every axiom, but the envelope of the
        # bounds (0, 2) breaks its own certificate, so the envelope is unchecked.
        drm = custom(lambda k, d, u: 0.5 * (d + u), build_tree(1.0, 6, FULL),
                     bounds=(0.0, 2.0))
        with pytest.raises(ValueError, match="skipped two_sided_envelope on the sample suite"
                                             ".*envelope solver certificate violated"):
            represent(drm, np.linspace(-1, 1, 5))

    def test_growth_beyond_the_bounds_is_not_dominated(self):
        # g_0(3) = 4.40 > nu_bar * 9 = 0.9: convex, but outside the bounds.
        tree = build_tree(1.0, 64, RECOMBINING)
        drm = custom(entropic(0.5, tree).one_step, tree, bounds=(0.0, 0.1))
        ghat = represent(drm, np.linspace(-3.0, 3.0, 41), precheck=False)
        assert ghat.flags == frozenset({CONVEX})

    @pytest.mark.parametrize("make,sublinear", [
        (lambda tree: from_generator(scaled_abs(0.5), tree), True),
        (lambda tree: from_generator(sublinear_interval(-1.0, 1.0), tree), True),
        (lambda tree: from_generator(quadratic_upper(0.3, 0.5), tree), False),
        (lambda tree: entropic(0.5, tree), False)],
        ids=["scaled_abs", "sublinear_interval", "quadratic_upper", "entropic"])
    def test_coherent_sources_are_sublinear(self, make, sublinear):
        ghat = represent(make(build_tree(1.0, 64, RECOMBINING)), np.linspace(-3.0, 3.0, 41))
        assert ghat.flags == {CONVEX, DOMINATED} | ({SUBLINEAR} if sublinear else set())

    @pytest.mark.parametrize("make", [lambda tree: from_generator(quadratic_upper(0.3, 0.5), tree),
                                      lambda tree: from_generator(scaled_abs(0.4), tree),
                                      lambda tree: entropic(0.5, tree)],
                             ids=["quadratic_upper", "scaled_abs", "entropic"])
    def test_recovered_driver_attains_the_dual(self, make):
        # The paper's chain: measure -> its driver -> the dual representation.
        tree = build_tree(1.0, 8, FULL)
        ghat = represent(make(tree), np.linspace(-2.0, 2.0, 41), (0.0, 0.5))
        assert verify_duality(from_generator(ghat, tree), call(0.0)).passed

    def test_precheck_requires_translation_invariance(self):
        # Convex, monotone and constant-preserving, but the drift x^2/(10 - m)
        # of the child spread x depends on the level m of the children.
        tree = build_tree(1.0, 6, FULL)

        def level_step(k, down, up):
            m = 0.5 * (down + up)
            return m + 0.05 * (up - down) ** 2 / (10.0 - m)

        drm = custom(level_step, tree, label="level", bounds=(0.0, 1.0))
        with pytest.raises(ValueError, match="level fails translation_invariance"):
            represent(drm, np.linspace(-1, 1, 5))

    def test_reading_the_driver_stores_no_slice(self):
        # One row of the z grid per t: no n_nodes(k)-wide array (full N=20
        # holds 2^19 nodes at t = 0.95, 4 MB per slice).
        import tracemalloc

        tree = build_tree(1.0, 20, FULL)
        drm = from_generator(quadratic_upper(0.3, 0.5), tree)
        tracemalloc.start()
        try:
            ghat = represent(drm, np.linspace(-2.0, 2.0, 9), (0.95,), precheck=False)
            ghat(0.95, np.linspace(-3.0, 3.0, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

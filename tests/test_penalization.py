"""Penalized approximation and the discrete Doob-Meyer decomposition.

The solvers take the drift part of the target: the process under study is
always Y + z B, with Y the first argument and z the noise loading.
"""
import warnings

import numpy as np
import pytest

from gexpect.lattice import (
    FULL,
    RECOMBINING,
    TreeProcess,
    brownian,
    build_tree,
)
from gexpect.penalization import (
    PenalizedCertificate,
    canonical_drift,
    canonical_supermartingale,
    doob_meyer,
    solve_penalized,
)
from gexpect.bsde import euler_step
from gexpect.generators import quadratic_upper
from gexpect.claims import call
from gexpect.risk import custom, entropic, from_generator, one_step_defects, rho_solved, \
    supermartingale_gap
from oracles import add, scale


def identity_gap(drm, sol):
    """Worst one-step defect |rho_k(-M_{k+1}) - M_k| of M = y + zB + A, folded
    depth by depth: the rho-martingale identity the implicit step solves."""
    M = add(sol.y, scale(brownian(sol.tree), sol.z), sol.A)
    worst = 0.0
    for _, defect in one_step_defects(drm, M):
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


class TestSolvePenalized:
    def test_zero_target_is_exactly_zero(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        zero = TreeProcess(tree, [np.zeros(tree.n_nodes(k)) for k in range(17)])
        sol = solve_penalized(drm, zero, 0.0, 64.0)
        assert all(np.all(v == 0.0) for v in sol.y.values)
        assert all(np.all(v == 0.0) for v in sol.A.values)

    def test_rho_martingale_needs_no_compensator(self):
        # the exact drift makes Y + zB a rho-martingale: nothing to subtract
        tree = build_tree(1.0, 32, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(0.0, 0.5, 1.0, tree, drift="exact", drm=drm)
        sol = solve_penalized(drm, Y, 1.0, 256.0)
        assert sol.gap_to_target <= 1e-10
        assert max(np.abs(v).max() for v in sol.A.values) <= 1e-8
        assert identity_gap(drm, sol) <= 1e-13

    def test_certificate_and_below_target(self):
        tree = build_tree(1.0, 64, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(1.0, 0.5, 1.0, tree)
        sol = solve_penalized(drm, Y, 1.0, 32.0)
        assert sol.certificate.below_target
        assert sol.certificate.increasing
        assert sol.certificate.max_violation <= 0.0 + 1e-15
        for yk, wk in zip(sol.y.values, Y.values):
            assert np.all(yk <= wk + 1e-12)

    def test_identity_holds_to_rounding(self):
        # y + zB + A reproduces the one-step operator exactly
        tree = build_tree(1.0, 48, RECOMBINING)
        drm = entropic(0.4, tree)
        Y = canonical_drift(0.7, 0.4, 0.8, tree)
        sol = solve_penalized(drm, Y, 0.8, 128.0)
        assert identity_gap(drm, sol) <= 1e-13

    def test_monotone_in_n_node_exact(self):
        tree = build_tree(1.0, 40, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(1.0, 0.5, 1.0, tree)
        prev = solve_penalized(drm, Y, 1.0, 8.0)
        for n in (16.0, 32.0, 64.0, 128.0):
            cur = solve_penalized(drm, Y, 1.0, n)
            for a, b in zip(prev.y.values, cur.y.values):
                assert np.all(b >= a)
            prev = cur

    def test_supermartingale_precondition_enforced(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        # drift too weak for the driver at this slope
        Y = canonical_drift(0.0, 0.25, 4.0, tree)
        gap, witness = supermartingale_gap(drm, add(Y, scale(brownian(tree), 4.0)))
        assert gap > 0
        with pytest.raises(ValueError, match="supermartingale"):
            solve_penalized(drm, Y, 4.0, 16.0)
        # check=False skips the guard
        solve_penalized(drm, Y, 4.0, 16.0, check=False)

    def test_nan_target_rejected(self):
        # the entropic value process of a call is a rho-supermartingale; with
        # one NaN node it is not, and both solvers refuse it at the precheck
        tree = build_tree(1.0, 6, RECOMBINING)
        drm = entropic(0.5, tree)
        values = [v.copy() for v in rho_solved(drm, call(0.0)).Y.values]
        values[3][1] = np.nan
        Y = TreeProcess(tree, values)
        message = r"not a rho-supermartingale: one-step violation nan at 2:0 \(depth 2\)"
        with pytest.raises(ValueError, match=message):
            doob_meyer(drm, Y, 0.0)
        with pytest.raises(ValueError, match=message):
            solve_penalized(drm, Y, 0.0, 4.0)
        # a NaN leaf that the operator does not read leaves no NaN defect,
        # but the bound it scales is NaN, and the precheck fails there
        drm = custom(lambda k, down, up: np.fmax(down, up), tree)
        values = [v.copy() for v in canonical_drift(1.0, 0.5, 1.0, tree).values]
        values[6][0] = np.nan
        with pytest.raises(ValueError, match="violation 0 at the horizon"):
            doob_meyer(drm, TreeProcess(tree, values), 0.0)

    def test_terminal_values_pinned(self):
        tree = build_tree(1.0, 24, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(1.0, 0.5, 1.0, tree)
        sol = solve_penalized(drm, Y, 1.0, 4.0)
        np.testing.assert_array_equal(sol.y.terminal, Y.terminal)


class TestDoobMeyer:
    def test_compensator_matches_drift_surplus(self):
        # entropic driver consumes nu z^2 t; the surplus mu |z| t is what
        # the compensator must absorb in the limit
        tree = build_tree(1.0, 64, RECOMBINING)
        mu_bar, nu, z = 1.0, 0.5, 1.0
        drm = entropic(nu, tree)
        Y = canonical_drift(mu_bar, nu, z, tree)
        dec = doob_meyer(drm, Y, z)
        surplus = mu_bar * abs(z) * 1.0
        a_T = dec.A.terminal[0]
        assert a_T == pytest.approx(surplus, rel=0.02)
        assert dec.gaps_nonincreasing

    def test_uniqueness_across_schedules(self):
        tree = build_tree(1.0, 32, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(0.8, 0.5, 1.0, tree)
        a = doob_meyer(drm, Y, 1.0, n_schedule=(4.0, 64.0, 1024.0))
        b = doob_meyer(drm, Y, 1.0, n_schedule=(1024.0,))
        for va, vb in zip(a.A.values, b.A.values):
            np.testing.assert_array_equal(va, vb)

    def test_levels_report_progress(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(1.0, 0.5, 1.0, tree)
        dec = doob_meyer(drm, Y, 1.0, n_schedule=(2.0, 8.0, 32.0))
        assert [lv["n"] for lv in dec.levels] == [2.0, 8.0, 32.0]
        gaps = [lv["max_target_gap"] for lv in dec.levels]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert dec.n_final == 32.0

    def test_early_stop_on_rho_martingale(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(0.0, 0.5, 1.0, tree, drift="exact", drm=drm)
        dec = doob_meyer(drm, Y, 1.0)
        assert dec.converged
        assert dec.n_final < 2.0**14  # stopped well before the last level

    def test_non_monotone_measure_detected_across_levels(self):
        # phi(d, u) = 1.5 d - 0.5 u is anti-monotone in the up state; the
        # penalized values then move the wrong way as n grows
        tree = build_tree(1.0, 2, FULL)
        drm = custom(lambda k, d, u: 1.5 * d - 0.5 * u, tree, label="skewed")
        W = TreeProcess(tree, [np.array([-4.9]), np.array([0.0, 10.0]),
                               np.zeros(4)])
        with pytest.raises(ValueError, match="decreased between levels"):
            doob_meyer(drm, W, 0.0, n_schedule=(2.0, 4.0))

    def test_state_dependent_slack_needs_full_layout(self):
        # -alpha t - c B^2 is a strict rho-supermartingale whose one-step
        # slack varies with the state, so its compensator cannot live on
        # the recombining lattice
        def target(tree):
            B = brownian(tree)
            return TreeProcess(tree, [
                -0.5 * k * tree.dt - 0.1 * B.values[k] ** 2 for k in range(9)
            ])

        tree = build_tree(1.0, 8, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = target(tree)
        gap, _ = supermartingale_gap(drm, Y)
        assert gap <= 1e-12
        with pytest.raises(ValueError, match="full layout"):
            doob_meyer(drm, Y, 0.0, n_schedule=(4.0,))
        # the same data on the full layout accumulates fine
        ftree = build_tree(1.0, 8, FULL)
        dec = doob_meyer(entropic(0.5, ftree), target(ftree), 0.0,
                         n_schedule=(4.0, 16.0))
        assert all(np.all(v >= -1e-12) for v in dec.A.values)


class TestCanonicalProcesses:
    def test_continuum_drift_rate(self):
        tree = build_tree(1.0, 10, RECOMBINING)
        drift = canonical_drift(1.0, 0.5, 1.0, tree)
        # deterministic, linear in t with slope -(mu |z| + nu z^2)
        for k in range(11):
            assert drift.values[k][0] == pytest.approx(-1.5 * k * tree.dt,
                                                       abs=1e-13)
            assert np.ptp(drift.values[k]) == 0.0

    def test_exact_drift_is_rho_martingale(self):
        tree = build_tree(1.0, 20, RECOMBINING)
        drm = entropic(0.5, tree)
        W = add(canonical_drift(0.0, 0.5, 1.3, tree, drift="exact", drm=drm),
                scale(brownian(tree), 1.3))
        gap, _ = supermartingale_gap(drm, W)
        assert abs(gap) <= 1e-12

    def test_supermartingale_is_drift_plus_scaled_noise(self):
        tree = build_tree(1.0, 12, RECOMBINING)
        W = canonical_supermartingale(1.0, 0.5, 2.0, tree)
        D = canonical_drift(1.0, 0.5, 2.0, tree)
        B = brownian(tree)
        for k in range(13):
            np.testing.assert_allclose(W.values[k],
                                       D.values[k] + 2.0 * B.values[k],
                                       atol=1e-13)

    def test_unknown_drift_mode_rejected(self):
        tree = build_tree(1.0, 4, RECOMBINING)
        with pytest.raises(ValueError):
            canonical_drift(1.0, 0.5, 1.0, tree, drift="midpoint")


def reference_accumulate(tree, increments):
    """Forward sum of the per-step increments into A; on the recombining
    layout each increment slice must be constant in the state."""
    slices = [np.zeros(1)]
    for k, inc in enumerate(increments):
        if tree.layout == FULL:
            slices.append(np.repeat(slices[k] + inc, 2))
        else:
            lo, hi = float(np.min(inc)), float(np.max(inc))
            if hi - lo > 1e-12 * (1.0 + abs(hi)):
                raise ValueError(
                    "the accumulated penalty is path dependent at depth "
                    f"{k} (increment spread {hi - lo:.3g}); use the full layout")
            mid = 0.5 * (lo + hi)
            slices.append(np.full(tree.n_nodes(k + 1), slices[k][0] + mid))
    return TreeProcess(tree, slices, copy=False)


def reference_penalized(drm, Y, z, n, tol=1e-10):
    """Hand-rolled implicit backward loop, then A, the worst one-step defect
    of y + zB + A folded depth by depth, the certificate and the gap to the
    target (the pre-reduction form)."""
    tree = drm.tree
    dt, sdt = tree.dt, tree.sqrt_dt
    n_dt = n * dt
    N = tree.steps
    y = [None] * (N + 1)
    y[N] = Y.values[N].copy()
    for k in range(N - 1, -1, -1):
        down, up = tree.split_children(y[k + 1])
        phi = drm.one_step(k, down - z * sdt, up + z * sdt)
        y[k] = (phi + n_dt * Y.values[k]) / (1.0 + n_dt)
    increments = [n_dt * (Y.values[k] - y[k]) for k in range(N)]
    A = reference_accumulate(tree, increments)
    M = add(TreeProcess(tree, y, copy=False), scale(brownian(tree), z), A)
    worst = 0.0
    for k in range(M.last_depth):
        down, up = tree.split_children(M.values[k + 1])
        worst = max(worst, float(np.max(np.abs(drm.one_step(k, down, up) - M.values[k]))))
    over = max(float(np.max(y[k] - Y.values[k])) for k in range(N + 1))
    below = over <= tol * (1.0 + Y.max_abs())
    worst_inc = min(float(np.min(inc)) for inc in increments)
    increasing = worst_inc >= -tol * (1.0 + n_dt * Y.max_abs())
    violation = max(over, -worst_inc, 0.0) if not (below and increasing) else 0.0
    gap = max(float(np.max(Y.values[k] - y[k])) for k in range(N + 1))
    return y, A, worst, PenalizedCertificate(below, increasing, violation), gap


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def penalization_cases(layout, N):
    """(measure, target, z) triples: continuum and exact drifts, and on the full
    layout a target whose one-step slack depends on the state."""
    tree = build_tree(1.0, N, layout)
    gen = from_generator(quadratic_upper(0.3, 0.5), tree)
    ent = entropic(0.5, tree)
    cases = [(gen, canonical_drift(1.0, 0.5, 1.0, tree), 1.0),
             (ent, canonical_drift(1.0, 0.5, 0.8, tree), 0.8),
             (ent, canonical_drift(0.0, 0.5, 1.3, tree, drift="exact", drm=ent), 1.3)]
    if layout == FULL:
        B = brownian(tree)
        cases.append((ent, TreeProcess(tree, [
            -0.5 * k * tree.dt - 0.1 * B.values[k] ** 2 for k in range(N + 1)]), 0.0))
    return cases


class TestOnReduction:
    """solve_penalized runs on backward_reduce with the loop's arithmetic."""

    @pytest.mark.parametrize("layout,N", [(FULL, 10), (RECOMBINING, 300)])
    def test_matches_loop(self, layout, N):
        for drm, Y, z in penalization_cases(layout, N):
            for n in (4.0, 256.0):
                self.assert_matches(solve_penalized(drm, Y, z, n), drm, Y, z, n)

    def test_broken_certificate_matches_loop(self):
        # a skewed operator lifts y above the zero target: the violation path
        tree = build_tree(1.0, 10, FULL)
        drm = custom(lambda k, d, u: 1.5 * d - 0.5 * u, tree, label="skewed")
        Y = canonical_drift(0.0, 0.0, -1.0, tree)
        sol = solve_penalized(drm, Y, -1.0, 4.0, check=False)
        assert not sol.certificate.below_target
        assert sol.certificate.max_violation > 0.0
        self.assert_matches(sol, drm, Y, -1.0, 4.0)

    @staticmethod
    def assert_matches(sol, drm, Y, z, n):
        y, A, worst, cert, gap = reference_penalized(drm, Y, z, n)
        assert len(sol.y.values) == len(y)
        for a, b in zip(sol.y.values, y):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(sol.A.values, A.values):
            assert a.tobytes() == b.tobytes()
        assert identity_gap(drm, sol) == worst
        assert same_bits(sol.gap_to_target, gap)
        assert (sol.certificate.below_target, sol.certificate.increasing) \
            == (cert.below_target, cert.increasing)
        assert same_bits(sol.certificate.max_violation, cert.max_violation)


def martingale_gap(drm, W, A):
    """Worst one-step defect of W + A folded depth by depth, as a level reports it."""
    worst = [float(np.max(np.abs(d))) for _, d in one_step_defects(drm, add(W, A))]
    return float(np.max(worst, initial=0.0))


class TestOneSweep:
    """doob_meyer solves its levels in one batched sweep; each level equals
    the one-level solve_penalized bit for bit."""

    @pytest.mark.parametrize("layout,N", [(FULL, 8), (RECOMBINING, 200)])
    def test_levels_match_single_level_solves(self, layout, N):
        schedule = (2.0, 16.0, 128.0, 1024.0, 4096.0)
        for drm, Y, z in penalization_cases(layout, N):
            dec = doob_meyer(drm, Y, z, n_schedule=schedule, rel_stop=0.0)
            W = add(Y, scale(brownian(drm.tree), z))
            assert [lv["n"] for lv in dec.levels] == list(schedule)
            for lv in dec.levels:
                sol = solve_penalized(drm, Y, z, lv["n"], check=False)
                assert same_bits(lv["max_target_gap"], sol.gap_to_target)
                assert same_bits(lv["martingale_gap"], martingale_gap(drm, W, sol.A))
            for a, b in zip(dec.A.values, sol.A.values, strict=True):
                assert a.tobytes() == b.tobytes()
            assert dec.martingale_gap == dec.levels[-1]["martingale_gap"]
            assert dec.n_final == schedule[-1]

    def test_early_stop_leaves_later_levels_unread(self):
        tree = build_tree(1.0, 8, FULL)
        drm = from_generator(quadratic_upper(0.3, 0.5), tree)
        Y = canonical_drift(1.0, 0.5, 1.0, tree)
        dec = doob_meyer(drm, Y, 1.0, rel_stop=0.002)
        assert [lv["n"] for lv in dec.levels] == [2.0 ** j for j in range(1, 9)]
        assert dec.converged and dec.n_final == 256.0
        sol = solve_penalized(drm, Y, 1.0, 256.0)
        for a, b in zip(dec.A.values, sol.A.values, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("layout", [FULL, RECOMBINING])
    def test_one_step_defects_run_on_a_batch(self, layout):
        tree = build_tree(1.0, 6, layout)
        drm = from_generator(quadratic_upper(0.3, 0.5), tree)
        rows = [canonical_supermartingale(1.0, 0.5, z, tree) for z in (0.5, 1.0, 2.0)]
        batch = TreeProcess(tree, [np.stack([r.values[k] for r in rows])
                                   for k in range(7)])
        for (k, got), *alone in zip(one_step_defects(drm, batch),
                                    *(one_step_defects(drm, r) for r in rows)):
            for b, (_, want) in enumerate(alone):
                assert got[b].tobytes() == want.tobytes()


def skewed_target(tree, seed):
    """A strict supermartingale for the non-monotone phi(d, u) = 1.5 d - 0.5 u."""
    rng = np.random.default_rng(seed)
    vals = [None] * (tree.steps + 1)
    vals[-1] = rng.normal(size=tree.n_nodes(tree.steps))
    for k in range(tree.steps - 1, -1, -1):
        d, u = tree.split_children(vals[k + 1])
        vals[k] = 1.5 * d - 0.5 * u + rng.uniform(0, 1, size=tree.n_nodes(k))
    return TreeProcess(tree, vals)


def skewed(k, d, u):
    return 1.5 * d - 0.5 * u


def state_slack_target(tree, sign=-1.0):
    B = brownian(tree)
    return TreeProcess(tree, [sign * 0.5 * k * tree.dt - 0.1 * B.values[k] ** 2
                              for k in range(tree.steps + 1)])


class TestErrorPrecedence:
    """The batched sweep raises what the level-by-level loop raised, with the
    same message: level order first, then depth order, then node order."""

    def test_drop_names_levels_depth_and_node(self):
        tree = build_tree(1.0, 5, FULL)
        with pytest.raises(ValueError) as err:
            doob_meyer(custom(skewed, tree), skewed_target(tree, 1), 0.0,
                       n_schedule=(0.5, 1.0, 4.0, 16.0, 64.0))
        assert str(err.value) == (
            "y^n decreased between levels 0.5 and 1: drop 0.0155 at depth 3, "
            "node 011; the measure is not monotone")

    def test_drop_after_an_early_stop_is_not_raised(self):
        tree = build_tree(1.0, 2, FULL)
        W = TreeProcess(tree, [np.array([-4.9]), np.array([0.0, 10.0]), np.zeros(4)])
        drm = custom(skewed, tree)
        with pytest.raises(ValueError, match="between levels 2 and 4: drop 0.678 at "
                                             "depth 0, node root"):
            doob_meyer(drm, W, 0.0, n_schedule=(2.0, 4.0))
        dec = doob_meyer(drm, W, 0.0, n_schedule=(2.0, 4.0), rel_stop=10.0)
        assert dec.converged and dec.n_final == 2.0
        assert [lv["max_target_gap"] for lv in dec.levels] == [5.0]

    def test_path_dependent_increment_names_its_depth(self):
        tree = build_tree(1.0, 8, RECOMBINING)
        drm, Y = entropic(0.5, tree), state_slack_target(tree)
        with pytest.raises(ValueError) as err:
            doob_meyer(drm, Y, 0.0, n_schedule=(4.0, 16.0))
        assert str(err.value) == (
            "the accumulated penalty is path dependent at depth 2 (increment "
            "spread 0.00106); use the full layout")
        with pytest.raises(ValueError, match=r"depth 2 \(increment spread 0\.00122\)"):
            solve_penalized(drm, Y, 0.0, 16.0)

    def test_precheck_comes_first(self):
        tree = build_tree(1.0, 8, RECOMBINING)
        with pytest.raises(ValueError) as err:
            # also path dependent, but the precheck raises before any level
            doob_meyer(entropic(0.5, tree), state_slack_target(tree, 1.0), 0.0,
                       n_schedule=(4.0, 16.0))
        assert str(err.value) == ("input is not a rho-supermartingale: one-step "
                                  "violation 0.0652 at 7:0 (depth 7)")
        tree = build_tree(1.0, 16, RECOMBINING)
        drm, Y = entropic(0.5, tree), canonical_drift(0.0, 0.25, 4.0, tree)
        message = ("input is not a rho-supermartingale: one-step violation 0.184 "
                   "at 0:0 (depth 0)")
        for solve in (lambda: doob_meyer(drm, Y, 4.0),
                      lambda: solve_penalized(drm, Y, 4.0, 16.0)):
            with pytest.raises(ValueError) as err:
                solve()
            assert str(err.value) == message

    def test_nan_drop_raises(self):
        # a measure that answers NaN off a band of states: y^n and y^m are NaN
        # at the same nodes, and NaN > atol would pass the drop check
        tree = build_tree(1.0, 8, RECOMBINING)
        step = euler_step(quadratic_upper(0.3, 0.5), tree)
        drm = custom(lambda k, down, up: np.where(np.abs(down) > 0.5, np.nan,
                                                  step(k, down, up)), tree)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
            doob_meyer(drm, canonical_drift(1.0, 0.5, 1.0, tree), 1.0, n_schedule=[2, 4])
        assert str(err.value) == ("y^n decreased between levels 2 and 4: drop nan at "
                                  "depth 0, node 0:0; the measure is not monotone")

    def test_level_checks(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        Y = canonical_drift(1.0, 0.5, 1.0, tree)
        # a level that is not positive raises before the precheck ...
        with pytest.raises(ValueError, match="level must be positive"):
            doob_meyer(drm, canonical_drift(0.0, 0.25, 4.0, tree), 4.0,
                       n_schedule=(-1.0, 4.0))
        # ... wherever the schedule holds it, even past the stop, and so
        # does a level that is not finite (a NaN would keep its place in
        # the sorted schedule, an inf would solve into NaN)
        nan, inf = float("nan"), float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kwargs in ({"n_schedule": (4.0, nan, -2.0, 8.0)},
                           {"n_schedule": (4.0, nan, -2.0, 8.0), "rel_stop": 10.0},
                           {"n_schedule": (4.0, inf)}):
                with pytest.raises(ValueError, match="level must be positive"):
                    doob_meyer(drm, Y, 1.0, **kwargs)
            with pytest.raises(ValueError, match="level must be positive"):
                solve_penalized(drm, Y, 1.0, inf)
        with pytest.raises(ValueError, match="target process lives on a different tree"):
            doob_meyer(drm, canonical_drift(1.0, 0.5, 1.0, build_tree(1.0, 8, RECOMBINING)),
                       1.0)
        with pytest.raises(ValueError, match="must reach the terminal depth"):
            doob_meyer(drm, TreeProcess(tree, Y.values[:5]), 1.0)


def test_recombining_schedule_keeps_no_batched_y():
    # the recombining A needs only the per-depth folds: the sweep keeps y's
    # root alone, so the whole schedule peaks at a few processes' memory
    # (Y, the noise, W and A), not at one y per level
    import tracemalloc

    tree = build_tree(1.0, 400, RECOMBINING)
    drm = entropic(0.5, tree)
    Y = canonical_drift(1.0, 0.5, 1.0, tree)
    process = 8 * sum(v.size for v in Y.values)
    tracemalloc.start()
    try:
        dec = doob_meyer(drm, Y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.levels) == 14
    assert peak < 5 * process


def test_exact_drift_reads_the_operator_at_width_one():
    # The output holds 2^21 doubles (16 MB) on a full N=20 tree; reading
    # each depth's one-step value costs no slice of that depth on top.
    import tracemalloc

    tree = build_tree(1.0, 20, FULL)
    drm = entropic(0.5, tree)
    tracemalloc.start()
    try:
        Y = canonical_drift(0.0, 0.5, 1.3, tree, drift="exact", drm=drm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6
    # each step adds (1/2nu) log cosh(2nu z sqrt(dt)), with 2nu = 1
    assert -Y.values[-1][0] == pytest.approx(
        tree.steps * np.log(np.cosh(1.3 * tree.sqrt_dt)), rel=1e-12)

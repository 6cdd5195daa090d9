"""Penalized approximation and the discrete Doob-Meyer decomposition.

The solvers take the drift part of the target: the process under study is
always Y + z B, with Y the first argument and z the noise loading.
"""
import numpy as np
import pytest

from gexpect.lattice import (
    FULL,
    RECOMBINING,
    TreeProcess,
    brownian,
    build_tree,
    deterministic,
)
from gexpect.penalization import (
    _accumulate,
    canonical_drift,
    canonical_supermartingale,
    doob_meyer,
    solve_penalized,
)
from gexpect.generators import quadratic_upper
from gexpect.risk import custom, entropic, from_generator, supermartingale_gap


class TestSolvePenalized:
    def test_zero_target_is_exactly_zero(self):
        tree = build_tree(1.0, 16, RECOMBINING)
        drm = entropic(0.5, tree)
        zero = deterministic(tree, lambda t: 0.0)
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
        assert sol.identity_gap <= 1e-13

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
        assert sol.identity_gap <= 1e-13

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
        gap, witness = supermartingale_gap(drm, Y + 4.0 * brownian(tree))
        assert gap > 0
        with pytest.raises(ValueError, match="supermartingale"):
            solve_penalized(drm, Y, 4.0, 16.0)
        # check=False skips the guard
        solve_penalized(drm, Y, 4.0, 16.0, check=False)

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
        W = canonical_supermartingale(0.0, 0.5, 1.3, tree, drift="exact",
                                      drm=drm)
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


def reference_penalized(drm, Y, z, n):
    """Hand-rolled implicit backward loop, then A and the worst one-step defect
    of y + zB + A folded depth by depth (the pre-reduction form)."""
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
    A = _accumulate(tree, [n_dt * (Y.values[k] - y[k]) for k in range(N)])
    M = TreeProcess(tree, y, copy=False) + z * brownian(tree) + A
    worst = 0.0
    for k in range(M.last_depth):
        down, up = tree.split_children(M.values[k + 1])
        worst = max(worst, float(np.max(np.abs(drm.one_step(k, down, up) - M.values[k]))))
    return y, A, worst


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
                sol = solve_penalized(drm, Y, z, n)
                y, A, worst = reference_penalized(drm, Y, z, n)
                assert len(sol.y.values) == len(y)
                for a, b in zip(sol.y.values, y):
                    assert a.tobytes() == b.tobytes()
                for a, b in zip(sol.A.values, A.values):
                    assert a.tobytes() == b.tobytes()
                assert sol.identity_gap == worst

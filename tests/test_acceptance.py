"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them on success).
Tolerances are stated inline; timed criteria assert their budget.
"""
import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np

from gexpect.bsde import entropy_exact, solve_bsde
from gexpect.claims import (
    call,
    first_hitting,
    fixed_depth,
    random_stopping,
    sample_claims,
)
from gexpect.dual import (
    dual_value,
    gibbs_density,
    optimal_density,
    relative_entropy,
    tilt,
)
from gexpect.generators import (
    conjugate,
    conjugate_values,
    entropy,
    quadratic_upper,
    sublinear_interval,
)
from gexpect.lattice import (
    FULL,
    RECOMBINING,
    brownian,
    build_tree,
    expectation,
)
from gexpect.penalization import (
    canonical_drift,
    canonical_supermartingale,
    doob_meyer,
    solve_penalized,
)
from gexpect.risk import (
    check_axioms,
    check_domination,
    entropic,
    from_generator,
    optional_stopping_check,
    represent,
    rho,
    rho_solved,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {desc}")
        raise
    print(f"criterion {num:2d} PASS: {desc}")


def test_01_entropic_closed_form_and_limit():
    with criterion(1, "entropic value of the terminal noise matches the "
                      "lattice closed form and its continuum limit"):
        start = time.monotonic()
        nu, T = 0.5, 1.0
        for N in (64, 256, 1024):
            tree = build_tree(T, N, RECOMBINING)
            got = entropy_exact(nu, brownian(tree).terminal, tree)
            expected = N / (2 * nu) * math.log(math.cosh(2 * nu * tree.sqrt_dt))
            assert abs(got.Y.values[0][0] - expected) <= 1e-12
        limit = nu * T
        assert abs(expected - limit) <= 0.01 * limit
        assert time.monotonic() - start < 5.0


def test_02_explicit_scheme_first_order():
    with criterion(2, "explicit-scheme error halves with each step doubling, "
                      "20% band, two claim families"):
        nu = 0.5
        for terminal in (lambda tr: -brownian(tr).terminal,
                         lambda tr: np.maximum(brownian(tr).terminal - 1.0, 0.0)):
            gaps = []
            for N in (64, 128, 256, 512, 1024):
                tree = build_tree(1.0, N, RECOMBINING)
                xi = terminal(tree)
                euler = solve_bsde(entropy(nu), xi, tree).Y.values[0][0]
                exact = entropy_exact(nu, xi, tree).Y.values[0][0]
                gaps.append(abs(euler - exact))
            for a, b in zip(gaps, gaps[1:]):
                assert 0.4 <= b / a <= 0.6


def test_03_gibbs_duality_exact():
    with criterion(3, "Gibbs tilt attains the entropic value through the "
                      "discrete relative entropy penalty, gap at most 1e-9"):
        nu, N = 0.5, 12
        tree = build_tree(1.0, N, FULL)
        for claim in sample_claims(tree, 20, seed=12, kind="leaf", scale_to=1.0):
            xi = claim.evaluate(tree)
            rho0 = entropy_exact(nu, -xi, tree).Y.values[0][0]
            m = tilt(gibbs_density(nu, xi, tree), tree)
            attained = expectation(-xi, tree=tree, measure=m) \
                - relative_entropy(m).discrete.root() / (2 * nu)
            assert abs(rho0 - attained) <= 1e-9


def test_04_convex_dual_representation():
    with criterion(4, "slope-selected density attains the convex dual value "
                      "and every swept density stays below it"):
        g = quadratic_upper(1.0, 1.0)
        consts = []
        for N in (32, 64, 128, 256):
            tree = build_tree(1.0, N, RECOMBINING)
            xi = call(0.2).evaluate(tree)
            solved = rho_solved(from_generator(g, tree), xi)
            rho0 = solved.Y.values[0][0]
            best = optimal_density(solved, generator=g)
            attained = dual_value(tilt(best, tree), xi, g).root()
            gap = abs(rho0 - attained)
            assert gap <= 1e-12 * (1.0 + abs(rho0))
            consts.append(gap / tree.dt)
            for q in np.linspace(-2.5, 2.5, 11):
                sub = dual_value(tilt(float(q), tree), xi, g).root()
                assert sub <= rho0 + 1e-9
        # the dt-normalized attainment constant stays bounded under doubling
        assert max(consts) <= 1e-6


def test_05_coherent_dual_is_max_over_slope_band():
    with criterion(5, "sublinear measure equals the best constant tilt from "
                      "the slope band; leaving the band marks -inf"):
        g = sublinear_interval(-1.0, 1.0)
        tree = build_tree(1.0, 64, RECOMBINING)
        for xi in (call(0.0).evaluate(tree), -brownian(tree).terminal,
                   brownian(tree).terminal):
            rho0 = rho_solved(from_generator(g, tree), xi).Y.values[0][0]
            best = -math.inf
            for q in (-1.0, -0.5, 0.0, 0.5, 1.0):
                dv = dual_value(tilt(float(q), tree), xi, g)
                assert dv.feasible
                # feasible penalties are identically zero
                assert np.all(conjugate_values(g, 0.0, np.array([q])) == 0.0)
                best = max(best, dv.root())
            assert abs(rho0 - best) <= 1e-9
            for q in (1.2, -1.7):
                dv = dual_value(tilt(float(q), tree), xi, g)
                assert not dv.feasible
                assert dv.root() == -math.inf
                assert dv.infeasible_nodes > 0


def test_06_conjugate_closed_form():
    with criterion(6, "numeric conjugate of mu|z| + nu z^2 matches its "
                      "closed form on 1000 points to 1e-6"):
        for mu, nu in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.25)):
            g = dataclasses.replace(quadratic_upper(mu, nu), conjugate_fn=None)
            xs = np.linspace(-6.0, 6.0, 1000)
            closed = np.maximum(np.abs(xs) - mu, 0.0) ** 2 / (4 * nu)
            worst = 0.0
            for x, c in zip(xs, closed):
                pt = conjugate(g, 0.0, float(x))
                worst = max(worst, abs(pt.value - c))
            assert worst <= 1e-6


def test_07_axiom_suites():
    with criterion(7, "axiom checks: convex measure passes the convex six, "
                      "sublinear passes all eight, entropic fails scaling "
                      "with a stable witness"):
        start = time.monotonic()
        tree = build_tree(1.0, 10, FULL)
        claims = sample_claims(tree, 100, seed=7, kind="leaf", scale_to=0.4)

        convex_six = ("monotonicity", "time_consistency",
                      "constant_preservation", "convexity",
                      "translation_invariance", "regularity")
        rep = check_axioms(from_generator(quadratic_upper(1.0, 0.25), tree),
                           claims=claims, seed=7)
        for name in convex_six:
            assert rep.checks[name].status == "pass", name
        assert not any(c.status == "skipped" for c in rep.checks.values())

        rep = check_axioms(from_generator(sublinear_interval(-1.0, 1.0), tree),
                           claims=claims, seed=7)
        assert all(c.status == "pass" for c in rep.checks.values())

        rep_a = check_axioms(entropic(0.5, tree), claims=claims, seed=7)
        rep_b = check_axioms(entropic(0.5, tree), claims=claims, seed=7)
        assert rep_a.checks["positive_homogeneity"].status == "fail"
        wa = rep_a.checks["positive_homogeneity"].witness
        assert wa is not None and wa["gap"] > 0
        assert wa == rep_b.checks["positive_homogeneity"].witness
        assert time.monotonic() - start < 30.0


def test_08_domination_suite():
    with criterion(8, "entropic measure is (0, nu)-dominated: envelope, "
                      "theta family, and sup-norm bound all clean"):
        tree = build_tree(1.0, 8, FULL)
        claims = sample_claims(tree, 40, seed=8, kind="leaf", scale_to=1.0)
        rep = check_domination(entropic(0.5, tree), 0.0, 0.5, claims=claims,
                               thetas=(0.1, 0.3, 0.5, 0.7, 0.9))
        assert rep.passed
        for chk in rep.checks.values():
            assert chk.status == "pass"
            assert chk.max_gap <= 1e-10


def test_09_representation_round_trip():
    with criterion(9, "recovered driver matches nu z^2 within 2% and "
                      "rebuilding the measure from it reproduces values"):
        nu = 0.5
        tree = build_tree(1.0, 1024, RECOMBINING)
        drm = entropic(nu, tree)
        zs = np.linspace(-2.0, 2.0, 41)
        ghat = represent(drm, zs)
        got = ghat(0.0, zs)
        ref = nu * zs**2
        nz = np.abs(zs) > 1e-12
        assert np.max(np.abs(got[nz] - ref[nz]) / ref[nz]) <= 0.02
        assert abs(got[~nz][0]) <= 1e-12

        # grid interpolation of the recovered driver carries curvature error
        # nu h^2 / 4 per unit time; allow twice that
        h = zs[1] - zs[0]
        tol = 2 * (nu * h * h / 4)
        back = from_generator(ghat, tree)
        for claim in sample_claims(tree, 10, seed=31, kind="mixture",
                                   scale_to=1.0):
            xi = claim.evaluate(tree)
            a = rho(drm, xi).at(0)[0]
            b = rho(back, xi).at(0)[0]
            assert abs(a - b) <= tol


def test_10_penalization_limit():
    with criterion(10, "penalized values rise monotonically to the target "
                       "and the accumulated penalty recovers the drift "
                       "surplus within 2%"):
        start = time.monotonic()
        mu_bar, nu, z, T = 1.0, 0.5, 1.0, 1.0
        tree = build_tree(T, 256, RECOMBINING)
        drm = entropic(nu, tree)
        Y = canonical_drift(mu_bar, nu, z, tree)

        prev = None
        for n in (2.0, 32.0, 512.0):
            sol = solve_penalized(drm, Y, z, n)
            assert sol.certificate.below_target
            assert sol.certificate.increasing
            if prev is not None:
                for a, b in zip(prev.y.values, sol.y.values):
                    assert np.all(b >= a)
            prev = sol

        dec = doob_meyer(drm, Y, z)  # levels up to 2^14
        assert dec.n_final == 2.0**14
        a_T = dec.A.terminal[0]
        surplus = mu_bar * abs(z) * T
        assert abs(a_T - surplus) <= 0.02 * surplus
        assert a_T <= 2 * T * (mu_bar * abs(z) + nu * z * z)
        assert time.monotonic() - start < 60.0


def test_11_optional_stopping():
    with criterion(11, "stopped comparison holds node-wise for ten seeded "
                       "stopping-time pairs on canonical supermartingales"):
        tree = build_tree(1.0, 10, FULL)
        drm = entropic(0.5, tree)
        W = canonical_supermartingale(1.0, 0.5, 1.0, tree)
        for seed in range(10):
            sigma = random_stopping(tree, seed=seed)
            if seed % 2:
                tau = random_stopping(tree, seed=1000 + seed)
            else:
                tau = first_hitting(tree, 0.5 + 0.1 * seed).min_with(
                    fixed_depth(tree, 8))
            chk = optional_stopping_check(drm, W, sigma, tau)
            assert chk.passed, (seed, chk.witness)
            assert chk.max_violation <= chk.tol

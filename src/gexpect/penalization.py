"""Penalized backward equations and the Doob-Meyer split of rho-supermartingales.

Given a process W = Y + z B that dominates its own one-step risk
(rho_k(-W_{k+1}) <= W_k node-wise), the penalized equation pulls a
rho-martingale up toward Y by adding the restoring drift n (Y - y).  On the
tree the implicit step is linear in the unknown, so each level solves in one
backward sweep with no inner iteration:

    y_k = (phi_k(y_{k+1} + z dB) + n dt Y_k) / (1 + n dt),     y_N = Y_N,

phi_k the measure's one-step operator.  The accumulated penalty
A_k = sum_{j<k} n (Y_j - y_j) dt is predictable and nondecreasing, and
y + zB + A satisfies the one-step rho-martingale identity by construction
(the same algebra that defines the step; test_identity_holds_to_rounding
holds its one-step defects to 1e-13).
As n grows, y^n increases to Y and A converges to the compensator: the
decomposition of W into a rho-martingale plus an increasing drain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bsde import noise_step
from .lattice import FULL, ScenarioTree, TreeProcess, backward_reduce, brownian
from .risk import DynamicRiskMeasure, one_step_defects, supermartingale_gap

DEFAULT_SCHEDULE = tuple(2 ** j for j in range(1, 15))
# Drift conventions of canonical_drift; the command line checks drift against it.
DRIFTS = ("continuum", "exact")
CONVERGENCE_RTOL = 1e-8


@dataclass(frozen=True)
class PenalizedCertificate:
    """Monotonicity facts measured on one penalized solve.

    ``below_target`` / ``increasing`` report whether y <= Y and the penalty
    increments stay nonnegative; ``max_violation`` is the worst signed
    excursion past either bound (0 when both hold).
    """

    below_target: bool
    increasing: bool
    max_violation: float


@dataclass
class PenalizedSolution:
    n: float
    y: TreeProcess
    A: TreeProcess
    certificate: PenalizedCertificate
    gap_to_target: float
    z: float

    @property
    def tree(self) -> ScenarioTree:
        return self.y.tree


@dataclass
class Decomposition:
    A: TreeProcess
    martingale_gap: float
    n_final: float
    levels: list
    converged: bool
    gaps_nonincreasing: bool
    y: TreeProcess


def _one_step_gap(drm: DynamicRiskMeasure, M: TreeProcess) -> float:
    """Worst one-step martingale defect |rho_k(-M_{k+1}) - M_k|; NaN if any is NaN."""
    return float(np.max([np.max(np.abs(d)) for _, d in one_step_defects(drm, M)],
                        initial=0.0))


def _accumulate(tree: ScenarioTree, increments: list[np.ndarray]) -> TreeProcess:
    """Forward sum of predictable per-step increments into a process A.

    A is a path functional; on the recombining layout it exists only when
    every increment slice is constant in the state (true for deterministic
    targets), which is validated.
    """
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


def solve_penalized(
    drm: DynamicRiskMeasure,
    Y: TreeProcess,
    z: float,
    n: float,
    check: bool = True,
    tol: float = 1e-10,
) -> PenalizedSolution:
    """One level of the penalized backward equation.

    ``Y + z B`` must be a rho-supermartingale for the measure; with
    ``check`` the one-step inequality is verified node-wise first and a
    violation raises with the offending node.  The returned certificate
    records y <= Y and the monotonicity of A, which hold whenever the
    measure's one-step operator is monotone (see the solver's step
    certificate for when that is guaranteed).
    """
    tree = drm.tree
    if Y.tree != tree:
        raise ValueError("target process lives on a different tree")
    if Y.last_depth != tree.steps:
        raise ValueError("target process must reach the terminal depth")
    if n <= 0:
        raise ValueError("penalization level must be positive")
    z = float(z)
    scale = Y.max_abs()
    if check:
        worst, witness = supermartingale_gap(drm, Y + z * brownian(tree))
        if worst > tol * (1.0 + scale):
            raise ValueError(
                f"input is not a rho-supermartingale: one-step violation "
                f"{worst:.3g} at {witness['node']} (depth {witness['depth']})")

    n_dt = n * tree.dt

    def implicit_step(k, down, up):
        phi = drm.one_step(k, down - z * tree.sqrt_dt, up + z * tree.sqrt_dt)
        return (phi + n_dt * Y.values[k]) / (1.0 + n_dt)

    y_proc = backward_reduce(tree, Y.terminal, implicit_step)
    target_gap = [Yk - yk for Yk, yk in zip(Y.values, y_proc.values)]

    increments = [n_dt * d for d in target_gap[:-1]]
    A = _accumulate(tree, increments)

    over = -min(float(np.min(d)) for d in target_gap)
    below = over <= tol * (1.0 + scale)
    worst_inc = min(float(np.min(inc)) for inc in increments)
    increasing = worst_inc >= -tol * (1.0 + n_dt * scale)
    violation = max(over, -worst_inc, 0.0) if not (below and increasing) else 0.0
    cert = PenalizedCertificate(below, increasing, violation)

    gap = max(float(np.max(d)) for d in target_gap)
    return PenalizedSolution(float(n), y_proc, A, cert, gap, z)


def doob_meyer(
    drm: DynamicRiskMeasure,
    Y: TreeProcess,
    z: float,
    n_schedule: Sequence[float] | None = None,
    rel_stop: float = CONVERGENCE_RTOL,
    tol: float = 1e-10,
) -> Decomposition:
    """Monotone limit of the penalized solutions along a level schedule.

    Runs levels in increasing order, asserting y^n <= y^m node-wise for
    n < m (a violation points at a broken monotonicity axiom and raises
    with a witness).  Stops early once max(Y - y^n) drops below
    ``rel_stop * (1 + max|Y|)``; levels beyond that only erode the
    conditioning of 1 + n dt.  Returns the final accumulated penalty with
    the one-step martingale defect of Y + zB + A, which must shrink along
    the schedule.
    """
    schedule = sorted(n_schedule) if n_schedule is not None else list(DEFAULT_SCHEDULE)
    if not schedule:
        raise ValueError("empty penalization schedule")
    tree = drm.tree
    W = Y + float(z) * brownian(tree)
    scale = 1.0 + Y.max_abs()

    levels: list[dict] = []
    prev: PenalizedSolution | None = None
    sol: PenalizedSolution | None = None
    converged = False
    for n in schedule:
        sol = solve_penalized(drm, Y, z, n, check=prev is None, tol=tol)
        if prev is not None:
            for k in range(Y.last_depth + 1):
                drop = prev.y.values[k] - sol.y.values[k]
                i = int(np.argmax(drop))
                if drop[i] > tol * scale:
                    raise ValueError(
                        f"y^n decreased between levels {prev.n:g} and {n:g}: "
                        f"drop {drop[i]:.3g} at depth {k}, node "
                        f"{tree.node_label(k, i)}; the measure is not monotone")
        gap = _one_step_gap(drm, W + sol.A)
        levels.append({"n": float(n), "max_target_gap": sol.gap_to_target,
                       "martingale_gap": gap})
        prev = sol
        if sol.gap_to_target < rel_stop * scale:
            converged = True
            break

    gaps = [lv["martingale_gap"] for lv in levels]
    nonincreasing = all(b <= a + tol * scale for a, b in zip(gaps, gaps[1:]))
    return Decomposition(sol.A, gaps[-1], sol.n, levels,
                         converged or sol.gap_to_target < rel_stop * scale,
                         nonincreasing, sol.y)


def canonical_drift(
    mu_bar: float,
    nu_bar: float,
    z: float,
    tree: ScenarioTree,
    drift: str = "continuum",
    drm: DynamicRiskMeasure | None = None,
) -> TreeProcess:
    """Deterministic part -d_k of the canonical supermartingale.

    ``drift="continuum"`` uses the growth-envelope rate
    (mu_bar |z| + nu_bar z^2) t_k.  ``drift="exact"`` instead accumulates
    the measure's own one-step value of z dB, making Y + zB an exact
    rho-martingale for that measure (useful to separate scheme error from
    statement error); it requires ``drm``.
    """
    if mu_bar < 0 or nu_bar < 0:
        raise ValueError("growth bounds must be nonnegative")
    if drift not in DRIFTS:
        raise ValueError(f"unknown drift convention {drift!r}")
    z = float(z)
    if drift == "continuum":
        rate = mu_bar * abs(z) + nu_bar * z * z
        per_step = [rate * tree.dt] * tree.steps
    else:
        if drm is None or drm.tree != tree:
            raise ValueError("exact drift needs a measure bound to this tree")
        per_step = [noise_step(drm.one_step, k, z, tree) for k in range(tree.steps)]
    running = np.concatenate([[0.0], np.cumsum(per_step)])
    return TreeProcess(tree, [np.full(tree.n_nodes(k), -running[k])
                              for k in range(tree.steps + 1)], copy=False)


def canonical_supermartingale(
    mu_bar: float,
    nu_bar: float,
    z: float,
    tree: ScenarioTree,
    drift: str = "continuum",
    drm: DynamicRiskMeasure | None = None,
) -> TreeProcess:
    """The benchmark supermartingale -(mu_bar |z| + nu_bar z^2) t_k + z B_k.

    For any measure whose driver grows no faster than mu_bar |z| + nu_bar z^2
    this is a rho-supermartingale, and the compensator recovered by
    :func:`doob_meyer` measures the drift surplus over the measure's own
    needs.  See :func:`canonical_drift` for the ``drift="exact"`` variant.
    """
    return canonical_drift(mu_bar, nu_bar, z, tree, drift, drm) \
        + float(z) * brownian(tree)

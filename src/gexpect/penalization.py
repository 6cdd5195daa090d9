"""Penalized backward equations and the Doob-Meyer split of rho-supermartingales.

Given a process W = Y + z B that dominates its own one-step risk
(rho_k(-W_{k+1}) <= W_k node-wise), the penalized equation pulls a
rho-martingale up toward Y by adding the restoring drift n (Y - y).  On the
tree the implicit step is linear in the unknown, so a level needs no inner
iteration:

    y_k = (phi_k(y_{k+1} + z dB) + n dt Y_k) / (1 + n dt),     y_N = Y_N,

phi_k the measure's one-step operator.  The accumulated penalty
A_k = sum_{j<k} n (Y_j - y_j) dt is predictable and nondecreasing, and
y + zB + A satisfies the one-step rho-martingale identity by construction
(the same algebra that defines the step; test_identity_holds_to_rounding
holds its one-step defects to 1e-13).
As n grows, y^n increases to Y and A converges to the compensator: the
decomposition of W into a rho-martingale plus an increasing drain.  Every
check allows one fixed slack, ``_TOL`` scaled by the size of Y.

The levels of a schedule are independent, so all of them solve in one
backward sweep: they ride a leading axis through a single reduction on
(levels, width) slices, which folds the per-depth statistics every level
is judged by (target gap, penalty increments, drop from the level before)
as it goes; a forward pass then builds A.  y itself is not kept: on the
recombining layout A needs only the folds, and on the full layout, where A
is a path functional, the sweep keeps each level's increments instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bsde import noise_step
from .lattice import FULL, ScenarioTree, TreeProcess, backward_reduce
from .risk import DynamicRiskMeasure, supermartingale_gap

DEFAULT_SCHEDULE = tuple(2 ** j for j in range(1, 15))
# Drift conventions of canonical_drift; the command line checks drift against it.
DRIFTS = ("continuum", "exact")
CONVERGENCE_RTOL = 1e-8
# Absolute slack of the precheck and the monotonicity checks, scaled by 1 + max|Y|.
_TOL = 1e-10


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


@dataclass
class _Sweep:
    """Every level of a schedule, solved in one backward reduction.

    ``y`` holds one row per level, at every depth or only at the root (see
    :func:`_sweep`).  The folds have one row per level and one column per
    depth: ``gap_min`` / ``gap_max`` of Y - y (depths 0..N), and ``drop`` /
    ``drop_at`` the first largest drop of y from the level before and its
    node (depths 0..N; NaN in the first row, which has no level before it).
    The extremes of the penalty increments n dt (Y - y) at depths 0..N-1
    are ``n dt`` times those of the gaps bit for bit, since rounding a
    product by n dt > 0 is monotone (see :meth:`_inc_bounds`).  On the full
    layout, where A is a path functional, ``incs`` keeps the increments
    themselves, one ``(levels, width)`` slice per depth.
    """

    drm: DynamicRiskMeasure
    Y: TreeProcess
    n_dt: np.ndarray
    y: TreeProcess
    incs: list | None
    gap_min: np.ndarray
    gap_max: np.ndarray
    drop: np.ndarray
    drop_at: np.ndarray

    def _inc_bounds(self, rows):
        """Per-depth minimum and maximum of the penalty increments of the
        levels in ``rows`` (an index or a slice), depths 0..N-1."""
        n_dt = self.n_dt[rows, None]
        return n_dt * self.gap_min[rows, :-1], n_dt * self.gap_max[rows, :-1]

    def gap_to_target(self, i: int) -> float:
        """max(Y - y) of level i; Python's fold keeps a NaN only at depth 0."""
        return max(self.gap_max[i].tolist())

    def certificate(self, i: int, y_max: float) -> PenalizedCertificate:
        """The certificate of level i; ``y_max`` is max|Y|."""
        n_dt = float(self.n_dt[i])
        over = -min(self.gap_min[i].tolist())
        below = over <= _TOL * (1.0 + y_max)
        worst_inc = min(self._inc_bounds(i)[0].tolist())
        increasing = worst_inc >= -_TOL * (1.0 + n_dt * y_max)
        violation = max(over, -worst_inc, 0.0) if not (below and increasing) else 0.0
        return PenalizedCertificate(below, increasing, violation)

    def check_path_independent(self, i: int) -> None:
        """A is a path functional; on the recombining layout it exists only
        when every increment slice is constant in the state (true for
        deterministic targets).  Raises at the first depth where it is not."""
        if self.incs is not None:
            return
        lo, hi = self._inc_bounds(i)
        spread = hi - lo
        bad = spread > 1e-12 * (1.0 + np.abs(hi))
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                "the accumulated penalty is path dependent at depth "
                f"{k} (increment spread {float(spread[k]):.3g}); use the full layout")

    def check_increase(self, i: int, n_before: float, n: float, atol: float) -> None:
        """y^n <= y^m node-wise for levels n < m: raises at the first depth
        where level i's y drops below the level before by more than ``atol``,
        or by NaN.  ``atol`` scales with max|Y|: when it is not finite, the
        NaN comes from the target, not the measure, and is left to the
        martingale gaps :func:`doob_meyer` reports."""
        bad = self.drop[i] > atol
        if math.isfinite(atol):
            bad |= np.isnan(self.drop[i])
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"y^n decreased between levels {float(n_before):g} and {n:g}: "
                f"drop {float(self.drop[i, k]):.3g} at depth {k}, node "
                f"{self.Y.tree.node_label(k, int(self.drop_at[i, k]))}; "
                "the measure is not monotone")

    def compensate(self, count: int, W: TreeProcess | None = None):
        """Forward pass over levels 0..count-1: A of the last of them, and with
        ``W`` each level's worst one-step defect |rho_k(-M_{k+1}) - M_k| of
        M = W + A (NaN if any is NaN).  Only the returned A is stored whole.

        On the full layout the levels run one after another: each carries a
        whole A slice per depth, and the slices of one level stay in cache
        where those of every level at once do not (the whole pass took about
        1.7x longer batched at full N=16 and N=18)."""
        if self.incs is None:
            return self._forward(slice(0, count), W)
        gaps = []
        for i in range(count):
            A, gap = self._forward(slice(i, i + 1), W)
            gaps.append(gap)
        return A, None if W is None else np.concatenate(gaps)

    def _forward(self, rows: slice, W: TreeProcess | None):
        """:meth:`compensate` for the levels in ``rows`` at once."""
        tree = self.Y.tree
        a = np.zeros((len(self.n_dt[rows]), 1))
        last = [np.zeros(1)]
        m = None if W is None else W.values[0] + a
        worst = []
        if self.incs is None:
            lo, hi = self._inc_bounds(rows)
        for k in range(tree.steps):
            if self.incs is not None:
                a_next = np.repeat(a + self.incs[k][rows], 2, axis=-1)
                last.append(a_next[-1])
            else:
                a_next = a + 0.5 * (lo[:, k] + hi[:, k])[:, None]
                last.append(np.full(k + 2, a_next[-1, 0]))
            if W is not None:
                m_next = W.values[k + 1] + a_next
                defect = self.drm.one_step(k, *tree.split_children(m_next)) - m
                worst.append(np.max(np.abs(defect), axis=-1))
                m = m_next
            a = a_next
        A = TreeProcess(tree, last)
        if W is None:
            return A, None
        return A, np.max(worst, axis=0, initial=0.0)


def _plus_noise(Y: TreeProcess, z: float) -> TreeProcess:
    """W = Y + z B, slice by slice."""
    tree, z = Y.tree, float(z)
    return TreeProcess(tree, [y + z * tree.brownian_slice(k) for k, y in enumerate(Y.values)])


def _validate(drm: DynamicRiskMeasure, Y: TreeProcess, z: float | None,
              schedule: Sequence[float], y_max: float) -> TreeProcess | None:
    """Check the target and every level of ``schedule`` and, given ``z``,
    run the supermartingale precheck on W = Y + z B, whose slack scales
    with ``y_max`` = max|Y|.  Returns W (None without ``z``)."""
    tree = drm.tree
    if Y.tree != tree:
        raise ValueError("target process lives on a different tree")
    if Y.last_depth != tree.steps:
        raise ValueError("target process must reach the terminal depth")
    for n in schedule:
        if not (math.isfinite(n) and n > 0):
            raise ValueError(f"penalization level must be positive and finite, got {n}")
    if z is None:
        return None
    W = _plus_noise(Y, z)
    worst, witness = supermartingale_gap(drm, W)
    if not worst <= _TOL * (1.0 + y_max):
        # Without a witness the NaN is a leaf of Y that the operator ignores.
        where = f"{witness['node']} (depth {witness['depth']})" if witness else "the horizon"
        raise ValueError(
            f"input is not a rho-supermartingale: one-step violation "
            f"{worst:.3g} at {where}")
    return W


def _sweep(drm: DynamicRiskMeasure, Y: TreeProcess, z: float, levels: Sequence[float],
           keep_y: bool = False) -> _Sweep:
    """Solve the (positive) ``levels`` in one batched backward reduction.

    y is stored at every depth only when ``keep_y`` asks for it, else just
    its root: the checks read the folds, and A reads the folds on the
    recombining layout and the stored increments on the full one."""
    tree, N = drm.tree, drm.tree.steps
    n_dt = np.asarray(levels, dtype=float) * tree.dt
    count = len(n_dt)
    w, shift = n_dt[:, None], float(z) * tree.sqrt_dt
    gap_min, gap_max = np.empty((count, N + 1)), np.empty((count, N + 1))
    incs = [None] * N if tree.layout == FULL else None
    drop = np.full((count, N + 1), np.nan)
    drop_at = np.zeros((count, N + 1), dtype=np.intp)
    pairs = np.arange(count - 1)

    def fold(k, y):
        gap = Y.values[k] - y
        gap_min[:, k], gap_max[:, k] = gap.min(axis=-1), gap.max(axis=-1)
        if k < N and incs is not None:
            incs[k] = w * gap
        if count > 1:
            d = y[:-1] - y[1:]
            drop_at[1:, k] = d.argmax(axis=-1)
            drop[1:, k] = d[pairs, drop_at[1:, k]]
        return y

    def implicit_step(k, down, up):
        phi = drm.one_step(k, down - shift, up + shift)
        return fold(k, (phi + w * Y.values[k]) / (1.0 + w))

    terminal = fold(N, np.broadcast_to(Y.terminal, (count, Y.terminal.size)))
    y = backward_reduce(tree, terminal, implicit_step, keep=None if keep_y else 0)
    return _Sweep(drm, Y, n_dt, y, incs, gap_min, gap_max, drop, drop_at)


def solve_penalized(
    drm: DynamicRiskMeasure,
    Y: TreeProcess,
    z: float,
    n: float,
    check: bool = True,
) -> PenalizedSolution:
    """One level of the penalized backward equation.

    ``Y + z B`` must be a rho-supermartingale for the measure; with
    ``check`` the one-step inequality is verified node-wise first and a
    violation raises with the offending node.  The returned certificate
    records y <= Y and the monotonicity of A, which hold whenever the
    measure's one-step operator is monotone (see the solver's step
    certificate for when that is guaranteed).  This is the one-level case of
    the sweep :func:`doob_meyer` runs.
    """
    y_max = Y.max_abs()
    _validate(drm, Y, z if check else None, [n], y_max)
    sw = _sweep(drm, Y, z, [n], keep_y=True)
    sw.check_path_independent(0)
    A, _ = sw.compensate(1)
    y = TreeProcess(Y.tree, [v[0] for v in sw.y.values])
    return PenalizedSolution(float(n), y, A, sw.certificate(0, y_max), sw.gap_to_target(0),
                             float(z))


def doob_meyer(
    drm: DynamicRiskMeasure,
    Y: TreeProcess,
    z: float,
    n_schedule: Sequence[float] | None = None,
    rel_stop: float = CONVERGENCE_RTOL,
) -> Decomposition:
    """Monotone limit of the penalized solutions along a level schedule.

    Judges levels in increasing order, asserting y^n <= y^m node-wise for
    n < m (a violation points at a broken monotonicity axiom and raises
    with a witness).  Stops early once max(Y - y^n) drops below
    ``rel_stop * (1 + max|Y|)``; levels beyond that only erode the
    conditioning of 1 + n dt.  Returns the final accumulated penalty with
    the one-step martingale defect of Y + zB + A, which must shrink along
    the schedule.

    Every level must be finite and positive; any other raises before the
    precheck.  All levels are solved in one sweep.  The checks and the stop
    follow level order, then depth order, so a level past the stop is never
    judged.
    """
    schedule = sorted(n_schedule) if n_schedule is not None else list(DEFAULT_SCHEDULE)
    if not schedule:
        raise ValueError("empty penalization schedule")
    y_max = Y.max_abs()
    scale = 1.0 + y_max
    W = _validate(drm, Y, z, schedule, y_max)
    sw = _sweep(drm, Y, z, schedule)

    targets: list[float] = []
    converged = False
    for j, n in enumerate(schedule):
        sw.check_path_independent(j)
        if j:
            sw.check_increase(j, schedule[j - 1], n, _TOL * scale)
        targets.append(sw.gap_to_target(j))
        if targets[-1] < rel_stop * scale:
            converged = True
            break
    A, gaps = sw.compensate(j + 1, W)
    gaps = gaps.tolist()
    levels = [{"n": float(level), "max_target_gap": t, "martingale_gap": g}
              for level, t, g in zip(schedule, targets, gaps)]
    nonincreasing = all(b <= a + _TOL * scale for a, b in zip(gaps, gaps[1:]))
    return Decomposition(A, gaps[-1], float(schedule[j]), levels, converged, nonincreasing)


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
        per_step = [float(noise_step(drm.one_step, k, [z], tree)[0]) for k in range(tree.steps)]
    running = np.concatenate([[0.0], np.cumsum(per_step)])
    return TreeProcess(tree, [np.full(tree.n_nodes(k), -running[k])
                              for k in range(tree.steps + 1)])


def canonical_supermartingale(
    mu_bar: float,
    nu_bar: float,
    z: float,
    tree: ScenarioTree,
) -> TreeProcess:
    """The benchmark supermartingale -(mu_bar |z| + nu_bar z^2) t_k + z B_k.

    For any measure whose driver grows no faster than mu_bar |z| + nu_bar z^2
    this is a rho-supermartingale, and the compensator recovered by
    :func:`doob_meyer` measures the drift surplus over the measure's own needs.
    """
    return _plus_noise(canonical_drift(mu_bar, nu_bar, z, tree), z)

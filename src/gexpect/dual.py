"""Measure changes on the tree and the dual view of convex risk measures.

A density process q tilts the one-step probabilities to
p_up = (1 + q sqrt(dt)) / 2, the discrete Girsanov move: the noise gains
drift exactly q dt per step.  The likelihood ratio is the multiplicative
(Doleans) product theta_{k+1} = theta_k (1 + q dB), an exact reference
martingale, and Bayes' rule ties tilted and reference conditionals together
with no truncation error.

With f the Legendre-Fenchel conjugate of a convex driver, every admissible
q gives the lower bound E_Q[-xi - int f(s, q_s) ds] <= rho_0(xi), attained
by any density selecting from the subdifferential of the driver at the
solution's martingale integrand.  For the entropic measure the duality is
an identity of finite Gibbs measures and is checked to 1e-9, penalizing
with the exact discrete relative entropy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bsde import SolvedBSDE
from .claims import Claim
from .generators import CONVEX, Generator, conjugate_values, entropy as entropy_driver, \
    subdifferential_slices
from .lattice import FULL, ScenarioTree, TreeProcess, backward_reduce, expectation
from .risk import DynamicRiskMeasure, rho_solved

DEFAULT_ADMISSIBILITY_MARGIN = 1e-6


@dataclass(frozen=True)
class DensityProcess:
    """Adapted tilt rates q_k, one slice per step 0..N-1.

    Admissibility requires |q| sqrt(dt) <= 1 - delta at every node so both
    tilted one-step probabilities stay inside (0, 1).  ``fenchel_residual``
    is attached by :func:`optimal_density` and records how far each node's
    rate is from satisfying the conjugacy equality.
    """

    q: TreeProcess
    delta: float = DEFAULT_ADMISSIBILITY_MARGIN
    fenchel_residual: TreeProcess | None = None

    def __post_init__(self):
        tree = self.q.tree
        if self.q.last_depth != tree.steps - 1:
            raise ValueError("a density process needs exactly one slice per step")
        cap = 1.0 - self.delta
        for k, slice_ in enumerate(self.q.values):
            worst = int(np.argmax(np.abs(slice_)))
            if abs(slice_[worst]) * tree.sqrt_dt > cap:
                raise ValueError(
                    f"inadmissible density: |q| sqrt(dt) = "
                    f"{abs(slice_[worst]) * tree.sqrt_dt:.6g} > {cap:.6g} at depth {k}, "
                    f"node {tree.node_label(k, worst)}")

    @property
    def tree(self) -> ScenarioTree:
        return self.q.tree


def constant_density(tree: ScenarioTree, value: float,
                     delta: float = DEFAULT_ADMISSIBILITY_MARGIN) -> DensityProcess:
    q = TreeProcess(tree, [np.full(tree.n_nodes(k), float(value))
                           for k in range(tree.steps)], copy=False)
    return DensityProcess(q, delta)


class TiltedMeasure:
    """The probability measure induced by a density process."""

    def __init__(self, density: DensityProcess):
        self.density = density
        self.tree = density.tree
        self._p_up = [0.5 * (1.0 + v * self.tree.sqrt_dt) for v in density.q.values]
        for p in self._p_up:
            p.setflags(write=False)
        self._theta: TreeProcess | None = None

    def p_up(self, depth: int) -> np.ndarray:
        return self._p_up[depth]

    def theta(self) -> TreeProcess:
        """Likelihood ratio process theta_k = dQ/dP restricted to depth k.

        Multiplicative form theta_{k+1} = theta_k (1 + q dB); full layout
        only, since the running product is a path functional.
        """
        if self.tree.layout != FULL:
            raise ValueError("the likelihood ratio process needs the full layout")
        if self._theta is None:
            sdt = self.tree.sqrt_dt
            slices = [np.ones(1)]
            for k in range(self.tree.steps):
                parent = slices[k]
                q = self.density.q.values[k]
                child = np.empty(2 * parent.size)
                child[0::2] = parent * (1.0 - q * sdt)
                child[1::2] = parent * (1.0 + q * sdt)
                slices.append(child)
            self._theta = TreeProcess(self.tree, slices, copy=False)
        return self._theta


def tilt(q, tree: ScenarioTree | None = None,
         delta: float = DEFAULT_ADMISSIBILITY_MARGIN) -> TiltedMeasure:
    """Build the tilted measure from a density (TreeProcess, array-like, or scalar)."""
    if isinstance(q, DensityProcess):
        return TiltedMeasure(q)
    if isinstance(q, TreeProcess):
        return TiltedMeasure(DensityProcess(q, delta))
    if tree is None:
        raise ValueError("a tree is required when passing raw density values")
    if np.isscalar(q):
        return TiltedMeasure(constant_density(tree, float(q), delta))
    slices = [np.broadcast_to(np.asarray(v, dtype=float), (tree.n_nodes(k),)).copy()
              for k, v in enumerate(q)]
    return TiltedMeasure(DensityProcess(TreeProcess(tree, slices, copy=False), delta))


@dataclass
class EntropyEstimates:
    """Conditional relative entropy of the tilt, two ways.

    ``discrete`` is the exact finite-space value E_Q[log(theta_N / theta_k) | k];
    ``continuum`` is the small-step formula E_Q[(1/2) sum q^2 dt | k].  They
    differ by O(dt sum |q|^3) and both are reported.
    """

    discrete: TreeProcess
    continuum: TreeProcess


def relative_entropy(m: TiltedMeasure) -> EntropyEstimates:
    tree = m.tree
    q, p_up = m.density.q.values, m.p_up

    def discrete(k, down, up):
        p = p_up(k)
        return ((1.0 - p) * (down + np.log1p(-q[k] * tree.sqrt_dt))
                + p * (up + np.log1p(q[k] * tree.sqrt_dt)))

    def continuum(k, down, up):
        p = p_up(k)
        return (1.0 - p) * down + p * up + 0.5 * q[k] * q[k] * tree.dt

    zero = np.zeros(tree.n_nodes(tree.steps))
    return EntropyEstimates(backward_reduce(tree, zero, discrete),
                            backward_reduce(tree, zero, continuum))


@dataclass
class DualValue:
    """Penalized tilted expectation E_Q[-xi - int f(s, q_s) ds | . ].

    Nodes whose rate leaves the domain of the penalty carry an explicit
    -inf; ``feasible`` says the root value is finite.
    """

    process: TreeProcess
    feasible: bool
    infeasible_nodes: int

    def root(self) -> float:
        return self.process.root()


def dual_value(m: TiltedMeasure, xi, penalty, tree: ScenarioTree | None = None) -> DualValue:
    """Evaluate the dual lower bound for one admissible density.

    ``penalty`` is the conjugate f, either a Generator (its conjugate is
    used) or a callable f(t, x_slice) -> slice with +inf allowed.  The time
    integral uses the left-endpoint convention, matching the solvers.
    """
    tree = m.tree if tree is None else tree
    if tree != m.tree:
        raise ValueError("measure and tree disagree")
    if isinstance(xi, Claim):
        xi = xi.evaluate(tree)
    xi = np.asarray(xi, dtype=float)
    penalty_fn: Callable = penalty
    if isinstance(penalty, Generator):
        penalty_fn = lambda t, x: conjugate_values(penalty, t, x)
    bad = 0

    def step(k, down, up):
        nonlocal bad
        p = m.p_up(k)
        cost = np.asarray(penalty_fn(k * tree.dt, m.density.q.values[k]), dtype=float)
        bad += int(np.sum(np.isinf(cost)))
        return (1.0 - p) * down + p * up - cost * tree.dt

    proc = backward_reduce(tree, -xi, step)
    return DualValue(proc, bool(np.isfinite(proc.root())), bad)


def optimal_density(solved: SolvedBSDE, generator: Generator | None = None,
                    delta: float = DEFAULT_ADMISSIBILITY_MARGIN) -> DensityProcess:
    """Subdifferential selection along the solved martingale integrand.

    Picks the midpoint of [g'(Z-), g'(Z+)] at every node (any selection
    attains the dual bound; the midpoint is deterministic).  The Fenchel
    equality residual |f(q) - (q Z - g(Z))| is evaluated per node and
    attached.  ``generator`` overrides the driver recorded on the solution,
    for solutions produced by closed-form schemes.  Raises when the
    selection is inadmissible for the tree's step size, which is the
    discrete version of 'drift too strong': refine dt until |q| sqrt(dt) < 1.
    """
    g = solved.generator if generator is None else generator
    if g is None:
        raise ValueError("optimal_density needs a driver; pass generator=")
    if not g.is_(CONVEX):
        raise ValueError("duality selections need a convex driver")
    tree = solved.tree
    q_slices, res_slices = [], []
    for k in range(solved.Z.last_depth + 1):
        t = k * tree.dt
        z = solved.Z.values[k]
        lo, hi = subdifferential_slices(g, t, z)
        q = 0.5 * (lo + hi)
        f_vals = conjugate_values(g, t, q)
        res_slices.append(np.abs(f_vals - (q * z - g(t, z))))
        q_slices.append(q)
    q_proc = TreeProcess(tree, q_slices, copy=False)
    try:
        return DensityProcess(q_proc, delta, TreeProcess(tree, res_slices, copy=False))
    except ValueError as exc:
        raise ValueError(
            f"{exc}; the subdifferential selection needs a finer grid "
            "(|q| sqrt(dt) must stay below 1)") from None


def gibbs_density(nu: float, xi, tree: ScenarioTree) -> DensityProcess:
    """Density of the Gibbs measure dQ proportional to exp(-2 nu xi) dP.

    This is the exact maximizer of E_Q[-xi] - (1/2nu) H(Q | P) over all
    measures on the tree (full layout).  One-step up probabilities are
    ratios of subtree partition sums, evaluated in log space.
    """
    if tree.layout != FULL:
        raise ValueError("the Gibbs tilt enumerates paths; use the full layout")
    if isinstance(xi, Claim):
        xi = xi.evaluate(tree)
    log_w = -2.0 * float(nu) * np.asarray(xi, dtype=float)
    q_slices: list[np.ndarray] = [None] * tree.steps  # type: ignore[list-item]

    def partition(k, down, up):
        # q is read off the same child sums the parent's sum is formed from.
        log_z = np.logaddexp(down, up)
        q_slices[k] = (2.0 * np.exp(up - log_z) - 1.0) / tree.sqrt_dt
        return log_z

    backward_reduce(tree, log_w, partition)
    q = TreeProcess(tree, q_slices, copy=False)
    margin = 1.0 - q.max_abs() * tree.sqrt_dt
    if margin <= 0.0:
        raise ValueError("degenerate Gibbs tilt: a one-step probability hit 0 or 1")
    return DensityProcess(q, min(DEFAULT_ADMISSIBILITY_MARGIN, 0.5 * margin))


@dataclass
class DualityReport:
    label: str
    rho_root: float
    penalty: str
    rows: list
    optimal_gap: float
    weak_duality_ok: bool
    gibbs_gap: float | None
    passed: bool

    def as_report(self) -> dict:
        out = {
            "source": self.label,
            "rho_root": self.rho_root,
            "penalty": self.penalty,
            "optimal_gap": self.optimal_gap,
            "weak_duality_ok": self.weak_duality_ok,
            "passed": self.passed,
            "sweep": self.rows,
        }
        if self.gibbs_gap is not None:
            out["gibbs_gap"] = self.gibbs_gap
        return out


def verify_duality(
    drm: DynamicRiskMeasure,
    xi,
    q_sweep: Sequence[float] | None = None,
    seed: int = 0,
    n_random: int = 3,
    slack: float = 1e-9,
) -> DualityReport:
    """Check the dual representation of a convex-driver measure on one claim.

    Sweeps constant densities (plus seeded adapted ones on full trees) and
    verifies every feasible dual value stays below rho_0 within ``slack``,
    with the subdifferential selection closing the gap.

    The penalty matches the scheme that defines rho.  Driver-based measures
    use the conjugate f with the left-endpoint time integral: for the
    explicit scheme this weak duality is an identity, not an O(dt) bound,
    and the selection attains rho_0 exactly.  The entropic measure is
    solved in closed form, whose exact conjugate on the finite tree is the
    discrete relative entropy (not its small-step surrogate): all rows are
    penalized by (1/2nu) H(Q|P) and the Gibbs tilt attains rho_0 to
    ``slack``.
    """
    if drm.kind == "entropy":
        g = entropy_driver(drm.nu)
    elif drm.kind == "generator" and drm.generator.is_(CONVEX):
        g = drm.generator
    else:
        raise ValueError("duality checks need a convex driver or the entropic measure")
    tree = drm.tree
    solved = rho_solved(drm, xi)
    rho_root = solved.root()
    xi_term = xi.evaluate(tree) if isinstance(xi, Claim) else np.asarray(xi, dtype=float)
    tol = slack * max(1.0, abs(rho_root))

    if drm.kind == "entropy":
        penalty_name = "discrete_relative_entropy"

        def evaluate(m: TiltedMeasure) -> tuple[float, bool]:
            ent = relative_entropy(m).discrete.root()
            mean = expectation(-xi_term, measure=m, tree=tree)
            return mean - ent / (2.0 * drm.nu), True
    else:
        penalty_name = "conjugate_integral"

        def evaluate(m: TiltedMeasure) -> tuple[float, bool]:
            val = dual_value(m, xi_term, g)
            return val.root(), val.feasible

    rows: list[dict] = []
    opt = optimal_density(solved, generator=g)
    opt_value, opt_feasible = evaluate(TiltedMeasure(opt))
    optimal_gap = rho_root - opt_value
    rows.append({"density": "subdifferential_selection", "value": opt_value,
                 "feasible": opt_feasible,
                 "fenchel_residual": opt.fenchel_residual.max_abs()})

    if q_sweep is None:
        z_cap = max(1.0, solved.Z.max_abs())
        q_cap = min(g.mu + 2.0 * g.nu * z_cap, 0.9 / tree.sqrt_dt)
        q_sweep = np.linspace(-q_cap, q_cap, 9)
    for qv in q_sweep:
        value, feasible = evaluate(TiltedMeasure(constant_density(tree, float(qv))))
        rows.append({"density": f"constant[{float(qv):.6g}]", "value": value,
                     "feasible": feasible})

    if tree.layout == FULL and n_random > 0:
        rng = np.random.default_rng(seed)
        cap = min(2.0, 0.9 / tree.sqrt_dt)
        for i in range(n_random):
            q = TreeProcess(tree, [rng.uniform(-cap, cap, tree.n_nodes(k))
                                   for k in range(tree.steps)], copy=False)
            value, feasible = evaluate(TiltedMeasure(DensityProcess(q)))
            rows.append({"density": f"random[{i}]", "value": value,
                         "feasible": feasible})

    gibbs_gap = None
    if drm.kind == "entropy" and tree.layout == FULL:
        gq = gibbs_density(drm.nu, xi_term, tree)
        value, _ = evaluate(TiltedMeasure(gq))
        gibbs_gap = rho_root - value
        rows.append({"density": "gibbs", "value": value, "feasible": True})

    weak_ok = all(r["value"] <= rho_root + tol for r in rows
                  if np.isfinite(r["value"]))
    # Attainment allowance: exact for the scheme-matched penalty, O(dt) for
    # the entropic selection (whose exact maximizer is the Gibbs tilt).
    scale = (1.0 + solved.Z.max_abs()) * max(1.0, 2.0 * drm.bounds[1])
    opt_allowance = max(tol, 2.0 * scale ** 3 * tree.dt) if drm.kind == "entropy" \
        else max(tol, 1e-7)
    passed = weak_ok and -tol <= optimal_gap <= opt_allowance and (
        gibbs_gap is None or abs(gibbs_gap) <= tol)
    for r in rows:
        if np.isfinite(r["value"]):
            r["gap"] = rho_root - r["value"]
    return DualityReport(drm.label, rho_root, penalty_name, rows, optimal_gap,
                         weak_ok, gibbs_gap, passed)

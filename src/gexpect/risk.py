"""Dynamic risk measures as backward compositions of one-step operators.

A dynamic risk measure here is the nonlinear conditional expectation of the
negated claim: rho_t(xi) = E^g[-xi | F_t].  The minus sign lives in this
module and nowhere else; the solver layer always works with its literal
terminal argument.  Sources:

* ``from_generator`` -- explicit scheme for a driver g(t, z),
* ``entropic`` -- the exact quadratic recursion, equal to
  (1/2 nu) log E[exp(-2 nu xi) | F_t] to machine precision,
* ``custom`` -- any vectorized map from child-value pairs to parent values.

The axiom suite checks monotonicity, time consistency, preservation of
known values, convexity, subadditivity, positive homogeneity, translation
invariance and locality on seeded claim suites, node by node, and returns
witnesses for whatever fails.  Inequality axioms that only survive
discretization under the step-monotonicity certificate are skipped (not
failed) when the certificate is violated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bsde import SolvedBSDE, StepFn, _solve, entropy_exact, entropy_step, euler_step, \
    recover_generator, solve_bsde
from .claims import Claim, StoppingTime, sample_claims, stopped_values
from .generators import CONVEX, DOMINATED, Generator, quadratic_lower, quadratic_upper
from .lattice import FULL, ScenarioTree, TreeProcess, build_tree, propagate, \
    subtree_indicator

AXIOMS = (
    "monotonicity",
    "time_consistency",
    "constant_preservation",
    "convexity",
    "subadditivity",
    "positive_homogeneity",
    "translation_invariance",
    "regularity",
)

# Axioms whose node-wise discrete form is only guaranteed under the
# step-monotonicity certificate (inequalities propagated by comparison).
_GATED = {"monotonicity", "convexity", "subadditivity"}


class DynamicRiskMeasure:
    """One-step operator plus the tree it composes over."""

    def __init__(self, tree: ScenarioTree, kind: str, label: str,
                 one_step: StepFn, generator: Generator | None = None,
                 nu: float | None = None,
                 bounds: tuple[float, float] | None = None):
        self.tree = tree
        self.kind = kind
        self.label = label
        self.one_step = one_step
        self.generator = generator
        self.nu = nu
        self.bounds = bounds

    def solve_terminal(self, terminal: np.ndarray) -> SolvedBSDE:
        """Backward composition on a literal terminal slice (no sign flip)."""
        if self.kind == "generator":
            return solve_bsde(self.generator, terminal, self.tree)
        if self.kind == "entropy":
            return entropy_exact(self.nu, terminal, self.tree)
        Y, Z = _solve(self.tree, np.asarray(terminal, dtype=float), self.one_step)
        # Custom operators carry no growth data; certificate unknown, so the
        # inequality axioms run un-gated and report what they see.
        return SolvedBSDE(Y, Z, "custom", Y.terminal, None, float("nan"), True, ())

    def rebind(self, tree: ScenarioTree) -> "DynamicRiskMeasure":
        if self.kind == "generator":
            return from_generator(self.generator, tree)
        if self.kind == "entropy":
            return entropic(self.nu, tree)
        raise ValueError("a custom one-step operator is tied to its tree")


def from_generator(g: Generator, tree: ScenarioTree) -> DynamicRiskMeasure:
    """rho_t(xi) = E^g[-xi | F_t] via the explicit scheme."""
    return DynamicRiskMeasure(tree, "generator", f"generator[{g.kind}]",
                              euler_step(g, tree), generator=g,
                              bounds=(g.mu, g.nu))


def entropic(nu: float, tree: ScenarioTree) -> DynamicRiskMeasure:
    """The entropic risk measure, solved by the exact quadratic recursion."""
    if nu <= 0:
        raise ValueError("the entropic measure needs nu > 0")
    return DynamicRiskMeasure(tree, "entropy", f"entropic[nu={nu:g}]",
                              entropy_step(nu, tree), nu=float(nu),
                              bounds=(0.0, float(nu)))


def custom(step_fn: StepFn, tree: ScenarioTree, label: str = "custom",
           bounds: tuple[float, float] | None = None) -> DynamicRiskMeasure:
    """Wrap a raw one-step operator.  Validate it with check_axioms before use."""
    return DynamicRiskMeasure(tree, "custom", label, step_fn, bounds=bounds)


def _terminal_of(drm: DynamicRiskMeasure, xi) -> np.ndarray:
    if isinstance(xi, Claim):
        return xi.evaluate(drm.tree)
    arr = np.asarray(xi, dtype=float)
    if arr.shape != (drm.tree.n_nodes(drm.tree.steps),):
        raise ValueError("claim slice does not match the tree horizon")
    return arr


def rho_solved(drm: DynamicRiskMeasure, xi) -> SolvedBSDE:
    return drm.solve_terminal(-_terminal_of(drm, xi))


def rho(drm: DynamicRiskMeasure, xi, depth: int | None = None) -> TreeProcess:
    """The risk process rho_t(xi) at every depth (terminal slice is -xi).

    ``depth`` truncates the returned process; values are identical to the
    untruncated ones.
    """
    Y = rho_solved(drm, xi).Y
    if depth is None:
        return Y
    Y.tree.check_depth(depth)
    return TreeProcess(Y.tree, Y.values[: depth + 1], copy=False)


# ---------------------------------------------------------------------------
# Axiom checks


@dataclass
class AxiomCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    max_gap: float
    tol: float
    comparisons: int
    witness: dict | None = None
    note: str = ""


@dataclass
class AxiomReport:
    label: str
    checks: dict

    @property
    def passed(self) -> bool:
        return not any(c.status == "fail" for c in self.checks.values())

    def failing(self) -> list[str]:
        return [n for n, c in self.checks.items() if c.status == "fail"]

    def as_report(self) -> dict:
        return {
            "source": self.label,
            "passed": self.passed,
            "checks": [
                {
                    "axiom": c.name, "status": c.status, "max_gap": c.max_gap,
                    "tol": c.tol, "comparisons": c.comparisons,
                    **({f"witness_{k}": v for k, v in c.witness.items()} if c.witness else {}),
                }
                for c in self.checks.values()
            ],
        }


class _GapTracker:
    def __init__(self):
        self.gap = 0.0
        self.witness = None
        self.count = 0

    def update(self, values: np.ndarray, witness: Callable[[int, int], dict],
               depth_offset: int = 0):
        """Track the largest entry over (depth, node) stacked slices."""
        self.count += values.size
        i = int(np.argmax(values))
        if values.flat[i] > self.gap:
            self.gap = float(values.flat[i])
            self.witness = witness(depth_offset, i)

    def update_process(self, proc: TreeProcess, tag: dict):
        for k, slice_ in enumerate(proc.values):
            self.count += slice_.size
            i = int(np.argmax(slice_))
            if slice_[i] > self.gap:
                self.gap = float(slice_[i])
                self.witness = {**tag, "depth": k,
                                "node": proc.tree.node_label(k, i),
                                "gap": float(slice_[i])}


def _diff_process(a: TreeProcess, b: TreeProcess) -> TreeProcess:
    return TreeProcess(a.tree, [x - y for x, y in zip(a.values, b.values)], copy=False)


def _abs_process(a: TreeProcess) -> TreeProcess:
    return a.map(np.abs)


def check_axioms(
    drm: DynamicRiskMeasure,
    claims: Sequence[Claim] | None = None,
    seed: int = 0,
    depths: Sequence[int] | None = None,
    thetas: Sequence[float] = (0.25, 0.5, 0.75),
    lambdas: Sequence[float] = (0.0, 0.5, 2.0, 3.0),
    tol: float = 1e-10,
) -> AxiomReport:
    """Run the eight axiom checks node by node on a seeded claim suite.

    Requires the full layout (several checks build subtree-measurable data).
    Every check reports its worst gap; failures carry a witness with the
    claim labels, depth, node identifier and the offending values, enough to
    reproduce the violation by direct evaluation.
    """
    tree = drm.tree
    if tree.layout != FULL:
        raise ValueError("axiom checks need the full layout")
    n = tree.steps
    if claims is None:
        claims = sample_claims(tree, 10, seed, "leaf", scale_to=0.5)
    xs = [_terminal_of(drm, c) for c in claims]
    labels = [c.label for c in claims]
    solved = [drm.solve_terminal(-x) for x in xs]
    scale = max(1.0, max(float(np.max(np.abs(x))) for x in xs))
    atol = tol * scale
    certified = all(s.monotone_step for s in solved)
    if depths is None:
        depths = sorted({0, n // 3, (2 * n) // 3})
    pairs = [(i, j) for i, j in zip(range(0, len(xs) - 1, 2), range(1, len(xs), 2))]
    checks: dict = {}

    def gated(name: str, tracker: _GapTracker, extra_cert: bool = True, note: str = ""):
        if name in _GATED and not (certified and extra_cert):
            checks[name] = AxiomCheck(name, "skipped", float("nan"), atol, 0,
                                      note="step certificate violated; refine dt")
            return
        status = "pass" if tracker.gap <= atol else "fail"
        checks[name] = AxiomCheck(name, status, tracker.gap, atol,
                                  tracker.count, tracker.witness, note)

    # Monotonicity: xi >= eta pointwise implies rho(xi) <= rho(eta).
    tr = _GapTracker()
    mono_cert = True
    for i, j in pairs:
        eta = xs[i] - np.abs(xs[j])
        s_eta = drm.solve_terminal(-eta)
        mono_cert &= s_eta.monotone_step
        tr.update_process(_diff_process(solved[i].Y, s_eta.Y),
                          {"claim": labels[i], "minus": labels[j]})
    gated("monotonicity", tr, mono_cert)

    # Time consistency: rho_s(-rho_t(xi)) = rho_s(xi) for s <= t.
    tr = _GapTracker()
    for i, s_i in enumerate(solved):
        for t in depths:
            inner = propagate(tree, t, s_i.Y.values[t]).terminal
            outer = drm.solve_terminal(inner).Y
            for s in range(t + 1):
                gap = np.abs(outer.values[s] - s_i.Y.values[s])
                tr.update(gap, lambda off, idx, s=s, t=t, i=i: {
                    "claim": labels[i], "restart_depth": t, "depth": s,
                    "node": tree.node_label(s, idx), "gap": float(gap[idx])})
    gated("time_consistency", tr)

    # Preservation of known values: rho_t(xi) = -xi for F_t-measurable xi.
    tr = _GapTracker()
    for t in depths:
        level = tree.brownian_slice(t)
        for vals, tag in ((level * level, "squared_level"), (np.full(tree.n_nodes(t), 0.3), "constant")):
            known = propagate(tree, t, vals)
            R = drm.solve_terminal(-known.terminal).Y
            for s in range(t, n + 1):
                gap = np.abs(R.values[s] + known.values[s])
                tr.update(gap, lambda off, idx, s=s, t=t, tag=tag: {
                    "claim": tag, "measurable_at": t, "depth": s,
                    "node": tree.node_label(s, idx), "gap": float(gap[idx])})
    gated("constant_preservation", tr)

    # Convexity in the claim.
    tr = _GapTracker()
    conv_cert = True
    for i, j in pairs:
        for th in thetas:
            mix = drm.solve_terminal(-(th * xs[i] + (1.0 - th) * xs[j]))
            conv_cert &= mix.monotone_step
            upper = TreeProcess(tree, [th * a + (1.0 - th) * b
                                       for a, b in zip(solved[i].Y.values, solved[j].Y.values)],
                                copy=False)
            tr.update_process(_diff_process(mix.Y, upper),
                              {"claims": f"{labels[i]}|{labels[j]}", "theta": th})
    gated("convexity", tr, conv_cert)

    # Subadditivity.
    tr = _GapTracker()
    sub_cert = True
    for i, j in pairs:
        s_sum = drm.solve_terminal(-(xs[i] + xs[j]))
        sub_cert &= s_sum.monotone_step
        upper = TreeProcess(tree, [a + b for a, b in zip(solved[i].Y.values, solved[j].Y.values)],
                            copy=False)
        tr.update_process(_diff_process(s_sum.Y, upper),
                          {"claims": f"{labels[i]}|{labels[j]}"})
    gated("subadditivity", tr, sub_cert)

    # Positive homogeneity: rho(lambda xi) = lambda rho(xi), lambda >= 0.
    tr = _GapTracker()
    for i, s_i in enumerate(solved):
        for lam in lambdas:
            s_lam = drm.solve_terminal(-(lam * xs[i]))
            tr.update_process(
                _abs_process(_diff_process(s_lam.Y, s_i.Y.map(lambda v: lam * v))),
                {"claim": labels[i], "lambda": lam})
    gated("positive_homogeneity", tr)

    # Translation invariance: rho_t(xi + zeta) = rho_t(xi) - zeta, zeta in F_t.
    tr = _GapTracker()
    for i, s_i in enumerate(solved[: max(2, len(solved) // 2)]):
        for t in depths:
            zeta = propagate(tree, t, 0.5 * np.cos(tree.brownian_slice(t)))
            shifted = drm.solve_terminal(-(xs[i] + zeta.terminal)).Y
            for s in range(t, n + 1):
                gap = np.abs(shifted.values[s] - (s_i.Y.values[s] - zeta.values[s]))
                tr.update(gap, lambda off, idx, s=s, t=t, i=i: {
                    "claim": labels[i], "shift_depth": t, "depth": s,
                    "node": tree.node_label(s, idx), "gap": float(gap[idx])})
    gated("translation_invariance", tr)

    # Regularity (locality): rho_t(1_A xi) = 1_A rho_t(xi) on depth-t subtrees.
    tr = _GapTracker()
    rng = np.random.default_rng(seed + 1)
    for i, s_i in enumerate(solved[: max(2, len(solved) // 2)]):
        for t in (d for d in depths if d > 0):
            node = int(rng.integers(tree.n_nodes(t)))
            ind_term = subtree_indicator(tree, t, node)
            masked = drm.solve_terminal(-(xs[i] * ind_term)).Y
            ind_t = np.zeros(tree.n_nodes(t))
            ind_t[node] = 1.0
            gap = np.abs(masked.values[t] - ind_t * s_i.Y.values[t])
            tr.update(gap, lambda off, idx, t=t, i=i, node=node: {
                "claim": labels[i], "event_node": tree.node_label(t, node),
                "depth": t, "node": tree.node_label(t, idx), "gap": float(gap[idx])})
    gated("regularity", tr)

    return AxiomReport(drm.label, checks)


# ---------------------------------------------------------------------------
# Domination


@dataclass
class DominationReport:
    label: str
    mu: float
    nu: float
    checks: dict

    @property
    def passed(self) -> bool:
        return not any(c.status == "fail" for c in self.checks.values())

    def as_report(self) -> dict:
        return {
            "source": self.label, "mu": self.mu, "nu": self.nu,
            "passed": self.passed,
            "checks": [
                {"check": c.name, "status": c.status, "max_gap": c.max_gap,
                 "tol": c.tol, "comparisons": c.comparisons,
                 **({f"witness_{k}": v for k, v in c.witness.items()} if c.witness else {})}
                for c in self.checks.values()
            ],
        }


def check_domination(
    drm: DynamicRiskMeasure,
    mu: float,
    nu: float,
    claims: Sequence[Claim] | None = None,
    seed: int = 0,
    thetas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    z_grid: Sequence[float] = (-1.0, 0.0, 1.0),
    tol: float = 1e-10,
) -> DominationReport:
    """Domination diagnostics for a candidate (mu, nu) pair.

    Three families, all node-wise: the two-sided envelope (solutions of the
    lower and upper growth drivers bracket the measure), the one-sided
    convex-combination domination over a theta grid, and the sup-norm
    bound for claims differing by a multiple of the terminal noise.
    """
    tree = drm.tree
    if claims is None:
        claims = sample_claims(tree, 10, seed,
                               "leaf" if tree.layout == FULL else "mixture",
                               scale_to=0.5)
    xs = [_terminal_of(drm, c) for c in claims]
    labels = [c.label for c in claims]
    solved = [drm.solve_terminal(-x) for x in xs]
    scale = max(1.0, max(float(np.max(np.abs(x))) for x in xs))
    atol = tol * scale
    g_up, g_lo = quadratic_upper(mu, nu), quadratic_lower(mu, nu)
    checks: dict = {}

    tr = _GapTracker()
    envelope_cert = True
    for i, s_i in enumerate(solved):
        s_up = solve_bsde(g_up, -xs[i], tree)
        s_lo = solve_bsde(g_lo, -xs[i], tree)
        envelope_cert &= s_up.monotone_step and s_lo.monotone_step
        tr.update_process(_diff_process(s_i.Y, s_up.Y), {"claim": labels[i], "side": "upper"})
        tr.update_process(_diff_process(s_lo.Y, s_i.Y), {"claim": labels[i], "side": "lower"})
    if envelope_cert:
        status = "pass" if tr.gap <= atol else "fail"
        checks["two_sided_envelope"] = AxiomCheck("two_sided_envelope", status,
                                                  tr.gap, atol, tr.count, tr.witness)
    else:
        checks["two_sided_envelope"] = AxiomCheck(
            "two_sided_envelope", "skipped", float("nan"), atol, 0,
            note="envelope solver certificate violated; refine dt")

    tr = _GapTracker()
    pairs = [(i, j) for i, j in zip(range(0, len(xs) - 1, 2), range(1, len(xs), 2))]
    for i, j in pairs:
        for th in thetas:
            stretched = drm.solve_terminal(-((xs[i] - th * xs[j]) / (1.0 - th))).Y
            bound = TreeProcess(tree, [(1.0 - th) * v for v in stretched.values], copy=False)
            lhs = TreeProcess(tree, [a - th * b for a, b in
                                     zip(solved[i].Y.values, solved[j].Y.values)], copy=False)
            tr.update_process(_diff_process(lhs, bound),
                              {"claims": f"{labels[i]}|{labels[j]}", "theta": th})
    status = "pass" if tr.gap <= atol else "fail"
    checks["theta_domination"] = AxiomCheck("theta_domination", status, tr.gap,
                                            atol, tr.count, tr.witness)

    tr = _GapTracker()
    B_T = tree.brownian_slice(tree.steps)
    for i, j in pairs:
        sup_diff = float(np.max(np.abs(xs[i] - xs[j])))
        for z in z_grid:
            a = drm.solve_terminal(-(xs[i] - z * B_T)).Y
            b = drm.solve_terminal(-(xs[j] - z * B_T)).Y
            gap_proc = _abs_process(_diff_process(a, b)).map(lambda v: v - sup_diff)
            tr.update_process(gap_proc, {"claims": f"{labels[i]}|{labels[j]}", "z": z})
    status = "pass" if tr.gap <= atol else "fail"
    checks["sup_norm_bound"] = AxiomCheck("sup_norm_bound", status, tr.gap,
                                          atol, tr.count, tr.witness)

    return DominationReport(drm.label, mu, nu, checks)


# ---------------------------------------------------------------------------
# Optional stopping


@dataclass
class StoppingCheck:
    label: str
    supermartingale_gap: float
    max_violation: float
    tol: float
    passed: bool
    witness: dict | None

    def as_report(self) -> dict:
        out = {"source": self.label, "supermartingale_gap": self.supermartingale_gap,
               "max_violation": self.max_violation, "tol": self.tol,
               "passed": self.passed}
        if self.witness:
            out.update({f"witness_{k}": v for k, v in self.witness.items()})
        return out


def supermartingale_gap(drm: DynamicRiskMeasure, W: TreeProcess) -> tuple[float, dict | None]:
    """Worst one-step violation of rho_k(-W_{k+1}) <= W_k over all nodes."""
    tree = drm.tree
    worst, witness = 0.0, None
    for k in range(W.last_depth):
        down, up = tree.split_children(W.values[k + 1])
        gap = drm.one_step(k, down, up) - W.values[k]
        i = int(np.argmax(gap))
        if gap[i] > worst:
            worst = float(gap[i])
            witness = {"depth": k, "node": tree.node_label(k, i), "gap": worst}
    return worst, witness


def optional_stopping_check(
    drm: DynamicRiskMeasure,
    Y: TreeProcess,
    sigma: StoppingTime,
    tau: StoppingTime,
    tol: float = 1e-10,
) -> StoppingCheck:
    """Check rho_sigma(-Y_tau) <= Y_(sigma ^ tau) path by path.

    ``Y`` must be a one-step supermartingale for the measure at every node;
    that precondition is verified first and a violation raises.  Values at
    the random times are the process values at the nodes where each rule
    stops, and rho at sigma is the risk process of the stopped claim read
    off along the stopping boundary.
    """
    tree = drm.tree
    if Y.tree != tree:
        raise ValueError("process and measure live on different trees")
    scale = max(1.0, Y.max_abs())
    pre_gap, pre_witness = supermartingale_gap(drm, Y)
    if pre_gap > tol * scale:
        raise ValueError(
            f"input is not a one-step supermartingale for {drm.label}: "
            f"violation {pre_gap:.3e} at {pre_witness}")

    y_at_tau = stopped_values(Y, tau)
    R = drm.solve_terminal(y_at_tau).Y  # risk process of the claim -Y_tau
    lhs = stopped_values(R, sigma)
    rhs = stopped_values(Y, sigma.min_with(tau))
    gaps = lhs - rhs
    i = int(np.argmax(gaps))
    worst = float(gaps[i])
    witness = None
    if worst > tol * scale:
        witness = {"path": tree.node_label(tree.steps, i), "gap": worst,
                   "lhs": float(lhs[i]), "rhs": float(rhs[i])}
    return StoppingCheck(drm.label, pre_gap, worst, tol * scale,
                         worst <= tol * scale, witness)


# ---------------------------------------------------------------------------
# Representation: read the driver back out of the measure


def represent(
    drm: DynamicRiskMeasure,
    z_grid: Sequence[float],
    t_grid: Sequence[float] = (0.0,),
    bounds: tuple[float, float] | None = None,
    precheck: bool = True,
    precheck_claims: Sequence[Claim] | None = None,
    seed: int = 0,
) -> Generator:
    """Extract the effective driver of a measure as a tabulated generator.

    The value at (t, z) is the one-step risk of the claim -z * dB at t,
    divided by dt.  The result interpolates linearly in z (extrapolating
    with the edge slopes), picks the nearest tabulated t, and carries the
    convexity flag only if every tabulated row is numerically convex.

    Before tabulating, the measure must pass monotonicity, time
    consistency, value preservation, convexity and the domination checks on
    a sample suite; failures abort with the witness.  Generator- and
    entropy-backed measures run the precheck on a small full companion tree
    when their own tree is large or recombining.
    """
    tree = drm.tree
    if bounds is None:
        bounds = drm.bounds
    if bounds is None:
        raise ValueError("domination bounds are required for a custom source")
    mu_bar, nu_bar = bounds

    if precheck:
        check_tree = tree
        check_drm = drm
        if tree.layout != FULL or tree.steps > 10:
            if drm.kind == "custom":
                raise ValueError(
                    "cannot precheck a custom source away from its own tree; "
                    "pass precheck=False only after validating it separately")
            check_tree = build_tree(tree.grid.horizon, 8, FULL)
            check_drm = drm.rebind(check_tree)
        suite = precheck_claims
        if suite is None:
            suite = sample_claims(check_tree, 8, seed, "leaf", scale_to=0.5)
        report = check_axioms(check_drm, suite, seed=seed)
        required = ("monotonicity", "time_consistency", "constant_preservation",
                    "convexity")
        bad = [n for n in required if report.checks[n].status == "fail"]
        if bad:
            raise ValueError(
                f"{drm.label} fails {bad[0]} on the sample suite; "
                f"witness: {report.checks[bad[0]].witness}")
        dom = check_domination(check_drm, mu_bar, nu_bar, suite, seed=seed)
        if not dom.passed:
            name = [n for n, c in dom.checks.items() if c.status == "fail"][0]
            raise ValueError(
                f"{drm.label} violates domination with bounds ({mu_bar}, {nu_bar}); "
                f"witness: {dom.checks[name].witness}")

    z = np.asarray(sorted(float(v) for v in z_grid), dtype=float)
    ts = np.asarray(sorted(float(v) for v in t_grid), dtype=float)
    if z.size < 2:
        raise ValueError("need at least two z grid points to interpolate")
    table = np.array([
        [recover_generator(drm.one_step, t, zz, tree) for zz in z] for t in ts
    ])

    convex_rows = True
    for row in table:
        if z.size >= 3:
            second = np.diff(row, 2) / np.diff(z)[:-1] ** 2
            convex_rows &= bool(np.all(second >= -1e-8 * max(1.0, np.max(np.abs(row)))))

    def fn(t, zq):
        zq = np.asarray(zq, dtype=float)
        row = table[int(np.argmin(np.abs(ts - t)))]
        out = np.interp(zq, z, row)
        lo_slope = (row[1] - row[0]) / (z[1] - z[0])
        hi_slope = (row[-1] - row[-2]) / (z[-1] - z[-2])
        out = np.where(zq < z[0], row[0] + (zq - z[0]) * lo_slope, out)
        out = np.where(zq > z[-1], row[-1] + (zq - z[-1]) * hi_slope, out)
        return out

    flags = {DOMINATED} if convex_rows else set()
    if convex_rows:
        flags.add(CONVEX)
    return Generator(fn, mu_bar, nu_bar, frozenset(flags), "tabulated",
                     {"source": drm.label, "z_min": float(z[0]), "z_max": float(z[-1]),
                      "t_points": len(ts), "z_points": len(z)})

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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bsde import SolvedBSDE, StepFn, _solve, entropy_exact, entropy_step, euler_step, \
    recover_generator, solve_bsde
from .claims import Claim, StoppingTime, sample_claims, stopped_values
from .generators import CONVEX, DOMINATED, Generator, entropy, quadratic_lower, quadratic_upper
from .lattice import FULL, ScenarioTree, TreeProcess, _unbatched, build_tree, propagate, \
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


class DynamicRiskMeasure:
    """One-step operator plus the tree it composes over."""

    def __init__(self, tree: ScenarioTree, kind: str, label: str,
                 one_step: StepFn, generator: Generator | None = None,
                 bounds: tuple[float, float] | None = None):
        self.tree = tree
        self.kind = kind
        self.label = label
        self.one_step = one_step
        self.generator = generator
        self.bounds = bounds

    def solve_terminal(self, terminal: np.ndarray, keep: int | None = None) -> SolvedBSDE:
        """Backward composition on a literal terminal slice (no sign flip).

        ``keep`` limits the stored depths of Y and Z (see SolvedBSDE).
        """
        if self.kind == "generator":
            return solve_bsde(self.generator, terminal, self.tree, keep)
        if self.kind == "entropy":
            return entropy_exact(self.generator.nu, terminal, self.tree, keep)
        xi = _unbatched(terminal)
        Y, Z, dropped = _solve(self.tree, xi, self.one_step, keep)
        # Custom operators carry no growth data; certificate unknown, so the
        # inequality axioms run un-gated and report what they see.
        return SolvedBSDE(Y, Z, "custom", xi, None, float("nan"), True, (), dropped)

    def rebind(self, tree: ScenarioTree) -> "DynamicRiskMeasure":
        if self.kind == "generator":
            return from_generator(self.generator, tree)
        if self.kind == "entropy":
            return entropic(self.generator.nu, tree)
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
                              entropy_step(nu, tree), generator=entropy(nu),
                              bounds=(0.0, float(nu)))


def custom(step_fn: StepFn, tree: ScenarioTree, label: str = "custom",
           bounds: tuple[float, float] | None = None) -> DynamicRiskMeasure:
    """Wrap a raw one-step operator.  Validate it with check_axioms before use.

    ``step_fn(k, down, up)`` must act elementwise in (down, up) and broadcast
    over leading axes: on arrays of shape (..., width) it returns that shape,
    each entry a function of the two entries at its index alone.  The
    penalization sweep calls it on (levels, width) slices.
    """
    return DynamicRiskMeasure(tree, "custom", label, step_fn, bounds=bounds)


def _terminal_of(drm: DynamicRiskMeasure, xi) -> np.ndarray:
    if isinstance(xi, Claim):
        return xi.evaluate(drm.tree)
    arr = np.asarray(xi, dtype=float)
    if arr.shape != (drm.tree.n_nodes(drm.tree.steps),):
        raise ValueError("claim slice does not match the tree horizon")
    return arr


def rho_solved(drm: DynamicRiskMeasure, xi, keep: int | None = None) -> SolvedBSDE:
    return drm.solve_terminal(-_terminal_of(drm, xi), keep=keep)


def rho(drm: DynamicRiskMeasure, xi, depth: int | None = None) -> TreeProcess:
    """The risk process rho_t(xi) at every depth (terminal slice is -xi).

    ``depth`` truncates the returned process; values are identical to the
    untruncated ones, and the solve stores no deeper slice.
    """
    return rho_solved(drm, xi, keep=depth).Y


# ---------------------------------------------------------------------------
# Check suites: axioms and domination share one skeleton


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
class CheckReport:
    """Verdicts of one check suite.

    ``name_key`` is the key each check's name goes under in the report
    (``"axiom"`` or ``"check"``); ``echo`` holds the suite inputs printed
    before the verdict.
    """

    label: str
    checks: dict
    name_key: str
    echo: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        return [n for n, c in self.checks.items() if c.status == "fail"]

    def as_report(self) -> dict:
        return {
            "source": self.label, **self.echo,
            "passed": self.passed,
            "checks": [
                {self.name_key: c.name, "status": c.status, "max_gap": c.max_gap,
                 "tol": c.tol, "comparisons": c.comparisons,
                 **({f"witness_{k}": v for k, v in c.witness.items()} if c.witness else {})}
                for c in self.checks.values()
            ],
        }


class _GapTracker:
    """Worst gap of one check over all its node-wise comparisons."""

    def __init__(self, tree: ScenarioTree):
        self.tree = tree
        self.gap = 0.0
        self.witness = None
        self.count = 0

    def update(self, values: np.ndarray, depth: int, tag: dict):
        """Fold in the gaps of one depth slice; the first maximum is the witness."""
        self.count += values.size
        i = int(np.argmax(values))
        if values[i] > self.gap:
            self.gap = float(values[i])
            self.witness = {**tag, "depth": depth,
                            "node": self.tree.node_label(depth, i), "gap": self.gap}

    def update_process(self, proc: TreeProcess, tag: dict):
        for k, slice_ in enumerate(proc.values):
            self.update(slice_, k, tag)

    def verdict(self, name: str, atol: float, certified: bool = True,
                note: str = "step certificate violated; refine dt") -> AxiomCheck:
        """``skipped`` without the certificate or without a single comparison,
        else pass iff the gap is within atol."""
        if not certified:
            return AxiomCheck(name, "skipped", float("nan"), atol, 0, note=note)
        if not self.count:
            return AxiomCheck(name, "skipped", float("nan"), atol, 0, note="nothing compared")
        status = "pass" if self.gap <= atol else "fail"
        return AxiomCheck(name, status, self.gap, atol, self.count, self.witness)


def _suite_setup(drm: DynamicRiskMeasure, claims: Sequence[Claim] | None,
                 seed: int, tol: float):
    """Terminal slices, labels, base solves, atol and claim pairs of a suite.

    The default suite is 10 leaf claims on full trees, mixtures otherwise.
    """
    tree = drm.tree
    if claims is None:
        claims = sample_claims(tree, 10, seed,
                               "leaf" if tree.layout == FULL else "mixture",
                               scale_to=0.5)
    if not claims:
        raise ValueError("a check suite needs at least one claim")
    xs = [_terminal_of(drm, c) for c in claims]
    labels = [c.label for c in claims]
    solved = [drm.solve_terminal(-x) for x in xs]
    scale = max(1.0, max(float(np.max(np.abs(x))) for x in xs))
    pairs = list(zip(range(0, len(xs) - 1, 2), range(1, len(xs), 2)))
    return xs, labels, solved, tol * scale, pairs


def check_axioms(
    drm: DynamicRiskMeasure,
    claims: Sequence[Claim] | None = None,
    seed: int = 0,
    depths: Sequence[int] | None = None,
    thetas: Sequence[float] = (0.25, 0.5, 0.75),
    lambdas: Sequence[float] = (0.0, 0.5, 2.0, 3.0),
    tol: float = 1e-10,
) -> CheckReport:
    """Run the eight axiom checks node by node on a seeded claim suite.

    Requires the full layout (several checks build subtree-measurable data).
    Every check reports its worst gap; failures carry a witness with the
    claim labels, depth, node identifier and the offending values, enough to
    reproduce the violation by direct evaluation.  Monotonicity, convexity
    and subadditivity are skipped when a solve breaks the step certificate.
    """
    tree = drm.tree
    if tree.layout != FULL:
        raise ValueError("axiom checks need the full layout")
    n = tree.steps
    if depths is None:
        depths = sorted({0, n // 3, (2 * n) // 3})
    for t in depths:
        tree.check_depth(t)
    xs, labels, solved, atol, pairs = _suite_setup(drm, claims, seed, tol)
    certified = all(s.monotone_step for s in solved)
    checks: dict = {}

    # Monotonicity: xi >= eta pointwise implies rho(xi) <= rho(eta).
    tr = _GapTracker(tree)
    cert = certified
    for i, j in pairs:
        eta = xs[i] - np.abs(xs[j])
        s_eta = drm.solve_terminal(-eta)
        cert &= s_eta.monotone_step
        tr.update_process(solved[i].Y - s_eta.Y, {"claim": labels[i], "minus": labels[j]})
    checks["monotonicity"] = tr.verdict("monotonicity", atol, cert)

    # Time consistency: rho_s(-rho_t(xi)) = rho_s(xi) for s <= t.
    tr = _GapTracker(tree)
    for i, s_i in enumerate(solved):
        for t in depths:
            outer = drm.solve_terminal(np.repeat(s_i.Y.values[t], 2 ** (n - t))).Y
            for s in range(t + 1):
                tr.update(np.abs(outer.values[s] - s_i.Y.values[s]), s,
                          {"claim": labels[i], "restart_depth": t})
    checks["time_consistency"] = tr.verdict("time_consistency", atol)

    # Preservation of known values: rho_t(xi) = -xi for F_t-measurable xi.
    tr = _GapTracker(tree)
    for t in depths:
        level = tree.brownian_slice(t)
        for vals, tag in ((level * level, "squared_level"), (np.full(tree.n_nodes(t), 0.3), "constant")):
            known = propagate(tree, t, vals)
            R = drm.solve_terminal(-known.terminal).Y
            for s in range(t, n + 1):
                tr.update(np.abs(R.values[s] + known.values[s]), s,
                          {"claim": tag, "measurable_at": t})
    checks["constant_preservation"] = tr.verdict("constant_preservation", atol)

    # Convexity in the claim.
    tr = _GapTracker(tree)
    cert = certified
    for i, j in pairs:
        for th in thetas:
            mix = drm.solve_terminal(-(th * xs[i] + (1.0 - th) * xs[j]))
            cert &= mix.monotone_step
            # Built slice by slice: process arithmetic would make four
            # TreeProcess objects per theta where this makes one.
            gap = [m - (th * a + (1.0 - th) * b) for m, a, b in
                   zip(mix.Y.values, solved[i].Y.values, solved[j].Y.values)]
            tr.update_process(TreeProcess(tree, gap, copy=False),
                              {"claims": f"{labels[i]}|{labels[j]}", "theta": th})
    checks["convexity"] = tr.verdict("convexity", atol, cert)

    # Subadditivity.
    tr = _GapTracker(tree)
    cert = certified
    for i, j in pairs:
        s_sum = drm.solve_terminal(-(xs[i] + xs[j]))
        cert &= s_sum.monotone_step
        tr.update_process(s_sum.Y - (solved[i].Y + solved[j].Y),
                          {"claims": f"{labels[i]}|{labels[j]}"})
    checks["subadditivity"] = tr.verdict("subadditivity", atol, cert)

    # Positive homogeneity: rho(lambda xi) = lambda rho(xi), lambda >= 0.
    tr = _GapTracker(tree)
    for i, s_i in enumerate(solved):
        for lam in lambdas:
            s_lam = drm.solve_terminal(-(lam * xs[i]))
            tr.update_process((s_lam.Y - s_i.Y * lam).map(np.abs),
                              {"claim": labels[i], "lambda": lam})
    checks["positive_homogeneity"] = tr.verdict("positive_homogeneity", atol)

    # Translation invariance: rho_t(xi + zeta) = rho_t(xi) - zeta, zeta in F_t.
    tr = _GapTracker(tree)
    for i, s_i in enumerate(solved[: max(2, len(solved) // 2)]):
        for t in depths:
            zeta = propagate(tree, t, 0.5 * np.cos(tree.brownian_slice(t)))
            shifted = drm.solve_terminal(-(xs[i] + zeta.terminal)).Y
            for s in range(t, n + 1):
                tr.update(np.abs(shifted.values[s] - (s_i.Y.values[s] - zeta.values[s])), s,
                          {"claim": labels[i], "shift_depth": t})
    checks["translation_invariance"] = tr.verdict("translation_invariance", atol)

    # Regularity (locality): rho_t(1_A xi) = 1_A rho_t(xi) on depth-t subtrees.
    tr = _GapTracker(tree)
    rng = np.random.default_rng(seed + 1)
    for i, s_i in enumerate(solved[: max(2, len(solved) // 2)]):
        for t in (d for d in depths if d > 0):
            node = int(rng.integers(tree.n_nodes(t)))
            ind_term = subtree_indicator(tree, t, node)
            masked = drm.solve_terminal(-(xs[i] * ind_term)).Y
            ind_t = np.zeros(tree.n_nodes(t))
            ind_t[node] = 1.0
            tr.update(np.abs(masked.values[t] - ind_t * s_i.Y.values[t]), t,
                      {"claim": labels[i], "event_node": tree.node_label(t, node)})
    checks["regularity"] = tr.verdict("regularity", atol)

    return CheckReport(drm.label, checks, "axiom")


def check_domination(
    drm: DynamicRiskMeasure,
    mu: float,
    nu: float,
    claims: Sequence[Claim] | None = None,
    seed: int = 0,
    thetas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    z_grid: Sequence[float] = (-1.0, 0.0, 1.0),
    tol: float = 1e-10,
) -> CheckReport:
    """Domination diagnostics for a candidate (mu, nu) pair.

    Three families, all node-wise: the two-sided envelope (solutions of the
    lower and upper growth drivers bracket the measure), the one-sided
    convex-combination domination over a theta grid, and the sup-norm
    bound for claims differing by a multiple of the terminal noise.  Every
    theta must lie in (0, 1), where the one-sided domination is defined.
    """
    bad = [th for th in thetas if not 0.0 < th < 1.0]
    if bad:
        raise ValueError(f"theta_domination needs every theta in (0, 1), got {bad[0]}")
    tree = drm.tree
    xs, labels, solved, atol, pairs = _suite_setup(drm, claims, seed, tol)
    g_up, g_lo = quadratic_upper(mu, nu), quadratic_lower(mu, nu)
    checks: dict = {}

    tr = _GapTracker(tree)
    cert = True
    for i, s_i in enumerate(solved):
        s_up = solve_bsde(g_up, -xs[i], tree)
        s_lo = solve_bsde(g_lo, -xs[i], tree)
        cert &= s_up.monotone_step and s_lo.monotone_step
        tr.update_process(s_i.Y - s_up.Y, {"claim": labels[i], "side": "upper"})
        tr.update_process(s_lo.Y - s_i.Y, {"claim": labels[i], "side": "lower"})
    checks["two_sided_envelope"] = tr.verdict(
        "two_sided_envelope", atol, cert,
        note="envelope solver certificate violated; refine dt")

    tr = _GapTracker(tree)
    for i, j in pairs:
        for th in thetas:
            stretched = drm.solve_terminal(-((xs[i] - th * xs[j]) / (1.0 - th))).Y
            tr.update_process((solved[i].Y - th * solved[j].Y) - (1.0 - th) * stretched,
                              {"claims": f"{labels[i]}|{labels[j]}", "theta": th})
    checks["theta_domination"] = tr.verdict("theta_domination", atol)

    tr = _GapTracker(tree)
    B_T = tree.brownian_slice(tree.steps)
    for i, j in pairs:
        sup_diff = float(np.max(np.abs(xs[i] - xs[j])))
        for z in z_grid:
            a = drm.solve_terminal(-(xs[i] - z * B_T)).Y
            b = drm.solve_terminal(-(xs[j] - z * B_T)).Y
            tr.update_process((a - b).map(np.abs) - sup_diff,
                              {"claims": f"{labels[i]}|{labels[j]}", "z": z})
    checks["sup_norm_bound"] = tr.verdict("sup_norm_bound", atol)

    return CheckReport(drm.label, checks, "check", {"mu": mu, "nu": nu})


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


def one_step_defects(drm: DynamicRiskMeasure, W: TreeProcess):
    """Yield (k, rho_k(-W_{k+1}) - W_k) for each depth k below W's last."""
    for k in range(W.last_depth):
        yield k, drm.one_step(k, *drm.tree.split_children(W.values[k + 1])) - W.values[k]


def supermartingale_gap(drm: DynamicRiskMeasure, W: TreeProcess) -> tuple[float, dict | None]:
    """Worst one-step violation of rho_k(-W_{k+1}) <= W_k over all nodes."""
    tr = _GapTracker(drm.tree)
    for k, defect in one_step_defects(drm, W):
        tr.update(defect, k, {})
    return tr.gap, tr.witness


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
    precheck: bool = True,
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
    when their own tree is large or recombining.  The domination bounds are
    the measure's own (``custom(bounds=...)`` for a custom source).
    """
    tree = drm.tree
    z = np.asarray(sorted(float(v) for v in z_grid), dtype=float)
    ts = np.asarray(sorted(float(v) for v in t_grid), dtype=float)
    if z.size < 2:
        raise ValueError("need at least two z grid points to interpolate")
    if not ts.size:
        raise ValueError("t_grid must not be empty")
    if drm.bounds is None:
        raise ValueError("domination bounds are required for a custom source")
    mu_bar, nu_bar = drm.bounds

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
            name = dom.failing()[0]
            raise ValueError(
                f"{drm.label} violates domination with bounds ({mu_bar}, {nu_bar}); "
                f"witness: {dom.checks[name].witness}")

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

"""Dynamic risk measures as backward compositions of one-step operators.

A dynamic risk measure here is the nonlinear conditional expectation of the
negated claim: rho_t(xi) = E^g[-xi | F_t].  The minus sign lives in this
module and nowhere else; the solver layer always works with its literal
terminal argument.  Sources, each solved by one ``bsde._solve`` call under
the ``scheme`` whose certificate rule ``bsde.SolvedBSDE`` states:

* ``from_generator`` -- "explicit", the explicit scheme for a driver g(t, z),
* ``entropic`` -- "entropy_exact", the exact quadratic recursion, equal to
  (1/2 nu) log E[exp(-2 nu xi) | F_t] to machine precision,
* ``custom`` -- any vectorized map from child-value pairs to parent values.

The axiom suite checks monotonicity, time consistency, preservation of
known values, convexity, subadditivity, positive homogeneity, translation
invariance and locality on the claim suite it is given, node by node, and returns
witnesses for whatever fails.  Inequality axioms that only survive
discretization under the step-monotonicity certificate are skipped (not
failed) when the certificate is violated.  The suites read only Y and that
verdict, which the exact recursion and a custom step hold by rule; their
steps ignore z, so their solves record no Z and the suites on those
measures compute neither Z nor max|Z|.  Every check of both suites is
one gap function compared slice by slice over its solutions through
``generators._GapTracker.compare``, so no check builds a process of gaps;
the suites report ``generators.CheckReport`` verdicts, as ``verify_class``
does, and ``supermartingale_gap`` folds through the same tracker.

``solve_terminal`` of the explicit and exact-entropic schemes also solves a
batch of terminals, shape (B, n_nodes(N)), in one backward pass.  The
suites use it: each check's terminals go through ``solve_terminal`` in
chunks of max(1, 2^17 // (stored nodes of one process)) rows (4 on a full
N=14 tree, 256 at N=8, one from N=16 up), each chunk let go before the next
is solved, and the rows are compared in the order of one-at-a-time solves.
A custom measure's suites solve one terminal slice at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, product
from typing import Iterable, Sequence

import numpy as np

from .bsde import SolvedBSDE, StepFn, _solve, entropy_step, entropy_step_driver, euler_step, \
    noise_step, solve_bsde
from .claims import Claim, StoppingTime, _terminal_of, sample_claims, stopped_values
from .generators import CONVEX, DOMINATED, SUBLINEAR, CheckReport, Generator, _GapTracker, \
    entropy, quadratic_lower, quadratic_upper, verify_class
from .lattice import FULL, ScenarioTree, TreeProcess, _slice_of, build_tree, propagate, \
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
    """One-step operator ``one_step(k, down, up, z=None)``, which may ignore
    the children's z, plus the tree it composes over, the ``scheme`` its
    solutions report, the domination ``bounds`` (mu, nu) that
    :func:`represent` reads (None: unknown) and the driver ``generator``
    (None for a custom operator)."""

    def __init__(self, tree: ScenarioTree, scheme: str, label: str, one_step: StepFn,
                 bounds: tuple[float, float] | None, generator: Generator | None = None):
        self.tree = tree
        self.scheme = scheme
        self.label = label
        self.one_step = one_step
        self.generator = generator
        self.bounds = bounds

    def solve_terminal(self, terminal: np.ndarray, keep: int | None = None) -> SolvedBSDE:
        """Backward composition on a literal terminal slice (no sign flip).

        ``keep`` limits the stored depths of Y and Z (see SolvedBSDE).  The
        explicit and exact-entropic schemes also take a batch of terminals,
        shape (B, n_nodes(N)), and solve it in one pass with every depth
        kept; every step is elementwise, so ``SolvedBSDE.row(i)`` is the
        solve of row i alone (see there).  A custom measure solves one
        slice at a time: the suites are what check its step, so they do not
        trust it to keep the rows of a batch apart.
        """
        xi = np.asarray(terminal, dtype=float)
        if xi.ndim != 2 or self.scheme == "custom":
            xi = _slice_of(self.tree, xi, self.tree.steps)[1]
        elif keep is not None:
            raise ValueError("a batch of terminals keeps every depth")
        return _solve(self.tree, xi, self.one_step, keep, self.scheme, self.generator)

    @property
    def driver(self) -> Generator | None:
        """g_k of the one-step operator: the explicit scheme's g itself, the
        exact recursion's log cosh driver (``bsde.entropy_step_driver``);
        None for a custom operator."""
        if self.scheme == "entropy_exact":
            return entropy_step_driver(self.generator.nu, self.tree)
        return self.generator

    def rebind(self, tree: ScenarioTree) -> "DynamicRiskMeasure":
        if self.scheme == "explicit":
            return from_generator(self.generator, tree)
        if self.scheme == "entropy_exact":
            return entropic(self.generator.nu, tree)
        raise ValueError("a custom one-step operator is tied to its tree")


def from_generator(g: Generator, tree: ScenarioTree) -> DynamicRiskMeasure:
    """rho_t(xi) = E^g[-xi | F_t] via the explicit scheme."""
    return DynamicRiskMeasure(tree, "explicit", f"generator[{g.kind}]",
                              euler_step(g, tree), generator=g,
                              bounds=(g.mu, g.nu))


def entropic(nu: float, tree: ScenarioTree) -> DynamicRiskMeasure:
    """The entropic risk measure, solved by the exact quadratic recursion."""
    if nu <= 0:
        raise ValueError("the entropic measure needs nu > 0")
    return DynamicRiskMeasure(tree, "entropy_exact", f"entropic[nu={nu:g}]",
                              entropy_step(nu), generator=entropy(nu),
                              bounds=(0.0, float(nu)))


def custom(step_fn: StepFn, tree: ScenarioTree, label: str = "custom",
           bounds: tuple[float, float] | None = None) -> DynamicRiskMeasure:
    """Wrap a raw one-step operator.  Validate it with check_axioms before use.

    ``step_fn(k, down, up)`` must act elementwise in (down, up) and broadcast
    over leading axes: on arrays of shape (..., width) it returns that shape,
    each entry a function of the two entries at its index alone.  The
    penalization sweep calls it on (levels, width) slices.
    """
    return DynamicRiskMeasure(tree, "custom", label, lambda k, d, u, z=None: step_fn(k, d, u),
                              bounds=bounds)


def rho_solved(drm: DynamicRiskMeasure, xi, keep: int | None = None) -> SolvedBSDE:
    return drm.solve_terminal(-_terminal_of(drm.tree, xi), keep=keep)


def rho(drm: DynamicRiskMeasure, xi) -> TreeProcess:
    """The risk process rho_t(xi) at every depth (terminal slice is -xi)."""
    return rho_solved(drm, xi).Y


# ---------------------------------------------------------------------------
# Check suites: axioms and domination share one skeleton

# Stored Y values of one batched suite solve, 1 MB: 4 rows per chunk on a
# full N=14 tree, 256 at N=8 and 1 (one slice per solve) from N=16 up.  On
# the full N=14 suites (2 vCPU Xeon, numpy 2.4.6) 4 rows gave the fastest
# median op, an axioms op, 16% under one row at a time; 2 rows gave 10%,
# and 8 rows 2% at 2 MB more peak RSS.
_CHUNK_VALUES = 2 ** 17


def _chunk_rows(drm: DynamicRiskMeasure) -> int:
    """Rows per batched suite solve: the whole processes that fit in
    _CHUNK_VALUES stored values, at least one, and one for a custom measure."""
    if drm.scheme == "custom":
        return 1
    tree = drm.tree
    return max(1, _CHUNK_VALUES // sum(tree.n_nodes(k) for k in range(tree.steps + 1)))


def _solve_each(drm: DynamicRiskMeasure, cases: Iterable[tuple], terminal, visit,
                gated: bool = False) -> bool:
    """Call ``visit(s, *case)`` for each case in order, s the solution of the
    literal terminal ``terminal(*case)``.  Returns whether every s holds the
    step certificate when ``gated`` (each one is read), else True.

    The cases are taken ``_chunk_rows(drm)`` at a time and their terminals
    solved by one ``solve_terminal`` pass, of which s is a row; a chunk of
    one is solved as one slice.  A chunk is let go before the next is built,
    unless ``visit`` keeps a row of it.
    """
    rows, cases, certified = _chunk_rows(drm), iter(cases), True
    while chunk := list(islice(cases, rows)):
        solved = drm.solve_terminal(terminal(*chunk[0]) if rows == 1 else
                                    np.stack([terminal(*case) for case in chunk]))
        for r, case in enumerate(chunk):
            s = solved if rows == 1 else solved.row(r)
            if gated:
                certified &= s.monotone_step
            visit(s, *case)
        del chunk, solved, s
    return certified


def _suite_setup(drm: DynamicRiskMeasure, claims: Sequence[Claim], tol: float):
    """Terminal slices, labels, base solves, atol and claim pairs of a suite."""
    if not claims:
        raise ValueError("a check suite needs at least one claim")
    tree = drm.tree
    xs = [_terminal_of(tree, c) for c in claims]
    labels = [c.label for c in claims]
    solved: list[SolvedBSDE] = []
    _solve_each(drm, ((x,) for x in xs), lambda x: -x, lambda s, x: solved.append(s))
    scale = max(1.0, max(float(np.max(np.abs(x))) for x in xs))
    pairs = list(zip(range(0, len(xs) - 1, 2), range(1, len(xs), 2)))
    return xs, labels, solved, tol * scale, pairs


_LAMBDAS = (0.0, 0.5, 2.0, 3.0)  # the positive homogeneity factors of check_axioms
_THETAS = (0.25, 0.5, 0.75)  # and its convexity weights
_TOL = 1e-10  # the slack of optional_stopping_check, times max(1, max|Y|)


def check_axioms(
    drm: DynamicRiskMeasure,
    claims: Sequence[Claim],
    seed: int = 0,
    depths: Sequence[int] | None = None,
    tol: float = 1e-10,
) -> CheckReport:
    """Run the eight axiom checks node by node on a seeded claim suite.

    Requires the full layout (several checks build subtree-measurable data).
    Every check reports its worst gap; failures carry a witness with the
    claim labels, depth, node identifier and the offending values, enough to
    reproduce the violation by direct evaluation.  Monotonicity, convexity
    and subadditivity are skipped when a solve breaks the step certificate.
    ``seed`` picks the event nodes of the regularity check.

    Each check's terminals, and the base solves of the claims, go through
    ``solve_terminal`` in chunks of max(1, 2^17 // (2^(N+1) - 1)) rows: 4
    at N=14, 256 at N=8, one slice per solve from N=16 up and for a custom
    measure.  Rows are compared in the order of the one-at-a-time loops,
    so the gaps, witnesses and certificate reads are theirs.
    """
    tree = drm.tree
    if tree.layout != FULL:
        raise ValueError("axiom checks need the full layout")
    n = tree.steps
    if depths is None:
        depths = sorted({0, n // 3, (2 * n) // 3})
    for t in depths:
        tree.check_depth(t)
    xs, labels, solved, atol, pairs = _suite_setup(drm, claims, tol)
    certified = all(s.monotone_step for s in solved)
    checks: dict = {}

    # Monotonicity: xi >= eta pointwise implies rho(xi) <= rho(eta).
    tr = _GapTracker(tree)
    cert = _solve_each(
        drm, pairs, lambda i, j: -(xs[i] - np.abs(xs[j])),
        lambda s, i, j: tr.compare(np.subtract, (solved[i].Y, s.Y),
                                   {"claim": labels[i], "minus": labels[j]}), gated=True)
    checks["monotonicity"] = tr.verdict("monotonicity", atol, certified and cert)

    # Time consistency: rho_s(-rho_t(xi)) = rho_s(xi) for s <= t.
    tr = _GapTracker(tree)
    _solve_each(
        drm, product(range(len(xs)), depths),
        lambda i, t: np.repeat(solved[i].Y.values[t], 2 ** (n - t)),
        lambda s, i, t: tr.compare(lambda o, a: np.abs(o - a), (s.Y, solved[i].Y),
                                   {"claim": labels[i], "restart_depth": t}, range(t + 1)))
    checks["time_consistency"] = tr.verdict("time_consistency", atol)

    # Preservation of known values: rho_t(xi) = -xi for F_t-measurable xi.
    def known_values():
        for t in depths:
            level = tree.brownian_slice(t)
            for vals, tag in ((level * level, "squared_level"),
                              (np.full(tree.n_nodes(t), 0.3), "constant")):
                yield propagate(tree, t, vals), tag, t

    tr = _GapTracker(tree)
    _solve_each(
        drm, known_values(), lambda known, tag, t: -known.terminal,
        lambda s, known, tag, t: tr.compare(lambda r, k: np.abs(r + k), (s.Y, known),
                                            {"claim": tag, "measurable_at": t},
                                            range(t, n + 1)))
    checks["constant_preservation"] = tr.verdict("constant_preservation", atol)

    # Convexity in the claim.
    tr = _GapTracker(tree)
    cert = _solve_each(
        drm, [(i, j, th) for i, j in pairs for th in _THETAS],
        lambda i, j, th: -(th * xs[i] + (1.0 - th) * xs[j]),
        lambda s, i, j, th: tr.compare(lambda m, a, b: m - (th * a + (1.0 - th) * b),
                                       (s.Y, solved[i].Y, solved[j].Y),
                                       {"claims": f"{labels[i]}|{labels[j]}", "theta": th}),
        gated=True)
    checks["convexity"] = tr.verdict("convexity", atol, certified and cert)

    # Subadditivity.
    tr = _GapTracker(tree)
    cert = _solve_each(
        drm, pairs, lambda i, j: -(xs[i] + xs[j]),
        lambda s, i, j: tr.compare(lambda m, a, b: m - (a + b), (s.Y, solved[i].Y, solved[j].Y),
                                   {"claims": f"{labels[i]}|{labels[j]}"}), gated=True)
    checks["subadditivity"] = tr.verdict("subadditivity", atol, certified and cert)

    # Positive homogeneity: rho(lambda xi) = lambda rho(xi), lambda >= 0.
    tr = _GapTracker(tree)
    _solve_each(
        drm, product(range(len(xs)), _LAMBDAS), lambda i, lam: -(lam * xs[i]),
        lambda s, i, lam: tr.compare(lambda m, a: np.abs(m - a * lam), (s.Y, solved[i].Y),
                                     {"claim": labels[i], "lambda": lam}))
    checks["positive_homogeneity"] = tr.verdict("positive_homogeneity", atol)

    # The last two checks run on the first half of the claims, at least two.
    half = range(min(len(xs), max(2, len(xs) // 2)))

    # Translation invariance: rho_t(xi + zeta) = rho_t(xi) - zeta, zeta in F_t.
    zetas = {t: propagate(tree, t, 0.5 * np.cos(tree.brownian_slice(t))) for t in depths}
    tr = _GapTracker(tree)
    _solve_each(
        drm, product(half, depths), lambda i, t: -(xs[i] + zetas[t].terminal),
        lambda s, i, t: tr.compare(lambda m, a, c: np.abs(m - (a - c)),
                                   (s.Y, solved[i].Y, zetas[t]),
                                   {"claim": labels[i], "shift_depth": t}, range(t, n + 1)))
    checks["translation_invariance"] = tr.verdict("translation_invariance", atol)
    del zetas

    # Regularity (locality): rho_t(1_A xi) = 1_A rho_t(xi) on depth-t subtrees.
    def local(s, i, t, node):
        ind_t = np.zeros(tree.n_nodes(t))
        ind_t[node] = 1.0
        tr.compare(lambda m, a: np.abs(m - ind_t * a), (s.Y, solved[i].Y),
                   {"claim": labels[i], "event_node": tree.node_label(t, node)}, (t,))

    tr = _GapTracker(tree)
    rng = np.random.default_rng(seed + 1)
    _solve_each(
        drm, ((i, t, int(rng.integers(tree.n_nodes(t)))) for i in half for t in depths if t > 0),
        lambda i, t, node: -(xs[i] * subtree_indicator(tree, t, node)), local)
    checks["regularity"] = tr.verdict("regularity", atol)

    return CheckReport(drm.label, checks)


def check_domination(
    drm: DynamicRiskMeasure,
    mu: float,
    nu: float,
    claims: Sequence[Claim],
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

    The base solves and the theta and sup-norm families go through
    ``solve_terminal`` in chunks, as in :func:`check_axioms`; the envelope
    solves are one ``solve_bsde`` each.
    """
    bad = [th for th in thetas if not 0.0 < th < 1.0]
    if bad:
        raise ValueError(f"theta_domination needs every theta in (0, 1), got {bad[0]}")
    tree = drm.tree
    xs, labels, solved, atol, pairs = _suite_setup(drm, claims, tol)
    g_up, g_lo = quadratic_upper(mu, nu), quadratic_lower(mu, nu)
    checks: dict = {}

    tr = _GapTracker(tree)
    cert = True
    for i, s_i in enumerate(solved):
        s_up = solve_bsde(g_up, -xs[i], tree)
        s_lo = solve_bsde(g_lo, -xs[i], tree)
        cert &= s_up.monotone_step and s_lo.monotone_step
        tr.compare(np.subtract, (s_i.Y, s_up.Y), {"claim": labels[i], "side": "upper"})
        tr.compare(np.subtract, (s_lo.Y, s_i.Y), {"claim": labels[i], "side": "lower"})
    checks["two_sided_envelope"] = tr.verdict(
        "two_sided_envelope", atol, cert,
        note="envelope solver certificate violated; refine dt")

    tr = _GapTracker(tree)
    _solve_each(
        drm, [(i, j, th) for i, j in pairs for th in thetas],
        lambda i, j, th: -((xs[i] - th * xs[j]) / (1.0 - th)),
        lambda s, i, j, th: tr.compare(lambda a, b, st: (a - b * th) - st * (1.0 - th),
                                       (solved[i].Y, solved[j].Y, s.Y),
                                       {"claims": f"{labels[i]}|{labels[j]}", "theta": th}))
    checks["theta_domination"] = tr.verdict("theta_domination", atol)

    # Claims i and j of a pair, each shifted by z B_T, are solved as
    # consecutive rows: row i's solution waits in ``first`` for row j's.
    B_T = tree.brownian_slice(tree.steps)
    sup_diff = {(i, j): float(np.max(np.abs(xs[i] - xs[j]))) for i, j in pairs}
    first: list[SolvedBSDE] = []

    def bounded(s, i, j, z, k):
        if k == i:
            first.append(s)
            return
        tr.compare(lambda u, v: np.abs(u - v) - sup_diff[i, j], (first.pop().Y, s.Y),
                   {"claims": f"{labels[i]}|{labels[j]}", "z": z})

    tr = _GapTracker(tree)
    _solve_each(drm, [(i, j, z, k) for i, j in pairs for z in z_grid for k in (i, j)],
                lambda i, j, z, k: -(xs[k] - z * B_T), bounded)
    checks["sup_norm_bound"] = tr.verdict("sup_norm_bound", atol)

    return CheckReport(drm.label, checks)


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
    """Worst one-step violation of rho_k(-W_{k+1}) <= W_k over all nodes.

    A NaN in W is not a value, so W is no supermartingale where it sits:
    the gap is NaN and the witness is the first node, in depth order, whose
    defect is NaN with a NaN in W at the node or at one of its children.
    A NaN that the operator answers on values (inf - inf of an overflowing
    scheme, say) is left to the checks that judge the measure and its output.
    """
    tree = drm.tree
    tr = _GapTracker(tree)
    for k, defect in one_step_defects(drm, W):
        worst = tr.update(defect, k, {})  # NaN when the depth holds one
        if math.isnan(worst):
            down, up = tree.split_children(W.values[k + 1])
            fault = np.isnan(defect) & (np.isnan(W.values[k]) | np.isnan(down) | np.isnan(up))
            if fault.any():
                i = int(np.argmax(fault))
                return worst, {"depth": k, "node": tree.node_label(k, i), "gap": worst}
    return tr.gap, tr.witness


def optional_stopping_check(
    drm: DynamicRiskMeasure,
    Y: TreeProcess,
    sigma: StoppingTime,
    tau: StoppingTime,
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
    atol = _TOL * max(1.0, Y.max_abs())
    pre_gap, pre_witness = supermartingale_gap(drm, Y)
    if not pre_gap <= atol:
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
    if worst > atol:
        witness = {"path": tree.node_label(tree.steps, i), "gap": worst,
                   "lhs": float(lhs[i]), "rhs": float(rhs[i])}
    return StoppingCheck(drm.label, pre_gap, worst, atol, worst <= atol, witness)


# ---------------------------------------------------------------------------
# Representation: read the driver back out of the measure


def represent(
    drm: DynamicRiskMeasure,
    z_grid: Sequence[float],
    t_grid: Sequence[float] = (0.0,),
    precheck: bool = True,
    seed: int = 0,
) -> Generator:
    """The measure's own driver: the generator whose explicit scheme it is.

    The value at (t, z) is the one-step risk of the claim -z * dB at depth
    k = round(t / dt) (clamped to the tree), divided by dt: the g_k of
    ``bsde.noise_step``, read for any z, so ``from_generator`` of the result
    reproduces the measure on its tree.  The grids only decide the flags:
    ``verify_class`` runs on them (g_k is exact off the grid too), and CONVEX,
    SUBLINEAR and DOMINATED are asserted iff convexity, sublinearity, and
    growth within the bounds and domination pass.

    Before reading it, the measure must pass monotonicity, time
    consistency, value preservation, convexity, translation invariance and
    the domination checks on a sample suite; a failed or skipped check
    aborts with its witness or note.  Generator- and entropy-backed
    measures run the precheck on a small full companion tree when their own
    tree is large or recombining.  The domination bounds are the measure's
    own (``custom(bounds=...)`` for a custom source).
    """
    tree = drm.tree
    z = np.asarray(sorted(float(v) for v in z_grid), dtype=float)
    ts = np.asarray(sorted(float(v) for v in t_grid), dtype=float)
    if z.size < 2:
        raise ValueError("need at least two z grid points")
    for name, grid in (("z grid", z), ("t_grid", ts)):
        bad = grid[~np.isfinite(grid)]
        if bad.size:
            raise ValueError(f"{name} points must be finite; got {bad[0]:g}")
    repeated = z[1:][np.diff(z) == 0.0]
    if repeated.size:
        raise ValueError(f"z grid points must be distinct; {repeated[0]:g} repeats")
    if not ts.size:
        raise ValueError("t_grid must not be empty")
    if drm.bounds is None:
        raise ValueError("domination bounds are required for a custom source")
    mu_bar, nu_bar = drm.bounds

    if precheck:
        check_tree, check_drm = tree, drm
        if tree.layout != FULL or tree.steps > 10:
            if drm.scheme == "custom":
                raise ValueError(
                    "cannot precheck a custom source away from its own tree; "
                    "pass precheck=False only after validating it separately")
            check_tree = build_tree(tree.grid.horizon, 8, FULL)
            check_drm = drm.rebind(check_tree)
        suite = sample_claims(check_tree, 8, seed, "leaf", scale_to=0.5)
        report = check_axioms(check_drm, suite, seed=seed)
        required = ("monotonicity", "time_consistency", "constant_preservation",
                    "convexity", "translation_invariance")
        _require_proven(drm.label, [report.checks[n] for n in required],
                        lambda name: f"fails {name} on the sample suite")
        dom = check_domination(check_drm, mu_bar, nu_bar, suite)
        _require_proven(drm.label, dom.checks.values(),
                        lambda name: f"violates domination with bounds ({mu_bar}, {nu_bar})")

    def fn(t, zq):
        k = min(max(int(round(t / tree.dt)), 0), tree.steps - 1)
        return noise_step(drm.one_step, k, zq, tree) / tree.dt

    needs = {CONVEX: {"convexity"}, SUBLINEAR: {"sublinearity"},
             DOMINATED: {"growth", "domination"}}
    candidate = Generator(fn, mu_bar, nu_bar, frozenset(needs), "one_step")
    passed = {n for n, c in verify_class(candidate, z, ts).checks.items() if c.status == "pass"}
    return replace(candidate, flags=frozenset(f for f, n in needs.items() if n <= passed))


def _require_proven(label: str, checks, fails) -> None:
    """Raise on the first failed check, else on the first skipped one."""
    for c in sorted(checks, key=lambda c: c.status != "fail"):  # stable
        if c.status == "fail":
            raise ValueError(f"{label} {fails(c.name)}; witness: {c.witness}")
        if c.status == "skipped":
            raise ValueError(f"{label} skipped {c.name} on the sample suite, "
                             f"so it is not proven: {c.note}")

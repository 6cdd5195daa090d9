"""Measure changes on the tree and the dual view of convex risk measures.

A measure Q on the tree is its tilt rates q (a ``TiltedMeasure``), which
set the one-step probabilities to p_up = (1 + q sqrt(dt)) / 2, the discrete
Girsanov move: the noise gains drift exactly q dt per step.  The likelihood
ratio is the multiplicative (Doleans) product theta_{k+1} =
theta_k (1 + q dB), an exact reference martingale, and Bayes' rule ties
tilted and reference conditionals together with no truncation error.

With f the Legendre-Fenchel conjugate of a convex driver, every admissible
q gives the lower bound E_Q[-xi - int f(s, q_s) ds] <= rho_0(xi), attained
by any density selecting from the subdifferential of the driver at the
solution's martingale integrand.  On the tree the driver is the measure's
own one-step driver g_k (``DynamicRiskMeasure.driver``), so the selection
attains rho_0 to rounding on both layouts.  For the entropic measure g_k is
the exact recursion's log cosh driver: its selection is the Gibbs tilt,
which ``gibbs_density`` computes independently from partition sums on the
full layout, and its conjugate summed along the tree is the discrete
relative entropy that penalizes every entropic row.

Each tilted recursion (the discrete relative entropy, the tilted mean of
``lattice``, the conjugate-penalized value) is written once, as an in-place
kernel.  The public ``relative_entropy``, ``dual_value`` and
``lattice.cond_expect`` run it into fresh arrays and return whole
processes.  ``verify_duality`` reads only roots: it evaluates every density
root-only, with all its reductions writing into one workspace allocated
once per call, so a sweep over many densities on a large full tree does not
allocate, and fault in, fresh slices for each one.  A step hands the
reduction its kernel's output as it is when that output is node-wide, and
broadcasts only a narrower one.  A measure's admissibility reads each
slice's max and min; only a depth that fails is searched for its witness.
The selection's rates and Fenchel residuals are formed in the arrays that
keep them, and no density's rates outlive its row.

A constant tilt (``tilt(value, tree)``) holds one float per depth: its
rates are one stride-0 broadcast of the per-depth rates, and its up
probabilities one of theirs, each sliced per depth.  The kernels evaluate
the terms of q alone (1 - p, log1p(-+q sqrt(dt)), the penalty) once per
depth for it, and its entropy row, whose terminal is zero, runs at width 1
all the way to the root, where ``lattice._fresh`` keeps one float per
depth.  ``verify_duality`` runs the entropy rows of its constant sweep
(entropic measure) as one batch of such rows, in buffers of one float per
rate, never as wide as a depth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bsde import SolvedBSDE
from .claims import _terminal_of
from .generators import CONVEX, Generator, conjugate_values, subdifferential_slices
from .lattice import (FULL, ScenarioTree, TreeProcess, _compact, _constant_process, _fresh,
                      _tilted_mean, backward_reduce)
from .risk import DynamicRiskMeasure

DEFAULT_ADMISSIBILITY_MARGIN = 1e-6


class TiltedMeasure:
    """The probability measure of adapted tilt rates q_k, one slice per step
    0..N-1: p_up = (1 + q sqrt(dt)) / 2 at every node.

    Admissibility requires a finite |q| sqrt(dt) <= 1 - delta at every node
    so both tilted one-step probabilities stay inside (0, 1).
    ``fenchel_residual`` is attached by :func:`optimal_density` and records
    how far each node's rate is from satisfying the conjugacy equality.
    """

    def __init__(self, q: TreeProcess, delta: float = DEFAULT_ADMISSIBILITY_MARGIN,
                 fenchel_residual: TreeProcess | None = None):
        tree = q.tree
        if q.last_depth != tree.steps - 1:
            raise ValueError("a density process needs exactly one slice per step")
        cap, sdt = 1.0 - delta, tree.sqrt_dt
        p_up = []
        for k, v in enumerate(q.values):
            c = _compact(v)  # a constant slice's witness is node 0
            # max|q| sqrt(dt) <= cap, read off the slice's max and min: a NaN
            # rate makes both NaN and fails, and only a failing depth is searched
            if not (c.max() * sdt <= cap and -c.min() * sdt <= cap):
                _refuse(tree, k, c, cap)
            p = _up_probabilities(c, sdt)
            if p.shape == v.shape:
                p.setflags(write=False)
            else:
                p = np.broadcast_to(p, v.shape)
            p_up.append(p)
        self.q, self.delta, self.fenchel_residual, self.tree = q, delta, fenchel_residual, tree
        self._p_up = p_up

    @classmethod
    def _constant(cls, tree: ScenarioTree, rates) -> "TiltedMeasure":
        """The measure of rate ``rates[k]`` at every node of depth k, rates
        the caller has admitted.  Its rates and up probabilities are each
        one stride-0 broadcast (``lattice._constant_process``); rates of
        shape (N, B) make a batch of B measures, slices (B, n_nodes(k))."""
        m = cls.__new__(cls)
        m.q = _constant_process(tree, rates)
        m.delta, m.fenchel_residual, m.tree = DEFAULT_ADMISSIBILITY_MARGIN, None, tree
        m._p_up = _constant_process(tree, _up_probabilities(rates, tree.sqrt_dt)).values
        return m

    def p_up(self, depth: int) -> np.ndarray:
        """Read-only up probabilities at ``depth``, one per node.

        Computed at the width the rates vary over: a constant slice of q
        gives a stride-0 view of one probability.
        """
        return self._p_up[depth]


def _up_probabilities(q, sqrt_dt: float) -> np.ndarray:
    """0.5 * (1.0 + q * sqrt_dt), its ufuncs in that order, in one new array."""
    p = np.multiply(q, sqrt_dt)
    np.add(p, 1.0, out=p)
    return np.multiply(p, 0.5, out=p)


def _refuse(tree: ScenarioTree, depth: int, rates: np.ndarray, cap: float):
    """Raise for the inadmissible ``rates`` of ``depth``, naming the node of
    the largest |q| (the first one; a NaN rate wins)."""
    worst = int(np.argmax(np.abs(rates)))
    size = abs(rates[worst]) * tree.sqrt_dt
    detail = "q = nan" if np.isnan(size) else f"|q| sqrt(dt) = {size:.6g} > {cap:.6g}"
    raise ValueError(f"inadmissible density: {detail} at depth {depth}, "
                     f"node {tree.node_label(depth, worst)}")


def tilt(q, tree: ScenarioTree) -> TiltedMeasure:
    """The tilted measure on ``tree`` of ``q``: a TiltedMeasure (returned as
    it is), a TreeProcess of rates, a scalar or one array-like per depth.  A
    scalar, and each per-depth scalar, is one float broadcast to the node
    width (a read-only stride-0 view).  A measure or a process built on
    another tree is refused."""
    if isinstance(q, (TiltedMeasure, TreeProcess)):
        if q.tree != tree:
            raise ValueError("measure and tree disagree")
        return q if isinstance(q, TiltedMeasure) else TiltedMeasure(q)
    if np.isscalar(q):
        # every depth holds the one rate, so depth 0 is the first to fail
        rate, cap = np.full(1, float(q)), 1.0 - DEFAULT_ADMISSIBILITY_MARGIN
        if not abs(rate[0]) * tree.sqrt_dt <= cap:
            _refuse(tree, 0, rate, cap)
        return TiltedMeasure._constant(tree, np.broadcast_to(rate, tree.steps))
    # Copy, then broadcast: a per-depth scalar stays one float, aliasing nothing.
    slices = [np.broadcast_to(np.array(v, dtype=float), (tree.n_nodes(k),))
              for k, v in enumerate(q)]
    return TiltedMeasure(TreeProcess(tree, slices))


@dataclass
class EntropyEstimates:
    """Conditional relative entropy of the tilt, two ways.

    ``discrete`` is the exact finite-space value E_Q[log(theta_N / theta_k) | k];
    ``continuum`` is the small-step formula E_Q[(1/2) sum q^2 dt | k].  They
    differ by O(dt sum |q|^3) and both are reported.
    """

    discrete: TreeProcess
    continuum: TreeProcess


def _entropy_kernel(m: TiltedMeasure):
    """In-place kernel of E_Q[log(theta_N / theta_k) | k], the exact relative
    entropy of the tilt: ``(1 - p) (down + log1p(-q sqrt(dt)))
    + p (up + log1p(q sqrt(dt)))``, in that order (see ``lattice._tilted_mean``).
    The terms of q alone fill the first width(q) scratch entries."""
    q, sdt = m.q.values, m.tree.sqrt_dt

    def kernel(k, down, up, out, a, b):
        qk, p, down, up = (_compact(v) for v in (q[k], m.p_up(k), down, up))
        wq = qk.shape[-1]
        w = max(wq, down.shape[-1], up.shape[-1])
        aq, bq, a, b = a[..., :wq], b[..., :wq], a[..., :w], b[..., :w]
        np.negative(qk, out=aq)
        np.multiply(aq, sdt, out=aq)
        np.log1p(aq, out=aq)
        np.add(down, aq, out=a)
        np.subtract(1.0, p, out=bq)
        np.multiply(bq, a, out=a)
        np.multiply(qk, sdt, out=bq)
        np.log1p(bq, out=bq)
        np.add(up, bq, out=b)
        np.multiply(p, b, out=b)
        return np.add(a, b, out=out[..., :w])

    return kernel


def relative_entropy(m: TiltedMeasure) -> EntropyEstimates:
    tree = m.tree
    zero = np.broadcast_to(0.0, tree.n_nodes(tree.steps))  # one float, read-only
    # E_Q[(1/2) sum q^2 dt]: the penalized tilted step with the cost -q^2/2
    continuum = _PenalizedKernel(m, lambda t, q: -0.5 * q * q)
    return EntropyEstimates(backward_reduce(tree, zero, _fresh(_entropy_kernel(m))),
                            backward_reduce(tree, zero, _fresh(continuum)))


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


class _PenalizedKernel:
    """In-place kernel of the penalized tilted step
    ``(1 - p) down + p up - cost dt`` with cost = f(t, q) (see
    ``lattice._tilted_mean``); ``infinite`` counts the nodes met whose cost
    is infinite.  The cost is evaluated at the width the rates vary over."""

    def __init__(self, m: TiltedMeasure, penalty):
        self.m = m
        self.penalty_fn: Callable = penalty
        if isinstance(penalty, Generator):
            self.penalty_fn = lambda t, x: conjugate_values(penalty, t, x)
        self.mean = _tilted_mean(m)
        self.infinite = 0

    def __call__(self, k, down, up, out, a, b):
        dt = self.m.tree.dt
        q = self.m.q.values[k]
        qc = _compact(q)
        wq = qc.shape[-1]
        cost = np.asarray(self.penalty_fn(k * dt, qc), dtype=float)
        self.infinite += int(np.sum(np.isinf(cost))) * (q.shape[-1] // wq)
        out = self.mean(k, down, up, out, a, b)
        np.multiply(cost, dt, out=a[..., :wq])
        return np.subtract(out, a[..., :wq], out=out)


def dual_value(m: TiltedMeasure, xi, penalty) -> DualValue:
    """Evaluate the dual lower bound for one admissible density.

    ``xi`` is a claim or a horizon slice of the measure's tree.  ``penalty``
    is the conjugate f, either a Generator (its conjugate is used) or a
    callable f(t, x_slice) -> slice with +inf allowed.  The time integral
    uses the left-endpoint convention, matching the solvers.
    """
    kernel = _PenalizedKernel(m, penalty)
    proc = backward_reduce(m.tree, -_terminal_of(m.tree, xi), _fresh(kernel))
    return DualValue(proc, bool(np.isfinite(proc.root())), kernel.infinite)


def optimal_density(solved: SolvedBSDE, generator: Generator) -> TiltedMeasure:
    """Subdifferential selection of the convex driver g = ``generator`` along
    the solved martingale integrand.

    Picks the midpoint of [g'(Z-), g'(Z+)] at every node (any selection
    attains the dual bound; the midpoint is deterministic).  The Fenchel
    equality residual |f(q) - (q Z - g(Z))| is evaluated per node and
    attached.  Raises when the selection is inadmissible for the tree's
    step size, which is the discrete version of 'drift too strong': refine
    dt until |q| sqrt(dt) < 1.
    """
    if not generator.is_(CONVEX):
        raise ValueError("duality selections need a convex driver")
    tree = solved.tree
    q_slices, res_slices = [], []
    for k in range(solved.Z.last_depth + 1):
        t = k * tree.dt
        z = solved.Z.values[k]
        lo, hi = subdifferential_slices(generator, t, z)
        q = np.add(lo, hi)
        del lo, hi  # neither is kept: the widest depth's would outlive the loop
        q *= 0.5
        res = np.multiply(q, z)  # |f(q) - (q z - g(z))|, formed in place
        np.subtract(res, generator(t, z), out=res)
        np.subtract(conjugate_values(generator, t, q), res, out=res)
        res_slices.append(np.abs(res, out=res))
        q_slices.append(q)
    q_proc = TreeProcess(tree, q_slices)
    try:
        return TiltedMeasure(q_proc, fenchel_residual=TreeProcess(tree, res_slices))
    except ValueError as exc:
        raise ValueError(
            f"{exc}; the subdifferential selection needs a finer grid "
            "(|q| sqrt(dt) must stay below 1)") from None


def gibbs_density(nu: float, xi, tree: ScenarioTree) -> TiltedMeasure:
    """Density of the Gibbs measure dQ proportional to exp(-2 nu xi) dP.

    This is the exact maximizer of E_Q[-xi] - (1/2nu) H(Q | P) over all
    measures on the tree (full layout).  One-step up probabilities are
    ratios of subtree partition sums, evaluated in log space.  The entropic
    selection of ``optimal_density`` (the exact recursion's own driver)
    has the same rates, from the solution instead of the partition sums,
    on either layout; this is the independent computation of them.
    """
    if tree.layout != FULL:
        raise ValueError("the Gibbs tilt enumerates paths; use the full layout")
    log_w = -2.0 * float(nu) * _terminal_of(tree, xi)
    q_slices: list[np.ndarray] = [None] * tree.steps  # type: ignore[list-item]

    def partition(k, down, up):
        # q is read off the same child sums the parent's sum is formed from.
        log_z = np.logaddexp(down, up)
        q_slices[k] = (2.0 * np.exp(up - log_z) - 1.0) / tree.sqrt_dt
        return log_z

    backward_reduce(tree, log_w, partition, keep=0)
    q = TreeProcess(tree, q_slices)
    margin = 1.0 - q.max_abs() * tree.sqrt_dt
    if margin <= 0.0:
        raise ValueError("degenerate Gibbs tilt: a one-step probability hit 0 or 1")
    return TiltedMeasure(q, min(DEFAULT_ADMISSIBILITY_MARGIN, 0.5 * margin))


class _Workspace:
    """Root-only reductions on one tree, written into buffers allocated once.

    Two scratch slices as wide as depth N-1 and one output buffer, split by
    depth parity into a region as wide as depth N-1 and one as wide as
    depth N-2.  The step at depth k writes into the region of k's parity and
    reads its children from the other one (or from the terminal), so no
    step's output aliases its input.  Only root floats leave: every
    reduction of a verification reuses the same memory.  A node-wide
    output goes to the next step as it is; a narrower one is broadcast.
    """

    def __init__(self, tree: ScenarioTree):
        n = tree.steps
        wide = tree.n_nodes(n - 1)
        out = np.empty(wide + tree.n_nodes(max(n - 2, 0)))
        self.tree = tree
        self.regions = (out[:wide], out[wide:]) if n % 2 else (out[wide:], out[:wide])
        self.a, self.b = np.empty(wide), np.empty(wide)
        self.zeros = np.broadcast_to(0.0, tree.n_nodes(n))  # one float, read-only

    def root(self, terminal: np.ndarray, kernel) -> float:
        """Root of the reduction of ``terminal`` by an in-place ``kernel``."""

        def step(k, down, up):
            w = down.shape[-1]
            out = kernel(k, down, up, self.regions[k % 2][:w], self.a[:w], self.b[:w])
            return out if out.shape == down.shape else np.broadcast_to(out, down.shape)

        return backward_reduce(self.tree, terminal, step, keep=0).root()


def _constant_entropies(tree: ScenarioTree, rates: Sequence[float]) -> list:
    """Root relative entropy of the constant tilt of each rate, as one
    batched reduction of a zero terminal.

    Every row stays at width 1 to the root, so the pass runs in buffers of
    one float per rate, and each root has the bits of the tilt's own
    entropy reduction.  The rates must be admissible."""
    rows = len(rates)
    batch = TiltedMeasure._constant(tree, np.broadcast_to(rates, (tree.steps, rows)))
    kernel = _entropy_kernel(batch)
    outs, a, b = np.empty((2, rows, 1)), np.empty((rows, 1)), np.empty((rows, 1))

    def step(k, down, up):
        return np.broadcast_to(kernel(k, down, up, outs[k % 2], a, b), down.shape)

    zeros = np.broadcast_to(0.0, (rows, tree.n_nodes(tree.steps)))  # read-only
    return backward_reduce(tree, zeros, step, keep=0).values[0][:, 0].tolist()


@dataclass
class DualityReport:
    label: str
    rho_root: float
    penalty: str
    rows: list
    optimal_gap: float
    weak_duality_ok: bool
    passed: bool


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

    The selection and the penalty are those of the measure's own one-step
    driver g_k (``DynamicRiskMeasure.driver``), with the left-endpoint time
    integral, so on either layout weak duality is an identity, not an O(dt)
    bound, and the selection attains rho_0.  For the explicit scheme g_k is
    the driver g, penalized by its conjugate f.  For the entropic measure
    it is the exact recursion's log cosh driver, whose selection
    tanh(2 nu Z sqrt(dt)) / sqrt(dt) is the Gibbs tilt (``gibbs_density``)
    and whose conjugate summed along the tree is the discrete relative
    entropy (not its small-step surrogate): every entropic row is penalized
    by (1/2nu) H(Q|P).
    """
    g = drm.driver
    if g is None or not g.is_(CONVEX):
        raise ValueError("duality checks need a convex driver or the entropic measure")
    tree = drm.tree
    neg_xi = -_terminal_of(tree, xi)
    solved = drm.solve_terminal(neg_xi)
    rho_root = solved.root()
    opt = optimal_density(solved, generator=g)
    # The solution is the largest array alive and the rows read only its
    # max|Z|: release it before any density is evaluated.
    z_max = solved.Z.max_abs()
    del solved
    tol = slack * max(1.0, abs(rho_root))
    work = _Workspace(tree)

    if drm.scheme == "entropy_exact":
        penalty_name = "discrete_relative_entropy"

        def evaluate(m: TiltedMeasure) -> tuple[float, bool]:
            ent = work.root(work.zeros, _entropy_kernel(m))
            mean = work.root(neg_xi, _tilted_mean(m))
            return mean - ent / (2.0 * g.nu), True
    else:
        penalty_name = "conjugate_integral"

        def evaluate(m: TiltedMeasure) -> tuple[float, bool]:
            root = work.root(neg_xi, _PenalizedKernel(m, g))
            return root, bool(np.isfinite(root))

    rows: list[dict] = []
    opt_value, opt_feasible = evaluate(opt)
    optimal_gap = rho_root - opt_value
    rows.append({"density": "subdifferential_selection", "value": opt_value,
                 "feasible": opt_feasible,
                 "fenchel_residual": opt.fenchel_residual.max_abs()})
    del opt  # the sweep does not read the selection

    if q_sweep is None:
        z_cap = max(1.0, z_max)
        q_cap = min(g.mu + 2.0 * g.nu * z_cap, 0.9 / tree.sqrt_dt)
        q_sweep = np.linspace(-q_cap, q_cap, 9)
    rates = [float(qv) for qv in q_sweep]
    if drm.scheme == "entropy_exact":
        # each tilt reduces its own mean in sweep order, so the first bad
        # rate raises; then the entropies run as one batch
        means = [work.root(neg_xi, _tilted_mean(tilt(qv, tree))) for qv in rates]
        values = [(mean - ent / (2.0 * g.nu), True)
                  for mean, ent in zip(means, _constant_entropies(tree, rates))]
    else:
        values = [evaluate(tilt(qv, tree)) for qv in rates]
    for qv, (value, feasible) in zip(rates, values):
        rows.append({"density": f"constant[{qv:.6g}]", "value": value,
                     "feasible": feasible})

    if tree.layout == FULL and n_random > 0:
        rng = np.random.default_rng(seed)
        cap = min(2.0, 0.9 / tree.sqrt_dt)
        for i in range(n_random):
            q = TreeProcess(tree, [rng.uniform(-cap, cap, tree.n_nodes(k))
                                   for k in range(tree.steps)])
            value, feasible = evaluate(TiltedMeasure(q))
            del q  # not alive while the next rates are drawn
            rows.append({"density": f"random[{i}]", "value": value,
                         "feasible": feasible})

    weak_ok = all(r["value"] <= rho_root + tol for r in rows
                  if np.isfinite(r["value"]))
    # The closed-form selections attain rho_0 to rounding; the explicit
    # scheme's allowance also covers the grid error of numeric conjugates.
    allowance = tol if drm.scheme == "entropy_exact" else max(tol, 1e-7)
    passed = weak_ok and -tol <= optimal_gap <= allowance
    for r in rows:
        if np.isfinite(r["value"]):
            r["gap"] = rho_root - r["value"]
    return DualityReport(drm.label, rho_root, penalty_name, rows, optimal_gap,
                         weak_ok, passed)

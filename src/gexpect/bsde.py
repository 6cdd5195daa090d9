"""Backward equations driven by tree noise: Y_t = xi + int g(s, Z_s) ds - int Z_s dB_s.

The explicit scheme walks the tree backwards: the martingale part Z is the
scaled child difference, the drift is the driver evaluated there,

    Z_k = (Y_up - Y_down) / (2 sqrt(dt)),
    Y_k = (Y_up + Y_down) / 2 + g(t_k, Z_k) dt.

The purely quadratic driver nu*z^2 also has an exact recursion: the
one-step value is a log-sum-exp of the children, which makes the solution
an exponential moment in disguise and gives machine-precision references
for convergence studies.  Shifted by the larger child, one of its two terms
is exactly 1, so ``entropy_step`` pays one ``exp`` per node, with the bits
of the two-``exp`` form.

Conversely, every translation-invariant one-step operator is an explicit
scheme.  On the children (d, u) it equals (d + u)/2 + dt g_k(z), with
z = (u - d)/(2 sqrt(dt)) and g_k(z) = op(k, -z sqrt(dt), z sqrt(dt)) / dt
(``noise_step``), so its measure is exactly the explicit-scheme
g-expectation of g_k.  For the quadratic recursion
g_k(z) = log cosh(2 nu z sqrt(dt)) / (2 nu dt), which is nu z^2 up to O(dt);
``entropy_step_driver`` gives it with its derivative and its conjugate in
closed form.

Every solve (``solve_bsde``, ``entropy_exact``, every risk measure's) is
one ``_solve``: one backward pass.  The explicit step reads z, so its pass
records Z beside Y; a step that ignores z (the exact recursion, a custom
operator) records no Z when every depth is kept, and the solution derives
Z from Y, with the bits the pass would have recorded, when it is first
read.  The solution certifies, by its scheme's rule (see SolvedBSDE), the
step monotonicity (mu + 2 nu max|Z|) sqrt(dt) <= 1 under which
comparison-type statements survive discretization (Chassagneux & Richou,
AAP 2016).  Only the explicit scheme needs the bound: the exact recursion
is monotone for every step size and a custom step has no growth data, so
their verdict holds by rule and reads no Z.  The certificate is computed
from Z and the profile when it is first read, with the values an eager one
would have, so a solve whose certificate nobody reads never pays the
max|Z| pass.

A measure's solve (``solve_terminal``, ``risk.rho_solved``) may keep only
the depths 0..``keep`` of Y and Z.  The depths it drops are folded into a
per-depth (min, max) profile as the pass goes, and the certificate reads
max|Z| off that fold, so a root-only solve on the recombining layout runs
in O(N) memory.  The fold runs per block of depths: consecutive dropped
depths are packed into one small buffer and reduced together, with the
same values a depth-by-depth fold gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .generators import Generator, _reuse, entropy
from .lattice import ScenarioTree, TreeProcess, _slice_of, backward_reduce

StepFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class SolvedBSDE:
    """Solution pair with scheme metadata and the discretization certificate.

    Y comes from a single backward pass, and so does Z when the step reads
    it or the solve drops depths.  A solve that keeps every depth and whose
    step ignores z ("entropy_exact", "custom") records no Z: ``Z`` derives
    it from Y when first read, once, through the pass's own z expression
    and under the numpy error state the solve ran with, so it has the bits
    the pass would have recorded.  Comparison and convexity assertions
    should be gated on ``monotone_step``, which the rule of ``scheme`` sets.
    "explicit": ``step_bound`` is (mu + 2 nu max|Z|) sqrt(dt) with the
    driver's (mu, nu), and the certificate is bound <= 1 with a warning
    when it fails.  "entropy_exact": the bound of the entropy driver's
    (0, nu), but monotone for every step size (softmax weights), so True
    with no warning.  "custom": no growth data, so the bound is NaN
    (unknown), True, no warning.

    ``step_bound`` is computed when first read, from Z and ``dropped``, and
    kept; the explicit scheme's ``monotone_step`` and ``warnings`` are
    computed with it.  Those two of "entropy_exact" and "custom" hold by
    rule (``_BY_RULE``) and read no Z.  All three equal what a solve
    certifying at once would give.

    A solve that kept only the top depths of Y and Z holds the
    (y_min, y_max, z_min, z_max) of every deeper depth in ``dropped``, top
    first; the z entries of the horizon are None.  The solve folds those
    depths per block of depths, into the same floats a per-depth
    ``min``/``max`` gives.

    A batched solve (``risk.DynamicRiskMeasure.solve_terminal`` of a
    (B, n_nodes(N)) terminal) keeps every depth of its (B, width) slices;
    ``row(i)`` is the solution of row i, with that row's own certificate.
    """

    Y: TreeProcess
    # Z as the pass recorded it; None when it recorded none (see above).
    _z: TreeProcess | None = field(repr=False)
    scheme: str
    dropped: tuple[tuple, ...] = ()
    # The driver whose (mu, nu) the certificate reads: the generator of an
    # explicit solve, entropy(nu) for the exact recursion; custom reads none.
    _growth: Generator | None = field(default=None, repr=False, compare=False)
    # The numpy error state of a solve that recorded no Z, for its derivation.
    _errstate: dict | None = field(default=None, repr=False, compare=False)

    @cached_property
    def Z(self) -> TreeProcess:
        if self._z is not None:
            return self._z
        with np.errstate(**self._errstate):
            return _z_of(self.Y)

    @cached_property
    def _certified(self) -> tuple[float, bool, tuple[str, ...]]:
        return _certificate(self)

    @property
    def step_bound(self) -> float:
        return self._certified[0]

    @property
    def monotone_step(self) -> bool:
        return self._verdict[0]

    @property
    def warnings(self) -> tuple[str, ...]:
        return self._verdict[1]

    @property
    def _verdict(self) -> tuple[bool, tuple[str, ...]]:
        """(monotone_step, warnings): by the scheme's rule where it has one."""
        return _BY_RULE.get(self.scheme) or self._certified[1:]

    @property
    def tree(self) -> ScenarioTree:
        return self.Y.tree

    def root(self) -> float:
        return self.Y.root()

    def row(self, i: int) -> "SolvedBSDE":
        """Row ``i`` of a batched solve, as views: the solution of that terminal
        row alone, certified on first read by its own rule and Z.  A row of
        a batch that recorded no Z derives its Z from its own Y views.  Its
        values are the lone solve's bit for bit, but for the sign of a NaN:
        where two NaNs meet in an add, numpy returns either one, by the loop
        it runs."""
        return SolvedBSDE(self.Y.row(i), None if self._z is None else self._z.row(i),
                          self.scheme, _growth=self._growth, _errstate=self._errstate)

    def profile(self) -> list[tuple]:
        """(y_min, y_max, z_min, z_max) of every depth 0..N, kept or dropped."""
        kept = [_summary(ys, self.Z.values[k] if k < len(self.Z.values) else None)
                for k, ys in enumerate(self.Y.values)]
        return kept + list(self.dropped)


def euler_step(g: Generator, tree: ScenarioTree) -> StepFn:
    """One explicit step of the scheme for the given driver.

    The step takes the z of its (down, up) children when the caller has it
    already (``_solve`` does); called bare, it computes z itself.

    Like every built-in kernel, the step applies the ufuncs of its
    expression, 0.5 (down + up) + g(t, z) dt, in the same order, but writes
    only into arrays it allocated in the same call: (down + up) * 0.5 goes
    into a new y and g(t, z) dt is added into it.  It never writes into
    ``down`` and ``up`` (views of a stored Y slice), ``z`` (the stored Z
    slice) or what ``g`` returns (a custom driver may return its input).  A
    product or sum with a constant may take its operands in the other
    order, which gives the same bits.  Scalar children give a scalar, as
    the expression does.
    """
    dt = tree.dt

    def step(k, down, up, z=None):
        if z is None:
            z = _child_z(tree, down, up)
        y = down + up
        y *= 0.5
        y += g(k * dt, z) * dt
        return y

    return step


def entropy_step(nu: float) -> StepFn:
    """Exact one-step recursion of the quadratic driver nu*z^2.

    Value = (1/2nu) log of the average of exp(2nu * child), computed with a
    max shift so large exponents cannot overflow; the step ignores ``z``.
    The larger child's term is exp(0) = 1, so one ``exp`` of the gap
    s = (m - down) + (m - up) gives the bits of the two-``exp`` sum; s is
    built this way, not as |down - up|, so that an infinite child still
    gives the sum's NaN.

    The allocation rule of ``euler_step`` holds: m goes into a new y, s into
    one scratch array (with m - up in a second), and the ``exp``, ``log``
    and the shift by m are applied in place, in the expression's order.
    """
    two_nu = 2.0 * float(nu)

    def step(k, down, up, z=None):
        y = np.maximum(down, up)
        s = y - down
        s += y - up
        s *= -two_nu
        s = np.exp(s, out=_reuse(s))
        s += 1.0
        s *= 0.5
        s = np.log(s, out=_reuse(s))
        s /= two_nu
        y += s
        return y

    return step


def entropy_step_driver(nu: float, tree: ScenarioTree) -> Generator:
    """The one-step driver g_k of ``entropy_step`` on ``tree``, in closed form.

    With x = 2 nu z sqrt(dt), g_k(z) = log cosh(x) / (2 nu dt) at every
    depth (see ``noise_step``), its derivative is tanh(x) / sqrt(dt), and
    with a = q sqrt(dt) its conjugate is
    [(1 + a) log(1 + a) + (1 - a) log(1 - a)] / (4 nu dt), the one-step
    relative entropy over 2 nu dt: +inf for |a| > 1.  It is convex and below
    nu z^2 (log cosh x <= x^2 / 2), so it has the growth constants and the
    flags of ``entropy(nu)``, its small-step limit.

    log cosh x is formed as |x| + log1p(expm1(-2|x|) / 2), which cannot
    overflow, and the conjugate as log1p(-a^2) + 2 a artanh(a).  Like the
    built-in drivers, each function allocates the array it returns and at
    most one scratch array, and never writes into its argument.
    """
    nu = float(nu)
    sdt, dt = tree.sqrt_dt, tree.dt
    x_per_z = 2.0 * nu * sdt

    def fn(t, z):
        v = np.multiply(z, x_per_z)
        v = np.abs(v, out=_reuse(v))
        s = np.multiply(v, -2.0)
        s = np.expm1(s, out=_reuse(s))
        s *= 0.5
        s = np.log1p(s, out=_reuse(s))
        v += s
        v /= 2.0 * nu * dt
        return v

    def subdiff(t, z):
        q = np.multiply(z, x_per_z)
        q = np.tanh(q, out=_reuse(q))
        q /= sdt
        return q, q  # differentiable: both ends are the one array

    def conj(t, x):
        a = np.multiply(x, sdt)
        a = np.abs(a, out=_reuse(a))
        # only a rate at or past the edge (or a NaN) pays for the masks
        edges = None if np.max(a, initial=0.0) < 1.0 else (a == 1.0, a > 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.arctanh(a)
            v *= a
            v *= 2.0
            a *= a
            a = np.negative(a, out=_reuse(a))
            a = np.log1p(a, out=_reuse(a))
            v += a
        v /= 4.0 * nu * dt
        if edges is not None:
            v = np.where(edges[1], np.inf, np.where(edges[0], math.log(2.0) / (2.0 * nu * dt), v))
        return v

    return Generator(fn, 0.0, nu, entropy(nu).flags, "entropy_step", conj, subdiff)


def _child_z(tree: ScenarioTree, down, up):
    """z of the children (down, up): up - down, divided in place by
    2 sqrt(dt), in an array it allocates, never in the child views."""
    z = up - down
    z /= 2.0 * tree.sqrt_dt
    return z


def _z_of(Y: TreeProcess) -> TreeProcess:
    """Z of every depth below Y's last, from Y's children by ``_child_z``."""
    tree = Y.tree
    return TreeProcess(tree, [_child_z(tree, *tree.split_children(y)) for y in Y.values[1:]])


def _summary(y: np.ndarray, z: np.ndarray | None) -> tuple:
    """(y_min, y_max, z_min, z_max) of one depth; z entries None without a z slice."""
    return (float(y.min()), float(y.max()),
            None if z is None else float(z.min()), None if z is None else float(z.max()))


# Floats in each of the two buffers of a profile block: 64 KB, below the
# allocator's mmap threshold, so a block is ordinary reused heap.
_BLOCK = 8192


def _solve(tree: ScenarioTree, xi: np.ndarray, step: Callable[..., np.ndarray],
           keep: int | None, scheme: str, g: Generator | None) -> SolvedBSDE:
    """One backward pass of ``step`` from ``xi``.  The solution certifies
    itself, when first read, by the rule of ``scheme`` with the growth
    constants of ``g`` (see SolvedBSDE).  Z is taken from the (down, up)
    child views the step receives, so no step runs twice;
    ``step(k, down, up, z)`` is handed that z.  Y and Z keep depths
    0..``keep`` (None: all); every deeper depth is summarized into
    ``dropped`` and let go.  A step that ignores z (any scheme but
    "explicit") with every depth kept runs as ``step(k, down, up)``, and
    the pass records no Z: the solution derives it when first read.

    The dropped depths are summarized per block: each one's z is computed
    straight into, and its y copied into, the next ``width`` floats of two
    block buffers, and when a depth does not fit (and at the end) four
    ``reduceat`` calls give the rows of every depth in the block -- the
    floats ``_summary`` gives depth by depth.  A depth wider than a block is
    summarized on its own.  The buffers are allocated for the first depth
    that uses them, so a solve that keeps every depth allocates none.

    Each z is up - down divided in place, the ufuncs of (up - down) / scale
    in their order, in an array the pass allocated (``_child_z``, which the
    derivation of an unrecorded Z shares) or in a block buffer, never in
    the child views; the kernels follow the same rule (see
    ``euler_step``), so a step writes into nothing the solution stores."""
    n = tree.steps
    keep = n if keep is None else keep
    if keep == n and scheme != "explicit":
        return SolvedBSDE(backward_reduce(tree, xi, step), None, scheme, (), g, np.geterr())
    z_slices: list[np.ndarray] = [None] * min(keep + 1, n)  # type: ignore[list-item]
    # Summaries in visit order, horizon first (widths never grow toward the root).
    dropped = [_summary(xi, None)] if keep < n else []
    scale = 2.0 * tree.sqrt_dt
    ys = zs = None
    starts: list[int] = []  # offsets of the block's depths, deepest first
    used = 0

    def fold_block():
        nonlocal used
        if starts:
            at = np.array(starts)
            y, z = ys[:used], zs[:used]
            dropped.extend(zip(np.minimum.reduceat(y, at).tolist(),
                               np.maximum.reduceat(y, at).tolist(),
                               np.minimum.reduceat(z, at).tolist(),
                               np.maximum.reduceat(z, at).tolist()))
            starts.clear()
            used = 0

    def step_with_z(k, down, up):
        nonlocal ys, zs, used
        width = down.shape[-1]
        if k <= keep or width > _BLOCK:
            z = _child_z(tree, down, up)
            y = step(k, down, up, z)
            if k <= keep:
                z_slices[k] = z
            else:
                dropped.append(_summary(np.asarray(y, dtype=float), z))
            return y
        if used + width > _BLOCK:
            fold_block()
        if zs is None:
            ys, zs = np.empty(_BLOCK), np.empty(_BLOCK)
        starts.append(used)
        z = zs[used:used + width]
        np.subtract(up, down, out=z)
        np.divide(z, scale, out=z)
        y = np.asarray(step(k, down, up, z), dtype=float)
        if y.shape == z.shape:  # else backward_reduce rejects it
            ys[used:used + width] = y
        used += width
        return y

    Y = backward_reduce(tree, xi, step_with_z, keep=keep)
    fold_block()
    return SolvedBSDE(Y, TreeProcess(tree, z_slices), scheme, tuple(reversed(dropped)), g)


# (monotone_step, warnings) of the schemes whose verdict holds whatever Z
# is: the exact recursion is monotone for every step size (softmax
# weights), and a custom step has no growth data to bound.
_BY_RULE = {"entropy_exact": (True, ()), "custom": (True, ())}


def _certificate(solved: SolvedBSDE) -> tuple[float, bool, tuple[str, ...]]:
    """(step_bound, monotone_step, warnings) of ``solved`` by its scheme's rule.

    A scheme of ``_BY_RULE`` takes its verdict from there, so a solution
    reads it without this call; only its step_bound reads Z (custom: NaN,
    unknown).  A non-finite max|Z| means the explicit scheme overflowed;
    the warning says so.
    """
    if solved.scheme == "custom":
        return float("nan"), *_BY_RULE["custom"]
    g, max_z = solved._growth, _max_abs_z(solved.Z, solved.dropped)
    bound = (g.mu + 2.0 * g.nu * max_z) * solved.tree.sqrt_dt
    if solved.scheme in _BY_RULE:
        return bound, *_BY_RULE[solved.scheme]
    if bound <= 1.0:
        return bound, True, ()
    detail = (f"(mu + 2 nu max|Z|) sqrt(dt) = {bound:.6g} > 1; refine the grid "
              "before trusting comparison-type output" if math.isfinite(max_z)
              else "max|Z| is not finite (the scheme overflowed)")
    return bound, False, ("step-monotonicity certificate fails: " + detail,)


def _max_abs_z(Z: TreeProcess, dropped: tuple) -> float:
    """max|Z| over the kept slices and the dropped profile; NaN when any Z is NaN."""
    max_z = Z.max_abs()
    if dropped:
        # max|z| of a depth is max(|z_min|, |z_max|); np.max keeps NaN.
        max_z = float(np.max([max_z, *(abs(r[i]) for r in dropped[:-1] for i in (2, 3))]))
    return max_z


def solve_bsde(g: Generator, terminal, tree: ScenarioTree) -> SolvedBSDE:
    """Solve the backward equation with driver ``g`` by the explicit scheme.

    ``terminal`` is the literal terminal condition, the depth-N slice of
    ``tree``; risk-measure sign conventions live one layer up.  Never fails
    at solve time: if the step-monotonicity certificate does not hold, a
    warning is attached instead.
    """
    xi = _slice_of(tree, terminal, tree.steps)[1]
    return _solve(tree, xi, euler_step(g, tree), None, "explicit", g)


def entropy_exact(nu: float, terminal, tree: ScenarioTree) -> SolvedBSDE:
    """Exact solution for the driver nu*z^2 via the log-sum-exp recursion.

    Node values equal (1/2nu) log E[exp(2nu * xi) | node] to machine
    precision; the recursion *is* that conditional expectation factorized
    one step at a time.
    """
    if nu <= 0:
        raise ValueError("entropy_exact needs nu > 0")
    xi = _slice_of(tree, terminal, tree.steps)[1]
    return _solve(tree, xi, entropy_step(nu), None, "entropy_exact", entropy(nu))


def noise_step(one_step: StepFn, k: int, z, tree: ScenarioTree) -> np.ndarray:
    """Depth-k values of ``one_step`` on the children (-z sqrt(dt), z sqrt(dt)), shaped as z.

    Divided by dt this is the one-step driver g_k(z) of the operator (see the
    module docstring): the explicit scheme of g gives g(k dt, z) back, the
    exact quadratic recursion log cosh(2 nu z sqrt(dt)) / (2 nu dt).
    """
    s = np.asarray(z, dtype=float) * tree.sqrt_dt
    return np.asarray(one_step(k, -s, s), dtype=float)

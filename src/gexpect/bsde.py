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
g_k(z) = log cosh(2 nu z sqrt(dt)) / (2 nu dt), which is nu z^2 up to O(dt).

Every solve (``solve_bsde``, ``entropy_exact``, every risk measure's) is
one ``_solve``: one backward pass that records Z beside Y.  Its solution
certifies, by its scheme's rule (see SolvedBSDE), the step monotonicity
(mu + 2 nu max|Z|) sqrt(dt) <= 1 under which comparison-type statements
survive discretization (Chassagneux & Richou, AAP 2016).  The certificate
is computed from the stored Z and profile when it is first read, with the
values an eager one would have, so a solve whose certificate nobody reads
never pays the max|Z| pass.

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

from .generators import Generator, entropy
from .lattice import ScenarioTree, TreeProcess, _terminal_array, backward_reduce

StepFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class SolvedBSDE:
    """Solution pair with scheme metadata and the discretization certificate.

    Y and Z come from a single backward pass; nothing is recomputed to
    check them.  Comparison and convexity assertions should be gated on
    ``monotone_step``, which the rule of ``scheme`` sets.
    "explicit": ``step_bound`` is (mu + 2 nu max|Z|) sqrt(dt) with the
    driver's (mu, nu), the certificate is bound <= 1 with a warning when it
    fails, and ``generator`` is the driver.  "entropy_exact": the bound of
    the entropy driver's (0, nu), but monotone for every step size (softmax
    weights), so True with no warning; no generator.  "custom": no growth
    data, so the bound is NaN (unknown), True, no warning, no generator.

    ``step_bound``, ``monotone_step`` and ``warnings`` are computed together
    when any of them is first read, from the Z and ``dropped`` the solution
    holds, and kept; they equal what a solve certifying at once would give.

    A solve that kept only the top depths of Y and Z holds the
    (y_min, y_max, z_min, z_max) of every deeper depth in ``dropped``, top
    first; the z entries of the horizon are None.  The solve folds those
    depths per block of depths, into the same floats a per-depth
    ``min``/``max`` gives.
    """

    Y: TreeProcess
    Z: TreeProcess
    scheme: str
    generator: Generator | None
    dropped: tuple[tuple, ...] = ()
    # The driver whose (mu, nu) the certificate reads: the generator of an
    # explicit solve, entropy(nu) for the exact recursion; custom reads none.
    _growth: Generator | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _certified(self) -> tuple[float, bool, tuple[str, ...]]:
        return _certificate(self)

    @property
    def step_bound(self) -> float:
        return self._certified[0]

    @property
    def monotone_step(self) -> bool:
        return self._certified[1]

    @property
    def warnings(self) -> tuple[str, ...]:
        return self._certified[2]

    @property
    def tree(self) -> ScenarioTree:
        return self.Y.tree

    def root(self) -> float:
        return self.Y.root()

    def profile(self) -> list[tuple]:
        """(y_min, y_max, z_min, z_max) of every depth 0..N, kept or dropped."""
        kept = [_summary(ys, self.Z.values[k] if k < len(self.Z.values) else None)
                for k, ys in enumerate(self.Y.values)]
        return kept + list(self.dropped)


def euler_step(g: Generator, tree: ScenarioTree) -> StepFn:
    """One explicit step of the scheme for the given driver.

    The step takes the z of its (down, up) children when the caller has it
    already (``_solve`` does); called bare, it computes z itself.
    """
    dt, sdt = tree.dt, tree.sqrt_dt

    def step(k, down, up, z=None):
        if z is None:
            z = (up - down) / (2.0 * sdt)
        return 0.5 * (down + up) + g(k * dt, z) * dt

    return step


def entropy_step(nu: float) -> StepFn:
    """Exact one-step recursion of the quadratic driver nu*z^2.

    Value = (1/2nu) log of the average of exp(2nu * child), computed with a
    max shift so large exponents cannot overflow; the step ignores ``z``.
    The larger child's term is exp(0) = 1, so one ``exp`` of the gap
    s = (m - down) + (m - up) gives the bits of the two-``exp`` sum; s is
    built this way, not as |down - up|, so that an infinite child still
    gives the sum's NaN.
    """
    two_nu = 2.0 * float(nu)

    def step(k, down, up, z=None):
        m = np.maximum(down, up)
        s = (m - down) + (m - up)
        return m + np.log(0.5 * (1.0 + np.exp(-two_nu * s))) / two_nu

    return step


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
    ``dropped`` and let go.

    The dropped depths are summarized per block: each one's z is computed
    straight into, and its y copied into, the next ``width`` floats of two
    block buffers, and when a depth does not fit (and at the end) four
    ``reduceat`` calls give the rows of every depth in the block -- the
    floats ``_summary`` gives depth by depth.  A depth wider than a block is
    summarized on its own.  The buffers are allocated for the first depth
    that uses them, so a solve that keeps every depth allocates none."""
    n = tree.steps
    keep = n if keep is None else keep
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
            z = (up - down) / scale
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
    Z = TreeProcess(tree, z_slices, copy=False)
    return SolvedBSDE(Y, Z, scheme, g if scheme == "explicit" else None,
                      tuple(reversed(dropped)), g)


def _certificate(solved: SolvedBSDE) -> tuple[float, bool, tuple[str, ...]]:
    """(step_bound, monotone_step, warnings) of ``solved`` by its scheme's rule.

    A non-finite max|Z| means the explicit scheme overflowed; the warning
    says so.
    """
    if solved.scheme == "custom":
        return float("nan"), True, ()
    g, max_z = solved._growth, _max_abs_z(solved.Z, solved.dropped)
    bound = (g.mu + 2.0 * g.nu * max_z) * solved.tree.sqrt_dt
    if solved.scheme == "entropy_exact" or bound <= 1.0:
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


def solve_bsde(g: Generator, terminal, tree: ScenarioTree | None = None) -> SolvedBSDE:
    """Solve the backward equation with driver ``g`` by the explicit scheme.

    ``terminal`` is the literal terminal condition (a depth-N slice or a
    TreeProcess whose last slice is used); risk-measure sign conventions
    live one layer up.  Never fails at solve time: if the step-monotonicity
    certificate does not hold, a warning is attached instead.
    """
    tree, last, xi = _terminal_array(terminal, tree)
    if last != tree.steps:
        raise ValueError("terminal condition must sit at the horizon")
    return _solve(tree, xi, euler_step(g, tree), None, "explicit", g)


def entropy_exact(nu: float, terminal, tree: ScenarioTree | None = None) -> SolvedBSDE:
    """Exact solution for the driver nu*z^2 via the log-sum-exp recursion.

    Node values equal (1/2nu) log E[exp(2nu * xi) | node] to machine
    precision; the recursion *is* that conditional expectation factorized
    one step at a time.
    """
    if nu <= 0:
        raise ValueError("entropy_exact needs nu > 0")
    tree, last, xi = _terminal_array(terminal, tree)
    if last != tree.steps:
        raise ValueError("terminal condition must sit at the horizon")
    return _solve(tree, xi, entropy_step(nu), None, "entropy_exact", entropy(nu))


def noise_step(one_step: StepFn, k: int, z, tree: ScenarioTree) -> np.ndarray:
    """Depth-k values of ``one_step`` on the children (-z sqrt(dt), z sqrt(dt)), shaped as z.

    Divided by dt this is the one-step driver g_k(z) of the operator (see the
    module docstring): the explicit scheme of g gives g(k dt, z) back, the
    exact quadratic recursion log cosh(2 nu z sqrt(dt)) / (2 nu dt).
    """
    s = np.asarray(z, dtype=float) * tree.sqrt_dt
    return np.asarray(one_step(k, -s, s), dtype=float)

"""Backward equations driven by tree noise: Y_t = xi + int g(s, Z_s) ds - int Z_s dB_s.

The explicit scheme walks the tree backwards: the martingale part Z is the
scaled child difference, the drift is the driver evaluated there,

    Z_k = (Y_up - Y_down) / (2 sqrt(dt)),
    Y_k = (Y_up + Y_down) / 2 + g(t_k, Z_k) dt.

The purely quadratic driver nu*z^2 also has an exact recursion: the
one-step value is a log-sum-exp of the children, which makes the solution
an exponential moment in disguise and gives machine-precision references
for convergence studies.  Every solve is one backward pass that records Z
beside Y, and carries a step-monotonicity certificate derived from that Z,
(mu + 2 nu max|Z|) sqrt(dt) <= 1, the sufficient condition under which
comparison-type statements survive discretization.

A solve may keep only the depths 0..``keep`` of Y and Z.  The depths it
drops are folded into a per-depth (min, max) profile as the pass goes, and
the certificate reads max|Z| off that fold, so a root-only solve on the
recombining layout runs in O(N) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .generators import Generator
from .lattice import ScenarioTree, TreeProcess, _terminal_array, backward_reduce

StepFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class SolvedBSDE:
    """Solution pair with scheme metadata and the discretization certificate.

    Y and Z come from a single backward pass; nothing is recomputed to
    check them.  ``monotone_step`` is the certificate
    (mu + 2 nu max|Z|) sqrt(dt) <= 1; comparison and convexity assertions
    should be gated on it.  A solve that kept only the top depths of Y and
    Z holds the (y_min, y_max, z_min, z_max) of every deeper depth in
    ``dropped``, top first; the z entries of the horizon are None.
    """

    Y: TreeProcess
    Z: TreeProcess
    scheme: str
    terminal: np.ndarray
    generator: Generator | None
    step_bound: float
    monotone_step: bool
    warnings: tuple[str, ...]
    dropped: tuple[tuple, ...] = ()

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


def extract_z(Y: TreeProcess) -> TreeProcess:
    """Martingale integrand from child differences: (up - down) / (2 sqrt dt)."""
    tree = Y.tree
    slices = []
    for k in range(Y.last_depth):
        down, up = tree.split_children(Y.values[k + 1])
        slices.append((up - down) / (2.0 * tree.sqrt_dt))
    return TreeProcess(tree, slices, copy=False)


def euler_step(g: Generator, tree: ScenarioTree) -> StepFn:
    """One explicit step of the scheme for the given driver."""
    dt, sdt = tree.dt, tree.sqrt_dt

    def step(k, down, up):
        z = (up - down) / (2.0 * sdt)
        return 0.5 * (down + up) + g(k * dt, z) * dt

    return step


def entropy_step(nu: float, tree: ScenarioTree) -> StepFn:
    """Exact one-step recursion of the quadratic driver nu*z^2.

    Value = (1/2nu) log of the average of exp(2nu * child), computed with a
    max shift so large exponents cannot overflow.
    """
    two_nu = 2.0 * float(nu)

    def step(k, down, up):
        m = np.maximum(down, up)
        return m + np.log(0.5 * (np.exp(two_nu * (down - m))
                                 + np.exp(two_nu * (up - m)))) / two_nu

    return step


def _summary(y: np.ndarray, z: np.ndarray | None) -> tuple:
    """(y_min, y_max, z_min, z_max) of one depth; z entries None without a z slice."""
    return (float(y.min()), float(y.max()),
            None if z is None else float(z.min()), None if z is None else float(z.max()))


def _solve(tree: ScenarioTree, xi: np.ndarray, step: StepFn, keep: int | None = None):
    """(Y, Z, dropped) in one backward pass: Z is taken, as in ``extract_z``,
    from the same (down, up) child views the step receives, so no step runs
    twice.  Y and Z keep depths 0..``keep`` (default: all); every deeper
    depth is summarized into ``dropped`` (see SolvedBSDE) and let go."""
    n = tree.steps
    keep = n if keep is None else keep
    z_slices: list[np.ndarray] = [None] * min(keep + 1, n)  # type: ignore[list-item]
    dropped: list[tuple] = [None] * (n - keep)  # type: ignore[list-item]

    def step_with_z(k, down, up):
        z = (up - down) / (2.0 * tree.sqrt_dt)
        y = step(k, down, up)
        if k <= keep:
            z_slices[k] = z
        else:
            dropped[k - keep - 1] = _summary(np.asarray(y, dtype=float), z)
        return y

    Y = backward_reduce(tree, xi, step_with_z, keep=keep)
    if dropped:
        dropped[-1] = _summary(xi, None)
    return Y, TreeProcess(tree, z_slices, copy=False), tuple(dropped)


def _max_abs_z(Z: TreeProcess, dropped: tuple) -> float:
    """max|Z| over the kept slices and the dropped profile; NaN when any Z is NaN."""
    max_z = Z.max_abs()
    if dropped:
        # max|z| of a depth is max(|z_min|, |z_max|); np.max keeps NaN.
        max_z = float(np.max([max_z, *(abs(r[i]) for r in dropped[:-1] for i in (2, 3))]))
    return max_z


def _certificate(tree: ScenarioTree, max_z: float, mu: float, nu: float):
    """(bound, bound <= 1, warnings) of the explicit scheme.

    A non-finite max|Z| means the scheme overflowed; the warning says so.
    """
    bound = (mu + 2.0 * nu * max_z) * tree.sqrt_dt
    if bound <= 1.0:
        return bound, True, ()
    detail = (f"(mu + 2 nu max|Z|) sqrt(dt) = {bound:.6g} > 1; refine the grid "
              "before trusting comparison-type output" if math.isfinite(max_z)
              else "max|Z| is not finite (the scheme overflowed)")
    return bound, False, ("step-monotonicity certificate fails: " + detail,)


def solve_bsde(g: Generator, terminal, tree: ScenarioTree | None = None,
               keep: int | None = None) -> SolvedBSDE:
    """Solve the backward equation with driver ``g`` by the explicit scheme.

    ``terminal`` is the literal terminal condition (a depth-N slice or a
    TreeProcess whose last slice is used); risk-measure sign conventions
    live one layer up.  Never fails at solve time: if the step-monotonicity
    certificate does not hold, a warning is attached instead.  ``keep``
    limits the stored depths (see SolvedBSDE).
    """
    tree, last, xi = _terminal_array(terminal, tree)
    if last != tree.steps:
        raise ValueError("terminal condition must sit at the horizon")
    Y, Z, dropped = _solve(tree, xi, euler_step(g, tree), keep)
    bound, ok, warnings = _certificate(tree, _max_abs_z(Z, dropped), g.mu, g.nu)
    return SolvedBSDE(Y, Z, "explicit", xi, g, bound, ok, warnings, dropped)


def entropy_exact(nu: float, terminal, tree: ScenarioTree | None = None,
                  keep: int | None = None) -> SolvedBSDE:
    """Exact solution for the driver nu*z^2 via the log-sum-exp recursion.

    Node values equal (1/2nu) log E[exp(2nu * xi) | node] to machine
    precision; the recursion *is* that conditional expectation factorized
    one step at a time.  ``keep`` limits the stored depths (see SolvedBSDE).
    """
    if nu <= 0:
        raise ValueError("entropy_exact needs nu > 0")
    tree, last, xi = _terminal_array(terminal, tree)
    if last != tree.steps:
        raise ValueError("terminal condition must sit at the horizon")
    Y, Z, dropped = _solve(tree, xi, entropy_step(nu, tree), keep)
    bound = _certificate(tree, _max_abs_z(Z, dropped), 0.0, nu)[0]
    # The exact recursion is monotone for every step size (softmax weights).
    return SolvedBSDE(Y, Z, "entropy_exact", xi, None, bound, True, (), dropped)


def recover_generator(one_step: StepFn, t: float, z: float, tree: ScenarioTree) -> float:
    """Read the driver back out of a one-step operator.

    Applies the operator to the one-step claim -z * dB at time t and divides
    by dt.  For the explicit scheme this returns g(t, z) exactly (the claim
    has martingale integrand exactly z and mean zero); for other operators
    it defines the driver their risk measure effectively uses, e.g. the
    exact quadratic recursion yields log cosh(2 nu z sqrt(dt)) / (2 nu dt).
    """
    k = min(max(int(round(t / tree.dt)), 0), tree.steps - 1)
    return noise_step(one_step, k, z, tree) / tree.dt


def noise_step(one_step: StepFn, k: int, z: float, tree: ScenarioTree) -> float:
    """Depth-k value of ``one_step`` on the children (-z sqrt(dt), z sqrt(dt))."""
    spread = np.full(tree.n_nodes(k), float(z) * tree.sqrt_dt)
    return float(np.asarray(one_step(k, -spread, spread), dtype=float)[0])

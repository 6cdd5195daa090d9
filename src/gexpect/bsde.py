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
    should be gated on it.
    """

    Y: TreeProcess
    Z: TreeProcess
    scheme: str
    terminal: np.ndarray
    generator: Generator | None
    step_bound: float
    monotone_step: bool
    warnings: tuple[str, ...]

    @property
    def tree(self) -> ScenarioTree:
        return self.Y.tree

    def root(self) -> float:
        return self.Y.root()


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


def _solve(tree: ScenarioTree, xi: np.ndarray, step: StepFn):
    """(Y, Z) in one backward pass: Z is taken, as in ``extract_z``, from the
    same (down, up) child views the step receives, so no step runs twice."""
    z_slices: list[np.ndarray] = [None] * tree.steps  # type: ignore[list-item]

    def step_with_z(k, down, up):
        z_slices[k] = (up - down) / (2.0 * tree.sqrt_dt)
        return step(k, down, up)

    Y = backward_reduce(tree, xi, step_with_z)
    return Y, TreeProcess(tree, z_slices, copy=False)


def _certificate(tree: ScenarioTree, Z: TreeProcess, mu: float, nu: float,
                 detail: str = ""):
    """(bound, bound <= 1, warnings); ``detail`` formats a failing finite bound.

    A non-finite max|Z| means the scheme overflowed; the warning says so.
    """
    max_z = Z.max_abs()
    bound = (mu + 2.0 * nu * max_z) * tree.sqrt_dt
    if bound <= 1.0:
        return bound, True, ()
    if not math.isfinite(max_z):
        detail = "max|Z| is not finite (the scheme overflowed)"
    return bound, False, (
        "step-monotonicity certificate fails: " + detail.format(bound=bound),)


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
    Y, Z = _solve(tree, xi, euler_step(g, tree))
    bound, ok, warnings = _certificate(
        tree, Z, g.mu, g.nu,
        "(mu + 2 nu max|Z|) sqrt(dt) = {bound:.6g} > 1; "
        "refine the grid before trusting comparison-type output")
    return SolvedBSDE(Y, Z, "explicit", xi, g, bound, ok, warnings)


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
    Y, Z = _solve(tree, xi, entropy_step(nu, tree))
    bound = _certificate(tree, Z, 0.0, nu)[0]
    # The exact recursion is monotone for every step size (softmax weights).
    return SolvedBSDE(Y, Z, "entropy_exact", xi, None, bound, True, ())


def exp_transform_solve(mu: float, nu: float, terminal,
                        tree: ScenarioTree | None = None) -> SolvedBSDE:
    """Solve the (mu, nu) upper-envelope equation through the exponential lens.

    exp(2nu Y) solves the driver mu*|z| equation with terminal
    exp(2nu * xi); positive homogeneity of that driver lets us normalize by
    the largest exponent, so the transform is overflow-safe.  Positivity of
    the transformed solution is enforced; losing it signals a step size too
    coarse for the data.
    """
    if nu <= 0:
        raise ValueError("the exponential transform needs nu > 0")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    tree, last, xi = _terminal_array(terminal, tree)
    if last != tree.steps:
        raise ValueError("terminal condition must sit at the horizon")
    two_nu = 2.0 * nu
    shift = float(np.max(two_nu * xi))
    u_terminal = np.exp(two_nu * xi - shift)
    dt, sdt = tree.dt, tree.sqrt_dt

    def u_step(k, down, up):
        z = (up - down) / (2.0 * sdt)
        return 0.5 * (down + up) + mu * np.abs(z) * dt

    U = backward_reduce(tree, u_terminal, u_step)
    for k, slice_ in enumerate(U.values):
        if not np.all(slice_ > 0.0):
            raise ValueError(
                f"transformed solution lost positivity at depth {k}; "
                "the step size is too coarse for this terminal condition"
            )
    Y = TreeProcess(tree, [(np.log(v) + shift) / two_nu for v in U.values], copy=False)
    Z = extract_z(Y)
    bound, ok, warnings = _certificate(tree, Z, mu, nu, "bound = {bound:.6g} > 1")
    return SolvedBSDE(Y, Z, "exp_transform", xi, None, bound, ok, warnings)


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

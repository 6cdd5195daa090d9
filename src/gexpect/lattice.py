"""Exact finite models of a one-dimensional Brownian filtration.

The sample space is the set of increment paths of a binary tree: at each of
N steps the driving noise moves by +sqrt(dt) or -sqrt(dt), both with
probability one half under the reference measure.  Every expectation is a
finite sum, so martingale identities, tower properties and backward
recursions hold to machine precision rather than Monte Carlo accuracy.

Two layouts share one interface:

* ``full`` -- the non-recombining tree with one value per path prefix.
  Node identifiers are the path bit-strings (0 = down, 1 = up) and every
  depth slice is ordered lexicographically, which fixes the order of all
  floating-point reductions.  Depth is capped (default 22).
* ``recombining`` -- one value per (depth, number of up moves).  Valid
  whenever everything in sight depends on the path only through the
  current noise level; enables N up to 10^4 for convergence studies.

Values attached to the tree live in :class:`TreeProcess`: one numpy array
per depth, adapted by construction because a slice entry can only be a
function of its own node index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FULL = "full"
RECOMBINING = "recombining"

FULL_DEPTH_CAP = 22
RECOMBINING_DEPTH_CAP = 100_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def time(self, depth: int) -> float:
        return depth * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


class ScenarioTree:
    """Binary increment tree over a :class:`TimeGrid`.

    One-step probabilities under the reference measure are (1/2, 1/2) at
    every node.  The tree object itself is immutable; noise slices are
    cached on first access.
    """

    branching = 2

    def __init__(self, grid: TimeGrid, layout: str = FULL):
        if layout not in (FULL, RECOMBINING):
            raise ValueError(f"unknown layout {layout!r}")
        self.grid = grid
        self.layout = layout
        self.sqrt_dt = math.sqrt(grid.dt)
        self._brownian: list[np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return self.grid.steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    def n_nodes(self, depth: int) -> int:
        self.check_depth(depth)
        return 2 ** depth if self.layout == FULL else depth + 1

    def check_depth(self, depth: int) -> None:
        if not 0 <= depth <= self.steps:
            raise ValueError(f"depth {depth} outside [0, {self.steps}]")

    def split_children(self, child_slice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a depth-(k+1) slice aligned with depth-k parents: (down, up)."""
        if self.layout == FULL:
            return child_slice[0::2], child_slice[1::2]
        return child_slice[:-1], child_slice[1:]

    def brownian_slice(self, depth: int) -> np.ndarray:
        self.check_depth(depth)
        if self.layout == RECOMBINING:
            return (2.0 * np.arange(depth + 1) - depth) * self.sqrt_dt
        if self._brownian is None:
            slices = [np.zeros(1)]
            for k in range(self.steps):
                parent = slices[k]
                child = np.empty(2 * parent.size)
                child[0::2] = parent - self.sqrt_dt
                child[1::2] = parent + self.sqrt_dt
                slices.append(child)
            self._brownian = slices
        return self._brownian[depth]

    def node_label(self, depth: int, index: int) -> str:
        """Human-readable node identifier used in witnesses and reports."""
        if self.layout == FULL:
            return format(index, f"0{depth}b") if depth else "root"
        return f"{depth}:{index}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScenarioTree)
            and self.grid == other.grid
            and self.layout == other.layout
        )

    def __hash__(self) -> int:
        return hash((self.grid, self.layout))

    def __repr__(self) -> str:
        return f"ScenarioTree(T={self.grid.horizon}, N={self.steps}, layout={self.layout})"


def build_tree(
    T: float,
    N: int,
    layout: str = FULL,
    depth_cap: int | None = None,
) -> ScenarioTree:
    """Build a scenario tree with horizon T and N steps.

    The full layout refuses N above the depth cap (default 22): its slices
    grow as 2^N.  The recombining layout admits N up to 10^5 but only
    represents quantities that are functions of the current noise level.
    """
    grid = TimeGrid(float(T), int(N))
    cap = depth_cap if depth_cap is not None else (
        FULL_DEPTH_CAP if layout == FULL else RECOMBINING_DEPTH_CAP
    )
    if N > cap:
        raise ValueError(
            f"N={N} exceeds the depth cap {cap} for layout {layout!r}; "
            "use the recombining layout for large N"
        )
    return ScenarioTree(grid, layout)


def auto_layout(T: float, N: int, path_independent: bool) -> ScenarioTree:
    """Pick the full tree when affordable, else the recombining fast path.

    Path-dependent quantities cannot ride the recombining layout, so large
    N combined with a path-dependent claim is an error.
    """
    if N <= FULL_DEPTH_CAP:
        return build_tree(T, N, FULL)
    if not path_independent:
        raise ValueError(
            f"N={N} needs the recombining layout, which only supports "
            "path-independent claims"
        )
    return build_tree(T, N, RECOMBINING)


class TreeProcess:
    """Adapted process: one value per node for depths 0..last_depth.

    ``values[k]`` has length ``tree.n_nodes(k)``.  Arrays are marked
    read-only; build new processes instead of mutating.  A process may end
    before the terminal depth (integrand processes end at N-1).
    """

    __slots__ = ("tree", "values")

    def __init__(self, tree: ScenarioTree, values: Sequence[np.ndarray], copy: bool = True):
        if len(values) < 1 or len(values) > tree.steps + 1:
            raise ValueError(
                f"need between 1 and {tree.steps + 1} depth slices, got {len(values)}"
            )
        slices = []
        for k, v in enumerate(values):
            arr = np.array(v, dtype=float, copy=copy)
            if arr.shape != (tree.n_nodes(k),):
                raise ValueError(
                    f"slice at depth {k} has shape {arr.shape}, "
                    f"expected ({tree.n_nodes(k)},)"
                )
            arr.setflags(write=False)
            slices.append(arr)
        self.tree = tree
        self.values = tuple(slices)

    @property
    def last_depth(self) -> int:
        return len(self.values) - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def at(self, depth: int) -> np.ndarray:
        if not 0 <= depth <= self.last_depth:
            raise ValueError(f"depth {depth} outside [0, {self.last_depth}]")
        return self.values[depth]

    def root(self) -> float:
        return float(self.values[0][0])

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "TreeProcess":
        return TreeProcess(self.tree, [fn(v) for v in self.values], copy=False)

    def _binary(self, other, op) -> "TreeProcess":
        if isinstance(other, TreeProcess):
            if other.tree != self.tree:
                raise ValueError("processes live on different trees")
            n = min(self.last_depth, other.last_depth)
            return TreeProcess(
                self.tree, [op(self.values[k], other.values[k]) for k in range(n + 1)],
                copy=False,
            )
        return self.map(lambda v: op(v, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return self.map(lambda v: v * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self.map(np.negative)

    def allclose(self, other: "TreeProcess", atol: float = 1e-12) -> bool:
        if other.tree != self.tree or other.last_depth != self.last_depth:
            return False
        return all(
            np.allclose(a, b, rtol=0.0, atol=atol)
            for a, b in zip(self.values, other.values)
        )

    def max_abs(self) -> float:
        """Largest |value| over all depths; NaN when any slice holds NaN."""
        return float(np.max([np.max(np.abs(v)) for v in self.values]))

    @classmethod
    def constant(cls, tree: ScenarioTree, value: float, last_depth: int | None = None):
        n = tree.steps if last_depth is None else last_depth
        return cls(tree, [np.full(tree.n_nodes(k), float(value)) for k in range(n + 1)],
                   copy=False)


def brownian(tree: ScenarioTree) -> TreeProcess:
    """The driving noise as a process (its terminal slice is B_T)."""
    return TreeProcess(
        tree, [tree.brownian_slice(k) for k in range(tree.steps + 1)], copy=False
    )


def deterministic(tree: ScenarioTree, fn: Callable[[float], float]) -> TreeProcess:
    """Process equal to fn(t_k) at every depth-k node."""
    return TreeProcess(
        tree,
        [np.full(tree.n_nodes(k), float(fn(tree.grid.time(k)))) for k in range(tree.steps + 1)],
        copy=False,
    )


def _terminal_array(proc_or_values, tree: ScenarioTree | None = None):
    """Accept a TreeProcess or a plain slice; return (tree, depth, values).

    A bare array identifies its own depth through its width, which is
    unique per depth in both layouts.
    """
    if isinstance(proc_or_values, TreeProcess):
        return proc_or_values.tree, proc_or_values.last_depth, proc_or_values.terminal
    if tree is None:
        raise ValueError("a tree is required when passing a bare value slice")
    arr = np.asarray(proc_or_values, dtype=float)
    for depth in range(tree.steps, -1, -1):
        if arr.shape == (tree.n_nodes(depth),):
            return tree, depth, arr
    raise ValueError(
        f"slice of shape {arr.shape} matches no depth of {tree!r}")


def backward_reduce(
    tree: ScenarioTree,
    terminal: np.ndarray,
    step: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    last_depth: int | None = None,
) -> TreeProcess:
    """Backward induction: slice k = step(k, down, up) from slice k+1.

    The terminal slice sits at ``last_depth`` (default N).  This is the
    single reduction primitive shared by conditional expectations, BSDE
    schemes, risk-measure composition, duality and penalization, so
    iteration order (depth-major, lexicographic) is fixed here once.
    """
    n = tree.steps if last_depth is None else last_depth
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (tree.n_nodes(n),):
        raise ValueError("terminal slice does not match the tree layout")
    slices: list[np.ndarray] = [None] * n + [terminal]  # type: ignore[list-item]
    for k in range(n - 1, -1, -1):
        down, up = tree.split_children(slices[k + 1])
        parent = np.asarray(step(k, down, up), dtype=float)
        if parent.shape != down.shape:  # down has the depth-k width in both layouts
            raise ValueError(f"step returned wrong shape at depth {k}")
        slices[k] = parent
    return TreeProcess(tree, slices, copy=False)


def _average(k, down, up):
    """One-step conditional expectation under the reference measure."""
    return 0.5 * (down + up)


def propagate(tree: ScenarioTree, depth: int, values: np.ndarray) -> TreeProcess:
    """Extend an F_depth-measurable slice to deeper slices, constant on subtrees.

    Full layout only: a subtree-constant function is not a function of the
    recombined state.
    """
    if tree.layout != FULL:
        raise ValueError("propagation below a depth requires the full layout")
    # Depths above `depth` hold exact conditional expectations so the result
    # is a well-defined process at every depth.
    filled = list(backward_reduce(tree, values, _average, last_depth=depth).values)
    for _ in range(depth, tree.steps):
        filled.append(np.repeat(filled[-1], 2))
    return TreeProcess(tree, filled, copy=False)


def cond_expect(proc, depth: int, measure=None, tree: ScenarioTree | None = None) -> TreeProcess:
    """Conditional expectation of a random variable given the depth-``depth`` algebra.

    The random variable is the deepest slice of ``proc`` (a TreeProcess, or a
    bare terminal slice together with ``tree``).  The result is a full
    process: slices at depths <= depth hold the exact iterated conditional
    expectations (tower property is an identity of the construction); on the
    full layout, slices below ``depth`` repeat the depth value on each
    subtree so the object represents that single random variable everywhere.

    ``measure`` may be anything exposing ``p_up(depth) -> slice`` of one-step
    up probabilities (see :class:`gexpect.dual.TiltedMeasure`); the default
    is the reference measure with p_up = 1/2.
    """
    tree, last, values = _terminal_array(proc, tree)
    if not 0 <= depth <= last:
        raise ValueError(f"depth {depth} outside [0, {last}]")

    if measure is None:
        step = _average
    else:
        def step(k, down, up):
            p = measure.p_up(k)
            return (1.0 - p) * down + p * up

    reduced = backward_reduce(tree, values, step, last_depth=last)
    if tree.layout == FULL and depth < last:
        out = list(reduced.values[: depth + 1])
        for _ in range(depth, last):
            out.append(np.repeat(out[-1], 2))
        return TreeProcess(tree, out, copy=False)
    # Recombining layout: deeper slices keep E[X | F_k] for k > depth; the
    # subtree-constant representation does not recombine.
    return reduced


def expectation(proc, measure=None, tree: ScenarioTree | None = None) -> float:
    """Plain expectation of the deepest slice (conditioning at depth 0)."""
    return cond_expect(proc, 0, measure=measure, tree=tree).root()


def integrate(
    kind: str,
    integrand: TreeProcess,
    start: int = 0,
    stop: int | None = None,
) -> TreeProcess:
    """Running discrete integral of an adapted integrand (full layout).

    ``kind="time"`` accrues integrand[k] * dt over steps k in [start, stop);
    ``kind="stochastic"`` accrues integrand[k] * dB over the same steps with
    the left-endpoint (predictable) convention.  The result is a process on
    depths 0..N: zero up to ``start``, frozen after ``stop``.
    """
    tree = integrand.tree
    if tree.layout != FULL:
        raise ValueError("integrals are path functionals; use the full layout")
    n = tree.steps
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError(f"need 0 <= start <= stop <= {n}, got [{start}, {stop}]")
    if integrand.last_depth < stop - 1 and start < stop:
        raise ValueError("integrand is not defined on all steps of [start, stop)")
    if kind not in ("time", "stochastic"):
        raise ValueError(f"unknown integral kind {kind!r}")

    slices = [np.zeros(1)]
    for k in range(n):
        parent = slices[k]
        child = np.repeat(parent, 2)
        if start <= k < stop:
            psi = integrand.values[k]
            if kind == "time":
                child += np.repeat(psi * tree.dt, 2)
            else:
                inc = np.repeat(psi * tree.sqrt_dt, 2)
                inc[0::2] *= -1.0
                child += inc
        slices.append(child)
    return TreeProcess(tree, slices, copy=False)


def subtree_indicator(tree: ScenarioTree, depth: int, index: int) -> np.ndarray:
    """Terminal indicator of the event 'the path passes through this node'."""
    if tree.layout != FULL:
        raise ValueError("subtree events require the full layout")
    tree.check_depth(depth)
    n = tree.n_nodes(depth)
    if not 0 <= index < n:
        raise ValueError(f"node index {index} outside [0, {n})")
    flag = np.zeros(n)
    flag[index] = 1.0
    return np.repeat(flag, 2 ** (tree.steps - depth))


def path_ancestors(tree: ScenarioTree, depth: int) -> np.ndarray:
    """For each terminal path of a full tree, the index of its depth-k ancestor."""
    if tree.layout != FULL:
        raise ValueError("path enumeration requires the full layout")
    return np.arange(tree.n_nodes(tree.steps)) >> (tree.steps - depth)


def increment_matrix(tree: ScenarioTree) -> np.ndarray:
    """All +/- sqrt(dt) increment paths, one row per terminal node (full layout).

    Materializes 2^N x N floats; guarded to modest depths.
    """
    if tree.layout != FULL:
        raise ValueError("path enumeration requires the full layout")
    if tree.steps > 16:
        raise ValueError("path matrix limited to N <= 16; use slice recursions instead")
    idx = np.arange(tree.n_nodes(tree.steps))[:, None]
    bits = (idx >> np.arange(tree.steps - 1, -1, -1)[None, :]) & 1
    return (2.0 * bits - 1.0) * tree.sqrt_dt

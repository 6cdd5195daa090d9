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
  floating-point reductions.  Depth is capped (default 22).  The tree
  caches the noise slice of each depth that is read, and only those: a
  terminal claim holds the 2^N horizon values, not the 2^(N+1) of every
  depth.
* ``recombining`` -- one value per (depth, number of up moves).  Valid
  whenever everything in sight depends on the path only through the
  current noise level; depth is capped at 10^5.

Values attached to the tree live in :class:`TreeProcess`: one numpy array
per depth, adapted by construction because a slice entry can only be a
function of its own node index.  A whole recombining process holds
(N+1)(N+2)/2 values, O(N^2) memory.  :func:`backward_reduce` can keep only
the top depths of its result and let every deeper slice go once its parent
exists, so a reduction read at its root runs in O(N) memory: this is what
lets the ``solve`` and ``converge`` tasks reach the recombining cap.

The node axis is always the last axis of a slice.  A one-step operator
``step(k, down, up)`` -- the argument of :func:`backward_reduce` and of
every risk measure -- must act elementwise in (down, up) and broadcast over
any leading axes: given two arrays of shape (..., width) it returns one of
the same shape whose entry at each index depends only on the two entries
at that index.  That contract lets one reduction carry a batch of
processes along a leading axis (the penalization schedule solves all its
levels this way).

A slice that repeats one value may be a read-only stride-0 view of that
value (``np.broadcast_to``), as the rates of a constant tilt
(:func:`_constant_process`, one broadcast for all depths) and the zero
terminal of a relative entropy are.  The in-place tilted kernels compute
at the width their inputs vary over (:func:`_compact`) and return the
result at that width.  The caller (:func:`_fresh`, or the root-only
workspace of ``dual``) passes a node-wide result on as it is, and
broadcasts only a narrower one back to the node width, which
:func:`_fresh` first copies out of its buffers.  A reduction whose
terminal and measure are both constant so runs at width 1 from the
horizon to the root, and every value equals, bit for bit, the one computed
node by node.
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


class ScenarioTree:
    """Binary increment tree over a :class:`TimeGrid`.

    One-step probabilities under the reference measure are (1/2, 1/2) at
    every node.  The tree object itself is immutable; a full layout's noise
    slice is cached when it is first read, and only the depths read are.
    """

    def __init__(self, grid: TimeGrid, layout: str = FULL):
        if layout not in (FULL, RECOMBINING):
            raise ValueError(f"unknown layout {layout!r}")
        self.grid = grid
        self.layout = layout
        self.sqrt_dt = math.sqrt(grid.dt)
        self._brownian: dict[int, np.ndarray] = {}

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
            return child_slice[..., 0::2], child_slice[..., 1::2]
        return child_slice[..., :-1], child_slice[..., 1:]

    def brownian_slice(self, depth: int) -> np.ndarray:
        self.check_depth(depth)
        if self.layout == RECOMBINING:
            return (2.0 * np.arange(depth + 1) - depth) * self.sqrt_dt
        cached = self._brownian
        if depth not in cached:
            # Built from the deepest cached depth shallower than it (or the
            # root) by the one recurrence, so a slice has the same bits
            # whichever depths were read before it.
            start = max((k for k in cached if k < depth), default=0)
            noise = cached.get(start, np.zeros(1))
            for _ in range(start, depth):
                child = np.empty(2 * noise.size)
                child[0::2] = noise - self.sqrt_dt
                child[1::2] = noise + self.sqrt_dt
                noise = child
            cached[depth] = noise
        return cached[depth]

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
    At that cap a stored process takes N^2/2 doubles (40 GB), so only
    reductions that keep their root alone (``backward_reduce(keep=0)``, as
    the ``solve`` and ``converge`` tasks run) fit in memory there.
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


def auto_layout(T: float, N: int, path_independent: bool,
                depth_cap: int | None = None) -> ScenarioTree:
    """Pick the full tree when affordable, else the recombining fast path.

    Path-dependent quantities cannot ride the recombining layout, so large
    N combined with a path-dependent claim is an error.  ``depth_cap``
    bounds the chosen layout as it does in :func:`build_tree`.
    """
    if N <= FULL_DEPTH_CAP:
        return build_tree(T, N, FULL, depth_cap)
    if not path_independent:
        raise ValueError(
            f"N={N} needs the recombining layout, which only supports "
            "path-independent claims"
        )
    return build_tree(T, N, RECOMBINING, depth_cap)


class TreeProcess:
    """Adapted process: one value per node for depths 0..last_depth.

    ``values[k]`` has length ``tree.n_nodes(k)`` in its last axis.  A batch
    of B processes on one tree is a process whose slices all share one
    leading shape, ``(B, tree.n_nodes(k))``.  Arrays are marked read-only;
    build new processes instead of mutating.  A process may end before the
    terminal depth (integrand processes end at N-1).
    """

    __slots__ = ("tree", "values")

    def __init__(self, tree: ScenarioTree, values: Sequence[np.ndarray], copy: bool = True):
        if len(values) < 1 or len(values) > tree.steps + 1:
            raise ValueError(
                f"need between 1 and {tree.steps + 1} depth slices, got {len(values)}"
            )
        full = tree.layout == FULL
        lead = None
        slices = []
        for k, v in enumerate(values):
            arr = np.array(v, dtype=float, copy=copy)
            if lead is None:
                lead = arr.shape[:-1]
            expected = (*lead, 2 ** k if full else k + 1)
            if arr.shape != expected:
                raise ValueError(
                    f"slice at depth {k} has shape {arr.shape}, expected {expected}")
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

    def row(self, i: int) -> "TreeProcess":
        """Process ``i`` of a batch of processes, as views of its slices.

        The views are read-only and of the row's shapes by construction, so
        the row skips the constructor's checks."""
        row = TreeProcess.__new__(TreeProcess)
        row.tree, row.values = self.tree, tuple(v[i] for v in self.values)
        return row

    def max_abs(self) -> float:
        """Largest |value| over all depths; NaN when any slice holds NaN.

        Each slice is read for its max and its min, with no |v| temporary.
        The larger of max and -min may be a -0.0 (a slice of zeros gives
        zeros of both signs); its ``abs`` is +0.0, as |v| is."""
        return float(np.max([abs(max(v.max(), -v.min())) for v in self.values]))


def brownian(tree: ScenarioTree) -> TreeProcess:
    """The driving noise as a process (its terminal slice is B_T)."""
    return TreeProcess(
        tree, [tree.brownian_slice(k) for k in range(tree.steps + 1)], copy=False
    )


def _unbatched(values) -> np.ndarray:
    """``values`` as a float array with one axis.

    :func:`backward_reduce` runs a batch of reductions on a terminal with
    leading axes, so a public caller that takes one terminal slice refuses
    any other shape before it reduces."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("terminal slice does not match the tree layout")
    return arr


def _terminal_array(proc_or_values, tree: ScenarioTree | None = None):
    """Accept a TreeProcess or a plain slice; return (tree, depth, values).

    A bare array identifies its own depth through its width, which is
    unique per depth in both layouts.
    """
    if isinstance(proc_or_values, TreeProcess):
        return (proc_or_values.tree, proc_or_values.last_depth,
                _unbatched(proc_or_values.terminal))
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
    keep: int | None = None,
) -> TreeProcess:
    """Backward induction: slice k = step(k, down, up) from slice k+1.

    The terminal slice sits at ``last_depth`` (default N).  This is the
    single reduction primitive shared by conditional expectations, BSDE
    schemes, risk-measure composition, duality and penalization, so
    iteration order (depth-major, lexicographic) is fixed here once.

    The result holds depths 0..``keep`` (default: every depth).  A deeper
    slice is held only until its parent exists, so a reduction that keeps
    only its top runs in the memory of two slices.

    A terminal of shape ``(..., n_nodes(N))`` runs a batch of reductions in
    one pass: the tree axis is the last one, ``step`` receives and returns
    arrays with the same leading shape, and each batch row comes out as it
    would from its own reduction.
    """
    n = tree.steps if last_depth is None else last_depth
    keep = n if keep is None else keep
    if not 0 <= keep <= n:
        raise ValueError(f"keep={keep} outside [0, {n}]")
    terminal = np.asarray(terminal, dtype=float)
    if terminal.ndim < 1 or terminal.shape[-1] != tree.n_nodes(n):
        raise ValueError("terminal slice does not match the tree layout")
    slices: list[np.ndarray] = [None] * (keep + 1)  # type: ignore[list-item]
    if keep == n:
        slices[n] = terminal
    child = terminal
    for k in range(n - 1, -1, -1):
        down, up = tree.split_children(child)
        child = np.asarray(step(k, down, up), dtype=float)
        if child.shape != down.shape:  # down has the depth-k width in both layouts
            raise ValueError(f"step returned wrong shape at depth {k}")
        if k <= keep:
            slices[k] = child
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
    filled = list(backward_reduce(tree, _unbatched(values), _average,
                                  last_depth=depth).values)
    for _ in range(depth, tree.steps):
        filled.append(np.repeat(filled[-1], 2))
    return TreeProcess(tree, filled, copy=False)


def _compact(v: np.ndarray) -> np.ndarray:
    """``v`` cut to the width its values vary over along the node axis.

    A slice that repeats one value is a read-only stride-0 view; its first
    entry stands for all of them.  Any other slice comes back as it is.
    """
    if v.shape[-1] > 1 and v.strides[-1] == 0:
        return v[..., :1]
    return v


def _tilted_mean(measure):
    """In-place kernel of the one-step expectation under ``measure``.

    ``kernel(k, down, up, out, a, b)`` writes ``(1 - p) * down + p * up``
    into ``out``, using ``a`` and ``b`` (same width, aliasing neither input)
    as scratch, one ufunc per operation of that expression and in its order,
    so the bits equal the expression's.  It computes at the widest compact
    width w of p, down and up (see :func:`_compact`) and returns
    ``out[..., :w]``, which the caller broadcasts to the node width.
    """

    def kernel(k, down, up, out, a, b):
        p, down, up = (_compact(v) for v in (measure.p_up(k), down, up))
        wp = p.shape[-1]
        w = max(wp, down.shape[-1], up.shape[-1])
        np.subtract(1.0, p, out=a[..., :wp])
        np.multiply(a[..., :wp], down, out=a[..., :w])
        np.multiply(p, up, out=b[..., :w])
        return np.add(a[..., :w], b[..., :w], out=out[..., :w])

    return kernel


def _fresh(kernel):
    """The one-step function of an in-place kernel: new arrays at every step.

    A node-wide result is returned as it is.  A narrower one is copied out
    of its node-width buffer and broadcast, so a constant row keeps one
    float per depth, not the buffer."""

    def step(k, down, up):
        out = kernel(k, down, up, np.empty_like(down), np.empty_like(down),
                     np.empty_like(down))
        if out.shape == down.shape:
            return out
        return np.broadcast_to(out.copy(), down.shape)

    return step


def _constant_process(tree: ScenarioTree, values) -> TreeProcess:
    """The process whose slice k repeats ``values[k]`` over the nodes of depth k.

    ``values`` holds one float per depth, or one row of floats per depth
    for a batch (shape (depths, B) gives slices of shape (B, n_nodes(k))).
    Every slice is a read-only stride-0 view of one broadcast of
    ``values``, cut to its depth's width, so the process holds one float
    per depth and row, and its slices have the right shapes by
    construction (no constructor checks, as in :meth:`TreeProcess.row`)."""
    values = np.asarray(values, dtype=float)
    depths = len(values)
    wide = np.broadcast_to(values[..., None], (*values.shape, tree.n_nodes(depths - 1)))
    proc = TreeProcess.__new__(TreeProcess)
    proc.tree = tree
    proc.values = tuple(wide[k, ..., :tree.n_nodes(k)] for k in range(depths))
    return proc


def _measure_step(measure, tree: ScenarioTree):
    """One-step expectation on ``tree`` under ``measure`` (anything exposing
    ``p_up``).  A measure that carries its own ``tree`` must carry this one."""
    if measure is None:
        return _average
    own = getattr(measure, "tree", None)
    if own is not None and own != tree:
        raise ValueError("measure and tree disagree")
    return _fresh(_tilted_mean(measure))


def cond_expect(proc, depth: int, measure=None, tree: ScenarioTree | None = None) -> TreeProcess:
    """Conditional expectation of a random variable given the depth-``depth`` algebra.

    The random variable is the deepest slice of ``proc`` (a TreeProcess, or a
    bare terminal slice together with ``tree``).  The result is a full
    process: slices at depths <= depth hold the exact iterated conditional
    expectations (tower property is an identity of the construction); on the
    full layout, slices below ``depth`` repeat the depth value on each
    subtree so the object represents that single random variable everywhere.

    ``measure`` is a :class:`gexpect.dual.TiltedMeasure` (``dual.tilt``
    builds one from rates), or anything else exposing ``p_up(depth) ->
    slice`` of one-step up probabilities; the default is the reference
    measure with p_up = 1/2.  A measure built on another tree is refused.
    """
    tree, last, values = _terminal_array(proc, tree)
    if not 0 <= depth <= last:
        raise ValueError(f"depth {depth} outside [0, {last}]")
    step = _measure_step(measure, tree)
    if tree.layout == FULL and depth < last:
        out = list(backward_reduce(tree, values, step, last_depth=last, keep=depth).values)
        for _ in range(depth, last):
            out.append(np.repeat(out[-1], 2))
        return TreeProcess(tree, out, copy=False)
    # Recombining layout: deeper slices keep E[X | F_k] for k > depth; the
    # subtree-constant representation does not recombine.
    return backward_reduce(tree, values, step, last_depth=last)


def expectation(proc, measure=None, tree: ScenarioTree | None = None) -> float:
    """Plain expectation of the deepest slice: the root of one reduction."""
    tree, last, values = _terminal_array(proc, tree)
    return backward_reduce(tree, values, _measure_step(measure, tree), last_depth=last,
                           keep=0).root()


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


"""Terminal claims and stopping rules on scenario trees.

A claim is a bounded payoff observed at the horizon.  Named families cover
what the command line and the test suites need: constants, linear and
call-style functions of the terminal noise level, terminal indicators, the
running maximum and raw per-path value vectors.
Claims evaluated from the terminal level alone are flagged
``path_independent`` and may ride the recombining layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .lattice import FULL, ScenarioTree, TreeProcess, increment_matrix


@dataclass(frozen=True)
class Claim:
    """Payoff at the horizon.  Exactly one of the three rules is set."""

    label: str
    path_independent: bool
    terminal_fn: Callable[[np.ndarray], np.ndarray] | None = None
    path_fn: Callable[[np.ndarray], np.ndarray] | None = None
    leaf_values: np.ndarray | None = field(default=None, repr=False)

    def evaluate(self, tree: ScenarioTree) -> np.ndarray:
        """Terminal slice of payoffs on the given tree."""
        if self.terminal_fn is not None:
            return np.asarray(self.terminal_fn(tree.brownian_slice(tree.steps)), dtype=float)
        if tree.layout != FULL:
            raise ValueError(
                f"claim {self.label!r} is path dependent and needs the full layout"
            )
        if self.leaf_values is not None:
            vals = np.asarray(self.leaf_values, dtype=float)
            if vals.shape != (tree.n_nodes(tree.steps),):
                raise ValueError("leaf value vector does not match this tree")
            return vals
        assert self.path_fn is not None
        return np.asarray(self.path_fn(increment_matrix(tree)), dtype=float)

    def __add__(self, other: "Claim") -> "Claim":
        return combine(self, other)

    def __mul__(self, scalar: float) -> "Claim":
        return scale(self, scalar)

    __rmul__ = __mul__


def constant(value: float) -> Claim:
    v = float(value)
    return Claim(f"const({v:g})", True, terminal_fn=lambda b: np.full_like(b, v))


def linear(coef: float) -> Claim:
    """coef times the terminal noise level."""
    c = float(coef)
    return Claim(f"linear({c:g})", True, terminal_fn=lambda b: c * b)


def call(strike: float, coef: float = 1.0) -> Claim:
    """Call-style payoff coef * max(B_T - strike, 0)."""
    k, c = float(strike), float(coef)
    return Claim(
        f"call(K={k:g},c={c:g})", True,
        terminal_fn=lambda b: c * np.maximum(b - k, 0.0),
    )


def indicator(threshold: float) -> Claim:
    """Indicator of the terminal level reaching the threshold."""
    h = float(threshold)
    return Claim(f"indicator(>={h:g})", True,
                 terminal_fn=lambda b: (b >= h).astype(float))


def path_maximum() -> Claim:
    """Running maximum of the noise over the whole path (path dependent)."""

    def rule(increments: np.ndarray) -> np.ndarray:
        levels = np.cumsum(increments, axis=1)
        return np.maximum(levels.max(axis=1), 0.0)

    return Claim("path_max", False, path_fn=rule)


def from_leaf_values(values: np.ndarray, label: str = "leaf_vector") -> Claim:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return Claim(label, False, leaf_values=arr)


def combine(a: Claim, b: Claim) -> Claim:
    label = f"{a.label}+{b.label}"
    if a.terminal_fn is not None and b.terminal_fn is not None:
        fa, fb = a.terminal_fn, b.terminal_fn
        return Claim(label, True, terminal_fn=lambda x: fa(x) + fb(x))
    # Fall back to evaluation-time addition through a path rule wrapper.
    def rule(increments: np.ndarray) -> np.ndarray:
        levels = increments.sum(axis=1)
        va = a.path_fn(increments) if a.path_fn is not None else (
            a.terminal_fn(levels) if a.terminal_fn is not None else a.leaf_values)
        vb = b.path_fn(increments) if b.path_fn is not None else (
            b.terminal_fn(levels) if b.terminal_fn is not None else b.leaf_values)
        return np.asarray(va, dtype=float) + np.asarray(vb, dtype=float)

    return Claim(label, False, path_fn=rule)


def scale(c: Claim, factor: float) -> Claim:
    s = float(factor)
    label = f"{s:g}*{c.label}"
    if c.terminal_fn is not None:
        fn = c.terminal_fn
        return Claim(label, True, terminal_fn=lambda x: s * fn(x))
    if c.leaf_values is not None:
        return from_leaf_values(s * c.leaf_values, label)
    fn = c.path_fn
    return Claim(label, False, path_fn=lambda m: s * fn(m))


# Named families of the command line: each kind maps to its builder, with the
# defaults a config may leave out bound as keywords.
FAMILIES = {
    "constant": partial(constant, value=0.0),
    "linear": partial(linear, coef=1.0),
    "call": partial(call, strike=0.0),
    "indicator": partial(indicator, threshold=0.0),
    "path_max": path_maximum,
}


def from_spec(kind: str, params: dict | None = None) -> Claim:
    """Build a claim from a named family, as used by the command line."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown claim family {kind!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[kind](**(params or {}))


# Suite kinds of sample_claims; the command line checks claim_kind against it.
SAMPLE_KINDS = ("leaf", "mixture")


def sample_claims(
    tree: ScenarioTree,
    count: int,
    seed: int,
    kind: str = "mixture",
    scale_to: float = 1.0,
) -> list[Claim]:
    """Seeded claim suites for axiom and domination checks.

    ``kind="leaf"`` draws independent uniform payoffs per terminal node
    (full layout only, the most general bounded claims); ``kind="mixture"``
    draws bounded combinations a + b*B_T + c*(B_T-K)+ + d*1{B_T>=L}, which
    stay path independent.  Values are rescaled into [-scale_to, scale_to].
    """
    if kind not in SAMPLE_KINDS:
        raise ValueError(f"unknown sample kind {kind!r}")
    rng = np.random.default_rng(seed)
    out: list[Claim] = []
    for i in range(count):
        if kind == "leaf":
            vals = rng.uniform(-1.0, 1.0, tree.n_nodes(tree.steps))
            out.append(from_leaf_values(scale_to * vals, f"leaf[seed={seed},{i}]"))
        else:
            a, b, c, d = rng.uniform(-1.0, 1.0, 4)
            strike = rng.uniform(-1.0, 1.0)
            level = rng.uniform(-1.0, 1.0)
            claim = (constant(a) + linear(b) + call(strike, c)
                     + scale(indicator(level), d))
            terminal = claim.evaluate(tree)
            bound = max(1.0, float(np.max(np.abs(terminal))))
            out.append(scale(claim, scale_to / bound))
    return out


class StoppingTime:
    """Adapted stopping rule: a boolean slice per depth, forced at the horizon.

    A path stops at the first node whose flag is set.  Full layout only
    (the stopping boundary is a subtree event).
    """

    def __init__(self, tree: ScenarioTree, masks):
        if tree.layout != FULL:
            raise ValueError("stopping times require the full layout")
        if len(masks) != tree.steps + 1:
            raise ValueError("need one mask per depth 0..N")
        fixed = []
        for k, m in enumerate(masks):
            arr = np.array(m, dtype=bool)
            if arr.shape != (tree.n_nodes(k),):
                raise ValueError(f"mask at depth {k} has the wrong shape")
            fixed.append(arr)
        if not fixed[-1].all():
            raise ValueError("stopping must be forced at the terminal depth")
        for arr in fixed:
            arr.setflags(write=False)
        self.tree = tree
        self.masks = tuple(fixed)

    def stop_depths(self) -> np.ndarray:
        """Per terminal path, the depth at which the rule first stops."""
        n = self.tree.steps
        paths = self.tree.n_nodes(n)
        depth = np.full(paths, n, dtype=int)
        undecided = np.ones(paths, dtype=bool)
        for k in range(n + 1):
            ancestors = np.arange(paths) >> (n - k)
            hit = undecided & self.masks[k][ancestors]
            depth[hit] = k
            undecided &= ~hit
        return depth

    def min_with(self, other: "StoppingTime") -> "StoppingTime":
        if other.tree != self.tree:
            raise ValueError("stopping times live on different trees")
        return StoppingTime(
            self.tree, [a | b for a, b in zip(self.masks, other.masks)]
        )


def fixed_depth(tree: ScenarioTree, depth: int) -> StoppingTime:
    tree.check_depth(depth)
    return StoppingTime(
        tree,
        [np.full(tree.n_nodes(k), k >= depth, dtype=bool) for k in range(tree.steps + 1)],
    )


def first_hitting(tree: ScenarioTree, level: float) -> StoppingTime:
    """First time the absolute noise level reaches ``level`` (or the horizon)."""
    masks = [np.abs(tree.brownian_slice(k)) >= level for k in range(tree.steps + 1)]
    masks[-1] = np.ones(tree.n_nodes(tree.steps), dtype=bool)
    return StoppingTime(tree, masks)


def random_stopping(tree: ScenarioTree, seed: int) -> StoppingTime:
    """Seeded adapted rule: each node stops independently with probability 1/4."""
    rng = np.random.default_rng(seed)
    masks = [rng.uniform(size=tree.n_nodes(k)) < 0.25 for k in range(tree.steps)]
    masks.append(np.ones(tree.n_nodes(tree.steps), dtype=bool))
    return StoppingTime(tree, masks)


def stopped_values(proc: TreeProcess, st: StoppingTime) -> np.ndarray:
    """Per terminal path, the process value at the node where the rule stops."""
    tree = proc.tree
    if tree != st.tree:
        raise ValueError("process and stopping time live on different trees")
    n = tree.steps
    if proc.last_depth != n:
        raise ValueError("process must be defined up to the horizon")
    paths = tree.n_nodes(n)
    depths = st.stop_depths()
    out = np.empty(paths)
    idx = np.arange(paths)
    for k in range(n + 1):
        sel = depths == k
        if np.any(sel):
            out[sel] = proc.values[k][idx[sel] >> (n - k)]
    return out

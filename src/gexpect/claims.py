"""Terminal claims and stopping rules on scenario trees.

A claim is a bounded payoff observed at the horizon, held as one rule: a
function of the tree that returns its terminal slice.  Named families cover
what the command line and the test suites need: constants, linear and
call-style functions of the terminal noise level, terminal indicators, the
running maximum and raw per-path value vectors.  Sums (``combine`` or
``+``) and multiples (``scale``) of claims evaluate their parts on the same
tree and add or scale the slices.
Claims read from the terminal level alone are flagged ``path_independent``
and may ride the recombining layout; path functionals such as the running
maximum fold over the tree's own slices, so they evaluate on every full
tree ``build_tree`` accepts.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .lattice import FULL, ScenarioTree, TreeProcess, _slice_of


@dataclass(frozen=True)
class Claim:
    """Payoff at the horizon: ``rule(tree)`` is its terminal slice."""

    label: str
    path_independent: bool
    rule: Callable[[ScenarioTree], np.ndarray]

    def evaluate(self, tree: ScenarioTree) -> np.ndarray:
        """Terminal slice of payoffs on the given tree."""
        if not self.path_independent and tree.layout != FULL:
            raise ValueError(
                f"claim {self.label!r} is path dependent and needs the full layout"
            )
        return np.asarray(self.rule(tree), dtype=float)

    def __add__(self, other: "Claim") -> "Claim":
        return combine(self, other)


def _of_terminal(label: str, fn: Callable[[np.ndarray], np.ndarray]) -> Claim:
    """The path-independent claim ``fn(B_T)``."""
    return Claim(label, True, lambda tree: fn(tree.brownian_slice(tree.steps)))


def constant(value: float) -> Claim:
    v = float(value)
    return _of_terminal(f"const({v:g})", lambda b: np.full_like(b, v))


def linear(coef: float) -> Claim:
    """coef times the terminal noise level."""
    c = float(coef)
    return _of_terminal(f"linear({c:g})", lambda b: c * b)


def call(strike: float, coef: float = 1.0) -> Claim:
    """Call-style payoff coef * max(B_T - strike, 0)."""
    k, c = float(strike), float(coef)
    return _of_terminal(f"call(K={k:g},c={c:g})", lambda b: c * np.maximum(b - k, 0.0))


def indicator(threshold: float) -> Claim:
    """Indicator of the terminal level reaching the threshold."""
    h = float(threshold)
    return _of_terminal(f"indicator(>={h:g})", lambda b: (b >= h).astype(float))


def path_maximum() -> Claim:
    """Running maximum of the noise over the whole path, time 0 included
    (path dependent): each depth's running maximum is its parent's, repeated
    over both children, against the children's own level."""

    def rule(tree: ScenarioTree) -> np.ndarray:
        running = np.zeros(1)
        for k in range(1, tree.steps + 1):
            running = np.repeat(running, 2)
            np.maximum(running, tree.brownian_slice(k), out=running)
        return running

    return Claim("path_max", False, rule)


def from_leaf_values(values: np.ndarray, label: str) -> Claim:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)

    def rule(tree: ScenarioTree) -> np.ndarray:
        if arr.shape != (tree.n_nodes(tree.steps),):
            raise ValueError("leaf value vector does not match this tree")
        return arr

    return Claim(label, False, rule)


def combine(a: Claim, b: Claim) -> Claim:
    return Claim(f"{a.label}+{b.label}", a.path_independent and b.path_independent,
                 lambda tree: a.evaluate(tree) + b.evaluate(tree))


def scale(c: Claim, factor: float) -> Claim:
    s = float(factor)
    return Claim(f"{s:g}*{c.label}", c.path_independent, lambda tree: s * c.evaluate(tree))


def _terminal_of(tree: ScenarioTree, xi) -> np.ndarray:
    """``xi``, a Claim or an array, as the horizon slice of ``tree``."""
    return _slice_of(tree, xi.evaluate(tree) if isinstance(xi, Claim) else xi, tree.steps)[1]


# Named families of the command line: each kind maps to its builder, with the
# defaults a config may leave out bound as keywords.
FAMILIES = {
    "constant": partial(constant, value=0.0),
    "linear": partial(linear, coef=1.0),
    "call": partial(call, strike=0.0),
    "indicator": partial(indicator, threshold=0.0),
    "path_max": path_maximum,
}


def from_spec(kind: str, params: dict) -> Claim:
    """Build a claim from a named family and its keywords, as used by the
    command line."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown claim family {kind!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[kind](**params)


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

"""Reference computations the tests check the library against.

Each is the direct, unoptimized form of something the library computes
another way, or a helper only the tests need; none is part of the package.
"""
from functools import reduce

import numpy as np

from gexpect.lattice import FULL, ScenarioTree, TreeProcess


def add(*processes: TreeProcess) -> TreeProcess:
    """Slice-wise sum, left to right, over the depths every process holds;
    a plain process broadcasts against a batch."""
    tree = processes[0].tree
    if any(p.tree != tree for p in processes):
        raise ValueError("processes live on different trees")
    n = min(p.last_depth for p in processes)
    return TreeProcess(tree, [reduce(np.add, (p.values[k] for p in processes))
                              for k in range(n + 1)], copy=False)


def scale(proc: TreeProcess, factor) -> TreeProcess:
    """Every slice times ``factor``."""
    return TreeProcess(proc.tree, [v * factor for v in proc.values], copy=False)


def extract_z(Y: TreeProcess) -> TreeProcess:
    """Martingale integrand from child differences: (up - down) / (2 sqrt dt)."""
    tree = Y.tree
    slices = []
    for k in range(Y.last_depth):
        down, up = tree.split_children(Y.values[k + 1])
        slices.append((up - down) / (2.0 * tree.sqrt_dt))
    return TreeProcess(tree, slices, copy=False)


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


def theta(measure) -> TreeProcess:
    """Likelihood ratio process theta_k = dQ/dP of a ``TiltedMeasure``,
    restricted to depth k.

    Multiplicative form theta_{k+1} = theta_k (1 + q dB); full layout
    only, since the running product is a path functional.
    """
    tree = measure.tree
    if tree.layout != FULL:
        raise ValueError("the likelihood ratio process needs the full layout")
    sdt = tree.sqrt_dt
    slices = [np.ones(1)]
    for k in range(tree.steps):
        parent = slices[k]
        q = measure.q.values[k]
        child = np.empty(2 * parent.size)
        child[0::2] = parent * (1.0 - q * sdt)
        child[1::2] = parent * (1.0 + q * sdt)
        slices.append(child)
    return TreeProcess(tree, slices, copy=False)

"""Driver functions of quadratic growth and their convex-duality toolkit.

A generator is a deterministic function g(t, z) with g(t, 0) = 0 and growth
|g(t, z)| <= mu*|z| + nu*|z|^2.  Built-in families cover the upper and lower
growth envelopes, the purely quadratic (entropic) driver, sublinear drivers
given by a sup over an interval of slopes, and the scaled absolute value.

Structural facts that the risk layer relies on (convexity, sublinearity,
one-sided domination) travel as flags; :func:`verify_class` re-checks them
numerically on grids and returns a :class:`CheckReport` with witnesses.
Every worst-gap check of the library (``verify_class`` and the ``risk``
suites) folds its gaps through ``_GapTracker`` into ``AxiomCheck``
verdicts, so which gap is the worst is decided in one place; the suites
compare processes depth slice by depth slice through
:meth:`_GapTracker.compare`.  The
Legendre-Fenchel conjugate and the subdifferential come in closed form for
the built-ins and via guarded grid refinement otherwise.

The ``fn`` of each built-in driver runs once per node of every explicit
solve, so it allocates only the array it returns and at most one scratch
array: it applies the ufuncs of its expression (``mu * np.abs(z) +
nu * z * z`` and so on) in the same order, writing each result into its
first temporary, and never writes into ``z``.  A product or sum with a
constant may take its operands in the other order, which gives the same
bits; a scalar ``z`` gives the scalar type the expression gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import ScenarioTree, TreeProcess

CONVEX = "convex"
SUBLINEAR = "sublinear"
DOMINATED = "dominated"  # one-sided domination with parameter theta in (0, 1)

_GROWTH_TOL = 1e-9


@dataclass(frozen=True)
class Generator:
    """Deterministic driver g(t, z), vectorized in z.

    ``mu`` and ``nu`` are the growth constants; ``flags`` carry structural
    properties the constructor is willing to assert.  ``conjugate_fn`` and
    ``subdiff_fn`` are optional closed forms (vectorized in their second
    argument); when absent the numeric fallbacks are used.
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    mu: float
    nu: float
    flags: frozenset = frozenset()
    kind: str = "custom"
    conjugate_fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    subdiff_fn: Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0:
            raise ValueError("growth constants must be nonnegative")
        for t in (0.0, 0.5, 1.0):
            v = float(self.fn(t, np.zeros(1))[0])
            if abs(v) > _GROWTH_TOL:
                raise ValueError(f"generator must vanish at z=0; got g({t}, 0) = {v}")

    def __call__(self, t: float, z) -> np.ndarray:
        return np.asarray(self.fn(t, np.asarray(z, dtype=float)), dtype=float)

    def scalar(self, t: float, z: float) -> float:
        return float(self.fn(t, np.asarray([z], dtype=float))[0])

    def is_(self, flag: str) -> bool:
        return flag in self.flags


@dataclass(frozen=True)
class ConjugatePoint:
    """One evaluation of the conjugate f(t, x) = sup_z (x z - g(t, z)).

    ``value`` may be ``math.inf`` (coherent drivers are degenerate: zero on
    the slope interval, infinite outside).  ``tol`` bounds the grid error of
    a numeric evaluation and is 0 for closed forms.
    """

    x: float
    value: float
    tol: float


def _reuse(v):
    """The ``out=`` of a ufunc whose result may overwrite ``v``: ``v`` itself
    when it is an array, which in a kernel means one the kernel allocated;
    None for a scalar, so that a scalar input keeps giving a new scalar."""
    return v if isinstance(v, np.ndarray) else None


def _envelope(mu: float, nu: float, z):
    """mu*|z| + nu*z^2, the ufuncs of ``mu * np.abs(z) + nu * z * z`` in its
    order, in one new array and one scratch array."""
    v = np.abs(z)
    if v.dtype.kind != "f":  # an integer z gives floats, as mu * |z| does
        v = v.astype(float)
    v *= mu
    q = nu * z
    q *= z
    v += q
    return v


def quadratic_upper(mu: float, nu: float) -> Generator:
    """g(z) = mu*|z| + nu*z^2, the upper growth envelope (convex)."""
    mu, nu = float(mu), float(nu)

    def fn(t, z):
        return _envelope(mu, nu, z)

    def conj(t, x):
        x = np.asarray(x, dtype=float)
        if nu == 0.0:
            return np.where(np.abs(x) <= mu + _GROWTH_TOL, 0.0, np.inf)
        excess = np.maximum(np.abs(x) - mu, 0.0)
        return excess * excess / (4.0 * nu)

    def subdiff(t, z):
        z = np.asarray(z, dtype=float)
        lo = np.where(z < 0, -mu + 2 * nu * z, np.where(z > 0, mu + 2 * nu * z, -mu))
        hi = np.where(z < 0, -mu + 2 * nu * z, np.where(z > 0, mu + 2 * nu * z, mu))
        return lo, hi

    flags = {CONVEX, DOMINATED}
    if nu == 0.0:
        flags.add(SUBLINEAR)
    return Generator(fn, mu, nu, frozenset(flags), "quadratic_upper", conj, subdiff)


def quadratic_lower(mu: float, nu: float) -> Generator:
    """g(z) = -mu*|z| - nu*z^2, the lower growth envelope (concave)."""
    mu, nu = float(mu), float(nu)

    def fn(t, z):
        v = _envelope(mu, nu, z)
        return np.negative(v, out=_reuse(v))

    def conj(t, x):
        # sup_z x z + mu|z| + nu z^2 diverges unless the driver vanishes.
        x = np.asarray(x, dtype=float)
        if mu == 0.0 and nu == 0.0:
            return np.where(np.abs(x) <= _GROWTH_TOL, 0.0, np.inf)
        return np.full_like(x, np.inf)

    return Generator(fn, mu, nu, frozenset(), "quadratic_lower", conj, None)


def entropy(nu: float) -> Generator:
    """g(z) = nu*z^2, the driver of the entropic risk measure."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError("the entropic driver needs nu > 0")

    def fn(t, z):
        v = nu * z
        v *= z
        return v

    def conj(t, x):
        x = np.asarray(x, dtype=float)
        return x * x / (4.0 * nu)

    def subdiff(t, z):
        z = np.asarray(z, dtype=float)
        s = 2.0 * nu * z
        return s, s.copy()

    return Generator(fn, 0.0, nu, frozenset({CONVEX, DOMINATED}), "entropy", conj, subdiff)


def sublinear_interval(lo: float, hi: float) -> Generator:
    """g(z) = sup over slopes q in [lo, hi] of q*z (coherent driver)."""
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError(f"empty slope interval [{lo}, {hi}]")
    mu = max(abs(lo), abs(hi))

    def fn(t, z):
        v = lo * z
        return np.maximum(v, hi * z, out=_reuse(v))

    def conj(t, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo - _GROWTH_TOL) & (x <= hi + _GROWTH_TOL)
        return np.where(inside, 0.0, np.inf)

    def subdiff(t, z):
        z = np.asarray(z, dtype=float)
        l = np.where(z < 0, lo, np.where(z > 0, hi, lo))
        h = np.where(z < 0, lo, np.where(z > 0, hi, hi))
        return l, h

    return Generator(fn, mu, 0.0, frozenset({CONVEX, SUBLINEAR, DOMINATED}),
                     "sublinear_interval", conj, subdiff)


def scaled_abs(mu: float) -> Generator:
    """g(z) = mu*|z|, the symmetric sublinear driver."""
    g = sublinear_interval(-float(mu), float(mu))
    return Generator(g.fn, g.mu, 0.0, g.flags, "scaled_abs", g.conjugate_fn, g.subdiff_fn)


# Built-in kinds by name; a kind's parameters are those of its builder.
BUILTINS = {
    "quadratic_upper": quadratic_upper,
    "quadratic_lower": quadratic_lower,
    "entropy": entropy,
    "sublinear_interval": sublinear_interval,
    "scaled_abs": scaled_abs,
}


# ---------------------------------------------------------------------------
# Legendre-Fenchel conjugate


_PASSES = 3
_GRID_POINTS = 1025  # odd, so the window center (and incumbent) is a grid point
_ZOOM = 16.0


def conjugate(g: Generator, t: float, x: float) -> ConjugatePoint:
    """Pointwise conjugate f(t, x) = sup_z (x z - g(t, z)).

    A closed form attached to the generator is used when there is one.  The
    numeric path runs three grid refinement passes, each zooming by a factor
    16 around the incumbent argmax; infinite values are returned explicitly
    (never as a large sentinel).
    """
    x = float(x)
    if g.conjugate_fn is not None:
        val = float(np.asarray(g.conjugate_fn(t, np.asarray([x]))).ravel()[0])
        return ConjugatePoint(x, val, 0.0)
    if g.nu == 0.0:
        return _conjugate_sublinear_case(g, t, x)
    return _conjugate_grid(g, t, x)


def _conjugate_sublinear_case(g: Generator, t: float, x: float) -> ConjugatePoint:
    """nu = 0: the sup is 0 or +inf, decided by sign tests on a grid hull."""
    zmax = max(8.0, 8.0 * (abs(x) + g.mu + 1.0))
    z = np.linspace(-zmax, zmax, _GRID_POINTS)
    vals = x * z - g(t, z)
    if g.is_(SUBLINEAR):
        # Positive homogeneity: any strictly positive value scales to +inf.
        if np.any(vals > _GROWTH_TOL * (1.0 + abs(x)) * np.maximum(np.abs(z), 1.0)):
            return ConjugatePoint(x, math.inf, 0.0)
        return ConjugatePoint(x, 0.0, 0.0)
    # General linear growth: detect divergence from the asymptotic slopes.
    half = zmax / 2.0
    slope_right = (g.scalar(t, zmax) - g.scalar(t, half)) / half
    slope_left = (g.scalar(t, -zmax) - g.scalar(t, -half)) / half
    if x > slope_right + _GROWTH_TOL or -x > slope_left + _GROWTH_TOL:
        return ConjugatePoint(x, math.inf, 0.0)
    spacing = z[1] - z[0]
    slope_bound = abs(x) + g.mu
    return ConjugatePoint(x, float(np.max(vals)), spacing * slope_bound)


def _conjugate_grid(g: Generator, t: float, x: float) -> ConjugatePoint:
    # The analytic argmax of the quadratic envelope is (|x| - mu) / (2 nu);
    # doubling it guarantees the window contains the optimum.
    zmax = max(8.0, (abs(x) + g.mu) / g.nu)
    center, width = 0.0, 2.0 * zmax
    best_z, best_v = 0.0, -math.inf
    for _ in range(_PASSES):
        z = np.linspace(center - width / 2.0, center + width / 2.0, _GRID_POINTS)
        vals = x * z - g(t, z)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_z = float(vals[i]), float(z[i])
        center, width = best_z, width / _ZOOM
    spacing = width * _ZOOM / (_GRID_POINTS - 1)
    slope_bound = abs(x) + g.mu + 2.0 * g.nu * (abs(best_z) + spacing)
    return ConjugatePoint(x, best_v, spacing * slope_bound)


def conjugate_values(g: Generator, t: float, x: np.ndarray) -> np.ndarray:
    """Vectorized conjugate, used for penalty terms along density sweeps."""
    x = np.asarray(x, dtype=float)
    if g.conjugate_fn is not None:
        return np.asarray(g.conjugate_fn(t, x), dtype=float)
    return np.array([conjugate(g, t, xi).value for xi in x.ravel()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# Subdifferential


_DIFF_STEP = 2.0 ** -20


def subdifferential_slices(g: Generator, t: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intervals [g'(z-), g'(z+)] of a convex driver over a slice of z values.

    Closed forms are used when attached; otherwise one-sided difference
    quotients with a relative step of 2^-20.  Rejects drivers not flagged
    convex (one-sided slopes of a non-convex function do not bracket a
    subdifferential).
    """
    if not g.is_(CONVEX):
        raise ValueError(f"subdifferential needs a convex driver, got {g.kind!r}")
    z = np.asarray(z, dtype=float)
    if g.subdiff_fn is not None:
        lo, hi = g.subdiff_fn(t, z)
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    h = _DIFF_STEP * np.maximum(1.0, np.abs(z))
    v = g(t, z)
    return (v - g(t, z - h)) / h, (g(t, z + h) - v) / h


# ---------------------------------------------------------------------------
# Check verdicts: every worst-gap check of the library reports through these


@dataclass
class AxiomCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    max_gap: float
    tol: float
    comparisons: int
    witness: dict | None = None
    note: str = ""


@dataclass
class CheckReport:
    """Verdicts of one check suite, or of :func:`verify_class`, by check name."""

    label: str
    checks: dict

    @property
    def passed(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        return [n for n, c in self.checks.items() if c.status == "fail"]


class _GapTracker:
    """Worst gap of one check: it starts at 0 and a gap replaces it only when
    strictly larger, so the first maximum is the witness and a NaN never
    wins.  ``tree`` is needed only for the node labels of :meth:`update`."""

    def __init__(self, tree: ScenarioTree | None = None):
        self.tree = tree
        self.gap = 0.0
        self.witness = None
        self.count = 0

    def fold(self, gaps: np.ndarray, witness: Callable[[int, float], dict]) -> float:
        """Fold in an array of gaps; ``witness(i, gap)`` describes flat index i
        and is called only when its gap becomes the worst.  Returns the
        array's own worst gap (NaN when the array holds one)."""
        self.count += gaps.size
        i = int(gaps.argmax())
        worst = gaps.item(i)
        if worst > self.gap:
            self.gap = worst
            self.witness = witness(i, worst)
        return worst

    def update(self, values: np.ndarray, depth: int, tag: dict) -> float:
        """Fold in the gaps of one depth slice, witnessed by node."""
        return self.fold(values, lambda i, gap: {
            **tag, "depth": depth, "node": self.tree.node_label(depth, i), "gap": gap})

    def compare(self, gap: Callable[..., np.ndarray], processes: Sequence[TreeProcess],
                tag: dict, depths: Iterable[int] | None = None) -> None:
        """Fold in ``gap(*slices)`` of the processes' slices at each depth, in
        the order of ``depths``: by default every depth that all of them hold."""
        if depths is None:
            depths = range(min(p.last_depth for p in processes) + 1)
        for k in depths:
            self.update(gap(*(p.values[k] for p in processes)), k, tag)

    def verdict(self, name: str, atol: float, certified: bool = True,
                note: str = "step certificate violated; refine dt") -> AxiomCheck:
        """``skipped`` without the certificate or without a single comparison,
        else pass iff the gap is within atol."""
        if not certified:
            return AxiomCheck(name, "skipped", float("nan"), atol, 0, note=note)
        if not self.count:
            return AxiomCheck(name, "skipped", float("nan"), atol, 0, note="nothing compared")
        status = "pass" if self.gap <= atol else "fail"
        return AxiomCheck(name, status, self.gap, atol, self.count, self.witness)


# ---------------------------------------------------------------------------
# Class membership checks


_LAMBDAS = np.array([0.0, 0.5, 1.0, 2.0, 5.0])  # positive homogeneity factors
_THETAS = np.array([0.1, 0.5, 0.9])  # one-sided domination parameters


def verify_class(
    g: Generator,
    z_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
) -> CheckReport:
    """Check growth, convexity, sublinearity and one-sided domination on grids.

    Only properties the generator claims via flags are required to hold;
    growth is always required.  Witnesses carry the grid points and the gap.
    """
    z = np.linspace(-6.0, 6.0, 121) if z_grid is None else np.asarray(z_grid, dtype=float)
    ts = np.array([0.0, 0.5, 1.0]) if t_grid is None else np.asarray(t_grid, dtype=float)
    n = z.size
    checks: dict = {}

    def pair(t, **extra):
        """The witness of a gap on the (z1, z2) grid, flat index i."""
        return lambda i, gap: {"t": float(t), "z1": float(z[i // n]),
                               "z2": float(z[i % n]), "gap": gap, **extra}

    tr = _GapTracker()
    for t in ts:
        tr.fold(np.abs(g(t, z)) - (g.mu * np.abs(z) + g.nu * z * z),
                lambda i, gap: {"t": float(t), "z": float(z[i]), "gap": gap})
    checks["growth"] = tr.verdict("growth", _GROWTH_TOL)

    if g.is_(CONVEX):
        tr = _GapTracker()
        for t in ts:
            vals = g(t, z)
            mid = g(t, 0.5 * (z[:, None] + z[None, :]))
            tr.fold(mid - 0.5 * (vals[:, None] + vals[None, :]), pair(t))
        checks["convexity"] = tr.verdict("convexity", _GROWTH_TOL)

    if g.is_(SUBLINEAR):
        tr = _GapTracker()
        for t in ts:
            vals = g(t, z)
            scaled = g(t, _LAMBDAS[:, None] * z[None, :])
            tr.fold(np.abs(scaled - _LAMBDAS[:, None] * vals[None, :]),
                    lambda i, gap: {"t": float(t), "lambda": float(_LAMBDAS[i // n]),
                                    "z": float(z[i % n]), "gap": gap,
                                    "property": "homogeneity"})
            sums = g(t, z[:, None] + z[None, :])
            tr.fold(sums - (vals[:, None] + vals[None, :]), pair(t, property="subadditivity"))
        checks["sublinearity"] = tr.verdict("sublinearity", _GROWTH_TOL)

    if g.is_(DOMINATED):
        tr = _GapTracker()
        for t in ts:
            vals = g(t, z)
            for theta in _THETAS:
                # one-sided bound (1-theta) gbar((z - theta zt)/(1-theta))
                diff = z[:, None] - theta * z[None, :]
                bound = g.mu * np.abs(diff) + g.nu * diff * diff / (1.0 - theta)
                tr.fold(vals[:, None] - theta * vals[None, :] - bound,
                        lambda i, gap: {"t": float(t), "theta": float(theta),
                                        "z": float(z[i // n]), "z_tilde": float(z[i % n]),
                                        "gap": gap})
        checks["domination"] = tr.verdict("domination", _GROWTH_TOL)

    return CheckReport(g.kind, checks)

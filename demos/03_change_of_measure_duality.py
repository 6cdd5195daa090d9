"""
Tilting the tree and the penalized dual
=======================================

Every adapted density process q tilts the lattice's step probabilities.
The risk value is the best penalized tilted expectation, and the
maximizer can be read off the solved equation.
"""
import numpy as np

from gexpect import (
    FULL,
    RECOMBINING,
    brownian,
    build_tree,
    call,
    dual_value,
    entropic,
    expectation,
    from_generator,
    gibbs_density,
    optimal_density,
    quadratic_upper,
    relative_entropy,
    rho_solved,
    tilt,
    verify_duality,
)

# A constant tilt q shifts the mean of the walk: E_Q[B_T] = q T exactly.
tree = build_tree(1.0, 128, RECOMBINING)
m = tilt(0.8, tree)
print("E_Q[B_T] under q=0.8:", expectation(brownian(tree).terminal,
                                           tree=tree, measure=m))

# The tilt is costed by relative entropy.  The per-step binary
# divergence exceeds its quadratic (continuum) approximation.
est = relative_entropy(m)
print("relative entropy, discrete :", est.discrete.root())
print("relative entropy, continuum:", est.continuum.root())

# Convex dual: solve under the quadratic-envelope driver, select the
# optimal density from the subdifferential, and confirm attainment.
g = quadratic_upper(1.0, 1.0)
xi = call(0.2).evaluate(tree)
solved = rho_solved(from_generator(g, tree), xi)
rho0 = solved.Y.values[0][0]
best = optimal_density(solved, generator=g)
attained = dual_value(tilt(best, tree), xi, g).root()
print(f"\nrho0 = {rho0:.12f}")
print(f"dual value at the selected density = {attained:.12f}")

# Sweep constant densities: all stay below rho0 (weak duality).
print("\n    q      dual value      shortfall")
for q in np.linspace(-2.0, 2.0, 9):
    dv = dual_value(tilt(float(q), tree), xi, g).root()
    print(f"{q:6.2f}   {dv:12.8f}   {rho0 - dv:.3e}")

# For the entropic measure the selection reads the exact recursion's own
# one-step driver, log cosh(2 nu z sqrt(dt)) / (2 nu dt): its rates
# tanh(2 nu Z sqrt(dt)) / sqrt(dt) are the Gibbs tilt dQ ~ exp(-2 nu xi) dP,
# and the attainment is exact down to rounding.
ftree = build_tree(1.0, 10, FULL)
fxi = call(0.0).evaluate(ftree)
ent = entropic(0.5, ftree)
selected = optimal_density(rho_solved(ent, fxi), generator=ent.driver)
gibbs = gibbs_density(0.5, fxi, ftree)
rate_gap = max(np.abs(a - b).max() for a, b in zip(selected.q.values, gibbs.q.values))
report = verify_duality(ent, fxi, seed=0)
print("\nentropic duality report: passed =", report.passed,
      " selection gap =", report.optimal_gap)
print("largest |selected rate - Gibbs rate| =", rate_gap)

"""
Penalized decomposition of a risk supermartingale
=================================================

A process dominating its own one-step risk evaluations splits into a
risk martingale minus an increasing compensator.  The compensator is
recovered as the monotone limit of penalized equations.
"""
from gexpect import (
    FULL,
    RECOMBINING,
    build_tree,
    canonical_drift,
    canonical_supermartingale,
    doob_meyer,
    entropic,
    first_hitting,
    fixed_depth,
    optional_stopping_check,
    random_stopping,
    solve_penalized,
)

# Target: drift -(mu |z| + nu z^2) t plus z B_t.  The entropic driver
# consumes nu z^2 t of that drift; the surplus mu |z| t is what the
# compensator must absorb.
mu_bar, nu, z, T = 1.0, 0.5, 1.0, 1.0
tree = build_tree(T, 256, RECOMBINING)
drm = entropic(nu, tree)
Y = canonical_drift(mu_bar, nu, z, tree)

# One penalization level at a time: y^n stays below the target and
# rises with n, node by node.
print("     n    max(Y - y^n)")
for n in (2.0, 8.0, 32.0, 128.0, 512.0):
    sol = solve_penalized(drm, Y, z, n)
    print(f"{n:6.0f}    {sol.gap_to_target:.6f}")

# The full schedule, with the accumulated penalty at the horizon.
dec = doob_meyer(drm, Y, z)
print("\nfinal level:", dec.n_final)
print("A_T recovered :", dec.A.terminal[0])
print("drift surplus :", mu_bar * abs(z) * T)
print("martingale defect of y + zB + A:", dec.martingale_gap)

# Optional stopping: between any two stopping rules, evaluating the
# stopped tail never beats the earlier value.
ftree = build_tree(T, 10, FULL)
fdrm = entropic(nu, ftree)
W = canonical_supermartingale(mu_bar, nu, z, ftree)
sigma = random_stopping(ftree, seed=3)
tau = first_hitting(ftree, 0.8).min_with(fixed_depth(ftree, 8))
chk = optional_stopping_check(fdrm, W, sigma, tau)
print("\nstopped comparison holds:", chk.passed)
print("worst violation (negative means slack):", chk.max_violation)

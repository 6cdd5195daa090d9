"""
Drivers, conjugates, and what they buy you
==========================================

A dynamic risk measure inherits its properties from the driver that
generates it.  This script evaluates the built-in drivers, takes their
convex conjugates, and runs the axiom suite on three measures.
"""
from gexpect import (
    FULL,
    build_tree,
    check_axioms,
    conjugate,
    entropic,
    entropy,
    from_generator,
    quadratic_upper,
    sample_claims,
    sublinear_interval,
    verify_class,
)

# Three driver families: quadratic envelope, pure slope band, entropic.
g_quad = quadratic_upper(1.0, 0.25)   # mu |z| + nu z^2
g_band = sublinear_interval(-1.0, 1.0)  # max(-z, z) = |z|
g_ent = entropy(0.5)                  # nu z^2

for g in (g_quad, g_band, g_ent):
    rep = verify_class(g)
    print(f"{g.kind:20s} declared flags hold: {rep.passed}")

# The conjugate f(x) = sup_z (x z - g(z)) is the penalty density of the
# dual representation.  For the band driver it is 0 inside [-1, 1] and
# +inf outside; for the quadratic envelope it has a closed form.
print("\n   x    quad conjugate   band conjugate")
for x in (-2.0, -1.0, 0.0, 0.5, 1.5):
    a = conjugate(g_quad, 0.0, x).value
    b = conjugate(g_band, 0.0, x).value
    print(f"{x:5.1f}    {a:12.6f}    {b}")

# Axiom suite on a small full tree.  The convex measure passes the
# convex six; the band driver is coherent and passes scaling and
# subadditivity too; the entropic measure fails scaling, with a witness.
tree = build_tree(1.0, 8, FULL)
claims = sample_claims(tree, 40, seed=7, kind="leaf", scale_to=0.4)

for label, drm in (
    ("quadratic", from_generator(g_quad, tree)),
    ("slope band", from_generator(g_band, tree)),
    ("entropic", entropic(0.5, tree)),
):
    rep = check_axioms(drm, claims=claims, seed=7)
    failing = rep.failing() or ["none"]
    print(f"\n{label}: failing axioms: {', '.join(failing)}")
    for name in rep.failing():
        print(f"  witness for {name}: {rep.checks[name].witness}")

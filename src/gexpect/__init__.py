"""Nonlinear expectations on exact binary scenario trees.

The package builds a discrete Brownian filtration, solves backward
equations driven by convex generators on it, and exposes the resulting
dynamic risk measures together with the machinery the theory promises:
axiom checking, dual representations via measure tilts, generator recovery
from observed operators, and the penalized Doob-Meyer decomposition of
supermartingales.  Everything is exact on the tree: checks are node-wise
inequalities, not Monte Carlo estimates.

Every export is read by the library, the demos, the benchmark or the
acceptance suite, or says why it stays in a ``# kept:`` comment
(tests/test_public_surface.py holds the list to this).  The result types
(``SolvedBSDE``, ``DualityReport``, ``CheckReport``: the verdicts of the
suites and of ``verify_class``, ...) are exported because public functions
return them.
"""

from .lattice import (
    FULL,
    RECOMBINING,
    FULL_DEPTH_CAP,
    RECOMBINING_DEPTH_CAP,
    ScenarioTree,
    TimeGrid,
    TreeProcess,  # its at() is documented in the README
    auto_layout,
    brownian,
    build_tree,
    cond_expect,
    expectation,
)
from .claims import (
    Claim,
    StoppingTime,
    call,
    constant,
    first_hitting,
    fixed_depth,
    from_leaf_values,
    from_spec,
    indicator,
    linear,
    path_maximum,
    random_stopping,
    sample_claims,
    stopped_values,
)
from .generators import (
    CONVEX,
    DOMINATED,
    SUBLINEAR,
    CheckReport,
    ConjugatePoint,
    Generator,
    conjugate,
    conjugate_values,
    entropy,
    quadratic_lower,
    quadratic_upper,
    scaled_abs,
    subdifferential,  # kept: the one-point form of subdifferential_slices
    sublinear_interval,
    verify_class,
)
from .bsde import (
    SolvedBSDE,
    entropy_exact,
    extract_z,  # kept: the two-pass reference test_bsde checks the one-pass Z against
    solve_bsde,
)
from .risk import (
    AXIOMS,
    DynamicRiskMeasure,
    check_axioms,
    check_domination,
    custom,  # kept: the one way to build a measure from a raw one-step operator
    entropic,
    from_generator,
    optional_stopping_check,
    represent,
    rho,
    rho_solved,
    supermartingale_gap,
)
from .dual import (
    DensityProcess,
    DualityReport,
    DualValue,
    EntropyEstimates,
    TiltedMeasure,  # its theta() is the Bayes reference of test_dual
    constant_density,
    dual_value,
    gibbs_density,
    optimal_density,
    relative_entropy,
    tilt,
    verify_duality,
)
from .penalization import (
    Decomposition,
    PenalizedSolution,
    canonical_drift,
    canonical_supermartingale,
    doob_meyer,
    solve_penalized,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

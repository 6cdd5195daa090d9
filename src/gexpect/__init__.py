"""Nonlinear expectations on exact binary scenario trees.

The package builds a discrete Brownian filtration, solves backward
equations driven by convex generators on it, and exposes the resulting
dynamic risk measures together with the machinery the theory promises:
axiom checking, dual representations via measure tilts, generator recovery
from observed operators, and the penalized Doob-Meyer decomposition of
supermartingales.  Everything is exact on the tree: checks are node-wise
inequalities, not Monte Carlo estimates.
"""

from .lattice import (
    FULL,
    RECOMBINING,
    FULL_DEPTH_CAP,
    RECOMBINING_DEPTH_CAP,
    ScenarioTree,
    TimeGrid,
    TreeProcess,
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
    from_path_rule,
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
    ClassReport,
    ConjugatePoint,
    Generator,
    conjugate,
    conjugate_values,
    entropy,
    make_builtin,
    quadratic_lower,
    quadratic_upper,
    scaled_abs,
    subdifferential,
    sublinear_interval,
    verify_class,
)
from .bsde import (
    SolvedBSDE,
    entropy_exact,
    exp_transform_solve,
    extract_z,
    recover_generator,
    solve_bsde,
)
from .risk import (
    AXIOMS,
    CheckReport,
    DynamicRiskMeasure,
    check_axioms,
    check_domination,
    custom,
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
    TiltedMeasure,
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

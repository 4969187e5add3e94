"""Joint optimization of a spread resident density and atomic service poles.

The total cost couples a p-Wasserstein transport term between the two
measures, a convex penalty on the resident density, and a subadditive cost
on the service atom masses. Optimal densities are truncated radial bumps
around the atoms; this package solves the fixed-atom subproblem, the
per-atom energy analysis, and the global atomic planning problem, and
validates everything against an exact discrete transport oracle.
"""

__version__ = "0.1.0"

from .errors import (
    AtomOutsideDomain,
    ConditionNotSatisfied,
    ConfigError,
    DimensionMismatch,
    EmptyCloud,
    GridTooCoarse,
    IncompatibleGrids,
    InvalidK,
    MassOutOfRange,
    NegativeDensity,
    NoConvergence,
    NonpositiveMass,
    NotProbability,
    SearchSpaceTooLarge,
    SubcitiesError,
    UnbalancedMasses,
    ZeroMass,
)
from .measures import (
    AtomicMeasure,
    Domain,
    Grid,
    GridDensity,
    WeightedPointCloud,
    make_grid_density,
    normalize,
    to_point_cloud,
)
from .functionals import (
    ConcentrationFamily,
    FunctionFamily,
    conjugate_f,
    eval_F,
    eval_G,
    k_of,
    power_f,
    power_g,
    quadratic,
)
from .discrete_transport import (
    TransportPlan,
    c_transform,
    solve_discrete_transport,
    wasserstein,
)
from .semidiscrete import (
    DualWeights,
    SubcityProfile,
    cell_masses,
    density_from_weights,
    mass_of_radius,
    min_Fp_nu,
    radius_of_mass,
    solve_weights,
)
from .subcity import (
    EnergyCurve,
    check_atomization_condition,
    subadditivity_threshold,
    subcity_energy,
    subcity_energy_d2m,
    subcity_energy_dm,
)
from .planner import (
    PlanSolution,
    assemble_rn_solution,
    optimize_masses,
    solve_atomic_problem,
    solve_bounded,
)
from .oracle import BruteForceInstance, brute_force_full, compare_solutions

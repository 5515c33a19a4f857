"""discountlab: an exact finite laboratory for discounted weakly coupled
Hamilton-Jacobi systems.

The package discretizes a monotone m-system on the torus into a finite
control problem whose structural identities (comparison, measure
representation by linear programming, vanishing-discount convergence,
selection by Mather measures, ergodic constants) hold exactly in finite
dimensions and are checked as such.
"""

from . import cli, discretize, errors, limits, lp, measures, model, solver
from .discretize import (DiscreteSystem, TorusGrid, assemble_system,
                         bellman_residual, build_grid, sample_controls,
                         standard_system, system_from_json, system_to_json,
                         upwind_directional)
from .limits import (MatherSet, SweepResult, convergence_report,
                     discount_sweep, ergodic_normalize, mather_face_samples,
                     mather_from_sweep, mather_lp, selection_field,
                     selection_solve, shift_costs)
from .lp import LPProblem, LPSolution, lp_solve
from .measures import (MeasureVector, assemble_closed_constraints,
                       duality_audit, field_duality_audit, green_poisson,
                       occupation_from_policy, subsolution_lp, support_audit)
from .model import (CoercivityProfile, HamiltonianModel, LagrangianTable,
                    StructureReport, check_convex, check_coupling_domain,
                    check_erg_condition, check_monotone,
                    check_shift_invariance, coercivity_profile,
                    fenchel_equality_check, legendre_transform, make_model)
from .solver import (ErgodicResult, SolveDiagnostics, comparison_check,
                     ergodic_map, ergodic_solve, policy_evaluate,
                     policy_iterate, value_iterate)

__version__ = "0.1.0"

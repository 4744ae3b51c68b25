"""Exact averaging calculus for Poisson structures on foliated coordinate charts.

Everything is computed in a polynomial-trigonometric coefficient ring with
rational coefficients, so every verification is an identity check, not a
numerical one.  The headline objects are re-exported here; the submodules
hold the full API.
"""

from .action import (
    AverageRecord,
    FlowFactor,
    TorusAction,
    connection_difference,
    haar_average,
    hamiltonian_potential,
    hannay_berry,
    invariance_criteria,
    record_averages,
    verify_action,
    verify_premomentum,
)
from .dirac import (
    DiracData,
    Section,
    build_coupling_dirac,
    courant_bracket,
    gauge_transform,
    hamiltonian_generator_check,
    is_member,
    verify_g_invariance,
    verify_involutive,
    verify_lagrangian,
)
from .errors import FoliavgError
from .foliation import Connection, bigrade, curvature, graded_derivative, verify_connection
from .geom import (
    ChartMap,
    DiffForm,
    Multivector,
    VecValuedForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    schouten_bracket,
    wedge,
)
from .hamcurv import (
    adiabatic_check,
    adiabatic_fix,
    averaged_hamiltonian_form,
    averaging_correction,
    averaging_identities,
    axiomatic_verify,
    verify_admissible,
    verify_hamiltonian_curvature,
)
from .poisson import PoissonBivector, verify_jacobi
from .scenarios import Report, load_scenario, render_report, run_checks
from .symcalc import Chart, Scalar, Substitution, parse, render

__version__ = "0.1.0"

__all__ = [
    "AverageRecord",
    "Chart",
    "ChartMap",
    "Connection",
    "DiffForm",
    "DiracData",
    "FlowFactor",
    "FoliavgError",
    "Multivector",
    "PoissonBivector",
    "Report",
    "Scalar",
    "Section",
    "Substitution",
    "TorusAction",
    "VecValuedForm",
    "VectorField",
    "adiabatic_check",
    "adiabatic_fix",
    "averaged_hamiltonian_form",
    "averaging_correction",
    "averaging_identities",
    "axiomatic_verify",
    "bigrade",
    "build_coupling_dirac",
    "connection_difference",
    "courant_bracket",
    "curvature",
    "exterior_derivative",
    "gauge_transform",
    "graded_derivative",
    "haar_average",
    "hamiltonian_generator_check",
    "hamiltonian_potential",
    "hannay_berry",
    "interior_product",
    "invariance_criteria",
    "is_member",
    "lie_derivative",
    "load_scenario",
    "parse",
    "pullback",
    "record_averages",
    "render",
    "render_report",
    "run_checks",
    "schouten_bracket",
    "verify_action",
    "verify_admissible",
    "verify_connection",
    "verify_g_invariance",
    "verify_hamiltonian_curvature",
    "verify_involutive",
    "verify_jacobi",
    "verify_lagrangian",
    "verify_premomentum",
    "wedge",
]

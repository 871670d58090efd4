"""Spectral solver for a three-interval Sturm-Liouville problem.

The equation ``-u'' + q(x) u = lam * w(x) u`` is posed on ``[-1, 1]`` split at
two interior points, with a piecewise-constant weight, linear jump conditions
coupling the pieces, a fixed condition at the left end, and a right-end
condition that is affine in the eigenvalue.  The package locates eigenvalues
by shooting from both ends, certifies them with sign-change brackets, checks
the structural identities behind the operator's symmetry, and compares the
spectrum against its leading asymptotics.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticCase,
    DecayReport,
    case_of,
    decay_check,
    delta_leading,
    mu_asymptotic,
    phase_coherent,
    phi_asymptotic,
)
from .charfn import CharValue, char_batch, char_grid, char_value
from .hilbert import (
    HilbertElement,
    QuadratureGrid,
    apply_operator,
    domain_residuals,
    element_from_solution,
    greens_identity_sides,
    inner_product,
    interface_wronskian_residuals,
    norm,
    sample_domain_element,
    symmetry_residual,
)
from .problem import (
    ConfigError,
    NumericalError,
    PiecewisePotential,
    ProblemSpec,
    SolverConfig,
    config_dict,
    load_config,
    parse_config,
    phase,
    piece_bounds,
    piece_index_at,
    q_at,
    spec_digest,
    validate,
    weight_at,
)
from .shooting import (
    BoundaryData,
    PiecewiseSolution,
    PieceTrajectory,
    State,
    build_left,
    build_right,
    left_terminal_batch,
    wronskian,
)
from .spectrum import (
    EigenFunction,
    EigenRecord,
    ScanResult,
    eigenfunction,
    eigenfunction_residuals,
    eigenfunctions,
    locate_eigenvalues,
    orthogonality_matrix,
    scan_floor,
)

__all__ = [
    "__version__",
    # problem description
    "ProblemSpec", "SolverConfig", "PiecewisePotential", "ConfigError",
    "NumericalError", "validate", "parse_config", "load_config", "config_dict",
    "spec_digest", "phase", "piece_bounds", "piece_index_at", "weight_at", "q_at",
    # shooting
    "State", "BoundaryData", "PieceTrajectory", "PiecewiseSolution",
    "build_left", "build_right", "wronskian", "left_terminal_batch",
    # characteristic function
    "CharValue", "char_value", "char_grid", "char_batch",
    # spectrum
    "EigenRecord", "EigenFunction", "ScanResult", "scan_floor",
    "locate_eigenvalues", "eigenfunction", "eigenfunctions", "eigenfunction_residuals",
    "orthogonality_matrix",
    # asymptotics
    "AsymptoticCase", "DecayReport", "case_of", "mu_asymptotic",
    "phi_asymptotic", "delta_leading", "phase_coherent", "decay_check",
    # weighted space
    "QuadratureGrid", "HilbertElement", "inner_product",
    "norm", "apply_operator",
    "domain_residuals", "sample_domain_element", "element_from_solution",
    "symmetry_residual", "greens_identity_sides",
    "interface_wronskian_residuals",
]

"""Necessary conditions and conservation laws for variational problems
with time delay: expression calculus, piecewise-polynomial trajectories,
the delayed action, Euler-Lagrange / DuBois-Reymond / invariance / Noether
checks, and a direct-transcription minimizer."""

from .expr import (
    Binary,
    Constant,
    DomainError,
    EvalError,
    Expression,
    ExpressionError,
    ParseError,
    UnboundVariableError,
    UnknownFunctionError,
    Unary,
    Variable,
    VocabularyError,
    canonicalize,
    diff,
    evaluate,
    parse,
    to_source,
    total_derivative,
    variables,
)
from .trajectory import (
    DelayedArgs,
    PiecewiseTrajectory,
    TrajectoryError,
    delayed_args,
    effective_breakpoints,
)
from .functional import (
    ActionResult,
    FunctionalError,
    Problem,
    QuadratureSpec,
    action,
    gauss_nodes,
    integrate,
)
from .conditions import (
    DEFAULT_FIRST_INTEGRAL_TOL,
    FirstIntegralReport,
    RegionFit,
    ResidualReport,
    Samples,
    SegmentFit,
    block_term,
    check_el_differential,
    dbr_first_integral,
    effective_segment,
    el_first_integral,
    el_residual_differential,
    psi,
    region_of,
    sample_times,
)
from .noether import (
    SymmetryCandidate,
    SymmetryError,
    check_conservation,
    check_invariance,
    invariance_residual,
    noether_charge,
    rho,
)
from .solver import (
    GridSpec,
    NewtonStep,
    SolveResult,
    SolverError,
    discrete_action,
    discrete_first_variation,
    discrete_gradient,
    discrete_hessian,
    minimize,
)
from .document import (
    DocumentError,
    ProblemDocument,
    Tolerances,
    bundled_problem_path,
    load_bundled,
    load_document,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

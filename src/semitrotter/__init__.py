"""Trotter-Suzuki splitting of the semiclassical Schrodinger equation.

Desk-scale tooling for uniform-in-h observable error studies: discrete
operators, arbitrary-order Suzuki schedules, the propagator and observable
errors of a Trotterized evolution, nested-commutator coefficients, and a
symbolic height/width verifier for the underlying operator algebra.
"""

from .commutator_lab import (
    compute_alpha_comm,
    compute_alpha_tilde,
    compute_beta_comm,
    nested_comm,
)
from .discretize import (
    Grid,
    SchemeKind,
    build_diag,
    build_Dk,
    build_spectral_derivative,
)
from .experiments import evolution_errors
from .expr import ExprError, ExprEvalError, ExprSyntaxError, eval_expr, parse_expr
from .linalg import (
    ConvergenceError,
    DimensionMismatchError,
    NonHermitianError,
    commutator,
    hermitian_eig,
    spectral_norm,
    unitary_exp,
    unitarity_defect,
)
from .model import (
    ModelParams,
    PolyObservableSpec,
    build_A,
    build_B,
    build_observable,
)
from .splitting import (
    StagePlan,
    compute_steps,
    suzuki_plan,
    trotter_step,
)
from .symbolic_lie import (
    SymOp,
    VerificationReport,
    discrete_height_estimate,
    grade_n_commutator,
    height,
    kinetic_symbol,
    observable_symbol,
    potential_symbol,
    sym_commutator,
    to_string,
    verify_height_width,
    width,
)

__version__ = "0.1.0"

"""Proximal gradient method with worst-case rate certification under
PL-type inequalities: solver, closed-form rates and step sizes, Gram-space
proof verification, exact worst-case search, and experiment drivers.
"""
from .problem import (
    CompositeProblem,
    ProblemData,
    ProxOperator,
    SmoothOracle,
    elastic_net_prox,
    generate_instance,
    l1_prox,
    least_squares_oracle,
    robust_log_oracle,
    zero_prox,
)
from .pgm import PgmConfig, Trace, estimate_fstar, residual, run_pgm
from .rates import (
    OptimalStep,
    RateQuery,
    RateResult,
    baseline_garrigos,
    baseline_zhang,
    optimal_step,
    rate,
    rate_curve,
    rate_formula,
)
from .certificate import (
    Certificate,
    GramExpression,
    build_constraint,
    certificate_catalog,
    certificate_for,
    sweep_verify,
    verify_certificate,
)
from .errors import DomainError, NonFiniteError, VerificationError

__version__ = "0.1.0"

"""Proximal gradient method with worst-case rate certification under
PL-type inequalities: solver, closed-form rates and step sizes, Gram-space
proof verification, exact worst-case search, and experiment drivers.

The names below load their module on first use (PEP 562), so importing a
route module (`proxrate.certificate`, say) does not load the solver.
"""
import importlib

_EXPORTS = {
    "problem": (
        "CompositeProblem",
        "ProblemData",
        "ProxOperator",
        "SmoothOracle",
        "elastic_net_prox",
        "generate_instance",
        "l1_prox",
        "least_squares_oracle",
        "robust_log_oracle",
        "zero_prox",
    ),
    "pgm": ("PgmConfig", "Trace", "estimate_fstar", "residual", "run_pgm"),
    "rates": (
        "OptimalStep",
        "RateQuery",
        "RateResult",
        "baseline_garrigos",
        "baseline_zhang",
        "optimal_step",
        "rate",
        "rate_curve",
        "rate_formula",
    ),
    "certificate": (
        "Certificate",
        "GramExpression",
        "build_constraint",
        "certificate_catalog",
        "certificate_for",
        "sweep_verify",
        "verify_certificate",
    ),
    "errors": ("DomainError", "NonFiniteError", "VerificationError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules that loading the re-exports binds as attributes
_MODULES = ("certificate", "errors", "interp", "pgm", "problem", "rates", "rng")

__all__ = sorted([*_HOME, *_MODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

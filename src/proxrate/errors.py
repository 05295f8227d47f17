"""Exception types shared across the package, and the one parameter domain.

The CLI maps these onto its exit codes, so library code should raise the
most specific type that applies rather than bare ValueError/RuntimeError.
Every route reads (L, mu, gamma) as (t, q) = (L*gamma, mu/L), and
`check_parameters` defines their domain for all of them.
"""
import math


class DomainError(ValueError):
    """A parameter lies outside its mathematically valid domain."""


class NonFiniteError(DomainError):
    """A NaN or infinity appeared where a finite quantity is required."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class VerificationError(RuntimeError):
    """A certificate or consistency check failed beyond tolerance."""


def check_parameters(L, mu=None, gamma=None):
    """Refuse parameters, read as floats, outside 0 < L < inf with 2/L
    finite, 0 < mu < inf with mu/L neither 0 nor inf, and 0 < gamma < 2/L;
    mu and gamma are checked when given."""
    L = float(L)
    if not (0 < L < math.inf and 2.0 / L < math.inf):
        raise DomainError(f"L must be positive and finite with 2/L finite, got L={L!r}")
    if mu is not None and not (0 < float(mu) < math.inf and 0 < float(mu) / L < math.inf):
        raise DomainError(f"mu and mu/L must be positive and finite in floating point, got L={L!r}, mu={float(mu)!r}")
    if gamma is not None and not 0 < float(gamma) < 2.0 / L:
        raise DomainError(f"gamma out of (0, 2/L): gamma={float(gamma)!r}, L={L!r}")


def check_modulus(L, mu):
    """Refuse mu > L, where no theorem of the paper applies."""
    if mu > L:
        raise DomainError("mu > L rejected: the domination modulus cannot exceed the smoothness constant")

"""Closed-form worst-case contraction rates and step-size selection.

Rates are for one proximal gradient step measured in objective gap,
under a gradient-domination ("pl") or prox-residual-domination ("rpl")
inequality with modulus mu, for smooth convex or merely L-smooth f.
Branch boundaries follow the interval form; at a shared endpoint both
branch formulas agree (continuity), and the closed endpoint's label wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError

CONVEX = "convex"
NONCONVEX = "nonconvex"
PL = "pl"
RPL = "rpl"

_CLASSES = (CONVEX, NONCONVEX)
_INEQS = (PL, RPL)


@dataclass(frozen=True)
class RateQuery:
    """Keyed lookup (function class, inequality, L, mu, gamma)."""

    fn_class: str
    ineq: str
    L: float
    mu: float
    gamma: float

    def validate(self):
        if self.fn_class not in _CLASSES:
            raise DomainError(f"unknown function class {self.fn_class!r}")
        if self.ineq not in _INEQS:
            raise DomainError(f"unknown inequality {self.ineq!r}")
        _check_domain(self.L, self.mu, self.gamma)
        if self.mu > self.L:
            raise DomainError("mu > L rejected: the domination modulus cannot exceed the smoothness constant")


@dataclass(frozen=True)
class RateResult:
    rho: float
    branch: str


def _check_domain(L, mu, gamma):
    """L > 0 and mu > 0, then gamma in (0, 2/L), so every rate
    denominator is positive."""
    if not L > 0:
        raise DomainError(f"L must be positive, got {L!r}")
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    if not 0 < gamma < 2.0 / L:
        raise DomainError(f"gamma out of (0, 2/L): gamma={gamma!r}, L={L!r}")


def _large_step_quadratic(L, mu, gamma):
    # shared third-branch expression: (Lg-1)^2 / ((Lg-1)^2 - L g^2 mu + 2 g mu)
    t = L * gamma - 1.0
    return t * t / (t * t - L * gamma * gamma * mu + 2.0 * gamma * mu)


def rate_formula(fn_class, ineq, L, mu, gamma) -> RateResult:
    """Branch-correct rate formula without the mu <= L admissibility gate.

    Callers that need the guarded contract should use `rate`. L and mu
    must still be positive and gamma in (0, 2/L).
    """
    _check_domain(L, mu, gamma)
    if fn_class == NONCONVEX and ineq == PL:
        if gamma <= math.sqrt(3.0) / L:
            u = L * gamma + 1.0
            rho = u * u / (u * u + L * gamma * gamma * mu + 2.0 * gamma * mu)
            return RateResult(rho, "Thm3.1-case1")
        return RateResult(_large_step_quadratic(L, mu, gamma), "Thm3.1-case2")
    if fn_class == CONVEX and ineq == PL:
        if gamma <= 1.5 / L:
            return RateResult(1.0 / (2.0 * gamma * mu + 1.0), "Thm3.2-case1")
        return RateResult(_large_step_quadratic(L, mu, gamma), "Thm3.2-case2")
    if fn_class == NONCONVEX and ineq == RPL:
        t = L * gamma - 1.0
        rho = (L + mu * t * t - mu) / L
        return RateResult(rho, "Thm4.1")
    if fn_class == CONVEX and ineq == RPL:
        if gamma <= 1.0 / L:
            rho = (1.0 - gamma * mu) / (1.0 + gamma * mu)
            return RateResult(rho, "Thm4.2-case1")
        if gamma <= 1.5 / L:
            rho = (-2.0 * L * gamma * gamma * mu + L * gamma + 3.0 * gamma * mu - 2.0) / (
                L * gamma - gamma * mu - 2.0
            )
            return RateResult(rho, "Thm4.2-case2")
        return RateResult(_large_step_quadratic(L, mu, gamma), "Thm4.2-case3")
    raise DomainError(f"unknown (fn_class, ineq) = ({fn_class!r}, {ineq!r})")


def rate(query: RateQuery) -> RateResult:
    """Worst-case one-step contraction factor for a validated query."""
    query.validate()
    return rate_formula(query.fn_class, query.ineq, query.L, query.mu, query.gamma)


class OptimalStep(NamedTuple):
    gamma_star: float
    rho_star: float
    branch: str


def rpl_convex_interior_step(L, mu):
    """Interior stationary point of the mid-interval rpl-convex rate:
    2/(sqrt(L)*(sqrt(L)+sqrt(mu))). It is the rate's minimizer only when
    mu > L/9; below that the curve is still decreasing at 3/(2L)."""
    return 2.0 / (math.sqrt(L) * (math.sqrt(L) + math.sqrt(mu)))


def optimal_step(fn_class, ineq, L, mu) -> OptimalStep:
    """Step size minimizing the worst-case rate over (0, 2/L)."""
    if not L > 0 or not mu > 0:
        raise DomainError("L and mu must be positive")
    if fn_class == NONCONVEX and ineq == PL:
        g = math.sqrt(3.0) / L
        return OptimalStep(g, rate_formula(fn_class, ineq, L, mu, g).rho, "Prop3.1")
    if fn_class == CONVEX and ineq == PL:
        g = 1.5 / L
        return OptimalStep(g, rate_formula(fn_class, ineq, L, mu, g).rho, "Prop3.2")
    if fn_class == NONCONVEX and ineq == RPL:
        g = 1.0 / L
        return OptimalStep(g, rate_formula(fn_class, ineq, L, mu, g).rho, "Prop4.1")
    if fn_class == CONVEX and ineq == RPL:
        if not mu < L:
            raise DomainError("convex-rpl optimal step requires mu < L")
        if mu <= L / 9.0:
            g = 1.5 / L
            branch = "Prop4.2-small-mu"
        else:
            g = rpl_convex_interior_step(L, mu)
            branch = "Prop4.2-large-mu"
        return OptimalStep(g, rate_formula(fn_class, ineq, L, mu, g).rho, branch)
    raise DomainError(f"unknown (fn_class, ineq) = ({fn_class!r}, {ineq!r})")


def baseline_garrigos(L, mu, gamma):
    """Comparison rate 1/(1 + gamma*mu*(2 - gamma*L)) for smooth convex f
    under gradient domination; valid on gamma in (0, 2/L)."""
    if not 0 < gamma < 2.0 / L:
        raise DomainError(f"gamma out of (0, 2/L): gamma={gamma!r}, L={L!r}")
    return 1.0 / (1.0 + gamma * mu * (2.0 - gamma * L))


def baseline_zhang(mu, gamma, L: Optional[float] = None):
    """Comparison rate (1 - gamma*mu)/(1 + gamma*mu) for the residual
    inequality; stated only for gamma in (0, 1/L], checked when L given."""
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    if L is not None and gamma > 1.0 / L:
        raise DomainError(f"gamma out of (0, 1/L]: gamma={gamma!r}, L={L!r}")
    return (1.0 - gamma * mu) / (1.0 + gamma * mu)


@dataclass(frozen=True)
class RateCurveRow:
    gamma: float
    rate: float
    branch: str
    baseline_garrigos: Optional[float]
    baseline_zhang: Optional[float]


def rate_curve(fn_class, ineq, L, mu, gamma_grid: Sequence[float]) -> list[RateCurveRow]:
    """Per-gamma rates with the applicable comparison baselines.

    The gradient-domination baseline column is filled for the convex-pl
    query, the residual baseline for convex-rpl on (0, 1/L]; other cells
    stay empty.
    """
    rows = []
    for g in gamma_grid:
        res = rate(RateQuery(fn_class, ineq, L, mu, float(g)))
        bg = bz = None
        if fn_class == CONVEX and ineq == PL:
            bg = baseline_garrigos(L, mu, float(g))
        if fn_class == CONVEX and ineq == RPL and g <= 1.0 / L:
            bz = baseline_zhang(mu, float(g), L)
        rows.append(RateCurveRow(float(g), res.rho, res.branch, bg, bz))
    return rows


def write_rate_curve_csv(path, rows: Sequence[RateCurveRow]):
    from .tableio import format_float, write_csv

    def cell(v):
        return "" if v is None else format_float(v)

    write_csv(
        path,
        ["gamma", "rate", "branch", "baseline_garrigos", "baseline_zhang"],
        [[format_float(r.gamma), format_float(r.rate), r.branch, cell(r.baseline_garrigos), cell(r.baseline_zhang)] for r in rows],
    )

"""Worst-case contraction rates and step-size selection.

Rates are for one proximal gradient step measured in objective gap,
under a gradient-domination ("pl") or prox-residual-domination ("rpl")
inequality with modulus mu, for smooth convex or merely L-smooth f.
Each rate is the certified formula of the first catalog case whose step
interval holds gamma; at a shared endpoint both formulas agree
(continuity), and the closed endpoint's label wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .certificate import certificate_catalog
from .errors import DomainError

CONVEX = "convex"
NONCONVEX = "nonconvex"
PL = "pl"
RPL = "rpl"

# (fn_class, ineq) -> its theorem-case certificates, in step order
CASES = {}
for _cert in certificate_catalog():
    CASES.setdefault((_cert.fn_class, _cert.ineq), []).append(_cert)


@dataclass(frozen=True)
class RateQuery:
    """Keyed lookup (function class, inequality, L, mu, gamma)."""

    fn_class: str
    ineq: str
    L: float
    mu: float
    gamma: float

    def validate(self):
        _cases(self.fn_class, self.ineq)
        _check_domain(self.L, self.mu, self.gamma)
        if self.mu > self.L:
            raise DomainError("mu > L rejected: the domination modulus cannot exceed the smoothness constant")


@dataclass(frozen=True)
class RateResult:
    rho: float
    branch: str


def _check_domain(L, mu, gamma):
    """L > 0 and 0 < mu < inf, then gamma in (0, 2/L), so every rate
    denominator is positive."""
    if not L > 0:
        raise DomainError(f"L must be positive, got {L!r}")
    if not 0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu!r}")
    if not 0 < gamma < 2.0 / L:
        raise DomainError(f"gamma out of (0, 2/L): gamma={gamma!r}, L={L!r}")


def _cases(fn_class, ineq):
    try:
        return CASES[(fn_class, ineq)]
    except KeyError:
        raise DomainError(f"unknown (fn_class, ineq) = ({fn_class!r}, {ineq!r})") from None


def rate_formula(fn_class, ineq, L, mu, gamma) -> RateResult:
    """Branch-correct certified rate without the mu <= L admissibility gate.

    Callers that need the guarded contract should use `rate`. L and mu
    must still be positive and gamma in (0, 2/L), where every pair's last
    case, open at 2/L, ends.
    """
    _check_domain(L, mu, gamma)
    for cert in _cases(fn_class, ineq):
        _lo, hi, _lo_closed, hi_closed = cert.interval
        if gamma <= hi / L if hi_closed else gamma < hi / L:
            return RateResult(cert.rate(L, mu, gamma), cert.case_id)


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
    """Step size minimizing the worst-case rate over (0, 2/L), for mu <= L."""
    if not L > 0 or not mu > 0:
        raise DomainError("L and mu must be positive")
    if fn_class == NONCONVEX and ineq == PL:
        g, branch = math.sqrt(3.0) / L, "Prop3.1"
    elif fn_class == CONVEX and ineq == PL:
        g, branch = 1.5 / L, "Prop3.2"
    elif fn_class == NONCONVEX and ineq == RPL:
        g, branch = 1.0 / L, "Prop4.1"
    elif fn_class == CONVEX and ineq == RPL:
        if not mu < L:
            raise DomainError("convex-rpl optimal step requires mu < L")
        if mu <= L / 9.0:
            g, branch = 1.5 / L, "Prop4.2-small-mu"
        else:
            g, branch = rpl_convex_interior_step(L, mu), "Prop4.2-large-mu"
    else:
        raise DomainError(f"unknown (fn_class, ineq) = ({fn_class!r}, {ineq!r})")
    return OptimalStep(g, rate(RateQuery(fn_class, ineq, L, mu, g)).rho, branch)


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

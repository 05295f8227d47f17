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
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple, Optional, Sequence

from .certificate import CONSTRAINT_NAMES, certificate_catalog
from .errors import DomainError, check_modulus, check_parameters

# (fn_class, ineq) -> its theorem-case certificates, in step order
CASES = {}
for _cert in certificate_catalog():
    CASES.setdefault((_cert.fn_class, _cert.ineq), []).append(_cert)

# per pair, the constraints its certificates use, in CONSTRAINT_NAMES order
CONSTRAINT_SETS = {
    pair: tuple(n for n in CONSTRAINT_NAMES if any(n == cname for cert in certs for cname, _, _ in cert.multipliers))
    for pair, certs in CASES.items()
}


def _cases(fn_class, ineq):
    try:
        return CASES[(fn_class, ineq)]
    except KeyError:
        raise DomainError(f"unknown (fn_class, ineq) = ({fn_class!r}, {ineq!r})") from None


@dataclass(frozen=True)
class RateQuery:
    """A point (function class, inequality, L, mu, gamma), checked on
    construction: a known pair, (L, mu, gamma) in `check_parameters`'
    domain and mu <= L."""

    fn_class: str
    ineq: str
    L: float
    mu: float
    gamma: float

    def __post_init__(self):
        _cases(self.fn_class, self.ineq)
        check_parameters(self.L, self.mu, self.gamma)
        check_modulus(self.L, self.mu)

    @property
    def constraint_names(self):
        return CONSTRAINT_SETS[(self.fn_class, self.ineq)]


@dataclass(frozen=True)
class RateResult:
    rho: float
    branch: str


def rate_formula(fn_class, ineq, L, mu, gamma) -> RateResult:
    """Branch-correct certified rate without the mu <= L admissibility gate.

    Callers that need the guarded contract should use `rate`. The
    parameters must still lie in `check_parameters`' domain, where every
    rate denominator is positive; every pair's last case ends at 2/L.
    """
    check_parameters(L, mu, gamma)
    return _first_case_rate(_cases(fn_class, ineq), L, mu, gamma)


def _first_case_rate(cases, L, mu, gamma) -> RateResult:
    for cert in cases:
        if cert.contains(L, gamma):
            return RateResult(cert.rate(L, mu, gamma), cert.case_id)


def rate(query: RateQuery) -> RateResult:
    """Worst-case one-step contraction factor of a query, which was
    checked on construction."""
    return _first_case_rate(CASES[(query.fn_class, query.ineq)], query.L, query.mu, query.gamma)


class OptimalStep(NamedTuple):
    gamma_star: float
    rho_star: float
    branch: str


def rpl_convex_interior_step(L, mu):
    """Interior stationary point of the mid-interval rpl-convex rate:
    2/(sqrt(L)*(sqrt(L)+sqrt(mu))). It is the rate's minimizer only when
    mu > L/9; below that the curve is still decreasing at 3/(2L)."""
    return 2.0 / (math.sqrt(L) * (math.sqrt(L) + math.sqrt(mu)))


def _rpl_convex_step(L, mu):
    if mu <= L / 9.0:
        return 1.5 / L, "Prop4.2-small-mu"
    return rpl_convex_interior_step(L, mu), "Prop4.2-large-mu"


# (fn_class, ineq) -> rule (L, mu) -> (rate-minimizing gamma, proposition)
STEP_RULES = {
    ("nonconvex", "pl"): lambda L, mu: (math.sqrt(3.0) / L, "Prop3.1"),
    ("convex", "pl"): lambda L, mu: (1.5 / L, "Prop3.2"),
    ("nonconvex", "rpl"): lambda L, mu: (1.0 / L, "Prop4.1"),
    ("convex", "rpl"): _rpl_convex_step,
}


def optimal_step(fn_class, ineq, L, mu) -> OptimalStep:
    """Step size minimizing the worst-case rate over (0, 2/L), for mu <= L."""
    check_parameters(L, mu)
    check_modulus(L, mu)
    _cases(fn_class, ineq)
    g, branch = STEP_RULES[(fn_class, ineq)](L, mu)
    return OptimalStep(g, rate(RateQuery(fn_class, ineq, L, mu, g)).rho, branch)


def baseline_garrigos(L, mu, gamma):
    """Comparison rate 1/(1 + gamma*mu*(2 - gamma*L)) for smooth convex f
    under gradient domination; valid on gamma in (0, 2/L)."""
    check_parameters(L, mu, gamma)
    return 1.0 / (1.0 + gamma * mu * (2.0 - gamma * L))


def baseline_zhang(mu, gamma, L: Optional[float] = None):
    """Comparison rate (1 - gamma*mu)/(1 + gamma*mu) for the residual
    inequality; stated only for 0 < mu < inf and gamma > 0 with gamma*mu
    <= 1, and, when L is given, (L, mu, gamma) in `check_parameters`'
    domain with gamma <= 1/L."""
    if L is not None:
        check_parameters(L, mu, gamma)
        if gamma > 1.0 / L:
            raise DomainError(f"gamma out of (0, 1/L]: gamma={gamma!r}, L={L!r}")
    if not (0 < mu < math.inf and gamma > 0 and gamma * mu <= 1):
        raise DomainError(f"baseline_zhang needs 0 < mu < inf, gamma > 0 and gamma*mu <= 1, got mu={mu!r}, gamma={gamma!r}")
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
    for g in map(float, gamma_grid):
        res = rate(RateQuery(fn_class, ineq, L, mu, g))
        bg = bz = None
        if fn_class == "convex" and ineq == "pl":
            bg = baseline_garrigos(L, mu, g)
        if fn_class == "convex" and ineq == "rpl" and g <= 1.0 / L:
            bz = baseline_zhang(mu, g, L)
        rows.append(RateCurveRow(g, res.rho, res.branch, bg, bz))
    return rows


def write_rate_curve_csv(path, rows: Sequence[RateCurveRow]):
    from .tableio import write_csv

    write_csv(path, [f.name for f in fields(RateCurveRow)], [astuple(r) for r in rows])

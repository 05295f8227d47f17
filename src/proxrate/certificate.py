"""Mechanical verification of the one-step rate proofs in Gram space.

Every proof is a weighted sum of pairwise constraints, and each
constraint sees only differences of iterates and of function values. So
the gauge is fixed once: x1 = 0, f(x1) = 0 and F* = 0. Quadratic parts
then live over the vector symbols (g1, g2, s2) and linear parts over the
scalar symbols (f2, h1, h2), with h1 = F(x1) - F*; the second iterate
never appears because x2 = -gamma*(g1 + s2) is substituted once, and
optimal-point gradients are eliminated by g* + s* = 0. Each constraint
is defined once, as one of the interp definitions evaluated on these
symbols: a scalar symbol is a GramExpression, the one expression type,
and the inner product of two vector symbols is one too, so a definition
computes its Q and c directly, in Fraction arithmetic at L = 1.
A certificate stores the closed-form multipliers and the expected
remainder; verification checks, per gamma,

    objective - rho*gap - sum(multiplier_i * constraint_i) == remainder,

multiplier nonnegativity, and nonpositivity of the remainder form.
Dividing f and h by L scales every constraint and both gaps by 1/L, so
the formulas are rational in (t, q) = (L*gamma, mu/L) and verification
runs at L = 1; an exact mode runs the same checks in Fraction arithmetic.

Everything else reads per-constraint coefficient tables, not the Gram
algebra. At L = 1 every operand is affine in t (x2 = -t*(g1 + s2)), each
definition is at most bilinear in its operands, and mu enters only as
1/(2*mu) on a t-free square, so every entry of a constraint's Q and c is
a polynomial of degree <= 2 in t and <= 1 in u = 1/q. `_table` derives
those coefficients from the exact L = 1 definition at six points and
guards the degree bound at a seventh, lazily and once per process. A
constraint at any (L, mu, gamma), a combination and a remainder are
accumulated from nonzero coefficients only, in one code path for
Fraction scalars and float arrays; a parameter array (a gamma grid)
enters as leading batch axes of the table reads.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import math

import numpy as np

from .errors import DomainError, VerificationError
from .interp import Point, convex_slack, pl_slack, rpl_slack, smooth_convex_slack, smooth_slack

VECTOR_SYMBOLS = ("g1", "g2", "s2")
SCALAR_SYMBOLS = ("f2", "h1", "h2")
_NV = len(VECTOR_SYMBOLS)
_NS = len(SCALAR_SYMBOLS)

IDENTITY_TOL = 1e-11
MULTIPLIER_TOL = 1e-14
EIGENVALUE_TOL = 1e-10
GRID_MARGIN = 1e-6  # interval_grid's relative offset from an open endpoint


def _is_exact(*values) -> bool:
    return any(isinstance(v, Fraction) for v in values)


@dataclass
class GramExpression:
    """Quadratic-plus-linear expression over the fixed symbol bases.

    Q is (..., 3, 3) symmetric over VECTOR_SYMBOLS and c is (..., 3) over
    SCALAR_SYMBOLS; leading (batch) axes carry a parameter grid, and
    Q and c broadcast over them independently. Expressions add and
    subtract, and multiply or divide by a scalar weight. dtype=object
    carries exact Fractions through the same code paths.
    """

    Q: np.ndarray
    c: np.ndarray

    __array_ufunc__ = None  # numpy scalars and arrays defer to __rmul__

    def __add__(self, other):
        return GramExpression(self.Q + other.Q, self.c + other.c)

    def __sub__(self, other):
        return GramExpression(self.Q - other.Q, self.c - other.c)

    def __rmul__(self, w):
        return GramExpression(w * self.Q, w * self.c)

    def __truediv__(self, d):
        return GramExpression(self.Q / d, self.c / d)

    def evaluate(self, gram, scalars):
        """Value on a concrete Gram matrix and scalar assignment."""
        gram = np.asarray(gram)
        scalars = np.asarray(scalars)
        return (self.Q * gram).sum((-1, -2)) + (self.c * scalars).sum(-1)

    def max_abs(self):
        """Largest coefficient magnitude, reduced over the symbol axes."""
        return np.maximum(np.abs(self.Q).max((-1, -2)), np.abs(self.c).max(-1))


# ---------------------------------------------------------------------------
# Gram symbols as operands of the interp definitions, in Fractions


class _Vec:
    """A vector operand: coefficients over VECTOR_SYMBOLS."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return _Vec(self.a + other.a)

    def __sub__(self, other):
        return _Vec(self.a - other.a)

    def __rmul__(self, w):
        return _Vec(w * self.a)

    def __matmul__(self, other):
        """<a, b> as the expression Q = sym(a b^T)."""
        P = np.outer(self.a, other.a)
        return GramExpression((P + P.T) / 2, _SYMBOLS.zero.c)


# g1, g2, s2, f2, h1, h2, the gauge's x1 = 0 and the zero scalar F* = 0, with
# Fraction entries: an int zero would turn into float 0.0 under /2
_Symbols = namedtuple("_Symbols", "g1 g2 s2 f2 h1 h2 x1 zero")
_ZERO = GramExpression(np.full((_NV, _NV), Fraction(0)), np.full(_NS, Fraction(0)))
_SYMBOLS = _Symbols(
    *map(_Vec, np.eye(_NV, dtype=object) * Fraction(1)),
    *(GramExpression(_ZERO.Q, row) for row in np.eye(_NS, dtype=object) * Fraction(1)),
    _Vec(np.full(_NV, Fraction(0))),
    _ZERO,
)


def _gram_operands(mu, gamma):
    g1, g2, s2, f2, h1, h2, x1, zero = _SYMBOLS
    # the gauge: moving the points, shifting f and h by opposite constants
    # and shifting F and F* together change no constraint, so x1 = 0,
    # f(x1) = 0 and F* = 0, and h1 stands for F(x1) - F*
    G1 = g1 + s2  # the residual at x1
    x2 = x1 - gamma * G1  # the one substitution of the second iterate
    return {
        "tf1": Point(x1, g1, zero), "tf2": Point(x2, g2, f2),
        "th1": Point(x1, None, h1), "th2": Point(x2, s2, h2),
        "F1": h1, "F2": f2 + h2, "Fstar": zero, "G1": G1,
        "g2": g2, "s2": s2, "L": 1, "mu": mu,
    }


# name -> (definition, operand names). E2 is the D-form at x2: the residual
# norm there is dominated by the certified subgradient norm ||g2 + s2||.
_CONSTRAINTS = {
    "A12": (smooth_slack, ("tf1", "tf2", "L")),
    "A21": (smooth_slack, ("tf2", "tf1", "L")),
    "B12": (smooth_convex_slack, ("tf1", "tf2", "L")),
    "B21": (smooth_convex_slack, ("tf2", "tf1", "L")),
    "C12": (convex_slack, ("th1", "th2")),
    "D2": (pl_slack, ("F2", "Fstar", "g2", "s2", "mu")),
    "E1": (rpl_slack, ("F1", "Fstar", "G1", "mu")),
}
_CONSTRAINTS["E2"] = _CONSTRAINTS["D2"]
_CONSTRAINTS["Eprime1"] = _CONSTRAINTS["E1"]
CONSTRAINT_NAMES = tuple(_CONSTRAINTS)


def _definition(name: str, q: Fraction, t: Fraction) -> GramExpression:
    """Constraint `name` at L = 1, mu = q and gamma = t: its interp
    definition evaluated on the Gram operands, with x2 substituted out."""
    definition, names = _CONSTRAINTS[name]
    operands = _gram_operands(q, t)
    return definition(*(operands[n] for n in names))


# ---------------------------------------------------------------------------
# coefficient tables

_NE = _NV * _NV + _NS  # expression entries: Q flattened, then c
_F2, _H1, _H2 = range(_NV * _NV, _NE)


def _expression(entries, t, q, exact) -> GramExpression:
    """The expression with these _NE entries, each a number or an array
    on the broadcast shape of (t, q)."""
    a = np.empty(np.broadcast_shapes(np.shape(t), np.shape(q)) + (_NE,), dtype=object if exact else float)
    for e, value in enumerate(entries):
        a[..., e] = value
    return GramExpression(a[..., : _NV * _NV].reshape(a.shape[:-1] + (_NV, _NV)), a[..., _NV * _NV :])


def _features(t, u):
    """The monomials a table's coefficients multiply, with u = 1/q."""
    t2 = t * t
    return (1, t, t2, u, t * u, t2 * u)


@functools.cache
def _table(name: str, exact: bool) -> tuple:
    """Constraint `name` at L = 1 as (feature, ((entry, coefficient), ...))
    rows, indexing `_features` and the _NE entries, nonzero coefficients
    only; Fractions in exact mode, floats otherwise.

    The coefficients come from finite differences of the exact L = 1
    definition (`_definition`) on the grid t in {0, 1, 2} x u in {1, 2},
    which determines any polynomial of degree <= 2 in t and <= 1 in u.
    One more exact point, (t, u) = (3, 3), guards that bound: a
    constraint outside the span raises VerificationError instead of
    passing with a wrong table. Batch axes come from the table reads,
    never from the definition.
    """
    if not exact:  # multiples of 1/4, so the floats are exact
        return tuple((f, tuple((e, float(c)) for e, c in row)) for f, row in _table(name, True))

    def entries(t, u):
        expr = _definition(name, Fraction(1, u), Fraction(t))
        return np.concatenate([expr.Q.ravel(), expr.c])

    v = {(t, u): entries(t, u) for t in (0, 1, 2) for u in (1, 2)}
    coeffs = []
    for p0, p1, p2 in ([2 * v[t, 1] - v[t, 2] for t in (0, 1, 2)], [v[t, 2] - v[t, 1] for t in (0, 1, 2)]):
        c2 = (p2 - 2 * p1 + p0) / 2  # the u^0 part, then the u^1 part
        coeffs += [p0, p1 - p0 - c2, c2]
    if np.any(entries(3, 3) != sum(c * x for c, x in zip(coeffs, _features(3, 3)))):
        raise VerificationError(f"constraint {name} is not of degree <= 2 in t and <= 1 in 1/q")
    return tuple(
        (f, tuple((e, c) for e, c in enumerate(column) if c))
        for f, column in enumerate(coeffs)
        if any(column)
    )


def _accumulate(entries, terms, features, exact) -> list:
    """entries + sum(m * table) over the (constraint name, m) terms, the
    tables read at `features`; updates and returns the list."""
    for name, m in terms:
        for f, row in _table(name, exact):
            mf = m * features[f] if f else m
            for e, coeff in row:
                entries[e] = entries[e] + coeff * mf
    return entries


def build_constraint(name: str, L, mu, gamma) -> GramExpression:
    """Named constraint as a Gram expression, read off its table at
    (t, u) = (L*gamma, L/mu): dividing f and h by L scales Q by 1/L and
    leaves c as it is. Fraction parameters give Fraction entries, others
    floats; array parameters give leading batch axes."""
    if name not in _CONSTRAINTS:
        raise DomainError(f"unknown constraint name {name!r}")
    exact = _is_exact(L, mu, gamma)
    if not exact:
        L, mu, gamma = (np.asarray(v, dtype=float) if np.shape(v) else float(v) for v in (L, mu, gamma))
    t, u = L * gamma, L / mu
    entries = _accumulate([Fraction(0) if exact else 0.0] * _NE, [(name, 1)], _features(t, u), exact)
    return _expression([v / L for v in entries[:_F2]] + entries[_F2:], t, u, exact)


# ---------------------------------------------------------------------------
# the eight certificates


@dataclass(frozen=True)
class Certificate:
    """One theorem case: multipliers and rate as functions of (L, mu, gamma)
    through (t, q), and the remainder at L = 1 and the interval in (t, q)."""

    case_id: str
    fn_class: str
    ineq: str
    # (constraint name, multiplier label, multiplier formula)
    multipliers: tuple
    rate: Callable
    # remainder = coeff * ||sum_w w_sym * sym||^2; None means identically zero
    remainder_coeff: Optional[Callable]
    remainder_weights: Optional[Callable]
    interval: tuple  # (lo, hi, lo_closed, hi_closed) in t
    check_kind: str  # "equality" | "inequality-chain"

    def gamma_in_interval(self, L, gamma) -> np.ndarray:
        lo, hi, lo_closed, hi_closed = self.interval
        t = float(L) * np.asarray(gamma, dtype=float)
        tol = 1e-12
        above = t >= lo * (1 - tol) if lo_closed else t > lo * (1 + tol)
        below = t <= hi * (1 + tol) if hi_closed else t < hi * (1 - tol)
        return above & below

    def remainder_expression(self, t, q) -> GramExpression:
        """coeff * ||w||^2 with w = sum of weight * vector symbol, written
        entry by entry as coeff * w_i * w_j."""
        exact = _is_exact(t, q)
        entries = [Fraction(0) if exact else 0.0] * _NE
        if self.remainder_coeff is not None:
            coeff = self.remainder_coeff(t, q)
            w = [(VECTOR_SYMBOLS.index(name), weight) for name, weight in self.remainder_weights(t, q).items()]
            for k, (i, wi) in enumerate(w):
                for j, wj in w[k:]:
                    entries[_NV * i + j] = entries[_NV * j + i] = coeff * (wi * wj)
        return _expression(entries, t, q, exact)

    def weighted_combination(self, t, q, values=None) -> GramExpression:
        """objective - rho*gap - sum(multiplier * constraint), at L = 1,
        accumulated over the constraints' coefficient tables. `values` are
        the multipliers at (1, q, t), in catalog order, when already known."""
        if values is None:
            values = [formula(1, q, t) for _cname, _label, formula in self.multipliers]
        exact = _is_exact(t, q)
        one = Fraction(1) if exact else 1.0
        entries = [0 * one] * _NE
        entries[_F2] = entries[_H2] = one
        entries[_H1] = -self.rate(1, q, t)
        # IEEE negation is exact: adding coeff * (-m * x) is subtracting coeff * (m * x)
        terms = [(cname, -m) for (cname, _label, _formula), m in zip(self.multipliers, values)]
        return _expression(_accumulate(entries, terms, _features(t, one / q), exact), t, q, exact)


def _certificate(multipliers, rho, **fields) -> Certificate:
    """A Certificate from multiplier and rate formulas written in (t, q)."""
    def scale_free(f):
        return lambda L, mu, gamma: f(L * gamma, mu / L)

    mults = tuple((cname, label, scale_free(f)) for cname, label, f in multipliers)
    return Certificate(multipliers=mults, rate=scale_free(rho), **fields)


def _den31_1(t, q):
    return (t + 1) ** 2 + t**2 * q + 2 * t * q


def _den_large(t, q):
    return (t - 1) ** 2 - t**2 * q + 2 * t * q


_SQRT3 = math.sqrt(3.0)


def _large_step_weights(t, q):
    return {"g1": t - 1, "s2": t, "g2": 1}


def _large_step(case_id, fn_class, ineq, names, remainder_coeff, lo, check_kind) -> Certificate:
    """The step-size proof shared by the cases on t in (lo, 2): the same
    multipliers on a smoothness pair, C12 and the modulus constraint
    (`names`, in that order), the same rate and the same remainder
    square; only its coefficient differs."""
    a1, a2, b1, l1 = names
    return _certificate(
        case_id=case_id,
        fn_class=fn_class,
        ineq=ineq,
        multipliers=(
            (a1, "alpha1", lambda t, q: (t - 1) / _den_large(t, q)),
            (a2, "alpha2", lambda t, q: (-(t**2) + 3 * t - 2) / _den_large(t, q)),
            (b1, "beta1", lambda t, q: (t - 1) ** 2 / _den_large(t, q)),
            (l1, "lambda1", lambda t, q: (-(t**2) * q + 2 * t * q) / _den_large(t, q)),
        ),
        rho=lambda t, q: (t - 1) ** 2 / _den_large(t, q),
        remainder_coeff=remainder_coeff,
        remainder_weights=_large_step_weights,
        interval=(lo, 2.0, False, False),
        check_kind=check_kind,
    )


def certificate_catalog() -> list[Certificate]:
    """All eight theorem-case certificates, in theorem order."""
    cat = []

    cat.append(
        _certificate(
            case_id="Thm3.1-case1",
            fn_class="nonconvex",
            ineq="pl",
            multipliers=(
                ("A12", "alpha1", lambda t, q: (t**2 + 3 * t + 2) / _den31_1(t, q)),
                ("A21", "alpha2", lambda t, q: (t + 1) / _den31_1(t, q)),
                ("C12", "beta1", lambda t, q: (t + 1) ** 2 / _den31_1(t, q)),
                ("D2", "lambda1", lambda t, q: (t**2 * q + 2 * t * q) / _den31_1(t, q)),
            ),
            rho=lambda t, q: (t + 1) ** 2 / _den31_1(t, q),
            remainder_coeff=lambda t, q: (t**2 - 3) / (4 * _den31_1(t, q)),
            remainder_weights=lambda t, q: {"g1": t + 1, "s2": t, "g2": -1},
            interval=(0.0, _SQRT3, False, True),
            check_kind="equality",
        )
    )

    cat.append(
        _large_step(
            "Thm3.1-case2", "nonconvex", "pl", ("A12", "A21", "C12", "D2"),
            lambda t, q: (3 - t**2) / (4 * _den_large(t, q)),
            _SQRT3, "equality",
        )
    )

    cat.append(
        _certificate(
            case_id="Thm3.2-case1",
            fn_class="convex",
            ineq="pl",
            multipliers=(
                ("B12", "alpha1", lambda t, q: 2 / (2 * t * q + 1)),
                ("B21", "alpha2", lambda t, q: 1 / (2 * t * q + 1)),
                ("C12", "beta1", lambda t, q: 1 / (2 * t * q + 1)),
                ("D2", "lambda1", lambda t, q: 2 * t * q / (2 * t * q + 1)),
            ),
            rho=lambda t, q: 1 / (2 * t * q + 1),
            remainder_coeff=lambda t, q: (2 * t - 3) / (2 * (2 * t * q + 1)),
            remainder_weights=lambda t, q: {"g1": 1, "g2": -1},
            interval=(0.0, 1.5, False, True),
            check_kind="equality",
        )
    )

    cat.append(
        _large_step(
            "Thm3.2-case2", "convex", "pl", ("B12", "B21", "C12", "D2"),
            lambda t, q: (3 - 2 * t) / (2 * _den_large(t, q)),
            1.5, "equality",
        )
    )

    cat.append(
        _certificate(
            case_id="Thm4.1",
            fn_class="nonconvex",
            ineq="rpl",
            multipliers=(
                ("A12", "alpha1", lambda t, q: 1),
                ("C12", "beta1", lambda t, q: 1),
                ("Eprime1", "lambda1", lambda t, q: q - q * (t - 1) ** 2),
            ),
            rho=lambda t, q: 1 + q * (t - 1) ** 2 - q,
            # 0*t carries t's number type, so exact mode keeps a Fraction
            remainder_coeff=lambda t, q: (0 * t - 1) / 4,
            remainder_weights=_large_step_weights,
            interval=(0.0, 2.0, False, False),
            check_kind="equality",
        )
    )

    cat.append(
        _certificate(
            case_id="Thm4.2-case1",
            fn_class="convex",
            ineq="rpl",
            multipliers=(
                ("B12", "alpha1", lambda t, q: 1 / (1 + t * q)),
                ("C12", "beta1", lambda t, q: 1 / (1 + t * q)),
                ("E1", "lambda1", lambda t, q: t * q / (1 + t * q)),
                ("E2", "lambda2", lambda t, q: t * q / (1 + t * q)),
            ),
            rho=lambda t, q: (1 - t * q) / (1 + t * q),
            remainder_coeff=lambda t, q: (t - 1) / (2 * (1 + t * q)),
            remainder_weights=lambda t, q: {"g1": 1, "g2": -1},
            interval=(0.0, 1.0, False, True),
            check_kind="inequality-chain",
        )
    )

    cat.append(
        _certificate(
            case_id="Thm4.2-case2",
            fn_class="convex",
            ineq="rpl",
            multipliers=(
                ("B12", "alpha1", lambda t, q: 1 / (-t + t * q + 2)),
                ("B21", "alpha2", lambda t, q: (t - 1) / (-t + t * q + 2)),
                ("C12", "beta1", lambda t, q: (-t + 2) / (-t + t * q + 2)),
                ("E1", "lambda1", lambda t, q: t * q * (-2 * t + 3) / (-t + t * q + 2)),
                ("E2", "lambda2", lambda t, q: t * q / (-t + t * q + 2)),
            ),
            rho=lambda t, q: (2 * t**2 * q - t - 3 * t * q + 2) / (-t + t * q + 2),
            remainder_coeff=None,
            remainder_weights=None,
            interval=(1.0, 1.5, False, True),
            check_kind="inequality-chain",
        )
    )

    cat.append(
        _large_step(
            "Thm4.2-case3", "convex", "rpl", ("B12", "B21", "C12", "E2"),
            lambda t, q: (3 - 2 * t) / (2 * _den_large(t, q)),
            1.5, "inequality-chain",
        )
    )

    return cat


_CATALOG = {c.case_id: c for c in certificate_catalog()}


def certificate_for(case_id: str) -> Certificate:
    try:
        return _CATALOG[case_id]
    except KeyError:
        raise DomainError(f"unknown certificate case {case_id!r}") from None


# ---------------------------------------------------------------------------
# verification


@dataclass
class CertificateCheck:
    """Verification report for one case over one gamma (or a gamma grid)."""

    case_id: str
    check_kind: str
    gamma: np.ndarray
    multipliers: dict
    min_multiplier: float
    identity_residual: float  # relative to the largest term in the sum
    remainder_coefficient: object  # per gamma (a number on one point); Fraction in exact mode
    remainder_max_eigenvalue: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_certificate(cert: Certificate, L, mu, gamma, exact: bool = False) -> CertificateCheck:
    """Check one certificate at (L, mu) over a gamma point or grid.

    The parameters are converted once, to Fractions in exact mode (binary
    floats are exact rationals) and to floats otherwise, and every check
    is decided per gamma at (1, mu/L, L*gamma) in that arithmetic:
    multipliers >= -tol, relative identity residual <= tol, remainder
    coefficient <= tol and remainder eigenvalue <= tol, with tol = 0 in
    exact mode and the module constants in float mode. Each failure names
    the first failing gamma. Interval membership is decided on L*gamma in
    floating point; a closed endpoint computed in floating point can lie
    just outside the interval, where exact mode sees the certificate fail,
    and `interval_grid` keeps its points inside. A NaN fails every check.
    Requires finite L > 0 and mu > 0 with a finite, nonzero float mu/L.
    """
    if not (0 < L < math.inf and 0 < mu < math.inf and 0 < float(mu) / float(L) < math.inf):
        raise DomainError(f"L, mu and mu/L must be positive and finite, got L={float(L)!r}, mu={float(mu)!r}")
    gamma_arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    inside = cert.gamma_in_interval(L, gamma_arr)
    if not np.all(inside):
        bad = gamma_arr[~inside]
        raise DomainError(f"gamma {float(bad[0])!r} outside interval of {cert.case_id}")

    if exact:
        num, dtype, mult_tol, identity_tol, eig_tol = Fraction, object, 0, 0, 0
    else:
        num, dtype, mult_tol, identity_tol, eig_tol = float, float, MULTIPLIER_TOL, IDENTITY_TOL, EIGENVALUE_TOL
    Lx = num(float(L))
    q = num(float(mu)) / Lx
    # float mode: the same IEEE products as one per point
    t = np.array([Lx * num(g) for g in gamma_arr], dtype=dtype) if exact else Lx * gamma_arr
    if not np.ndim(gamma):
        t = num(t[0])

    def per_gamma(value):
        return np.broadcast_to(np.asarray(value, dtype=dtype), gamma_arr.shape)

    failures = []

    def check(bad, message):
        if bad.any():
            failures.append(f"{message} at gamma={float(gamma_arr[bad.argmax()])!r}")

    raw = [formula(1, q, t) for _cname, _label, formula in cert.multipliers]
    values = np.stack([per_gamma(m) for m in raw])
    combo = cert.weighted_combination(t, q, raw)
    remainder = cert.remainder_expression(t, q)
    coeff = per_gamma(num(0) if cert.remainder_coeff is None else cert.remainder_coeff(t, q))
    mults = {
        label: row.astype(float) if row.size > 1 else float(row[0])
        for (_cname, label, _formula), row in zip(cert.multipliers, values)
    }
    min_mult = float(values.astype(float).min())

    # a NaN compares false and so fails; on an object array the comparison
    # would also raise the floating-point invalid flag
    with np.errstate(invalid="ignore"):
        check(~(values >= -mult_tol).all(0), f"negative multiplier {min_mult:.3e}")

        rel = (combo - remainder).max_abs()
        if np.any(rel):  # relative to the largest term; a zero residual stays zero
            rel = rel / np.maximum(np.maximum(combo.max_abs(), remainder.max_abs()), 1)
        rel = per_gamma(rel)
        rel_residual = float(rel.max())
        check(~(rel <= identity_tol), f"identity residual {rel_residual:.3e} exceeds {identity_tol:.1e}")

    check(~(coeff <= eig_tol), f"remainder coefficient positive: {float(coeff.max()):.3e}")
    # the remainder is coeff * w w^T, one explicit square: its eigenvalues
    # are 0 and trace = coeff * ||w||^2
    trace = per_gamma(np.trace(remainder.Q, axis1=-2, axis2=-1))
    max_eig = float(max(0, trace.max()))
    check(~(trace <= eig_tol), f"remainder not negative semidefinite: max eig {float(trace.max()):.3e}")

    return CertificateCheck(
        case_id=cert.case_id,
        check_kind=cert.check_kind,
        gamma=gamma_arr,
        multipliers=mults,
        min_multiplier=min_mult,
        identity_residual=rel_residual,
        remainder_coefficient=num(coeff[0]) if coeff.size == 1 else np.array(coeff),
        remainder_max_eigenvalue=max_eig,
        failures=failures,
    )


@dataclass
class SweepSummary:
    case_id: str
    n_points: int
    worst_identity_residual: float
    min_multiplier: float
    max_remainder_eigenvalue: float


def sweep_verify(case_id: str, L, mu, gamma_grid) -> SweepSummary:
    """verify_certificate across a grid; raises naming the first failing point."""
    cert = certificate_for(case_id)
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.size == 0:
        return SweepSummary(case_id, 0, 0.0, np.inf, -np.inf)
    check = verify_certificate(cert, L, mu, grid)
    if not check.ok:
        raise VerificationError(f"{case_id} fails: {'; '.join(check.failures)}")
    return SweepSummary(
        case_id=case_id,
        n_points=int(grid.size),
        worst_identity_residual=check.identity_residual,
        min_multiplier=check.min_multiplier,
        max_remainder_eigenvalue=check.remainder_max_eigenvalue,
    )


def interval_grid(cert: Certificate, L: float, n: int) -> np.ndarray:
    """n >= 1 gammas spanning the case interval at L > 0, shrunk by
    GRID_MARGIN at open endpoints. A closed endpoint is moved one ulp
    inward: its float value can round to just outside the interval, where
    exact arithmetic sees the certificate fail. L must leave 2/L finite."""
    if not (L > 0 and 2.0 / float(L) < math.inf and n >= 1):
        raise DomainError(f"interval grid needs L > 0 with 2/L finite and n >= 1, got L={float(L)!r}, n={n!r}")
    lo, hi, lo_closed, hi_closed = cert.interval
    lo, hi = lo / L, hi / L
    span = hi - lo
    a = np.nextafter(lo, hi) if lo_closed and lo > 0 else lo + GRID_MARGIN * span
    b = np.nextafter(hi, lo) if hi_closed else hi - GRID_MARGIN * span
    return np.linspace(a, b, n)

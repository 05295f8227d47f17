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
computes its Q and c directly, in exact arithmetic at L = 1.
A certificate stores the closed-form multipliers and the expected
remainder; verification checks, per gamma,

    objective - rho*gap - sum(multiplier_i * constraint_i) == remainder,

multiplier nonnegativity, and nonpositivity of the remainder form.
Dividing f and h by L scales every constraint and both gaps by 1/L, so
the formulas are rational in (t, q) = (L*gamma, mu/L) and verification
runs at L = 1. So the identity is one of rational functions, proved once
per certificate: its combination and remainder are evaluated on the
symbols t and q, and each entry of their difference must have a zero
numerator. This assumes a formula computes the same rational function on
symbols as on Fractions: one that branches on its argument's type is
proved on the branch symbols take. Each certificate is analysed once, in
one cached pass (`_integer_forms`): its formulas run on symbols, the
identity is proved from them, and a proved certificate keeps them as
integer num/den polynomials. Exact mode decides the identity by the
proof, and at each point of a proved certificate it evaluates those
polynomials at t = a/A and q = c/C, so every sign is an integer sign
test; an unproved certificate is decided on the formulas' Fraction
values. On both paths a point at a formula's pole raises
ZeroDivisionError. Every certificate has a remainder square;
Thm4.2-case2's is empty, a zero coefficient on no weights.

Everything else reads per-constraint coefficient tables, not the Gram
algebra. At L = 1 every operand is affine in t (x2 = -t*(g1 + s2)), each
definition is at most bilinear in its operands, and mu enters only as
1/(2*mu) on a t-free square, so every entry of a constraint's Q and c is
a polynomial of degree <= 2 in t and <= 1 in u = 1/q. `_table` reads
those coefficients off the definition evaluated once on the symbols t
and u, lazily and once per process, and refuses any other monomial. A
constraint at any (L, mu, gamma) and a combination are accumulated from
nonzero coefficients only, in one loop over float arrays or Fractions.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import math

import numpy as np

from .errors import DomainError, VerificationError, check_modulus, check_parameters
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
    return any(isinstance(v, (Fraction, _RationalFunction)) for v in values)


# an expression's entries, first axis: Q's upper triangle row by row
# (Q00, Q01, Q02, Q11, Q12, Q22), then c (f2, h1, h2)
_UPPER = np.triu_indices(_NV)
_NQ = len(_UPPER[0])
_NE = _NQ + _NS
_F2, _H1, _H2 = range(_NQ, _NE)
_Q_ENTRY = np.empty((_NV, _NV), dtype=int)  # the entry holding Q[i, j]
_Q_ENTRY[_UPPER] = _Q_ENTRY[_UPPER[::-1]] = range(_NQ)


class GramExpression:
    """Quadratic-plus-linear expression over the fixed symbol bases.

    Stored as one array `a` of shape (9, *batch): the free entries of the
    symmetric Q over VECTOR_SYMBOLS (its upper triangle, row by row), then
    c over SCALAR_SYMBOLS, with the batch axes (a parameter grid) last.
    Entries first, a reduction over an expression is one reduction over
    axis 0, and no mirrored entry is computed or stored twice. Q is read
    as (..., 3, 3) and c as (..., 3), batch axes first; the constructor
    takes them in that form, and a nonsymmetric Q stands for its
    symmetric part. Expressions add and subtract, broadcasting their
    batch axes, and multiply or divide by a scalar weight. dtype=object
    carries exact Fractions through the same code paths.
    """

    __slots__ = ("a",)
    __array_ufunc__ = None  # numpy scalars and arrays defer to __rmul__

    def __init__(self, Q, c):
        Q, c = np.asarray(Q), np.asarray(c)
        batch = np.broadcast_shapes(Q.shape[:-2], c.shape[:-1])
        upper = (Q[..., _UPPER[0], _UPPER[1]] + Q[..., _UPPER[1], _UPPER[0]]) / 2
        entries = [np.broadcast_to(x, batch + x.shape[-1:]) for x in (upper, c)]
        self.a = np.moveaxis(np.concatenate(entries, -1), -1, 0)

    @classmethod
    def _of(cls, a):
        """The expression with entry array `a`, of shape (9, *batch)."""
        expr = cls.__new__(cls)
        expr.a = a
        return expr

    @property
    def Q(self):
        """Q as a (..., 3, 3) symmetric array, batch axes first; a copy."""
        return np.moveaxis(self.a[_Q_ENTRY], (0, 1), (-2, -1))

    @property
    def c(self):
        """c as a (..., 3) array, batch axes first; a copy."""
        return np.moveaxis(self.a[[_F2, _H1, _H2]], 0, -1)

    def _pair(self, other):
        """Both entry arrays, padded to one rank so that their batch axes align."""
        a, b = self.a, other.a
        return a.reshape(a.shape + (1,) * (b.ndim - a.ndim)), b.reshape(b.shape + (1,) * (a.ndim - b.ndim))

    def __add__(self, other):
        a, b = self._pair(other)
        return GramExpression._of(a + b)

    def __sub__(self, other):
        a, b = self._pair(other)
        return GramExpression._of(a - b)

    def __rmul__(self, w):
        return GramExpression._of(w * self.a)

    def __truediv__(self, d):
        return GramExpression._of(self.a / d)

    def evaluate(self, gram, scalars):
        """Value on a concrete Gram matrix and scalar assignment."""
        gram = np.asarray(gram)
        scalars = np.asarray(scalars)
        return (self.Q * gram).sum((-1, -2)) + (self.c * scalars).sum(-1)

    def max_abs(self):
        """Largest coefficient magnitude, per batch point."""
        return np.abs(self.a).max(0)

    def trace(self):
        """Trace of Q, per batch point."""
        return self.a[np.diag(_Q_ENTRY)].sum(0)


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
        return GramExpression(np.outer(self.a, other.a), _ZERO.c)


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
# exact rational functions of two symbols


_ONE = {(0, 0): 1}  # a polynomial: {(i, j): coefficient of x^i y^j}, no zeros


def _poly(terms) -> dict:
    """The polynomial summing these ((i, j), coefficient) terms."""
    out = {}
    for m, c in terms:
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _mul(a: dict, b: dict) -> dict:
    return _poly(((i + k, j + l), x * y) for (i, j), x in a.items() for (k, l), y in b.items())


def _quotient(a: dict, b: dict) -> Optional[dict]:
    """a / b if b, monic in its largest monomial, divides a; else None."""
    if a == b:
        return _ONE
    quotient, (bi, bj) = {}, max(b)
    while a:
        (i, j), c = max(a.items())
        if i < bi or j < bj:
            return None
        quotient[i - bi, j - bj] = c
        a = _poly([*a.items(), *_mul(b, {(i - bi, j - bj): -c}).items()])
    return quotient


def _lift(x) -> Optional[_RationalFunction]:
    """x as a rational function, a float read exactly; None for a non-number."""
    if isinstance(x, (int, float, Fraction)):
        x = Fraction(x) if isinstance(x, float) else x  # NaN and infinity raise
        return _RationalFunction({(0, 0): x} if x else {})
    return x if isinstance(x, _RationalFunction) else None


def _binary(op):
    def method(self, other):
        other = _lift(other)
        return NotImplemented if other is None else op(self, other)
    return method


class _RationalFunction:
    """An exact rational function num/den of two symbols: polynomials with
    int or Fraction coefficients, den monic in its largest monomial, under
    + - * / with ints, Fractions and floats (`_lift`; NaN and infinity
    raise) and nonnegative integer powers. A sum keeps a denominator that
    the other divides, nothing else cancels, and zero is an empty num."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict = _ONE):
        lead = den[max(den)]
        if lead != 1:
            num, den = ({m: c / Fraction(lead) for m, c in p.items()} for p in (num, den))
        self.num, self.den = num, den

    @_binary
    def __add__(self, other):
        x, y = (self.num, self.den), (other.num, other.den)
        for (a, b), (c, d) in ((x, y), (y, x)):
            k = _quotient(b, d)  # a/b + c/d = (a + c*k)/b when b = k*d
            if k is not None:
                return _RationalFunction(_poly([*a.items(), *_mul(c, k).items()]), b)
        return _RationalFunction(_poly([*_mul(a, d).items(), *_mul(c, b).items()]), _mul(b, d))

    @_binary
    def __mul__(self, other):
        return _RationalFunction(_mul(self.num, other.num), _mul(self.den, other.den))

    @_binary
    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by the zero function")
        return _RationalFunction(_mul(self.num, other.den), _mul(self.den, other.num))

    __radd__, __rmul__ = __add__, __mul__
    __sub__ = _binary(lambda self, other: self + -other)
    __rsub__ = _binary(lambda self, other: other + -self)
    __rtruediv__ = _binary(lambda self, other: other / self)

    def __neg__(self):
        return self * -1

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            return NotImplemented
        return self ** (n - 1) * self if n else _RationalFunction(_ONE)


_T, _Q = _RationalFunction({(1, 0): 1}), _RationalFunction({(0, 1): 1})  # t; q, or u = 1/q in a table


# ---------------------------------------------------------------------------
# coefficient tables

def _expression(entries, t, q, exact) -> GramExpression:
    """The expression with these _NE entries, each a number or an array
    on the broadcast shape of (t, q)."""
    a = np.empty((_NE,) + np.broadcast_shapes(np.shape(t), np.shape(q)), dtype=object if exact else float)
    for e, value in enumerate(entries):
        a[e] = value
    return GramExpression._of(a)


def _features(t, u):
    """The monomials a table's coefficients multiply, with u = 1/q; a
    float u must be finite (it overflows at a subnormal q), an exact one
    need not."""
    if np.asarray(u).dtype == float and not np.isfinite(u).all():
        raise DomainError("L/mu overflows in floating point: mu/L is too small for float tables")
    t2 = t * t
    return (1, t, t2, u, t * u, t2 * u)


@functools.cache
def _table(name: str, exact: bool) -> tuple:
    """Constraint `name` at L = 1 as (feature, ((entry, coefficient), ...))
    rows, indexing `_features` and the _NE entries, nonzero coefficients
    only: Fractions in exact mode, and their floats otherwise. They are
    read off the definition (`_definition`) evaluated on the symbols t and
    u = 1/q, and a term outside `_features` raises VerificationError."""
    if not exact:
        return tuple((f, tuple((e, float(c)) for e, c in row)) for f, row in _table(name, True))
    feature = {m: f for f, x in enumerate(_features(_T, _Q)) for m in _lift(x).num}
    rows = [[] for _ in feature]
    for e, x in enumerate(_definition(name, 1 / _Q, _T).a):
        x = _lift(x)
        if x.den != _ONE or not x.num.keys() <= feature.keys():
            raise VerificationError(f"constraint {name} is not of degree <= 2 in t and <= 1 in 1/q")
        for m, c in x.num.items():
            rows[feature[m]].append((e, Fraction(c)))
    return tuple((f, tuple(row)) for f, row in enumerate(rows) if row)


def _accumulate(entries, terms, features, exact) -> list:
    """entries + sum(m * table) over the (constraint name, m) terms, the
    tables read at `features`; updates and returns the list. Floats read
    the float tables, and Fractions and symbols the exact ones."""
    for name, m in terms:
        for f, row in _table(name, exact):
            mf = m * features[f]
            for e, coeff in row:
                entries[e] = entries[e] + coeff * mf
    return entries


def build_constraint(name: str, L, mu, gamma) -> GramExpression:
    """Named constraint as a Gram expression, read off its table at
    (t, u) = (L*gamma, L/mu): dividing f and h by L scales Q by 1/L and
    leaves c as it is. Fraction parameters give Fraction entries, with
    every parameter read as a Fraction, and others floats; array
    parameters give leading batch axes."""
    if name not in _CONSTRAINTS:
        raise DomainError(f"unknown constraint name {name!r}")
    exact = _is_exact(L, mu, gamma)
    if exact:
        L, mu, gamma = map(np.frompyfunc(Fraction, 1, 1), (L, mu, gamma))
    else:
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
    # remainder = coeff * ||sum_w w_sym * sym||^2, both formulas in (t, q)
    remainder_coeff: Callable
    remainder_weights: Callable
    interval: tuple  # (lo, hi, lo_closed, hi_closed) in t
    check_kind: str  # "equality" | "inequality-chain"

    def contains(self, L, gamma):
        """The case-membership rule: gamma compared with lo/L and hi/L in
        floating point, with no tolerance. A float gamma gives a bool, an
        array an array; `rates.rate_formula` picks its case by this rule."""
        lo, hi, lo_closed, hi_closed = self.interval
        above = gamma >= lo / L if lo_closed else gamma > lo / L
        return above & (gamma <= hi / L if hi_closed else gamma < hi / L)

    def gamma_in_interval(self, L, gamma) -> np.ndarray:
        return self.contains(float(L), np.asarray(gamma, dtype=float))

    def remainder_expression(self, t, q, coeff=None, weights=None) -> GramExpression:
        """coeff * ||w||^2 with w = sum of weight * vector symbol, written
        entry by entry as coeff * w_i * w_j. `coeff` and `weights` are
        remainder_coeff(t, q) and remainder_weights(t, q), when known."""
        exact = _is_exact(t, q)
        entries = [Fraction(0) if exact else 0.0] * _NE
        coeff = self.remainder_coeff(t, q) if coeff is None else coeff
        weights = self.remainder_weights(t, q) if weights is None else weights
        for e, wij in _square(weights):
            entries[e] = coeff * wij
        return _expression(entries, t, q, exact)

    def weighted_combination(self, t, q, values=None, rho=None) -> GramExpression:
        """objective - rho*gap - sum(multiplier * constraint), at L = 1,
        accumulated over the constraints' coefficient tables. `values` (the
        multipliers at (1, q, t), in catalog order) and `rho` (the rate)
        are the formulas' values, when already known. Float scalars or
        arrays give float entries; Fractions and symbols exact ones."""
        exact = _is_exact(t, q)
        if values is None:
            values = [formula(1, q, t) for _cname, _label, formula in self.multipliers]
        rho = self.rate(1, q, t) if rho is None else rho
        entries = [Fraction(0) if exact else 0.0] * _NE
        entries[_F2] = entries[_H2] = entries[_F2] + 1
        entries[_H1] = -rho
        # IEEE negation is exact: adding coeff * (-m * x) is subtracting coeff * (m * x)
        terms = [(cname, -m) for (cname, _label, _formula), m in zip(self.multipliers, values)]
        return _expression(_accumulate(entries, terms, _features(t, 1 / q), exact), t, q, exact)


def _square(weights) -> list:
    """(entry, w_i * w_j) for the entries of Q's upper triangle in
    ||sum_i w_i * symbol_i||^2, weights given as {symbol name: w_i}."""
    w = [(VECTOR_SYMBOLS.index(name), weight) for name, weight in weights.items()]
    return [(_Q_ENTRY[i, j], wi * wj) for (i, wi), (j, wj) in itertools.combinations_with_replacement(w, 2)]


def _certificate(multipliers, rho, **fields) -> Certificate:
    """A Certificate from multiplier and rate formulas written in (t, q)."""
    def scale_free(f):
        # verification calls at L = 1, where L*gamma and mu/L are no-ops
        return lambda L, mu, gamma: f(gamma, mu) if L == 1 else f(L * gamma, mu / L)

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


# the eight theorem-case certificates, in theorem order, each built once
_CERTIFICATES = (
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
    ),
    _large_step(
        "Thm3.1-case2", "nonconvex", "pl", ("A12", "A21", "C12", "D2"),
        lambda t, q: (3 - t**2) / (4 * _den_large(t, q)),
        _SQRT3, "equality",
    ),
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
    ),
    _large_step(
        "Thm3.2-case2", "convex", "pl", ("B12", "B21", "C12", "D2"),
        lambda t, q: (3 - 2 * t) / (2 * _den_large(t, q)),
        1.5, "equality",
    ),
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
    ),
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
    ),
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
        # an empty square; 0*t carries t's number type
        remainder_coeff=lambda t, q: 0 * t,
        remainder_weights=lambda t, q: {},
        interval=(1.0, 1.5, False, True),
        check_kind="inequality-chain",
    ),
    _large_step(
        "Thm4.2-case3", "convex", "rpl", ("B12", "B21", "C12", "E2"),
        lambda t, q: (3 - 2 * t) / (2 * _den_large(t, q)),
        1.5, "inequality-chain",
    ),
)
_CATALOG = {c.case_id: c for c in _CERTIFICATES}


def certificate_catalog() -> list[Certificate]:
    """All eight theorem-case certificates, in theorem order: a new list of
    the one set of objects that `certificate_for` and `rates.CASES` hold."""
    return list(_CERTIFICATES)


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


def _rational(value) -> Optional[Fraction]:
    """value as a Fraction, a float converted exactly; None for NaN or infinity."""
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (ValueError, OverflowError):
        return None


@functools.cache
def _integer_forms(cert: Certificate) -> Optional[tuple]:
    """The one analysis of a certificate, None when it is not proved. Its
    formulas run once on the symbols t and q, as _RationalFunctions; one
    that cannot (math.sqrt, a comparison) or gives a non-number is not
    proved. The identity holds for every (t, q) when the combination minus
    the remainder built from them has a zero numerator in each of the nine
    entries, and then their integer forms are (dt, dq, rows, then (num,
    den) row indices per multiplier, for the rate, the remainder
    coefficient and its trace coeff*||w||^2). Each num and den is scaled
    to integer coefficients and lifted to the largest degrees dt in t and
    dq in q, and the distinct ones are the rows: row[i*(dq + 1) + j]
    multiplies t^i q^j. So at t = a/A and q = c/C a row's dot product with
    the monomials a^i A^(dt-i) c^j C^(dq-j) is its value times
    A^dt C^dq > 0, one factor that every ratio cancels and no sign sees."""
    try:
        values = [_lift(formula(1, _Q, _T)) for _cname, _label, formula in cert.multipliers]
        rho, coeff = _lift(cert.rate(1, _Q, _T)), _lift(cert.remainder_coeff(_T, _Q))
        weights = {name: _lift(w) for name, w in cert.remainder_weights(_T, _Q).items()}
        if None in (*values, rho, coeff, *weights.values()):
            return None
        diff = cert.weighted_combination(_T, _Q, values, rho).a - cert.remainder_expression(_T, _Q, coeff, weights).a
        if any(_lift(x).num for x in diff):
            return None
    except (TypeError, ValueError, ArithmeticError):
        return None
    pairs = []
    for x in (*values, rho, coeff, coeff * sum(w * w for w in weights.values())):
        scale = math.lcm(*(Fraction(c).denominator for p in (x.num, x.den) for c in p.values()))
        pairs.append([{m: int(c * scale) for m, c in p.items()} for p in (x.num, x.den)])
    dt, dq = (max(m[k] for pair in pairs for p in pair for m in p) for k in (0, 1))
    rows = {}  # row -> its index, in first-seen order
    index = [
        tuple(rows.setdefault(tuple(p.get((i, j), 0) for i in range(dt + 1) for j in range(dq + 1)), len(rows)) for p in pair)
        for pair in pairs
    ]
    return (dt, dq, tuple(rows), index[: len(values)], *index[len(values) :])


def _proved(cert: Certificate) -> bool:
    """Whether the certificate's identity holds for every (t, q)."""
    return _integer_forms(cert) is not None


def _decide_integer(forms: tuple, q: Fraction, t: Fraction) -> tuple:
    """`_decide_exact` at one point from a proved certificate's integer
    forms: each sign is an integer sign test, each float one correctly
    rounded int division (the bits of float(Fraction)), and the remainder
    coefficient the one Fraction built. A pole of a formula raises
    ZeroDivisionError, as the Fraction path does."""
    dt, dq, rows, multipliers, rate, (cn, cd), (tn, td) = forms
    a, A, c, C = t.numerator, t.denominator, q.numerator, q.denominator
    tp = [a**i * A ** (dt - i) for i in range(dt + 1)]
    qp = [c**j * C ** (dq - j) for j in range(dq + 1)]
    monomials = [x * y for x in tp for y in qp]
    v = [sum(map(operator.mul, row, monomials)) for row in rows]
    if not all(v[d] for _n, d in (*multipliers, rate, (cn, cd), (tn, td))):
        raise ZeroDivisionError("a certificate formula has a pole at this point")

    def ratio(n, d):  # the rational's float; a zero is +0.0, as float(Fraction(0))
        return v[n] / v[d] if v[n] else 0.0

    floats = [ratio(n, d) for n, d in multipliers]
    mult_bad = any(v[n] * v[d] < 0 for n, d in multipliers)
    return floats, mult_bad, 0.0, False, Fraction(v[cn], v[cd]), v[cn] * v[cd] > 0, ratio(tn, td), v[tn] * v[td] > 0


def _decide_exact(cert: Certificate, q: Fraction, t: Fraction) -> tuple:
    """One point of an exact check, at (1, q, t). Returns the multipliers
    as floats, then each check's reported value and whether it fails:
    (floats, multiplier fails, residual, identity fails, remainder
    coefficient, coefficient fails, trace, trace fails). A proved
    certificate is decided on its formulas' integer forms
    (`_decide_integer`), an unproved one on the formulas' Fraction values
    (`_decide_fraction`); on both paths a pole raises ZeroDivisionError."""
    forms = _integer_forms(cert)
    return _decide_fraction(cert, q, t) if forms is None else _decide_integer(forms, q, t)


def _decide_fraction(cert: Certificate, q: Fraction, t: Fraction) -> tuple:
    """`_decide_exact` on the formulas' Fraction values at the point: each
    sign is decided on them, and the identity holds iff the certificate
    is proved and those values are rational, else the point's exact
    residual is reported as a float; a NaN or infinite value fails each
    check that reads it."""
    raw = [formula(1, q, t) for _cname, _label, formula in cert.multipliers]
    m = [_rational(v) for v in raw]
    rho = _rational(cert.rate(1, q, t))
    coeff = cert.remainder_coeff(t, q)
    weights = {name: _rational(w) for name, w in cert.remainder_weights(t, q).items()}
    c = _rational(coeff)
    rel, identity_bad, trace, trace_bad = math.nan, True, math.nan, True
    if c is not None and None not in weights.values():
        trace = c * sum(w * w for w in weights.values())  # coeff * ||w||^2
        trace, trace_bad = float(trace), trace > 0
        if rho is not None and None not in m:
            rel, identity_bad = 0.0, not _proved(cert)
            if identity_bad:  # relative to the largest term, as a float once
                combo = cert.weighted_combination(t, q, m, rho).a
                rem = cert.remainder_expression(t, q, c, weights).a
                rel = float(np.abs(combo - rem).max() / max(np.abs(np.concatenate([combo, rem])).max(), 1))
    mult_bad = any(v is None or v < 0 for v in m)
    coeff_bad = c is None or c > 0
    return [float(v) for v in raw], mult_bad, rel, identity_bad, coeff if c is None else c, coeff_bad, trace, trace_bad


def verify_certificate(cert: Certificate, L, mu, gamma, exact: bool = False) -> CertificateCheck:
    """Check one certificate at (L, mu) over a gamma point or grid.

    Every check is decided per gamma at (1, mu/L, L*gamma): multipliers
    >= -tol, relative identity residual <= tol, remainder coefficient <=
    tol and remainder eigenvalue <= tol. Float mode converts the
    parameters to floats once and checks a grid in arrays, with the module
    constants as tol. Exact mode converts them to Fractions (binary floats
    are exact rationals) and checks one point at a time with tol = 0
    (`_decide_exact`): the identity is decided once for every (t, q) on
    symbols, and the signs and reported values of a proved certificate
    come from its formulas' integer forms at the point. An unproved
    certificate is decided on the formulas' Fraction values and reports
    the float of the point's exact residual. Each failure names
    the first failing gamma. Interval membership is `Certificate.contains`,
    the rule `rates.rate_formula` picks its case by, so every gamma that
    `rate_formula` assigns to a case verifies against it. A point inside
    by that float rule can still have an exact t = L*gamma just outside
    the interval, where exact mode sees the certificate fail;
    `interval_grid` keeps its points inside. A NaN fails every check
    that reads it. (L, mu) must lie in `check_parameters`' domain, with
    mu <= L, and gamma must hold a point; float mode also needs a finite
    float L/mu (`_features`).
    """
    check_parameters(L, mu)
    check_modulus(L, mu)
    gamma_arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    if not gamma_arr.size:
        raise DomainError(f"no gamma to check for {cert.case_id}")
    inside = cert.gamma_in_interval(L, gamma_arr)
    if not np.all(inside):
        bad = gamma_arr[~inside]
        raise DomainError(f"gamma {float(bad[0])!r} outside interval of {cert.case_id}")

    if exact:
        identity_tol = 0
        Lx = Fraction(float(L))
        q = Fraction(float(mu)) / Lx
        points = [_decide_exact(cert, q, Lx * Fraction(g)) for g in gamma_arr.tolist()]
        floats, mult_bad, rel, rel_bad, coeff, coeff_bad, trace, trace_bad = map(np.array, zip(*points))
        floats = floats.T
    else:
        identity_tol = IDENTITY_TOL
        Lx = float(L)
        q = float(mu) / Lx
        # the same IEEE products as one per point
        t = Lx * gamma_arr
        if not np.ndim(gamma):
            t = float(t[0])

        def per_gamma(value):
            if np.shape(value) == gamma_arr.shape:
                return value
            return np.broadcast_to(np.asarray(value, dtype=float), gamma_arr.shape)

        raw = [formula(1, q, t) for _cname, _label, formula in cert.multipliers]
        values = np.stack([per_gamma(m) for m in raw])
        floats = values.astype(float)
        raw_coeff = cert.remainder_coeff(t, q)
        coeff = per_gamma(raw_coeff)
        # a NaN compares false and so fails; an infinite multiplier makes
        # inf - inf in the combination
        with np.errstate(invalid="ignore"):
            combo = cert.weighted_combination(t, q, raw)
            remainder = cert.remainder_expression(t, q, raw_coeff)
            mult_bad = ~(values >= -MULTIPLIER_TOL).all(0)
            rel = 0.0  # relative to the largest term; a zero residual stays zero
            diff = combo.a - remainder.a
            if np.any(diff):
                rel = np.abs(diff).max(0) / np.maximum(np.maximum(combo.max_abs(), remainder.max_abs()), 1)
            rel = per_gamma(rel)
            rel_bad = ~(rel <= IDENTITY_TOL)
        coeff_bad = ~(coeff <= EIGENVALUE_TOL)
        # the remainder is coeff * w w^T, one explicit square: its eigenvalues
        # are 0 and trace = coeff * ||w||^2
        trace = per_gamma(remainder.trace())
        trace_bad = ~(trace <= EIGENVALUE_TOL)

    failures = []

    def check(bad, message):
        if bad.any():
            failures.append(f"{message} at gamma={float(gamma_arr[bad.argmax()])!r}")

    mults = {
        label: row if row.size > 1 else float(row[0])
        for (_cname, label, _formula), row in zip(cert.multipliers, floats)
    }
    min_mult = float(floats.min())
    rel_residual = float(rel.max())
    check(mult_bad, f"negative multiplier {min_mult:.3e}")
    check(rel_bad, f"identity residual {rel_residual:.3e} exceeds {identity_tol:.1e}")
    check(coeff_bad, f"remainder coefficient positive: {float(coeff.max()):.3e}")
    max_eig = float(max(0, trace.max()))
    check(trace_bad, f"remainder not negative semidefinite: max eig {float(trace.max()):.3e}")

    return CertificateCheck(
        case_id=cert.case_id,
        check_kind=cert.check_kind,
        gamma=gamma_arr,
        multipliers=mults,
        min_multiplier=min_mult,
        identity_residual=rel_residual,
        remainder_coefficient=coeff.item(0) if coeff.size == 1 else np.array(coeff),
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
    """n >= 1 gammas spanning the case interval at L (`check_parameters`),
    shrunk by GRID_MARGIN at open endpoints. A closed endpoint is moved one
    ulp inward: its float value can round to just outside the interval,
    where exact arithmetic sees the certificate fail."""
    check_parameters(L)
    if not n >= 1:
        raise DomainError(f"interval grid needs n >= 1, got n={n!r}")
    lo, hi, lo_closed, hi_closed = cert.interval
    lo, hi = lo / L, hi / L
    span = hi - lo
    a = np.nextafter(lo, hi) if lo_closed and lo > 0 else lo + GRID_MARGIN * span
    b = np.nextafter(hi, lo) if hi_closed else hi - GRID_MARGIN * span
    return np.linspace(a, b, n)

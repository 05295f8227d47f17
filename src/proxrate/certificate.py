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
constraint at any (L, mu, gamma) and a combination are one contraction
of their tables' cached dense array with the value * feature products
(`_accumulate`), on float arrays, Fractions or symbols alike.
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
_DIAGONAL = np.diag(_Q_ENTRY)


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
        return self.a[_DIAGONAL].sum(0)


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

def _rows(rows, shape, exact) -> np.ndarray:
    """These numbers or arrays, each broadcast to `shape`, as one array's rows."""
    a = np.empty((len(rows),) + shape, dtype=object if exact else float)
    for i, row in enumerate(rows):
        a[i] = row
    return a


def _features(t, u):
    """The monomials a table's coefficients multiply, with u = 1/q; a
    float u must be finite (it overflows at a subnormal q), an exact one
    need not."""
    if np.asarray(u).dtype == float and not np.isfinite(u).all():
        raise DomainError("L/mu overflows in floating point: mu/L is too small for float tables")
    t2 = t * t
    return (1, t, t2, u, t * u, t2 * u)


@functools.cache
def _table(name: str) -> tuple:
    """Constraint `name` at L = 1 as (feature, ((entry, coefficient), ...))
    rows, indexing `_features` and the _NE entries, nonzero Fraction
    coefficients only. They are read off the definition (`_definition`)
    evaluated on the symbols t and u = 1/q, and a term outside `_features`
    raises VerificationError."""
    feature = {m: f for f, x in enumerate(_features(_T, _Q)) for m in _lift(x).num}
    rows = [[] for _ in feature]
    for e, x in enumerate(_definition(name, 1 / _Q, _T).a):
        x = _lift(x)
        if x.den != _ONE or not x.num.keys() <= feature.keys():
            raise VerificationError(f"constraint {name} is not of degree <= 2 in t and <= 1 in 1/q")
        for m, c in x.num.items():
            rows[feature[m]].append((e, Fraction(c)))
    return tuple((f, tuple(row)) for f, row in enumerate(rows) if row)


# the objective's tables on the feature 1, f2 + h2 and -h1
_OBJECTIVE = {"f2+h2": ((0, ((_F2, 1), (_H2, 1))),), "-h1": ((0, ((_H1, -1),)),)}


@functools.cache
def _dense(names: tuple, exact: bool) -> tuple:
    """The tables of the terms `names` (constraints or `_OBJECTIVE` parts)
    folded into one array: (columns, C), a column per table row, in table
    order, as its (term, feature) indices, and C of shape (_NE, columns)
    holding its coefficients, zeros elsewhere; Fractions in exact mode,
    and their floats otherwise."""
    rows = [(i, f, dict(row)) for i, name in enumerate(names) for f, row in _OBJECTIVE.get(name) or _table(name)]
    C = np.array([[row.get(e, 0) for _i, _f, row in rows] for e in range(_NE)], dtype=object if exact else float)
    return tuple((i, f) for i, f, _row in rows), C


def _accumulate(names: tuple, values, t, u, exact) -> np.ndarray:
    """sum(values[i] * table of names[i]) at the features of (t, u), as a
    (_NE, *batch) entry array over the broadcast shape of (t, u): one
    contraction of `_dense`'s array with the value * feature products."""
    columns, C = _dense(names, exact)
    features = _features(t, u)
    # the column axis is never contiguous, so at every batch shape einsum adds
    # the columns in order from zero: a point has the same bits as on a grid
    P = np.empty((len(columns), 2) + np.broadcast(t, u).shape, dtype=C.dtype)[:, 0]
    for k, (i, f) in enumerate(columns):
        np.multiply(values[i], features[f], out=P[k : k + 1])
    return np.einsum("ek,k...->e...", C, P)


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
    a = _accumulate((name,), [1], L * gamma, L / mu, exact)
    a[:_NQ] = a[:_NQ] / L
    return GramExpression._of(a)


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
        entry by entry as coeff * (w_i * w_j). `coeff` and `weights` are
        remainder_coeff(t, q) and remainder_weights(t, q), when known."""
        exact = _is_exact(t, q)
        zero = Fraction(0) if exact else 0.0
        coeff = self.remainder_coeff(t, q) if coeff is None else coeff
        weights = self.remainder_weights(t, q) if weights is None else weights
        shape = np.broadcast(t, q).shape
        w = _rows([weights.get(name, zero) for name in VECTOR_SYMBOLS], shape, exact)
        a = np.full((_NE,) + shape, zero, dtype=w.dtype)
        a[:_NQ] = coeff * (w[_UPPER[0]] * w[_UPPER[1]])
        return GramExpression._of(a)

    def weighted_combination(self, t, q, values=None, rho=None) -> GramExpression:
        """objective - rho*gap - sum(multiplier * constraint), at L = 1, as
        one contraction of the tables (`_accumulate`). `values` (the
        multipliers at (1, q, t), in catalog order) and `rho` (the rate)
        are the formulas' values, when already known. Float scalars or
        arrays give float entries; Fractions and symbols exact ones."""
        if values is None:
            values = [formula(1, q, t) for _cname, _label, formula in self.multipliers]
        rho = self.rate(1, q, t) if rho is None else rho
        # IEEE negation is exact: adding coeff * (-m * x) is subtracting coeff * (m * x)
        names = ("f2+h2", "-h1", *(cname for cname, _label, _formula in self.multipliers))
        return GramExpression._of(_accumulate(names, [1, rho, *(-m for m in values)], t, 1 / q, _is_exact(t, q)))


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


def _formulas(cert: Certificate, t, q) -> tuple:
    """The certificate's formulas at (1, q, t): the multipliers in catalog
    order, the rate, the remainder coefficient and its weights."""
    values = [formula(1, q, t) for _cname, _label, formula in cert.multipliers]
    return values, cert.rate(1, q, t), cert.remainder_coeff(t, q), cert.remainder_weights(t, q)


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
        values, rho, coeff, weights = _formulas(cert, _T, _Q)
        values, rho, coeff = [_lift(v) for v in values], _lift(rho), _lift(coeff)
        weights = {name: _lift(w) for name, w in weights.items()}
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
    raw, rho, coeff, weights = _formulas(cert, t, q)
    m, rho, c = [_rational(v) for v in raw], _rational(rho), _rational(coeff)
    weights = {name: _rational(w) for name, w in weights.items()}
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
    tol and remainder eigenvalue <= tol; each reports its worst value and
    names its first failing gamma. Float mode checks a grid in float
    arrays with the module constants as tol, one reduction per check, and
    gives a point the same bits alone as on a grid. Exact mode refuses an
    L, mu or gamma that its float would round, and decides one point at a
    time in Python scalars with tol = 0 (`_decide_exact`). Membership is
    `Certificate.contains`, the rule `rates.rate_formula` picks its case
    by, so every gamma that `rate_formula` assigns to a case verifies
    against it. A point inside by that float rule can still have an exact
    t = L*gamma just outside, where exact mode sees the certificate fail;
    `interval_grid` keeps its points inside. A NaN fails every check that
    reads it. (L, mu) must lie in `check_parameters`' domain, with mu <= L,
    and gamma must hold a point; float mode also needs a finite float L/mu
    (`_features`).
    """
    check_parameters(L, mu)
    check_modulus(L, mu)
    if exact:  # one point makes no array but its report's
        gammas = [gamma] if isinstance(gamma, float) else np.ravel(gamma).tolist()
        for name, x in (("L", L), ("mu", mu), *(("gamma", g) for g in gammas)):
            if not (isinstance(x, float) or float(x) == x):
                raise DomainError(f"exact mode reads binary floats, and {name}={x!r} is not one")
        gammas = [float(g) for g in gammas]
        outside = [g for g in gammas if not cert.contains(float(L), g)]
    else:
        gammas = np.atleast_1d(np.asarray(gamma, dtype=float))
        outside = gammas[~cert.gamma_in_interval(L, gammas)]
    if not len(gammas):
        raise DomainError(f"no gamma to check for {cert.case_id}")
    if len(outside):
        raise DomainError(f"gamma {float(outside[0])!r} outside interval of {cert.case_id}")
    tol = 0 if exact else IDENTITY_TOL
    if exact:
        Lx = Fraction(float(L))
        q = Fraction(float(mu)) / Lx
        points = [_decide_exact(cert, q, Lx * Fraction(g)) for g in gammas]
        floats, mult_bad, rel, rel_bad, coeff, coeff_bad, trace, trace_bad = zip(*points)
        one = len(points) == 1
        mults = {label: m[0] if one else np.array(m) for (_cname, label, _formula), m in zip(cert.multipliers, zip(*floats))}
        worst = [_worst(min, itertools.chain(*floats)), _worst(max, rel), _worst(max, coeff), _worst(max, trace)]
        first = [bad.index(True) if True in bad else None for bad in (mult_bad, rel_bad, coeff_bad, trace_bad)]
        gammas = np.array(gammas)
        coefficient = coeff[0] if one else np.array(coeff)
    else:
        q = float(mu) / float(L)
        t = float(L) * gammas
        # one point's formulas run on an array, as a grid's: on a float, x**2
        # is C's pow, which can round otherwise than numpy's x*x
        try:  # a formula that takes only floats runs on no grid, but on one float
            raw, rho, coeff, weights = _formulas(cert, t, q)
        except TypeError:
            if t.size > 1:
                raise
            raw, rho, coeff, weights = _formulas(cert, float(t[0]), q)
        coeff = _rows([coeff], t.shape, False)[0]
        # a NaN compares false and so fails; an infinite multiplier makes
        # inf - inf in the combination
        with np.errstate(invalid="ignore"):
            combo = cert.weighted_combination(t, q, raw, rho)
            remainder = cert.remainder_expression(t, q, coeff, weights)
            rel = np.abs(combo.a - remainder.a).max(0) / np.maximum(np.maximum(combo.max_abs(), remainder.max_abs()), 1)
        floats = _rows(raw, t.shape, False)
        # the remainder is coeff * w w^T, one explicit square: its eigenvalues
        # are 0 and trace = coeff * ||w||^2. A check holds where its value is
        # at most its bound, and one reduction decides it over the grid
        checks = (-floats.min(0), MULTIPLIER_TOL), (rel, IDENTITY_TOL), (coeff, EIGENVALUE_TOL), (remainder.trace(), EIGENVALUE_TOL)
        worst = [float(x.max()) for x, _bound in checks]
        first = [None if w <= bound else int(np.argmin(x <= bound)) for (x, bound), w in zip(checks, worst)]
        worst[0] = -worst[0]
        mults = {label: row if row.size > 1 else float(row[0]) for (_cname, label, _formula), row in zip(cert.multipliers, floats)}
        coefficient = coeff.item(0) if coeff.size == 1 else np.array(coeff)
    messages = (
        "negative multiplier {:.3e}",
        "identity residual {:.3e} exceeds {tol:.1e}",
        "remainder coefficient positive: {:.3e}",
        "remainder not negative semidefinite: max eig {:.3e}",
    )
    return CertificateCheck(
        case_id=cert.case_id,
        check_kind=cert.check_kind,
        gamma=gammas,
        multipliers=mults,
        min_multiplier=worst[0],
        identity_residual=worst[1],
        remainder_coefficient=coefficient,
        remainder_max_eigenvalue=float(max(0, worst[3])),
        failures=[f"{m.format(v, tol=tol)} at gamma={float(gammas[i])!r}" for m, v, i in zip(messages, worst, first) if i is not None],
    )


def _worst(pick, values) -> float:
    """pick (min or max) of these numbers as a float; NaN if one is, as numpy."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else float(pick(values))


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
    return SweepSummary(case_id, int(grid.size), check.identity_residual, check.min_multiplier, check.remainder_max_eigenvalue)


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

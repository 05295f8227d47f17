"""Mechanical verification of the one-step rate proofs in Gram space.

Every proof is a weighted sum of pairwise constraints, and each
constraint sees only differences of iterates and of function values. So
the gauge is fixed once: x1 = 0, f(x1) = 0 and F* = 0. Quadratic parts
then live over the vector symbols (g1, g2, s2) and linear parts over the
scalar symbols (f2, h1, h2), with h1 = F(x1) - F*; the second iterate
never appears because x2 = -gamma*(g1 + s2) is substituted once, and
optimal-point gradients are eliminated by g* + s* = 0. Each constraint
is one of the interp definitions evaluated on these symbols: a scalar
symbol is a GramExpression, the one expression type, and the inner
product of two vector symbols is one too, so a definition computes its
Q and c directly. A parameter array (a gamma grid) enters as leading
batch axes that every expression broadcasts over.
A certificate stores the closed-form multipliers and the expected
remainder; verification checks, per gamma,

    objective - rho*gap - sum(multiplier_i * constraint_i) == remainder,

multiplier nonnegativity, and nonpositivity of the remainder form.
Coefficient formulas are rational in (L, mu, gamma), so an exact mode
runs the same checks in Fraction arithmetic at rational parameter values.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import math

import numpy as np

from .errors import DomainError, VerificationError
from .interp import convex_slack, pl_slack, rpl_slack, smooth_convex_slack, smooth_slack

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


def _zero_array(shape, exact):
    # exact-mode arrays must carry Fraction(0), not int 0: an int zero
    # turns into float 0.0 under /2 and would poison later sums
    if exact:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape, dtype=float)


@dataclass
class GramExpression:
    """Quadratic-plus-linear expression over the fixed symbol bases.

    Q is (..., 3, 3) symmetric over VECTOR_SYMBOLS and c is (..., 3) over
    SCALAR_SYMBOLS. Expressions add and subtract, and multiply or divide
    by a weight; an array weight carries leading (batch) axes, so one
    expression can carry a whole gamma grid, and Q and c broadcast over
    them independently. dtype=object carries exact Fractions through the
    same code paths.
    """

    Q: np.ndarray
    c: np.ndarray

    __array_ufunc__ = None  # numpy scalars and arrays defer to __rmul__

    def __add__(self, other):
        return GramExpression(self.Q + other.Q, self.c + other.c)

    def __sub__(self, other):
        return GramExpression(self.Q - other.Q, self.c - other.c)

    def __rmul__(self, w):
        return GramExpression(_expand(w, 2) * self.Q, _expand(w, 1) * self.c)

    def __truediv__(self, d):
        return GramExpression(self.Q / _expand(d, 2), self.c / _expand(d, 1))

    def evaluate(self, gram, scalars):
        """Value on a concrete Gram matrix and scalar assignment."""
        gram = np.asarray(gram)
        scalars = np.asarray(scalars)
        return (self.Q * gram).sum((-1, -2)) + (self.c * scalars).sum(-1)

    def max_abs(self):
        """Largest coefficient magnitude, reduced over the symbol axes."""
        return np.maximum(np.abs(self.Q).max((-1, -2)), np.abs(self.c).max(-1))


def _expand(w, axes):
    """A scalar as is; an array with `axes` trailing axes appended."""
    if isinstance(w, np.ndarray) and w.ndim:
        return w[(...,) + (None,) * axes]
    return w


# ---------------------------------------------------------------------------
# Gram symbols as operands of the interp definitions


class _Vec:
    """A vector operand: coefficients over VECTOR_SYMBOLS, (..., 3)."""

    __slots__ = ("a",)
    __array_ufunc__ = None  # numpy scalars and arrays defer to __rmul__

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return _Vec(self.a + other.a)

    def __sub__(self, other):
        return _Vec(self.a - other.a)

    def __rmul__(self, w):
        return _Vec(_expand(w, 1) * self.a)

    def __matmul__(self, other):
        """<a, b> as the expression Q = sym(a b^T)."""
        P = self.a[..., :, None] * other.a[..., None, :]
        Q = (P + np.swapaxes(P, -1, -2)) / 2
        return GramExpression(Q, _zero_array(_NS, Q.dtype == object))


_Point = namedtuple("_Point", "x g fv")
_Symbols = namedtuple("_Symbols", "g1 g2 s2 f2 h1 h2 x1 zero")


def _symbols(exact):
    def frozen(a):  # shared by every expression built from the symbols
        a.flags.writeable = False
        return a

    one = Fraction(1) if exact else 1.0
    dtype = object if exact else float
    vectors = [_Vec(row) for row in frozen(np.eye(_NV, dtype=dtype) * one)]
    zero_Q = frozen(_zero_array((_NV, _NV), exact))
    scalars = [GramExpression(zero_Q, row) for row in frozen(np.eye(_NS, dtype=dtype) * one)]
    zero = GramExpression(zero_Q, frozen(_zero_array(_NS, exact)))
    return _Symbols(*vectors, *scalars, _Vec(frozen(_zero_array(_NV, exact))), zero)


# g1, g2, s2, f2, h1, h2, the gauge's x1 = 0 and the zero scalar F* = 0,
# for float and exact mode
_SYMBOLS = {exact: _symbols(exact) for exact in (False, True)}


def _gram_operands(L, mu, gamma, exact):
    g1, g2, s2, f2, h1, h2, x1, zero = _SYMBOLS[exact]
    # the gauge: moving the points, shifting f and h by opposite constants
    # and shifting F and F* together change no constraint, so x1 = 0,
    # f(x1) = 0 and F* = 0, and h1 stands for F(x1) - F*
    G1 = g1 + s2  # the residual at x1
    x2 = x1 - gamma * G1  # the one substitution of the second iterate
    return {
        "tf1": _Point(x1, g1, zero), "tf2": _Point(x2, g2, f2),
        "th1": _Point(x1, None, h1), "th2": _Point(x2, s2, h2),
        "F1": h1, "F2": f2 + h2, "Fstar": zero, "G1": G1,
        "g2": g2, "s2": s2, "L": L, "mu": mu,
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


def _batched(expr: GramExpression, L, mu, gamma) -> GramExpression:
    """expr with Q and c on the broadcast shape of the parameters."""
    batch = np.broadcast_shapes(np.shape(L), np.shape(mu), np.shape(gamma))

    def fit(a, shape):
        return a if a.shape == shape else np.broadcast_to(a, shape).copy()

    return GramExpression(fit(expr.Q, batch + (_NV, _NV)), fit(expr.c, batch + (_NS,)))


def build_constraint(name: str, L, mu, gamma) -> GramExpression:
    """Named constraint as a Gram expression: its interp definition
    evaluated on the Gram operands, with x2 substituted out."""
    if name not in _CONSTRAINTS:
        raise DomainError(f"unknown constraint name {name!r}")
    exact = _is_exact(L, mu, gamma)
    if not exact:
        L = np.asarray(L, dtype=float) if np.shape(L) else float(L)
        mu = np.asarray(mu, dtype=float) if np.shape(mu) else float(mu)
        gamma = np.asarray(gamma, dtype=float) if np.shape(gamma) else float(gamma)
    definition, names = _CONSTRAINTS[name]
    operands = _gram_operands(L, mu, gamma, exact)
    return _batched(definition(*(operands[n] for n in names)), L, mu, gamma)


def objective_gap_expression(which: str, exact=False) -> GramExpression:
    """F(x2)-F* for which='final', F(x1)-F* for which='initial'."""
    if which not in ("final", "initial"):
        raise DomainError(f"unknown objective selector {which!r}")
    sym = _SYMBOLS[exact]
    return sym.f2 + sym.h2 if which == "final" else sym.h1


# ---------------------------------------------------------------------------
# the eight certificates


@dataclass(frozen=True)
class Certificate:
    """One theorem case: multipliers, rate, remainder, and gamma interval."""

    case_id: str
    fn_class: str
    ineq: str
    # (constraint name, multiplier label, multiplier formula)
    multipliers: tuple
    rate: Callable
    # remainder = coeff * ||sum_w w_sym * sym||^2; None means identically zero
    remainder_coeff: Optional[Callable]
    remainder_weights: Optional[Callable]
    interval: Callable  # L -> (lo, hi, lo_closed, hi_closed)
    check_kind: str  # "equality" | "inequality-chain"

    def gamma_in_interval(self, L, gamma) -> np.ndarray:
        lo, hi, lo_closed, hi_closed = self.interval(float(L))
        g = np.asarray(gamma, dtype=float)
        tol = 1e-12
        if lo_closed and lo > 0:
            above = g >= lo * (1 - tol)
        elif lo > 0:
            above = g > lo * (1 + tol)
        else:
            above = g > 0
        below = g <= hi * (1 + tol) if hi_closed else g < hi * (1 - tol)
        return above & below

    def remainder_expression(self, L, mu, gamma) -> GramExpression:
        """coeff * ||w||^2 with w = sum of weight * vector symbol."""
        sym = _SYMBOLS[_is_exact(L, mu, gamma)]
        if self.remainder_coeff is None:
            return _batched(sym.zero, L, mu, gamma)
        w = sym.x1  # the zero vector
        for name, weight in self.remainder_weights(L, mu, gamma).items():
            w = w + weight * getattr(sym, name)
        return self.remainder_coeff(L, mu, gamma) * (w @ w)

    def weighted_combination(self, L, mu, gamma) -> GramExpression:
        """objective - rho*gap - sum(multiplier * constraint)."""
        exact = _is_exact(L, mu, gamma)
        expr = objective_gap_expression("final", exact)
        expr = expr - self.rate(L, mu, gamma) * objective_gap_expression("initial", exact)
        for cname, _label, formula in self.multipliers:
            expr = expr - formula(L, mu, gamma) * build_constraint(cname, L, mu, gamma)
        return expr


def _den31_1(L, mu, g):
    return (L * g + 1) ** 2 + L * g**2 * mu + 2 * g * mu


def _den_large(L, mu, g):
    return (L * g - 1) ** 2 - L * g**2 * mu + 2 * g * mu


def _interval(lo_fn, hi_fn, lo_closed, hi_closed):
    return lambda L: (lo_fn(L), hi_fn(L), lo_closed, hi_closed)


_SQRT3 = math.sqrt(3.0)


def _large_step_weights(L, m, g):
    return {"g1": L * g - 1, "s2": L * g, "g2": 1}


def _large_step(case_id, fn_class, ineq, names, remainder_coeff, lo, check_kind) -> Certificate:
    """The step-size proof shared by the cases on (lo/L, 2/L): the same
    multipliers on a smoothness pair, C12 and the modulus constraint
    (`names`, in that order), the same rate and the same remainder
    square; only its coefficient differs."""
    a1, a2, b1, l1 = names
    return Certificate(
        case_id=case_id,
        fn_class=fn_class,
        ineq=ineq,
        multipliers=(
            (a1, "alpha1", lambda L, m, g: (L * g - 1) / _den_large(L, m, g)),
            (a2, "alpha2", lambda L, m, g: (-(L**2) * g**2 + 3 * L * g - 2) / _den_large(L, m, g)),
            (b1, "beta1", lambda L, m, g: (L * g - 1) ** 2 / _den_large(L, m, g)),
            (l1, "lambda1", lambda L, m, g: (-L * g**2 * m + 2 * g * m) / _den_large(L, m, g)),
        ),
        rate=lambda L, m, g: (L * g - 1) ** 2 / _den_large(L, m, g),
        remainder_coeff=remainder_coeff,
        remainder_weights=_large_step_weights,
        interval=_interval(lambda L: lo / L, lambda L: 2.0 / L, False, False),
        check_kind=check_kind,
    )


def certificate_catalog() -> list[Certificate]:
    """All eight theorem-case certificates, in theorem order."""
    cat = []

    cat.append(
        Certificate(
            case_id="Thm3.1-case1",
            fn_class="nonconvex",
            ineq="pl",
            multipliers=(
                ("A12", "alpha1", lambda L, m, g: (L**2 * g**2 + 3 * L * g + 2) / _den31_1(L, m, g)),
                ("A21", "alpha2", lambda L, m, g: (L * g + 1) / _den31_1(L, m, g)),
                ("C12", "beta1", lambda L, m, g: (L * g + 1) ** 2 / _den31_1(L, m, g)),
                ("D2", "lambda1", lambda L, m, g: (L * g**2 * m + 2 * g * m) / _den31_1(L, m, g)),
            ),
            rate=lambda L, m, g: (L * g + 1) ** 2 / _den31_1(L, m, g),
            remainder_coeff=lambda L, m, g: (L**2 * g**2 - 3) / (4 * L * _den31_1(L, m, g)),
            remainder_weights=lambda L, m, g: {"g1": L * g + 1, "s2": L * g, "g2": -1},
            interval=_interval(lambda L: 0.0, lambda L: _SQRT3 / L, False, True),
            check_kind="equality",
        )
    )

    cat.append(
        _large_step(
            "Thm3.1-case2", "nonconvex", "pl", ("A12", "A21", "C12", "D2"),
            lambda L, m, g: (3 - L**2 * g**2) / (4 * L * _den_large(L, m, g)),
            _SQRT3, "equality",
        )
    )

    cat.append(
        Certificate(
            case_id="Thm3.2-case1",
            fn_class="convex",
            ineq="pl",
            multipliers=(
                ("B12", "alpha1", lambda L, m, g: 2 / (2 * g * m + 1)),
                ("B21", "alpha2", lambda L, m, g: 1 / (2 * g * m + 1)),
                ("C12", "beta1", lambda L, m, g: 1 / (2 * g * m + 1)),
                ("D2", "lambda1", lambda L, m, g: 2 * g * m / (2 * g * m + 1)),
            ),
            rate=lambda L, m, g: 1 / (2 * g * m + 1),
            remainder_coeff=lambda L, m, g: (2 * L * g - 3) / (2 * L * (2 * g * m + 1)),
            remainder_weights=lambda L, m, g: {"g1": 1, "g2": -1},
            interval=_interval(lambda L: 0.0, lambda L: 1.5 / L, False, True),
            check_kind="equality",
        )
    )

    cat.append(
        _large_step(
            "Thm3.2-case2", "convex", "pl", ("B12", "B21", "C12", "D2"),
            lambda L, m, g: (3 - 2 * L * g) / (2 * L * _den_large(L, m, g)),
            1.5, "equality",
        )
    )

    cat.append(
        Certificate(
            case_id="Thm4.1",
            fn_class="nonconvex",
            ineq="rpl",
            multipliers=(
                ("A12", "alpha1", lambda L, m, g: 1),
                ("C12", "beta1", lambda L, m, g: 1),
                ("Eprime1", "lambda1", lambda L, m, g: (m - m * (L * g - 1) ** 2) / L),
            ),
            rate=lambda L, m, g: (L + m * (L * g - 1) ** 2 - m) / L,
            remainder_coeff=lambda L, m, g: -1 / (4 * L),
            remainder_weights=_large_step_weights,
            interval=_interval(lambda L: 0.0, lambda L: 2.0 / L, False, False),
            check_kind="equality",
        )
    )

    cat.append(
        Certificate(
            case_id="Thm4.2-case1",
            fn_class="convex",
            ineq="rpl",
            multipliers=(
                ("B12", "alpha1", lambda L, m, g: 1 / (1 + g * m)),
                ("C12", "beta1", lambda L, m, g: 1 / (1 + g * m)),
                ("E1", "lambda1", lambda L, m, g: g * m / (1 + g * m)),
                ("E2", "lambda2", lambda L, m, g: g * m / (1 + g * m)),
            ),
            rate=lambda L, m, g: (1 - g * m) / (1 + g * m),
            remainder_coeff=lambda L, m, g: (L * g - 1) / (2 * L * (1 + g * m)),
            remainder_weights=lambda L, m, g: {"g1": 1, "g2": -1},
            interval=_interval(lambda L: 0.0, lambda L: 1.0 / L, False, True),
            check_kind="inequality-chain",
        )
    )

    cat.append(
        Certificate(
            case_id="Thm4.2-case2",
            fn_class="convex",
            ineq="rpl",
            multipliers=(
                ("B12", "alpha1", lambda L, m, g: 1 / (-L * g + g * m + 2)),
                ("B21", "alpha2", lambda L, m, g: (L * g - 1) / (-L * g + g * m + 2)),
                ("C12", "beta1", lambda L, m, g: (-L * g + 2) / (-L * g + g * m + 2)),
                ("E1", "lambda1", lambda L, m, g: g * m * (-2 * L * g + 3) / (-L * g + g * m + 2)),
                ("E2", "lambda2", lambda L, m, g: g * m / (-L * g + g * m + 2)),
            ),
            rate=lambda L, m, g: (2 * L * g**2 * m - L * g - 3 * g * m + 2) / (-L * g + g * m + 2),
            remainder_coeff=None,
            remainder_weights=None,
            interval=_interval(lambda L: 1.0 / L, lambda L: 1.5 / L, False, True),
            check_kind="inequality-chain",
        )
    )

    cat.append(
        _large_step(
            "Thm4.2-case3", "convex", "rpl", ("B12", "B21", "C12", "E2"),
            lambda L, m, g: (3 - 2 * L * g) / (2 * L * _den_large(L, m, g)),
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
    is decided per gamma in that arithmetic: multipliers >= -tol, relative
    identity residual <= tol, remainder coefficient <= tol and remainder
    eigenvalue <= tol, with tol = 0 in exact mode and the module constants
    in float mode. Each failure names the first failing gamma. Interval
    membership is decided in floating point; a closed endpoint computed in
    floating point can lie just outside the interval, where exact mode
    sees the certificate fail, and `interval_grid` keeps its points inside.
    A NaN fails every check. Requires finite L > 0 and mu > 0; a formula
    that overflows at them raises DomainError.
    """
    if not (0 < L < math.inf and 0 < mu < math.inf):
        raise DomainError(f"L and mu must be positive and finite, got L={float(L)!r}, mu={float(mu)!r}")
    gamma_arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    inside = cert.gamma_in_interval(L, gamma_arr)
    if not np.all(inside):
        bad = gamma_arr[~inside]
        raise DomainError(f"gamma {float(bad[0])!r} outside interval of {cert.case_id}")

    if exact:
        num, dtype, mult_tol, identity_tol, eig_tol = Fraction, object, 0, 0, 0
    else:
        num, dtype, mult_tol, identity_tol, eig_tol = float, float, MULTIPLIER_TOL, IDENTITY_TOL, EIGENVALUE_TOL
    Lx, mux = num(float(L)), num(float(mu))
    gx = np.array([num(g) for g in gamma_arr], dtype=dtype) if np.ndim(gamma) else num(gamma_arr[0])

    def per_gamma(value):
        return np.broadcast_to(np.asarray(value, dtype=dtype), gamma_arr.shape)

    failures = []

    def check(bad, message):
        if bad.any():
            failures.append(f"{message} at gamma={float(gamma_arr[bad.argmax()])!r}")

    try:  # Python-float powers raise where numpy would return inf
        values = np.stack([per_gamma(formula(Lx, mux, gx)) for _cname, _label, formula in cert.multipliers])
        combo = cert.weighted_combination(Lx, mux, gx)
        remainder = cert.remainder_expression(Lx, mux, gx)
        coeff = per_gamma(num(0) if cert.remainder_coeff is None else cert.remainder_coeff(Lx, mux, gx))
        mults = {
            label: row.astype(float) if row.size > 1 else float(row[0])
            for (_cname, label, _formula), row in zip(cert.multipliers, values)
        }
        min_mult = float(values.astype(float).min())
    except OverflowError:
        raise DomainError(f"{cert.case_id} overflows at L={float(L)!r}, mu={float(mu)!r}") from None

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
    top = trace.max()
    max_eig = float(max(0, top))
    check(~(trace <= eig_tol), f"remainder not negative semidefinite: max eig {float(top):.3e}")

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
    exact arithmetic sees the certificate fail."""
    if not (L > 0 and n >= 1):
        raise DomainError(f"interval grid needs L > 0 and n >= 1, got L={float(L)!r}, n={n!r}")
    lo, hi, lo_closed, hi_closed = cert.interval(L)
    span = hi - lo
    a = np.nextafter(lo, hi) if lo_closed and lo > 0 else lo + GRID_MARGIN * span
    b = np.nextafter(hi, lo) if hi_closed else hi - GRID_MARGIN * span
    return np.linspace(a, b, n)

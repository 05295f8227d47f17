"""The interpolation and domination inequalities, each defined once.

Each returns a signed slack, nonpositive exactly when the sampled
first-order data is consistent with the stated function class. The same
definitions give the D/E checks of trace validation and, on Gram symbols,
the constraints of the certificate layer and the worst-case search; on
float or Fraction vectors they give the slacks of concrete points.
Violation thresholds are the caller's business; nothing here raises on a
positive slack.
"""
from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pgm import Trace
from .problem import CompositeProblem

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# (A)-(E) over generic operands: a point has .x, .g (a (sub)gradient) and
# .fv; vectors meet only through `@` and every constant is an integer, so
# float vectors, Fraction vectors, row stacks and Gram symbols all
# evaluate them.

Point = namedtuple("Point", "x g fv")


def smooth_slack(i, j, L):
    """(A) L-smooth interpolation:
    f_j - f_i - (L/4)||x_i-x_j||^2 + (1/2)<g_i+g_j, x_i-x_j> + (1/4L)||g_i-g_j||^2."""
    dx = i.x - j.x
    dg = i.g - j.g
    return j.fv - i.fv - L * (dx @ dx) / 4 + ((i.g + j.g) @ dx) / 2 + (dg @ dg) / (4 * L)


def smooth_convex_slack(i, j, L):
    """(B) L-smooth convex interpolation:
    f_j - f_i + <g_j, x_i-x_j> + (1/2L)||g_i-g_j||^2."""
    dg = i.g - j.g
    return j.fv - i.fv + j.g @ (i.x - j.x) + (dg @ dg) / (2 * L)


def convex_slack(i, j):
    """(C) subgradient inequality of a closed proper convex function:
    h_j - h_i + <s_j, x_i-x_j>."""
    return j.fv - i.fv + j.g @ (i.x - j.x)


def rpl_slack(F, fstar, G, mu):
    """(E) residual-form domination: F - F* - (1/2mu)||G||^2, with G the
    prox-gradient residual at the point of value F."""
    return F - fstar - (G @ G) / (2 * mu)


def pl_slack(F, fstar, g, s, mu):
    """(D) subgradient-form domination: (E) with the residual replaced by
    g + s, the gradient of f plus a subgradient of h at the point."""
    return rpl_slack(F, fstar, g + s, mu)


# ---------------------------------------------------------------------------
# trace validation


class _Rows:
    """Stacked vectors, one per row, as an operand of the definitions:
    `@` is the row-wise dot product."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return _Rows(self.a + other.a)

    def __matmul__(self, other):
        return np.einsum("ij,ij->i", self.a, other.a)


@dataclass
class TraceValidation:
    """Worst-case deviations of a trace from the identities it must obey."""

    max_iteration_identity_error: float
    max_residual_identity_error: float
    max_lemma_violation: float  # ||G_i|| - ||g_i + s_i||, should be <= tol
    max_D_slack: Optional[float]
    max_E_slack: Optional[float]
    skipped_indices: np.ndarray

    def ok(self, tol: float = 1e-10, identity_tol: float = 1e-12) -> bool:
        checks = [
            self.max_iteration_identity_error <= identity_tol,
            self.max_residual_identity_error <= identity_tol,
            self.max_lemma_violation <= tol,
        ]
        if self.max_D_slack is not None:
            checks.append(self.max_D_slack <= tol)
        if self.max_E_slack is not None:
            checks.append(self.max_E_slack <= tol)
        return all(checks)


def validate_trace(
    problem: CompositeProblem,
    trace: Trace,
    fstar: Optional[float] = None,
    mu: Optional[float] = None,
) -> TraceValidation:
    """Check a recorded run against the identities and inequalities above.

    The iteration identity x_{i+1} = x_i - gamma*(g_i + s_{i+1}) and the
    residual factorization gamma*G_i = x_i - x_{i+1} are checked in
    relative terms. When fstar and mu are given, the D/E slacks are
    evaluated at every iterate except those where the objective went up
    (domination inequalities are only assumed on the initial sublevel
    set); skipped iterates are logged and reported.
    """
    gamma = trace.gamma
    X, g, s = trace.points, trace.gradients, trace.subgradients
    n = len(X)

    # gamma*G_i with G_i = g_i + s_{i+1}; the iteration identity and the
    # residual factorization share one defect, each under its own scale
    step = gamma * (g[:-1] + s[:-1])
    defect = np.linalg.norm(X[:-1] - step - X[1:], axis=1)
    it_err = float(np.max(defect / np.maximum(1.0, np.linalg.norm(X[1:], axis=1)), initial=0.0))
    res_err = float(np.max(defect / np.maximum(1.0, np.linalg.norm(step, axis=1)), initial=0.0))

    # residual norm never exceeds the certified subgradient distance;
    # s_i (row i-1) is certified at x_i by the previous prox
    lemma = trace.residual_norms[1:] - np.linalg.norm(g[1:] + s[:-1], axis=1)

    max_D = max_E = None
    skipped = np.empty(0, dtype=int)
    if fstar is not None and mu is not None:
        keep = np.ones(n, dtype=bool)
        keep[trace.increase_indices] = False
        skipped = np.flatnonzero(~keep)
        if skipped.size:
            log.info("skipped D/E checks at %d iterates where F increased", skipped.size)
        F = trace.F_vals
        e_slacks = rpl_slack(F, fstar, _Rows(trace.residual_norms[:, None]), mu)[keep]
        d_slacks = pl_slack(F[1:], fstar, _Rows(g[1:]), _Rows(s[:-1]), mu)[keep[1:]]
        max_D = float(d_slacks.max()) if d_slacks.size else None
        max_E = float(e_slacks.max()) if e_slacks.size else None

    return TraceValidation(
        max_iteration_identity_error=it_err,
        max_residual_identity_error=res_err,
        max_lemma_violation=float(lemma.max()) if lemma.size else 0.0,
        max_D_slack=max_D,
        max_E_slack=max_E,
        skipped_indices=skipped,
    )

"""Composite problems F = f + h.

A problem pairs a smooth first-order oracle f (value, gradient, gradient
Lipschitz constant) with a prox-capable closed convex part h. This module
also builds the three experiment families (sparse robust linear
regression, lasso, elastic net) from seeded random data and serializes
instances so runs are replayable.

Each family's f is a loss of the residual r = Ax - b; its
`value_and_gradient` computes r once and gives the bits of separate
`value` and `gradient` calls. Any other oracle, including one rebuilt by
`dataclasses.replace`, evaluates through its `value` and `gradient`.

A family's f and h also carry their second-order data (A, b and the
loss's curvature; the penalty weights), which `restricted_model` turns
into the smooth restriction of F to a support and sign pattern for the
reference run's Newton warm start. Unlike the fused step, that data
survives `dataclasses.replace`, so a problem whose callables are wrapped
(to count calls, say) keeps the warm start and its result.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainError, check_parameters

Array = np.ndarray

@dataclass(frozen=True)
class SmoothOracle:
    """First-order oracle for a smooth function with L-Lipschitz gradient.

    `value_and_gradient(x)` is what the PGM step calls. A family oracle
    runs its fused form, which computes the residual once; any other
    oracle, including one rebuilt by `dataclasses.replace`, calls `value`
    and then `gradient`, once each.
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz: float
    # set only by `_residual_oracle`; init=False, so `dataclasses.replace`
    # does not carry it over to an oracle with other callables
    _fused: Optional[Callable[[Array], tuple[float, Array]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # (A, b, loss, curvature) of a family's f(x) = phi(Ax - b), set only by
    # `_residual_oracle` and read only by `restricted_model`; an init field,
    # so `dataclasses.replace` carries it over to the rebuilt oracle
    _residual: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_parameters(self.lipschitz)

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        """(f(x), grad f(x)) as a float and a float array."""
        if self._fused is not None:
            return self._fused(x)
        return float(self.value(x)), np.asarray(self.gradient(x), dtype=float)


@dataclass(frozen=True)
class ProxOperator:
    """Closed proper convex function with an exact proximal map."""

    value: Callable[[Array], float]
    prox: Callable[[Array, float], Array]
    # (lam, delta) of h(x) = lam*||x||_1 + (delta/2)*||x||^2, set by
    # `l1_prox` and `elastic_net_prox`; kept by `dataclasses.replace`
    _penalty: Optional[tuple[float, float]] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class CompositeProblem:
    """F = f + h with an optional PL-type modulus.

    `mu_inequality` tags which inequality the modulus `mu` refers to:
    "pl" (subgradient-distance form) or "rpl" (prox-residual form), and
    (f.lipschitz, mu) must lie in `check_parameters`' domain. Oracles are pure functions of their inputs; instances are immutable
    and safe to share across threads.
    """

    f: SmoothOracle
    h: ProxOperator
    mu: Optional[float] = None
    mu_inequality: Optional[str] = None

    def __post_init__(self):
        if self.mu is not None:
            check_parameters(self.f.lipschitz, self.mu)
            if self.mu_inequality not in ("pl", "rpl"):
                raise DomainError("mu requires mu_inequality 'pl' or 'rpl'")

    def objective(self, x: Array) -> float:
        return float(self.f.value(x)) + float(self.h.value(x))


def _check_data(A, b):
    """Float A and b and the ascending eigenvalues of A^T A; DomainError
    unless A is a nonzero matrix, b a vector to match, and A, b, A^T A and
    its largest eigenvalue are finite (with no overflow warning): a finite
    A^T A can still have an infinite largest eigenvalue."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise DomainError("A must be a 2-d matrix")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise DomainError(f"b has length {b.shape[0] if b.ndim == 1 else '?'}, expected {A.shape[0]}")
    for name, a in (("A", A), ("b", b)):
        if not np.isfinite(a).all():
            raise DomainError(f"{name} must be finite")
    if not np.any(A):
        raise DomainError("A must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        gram = A.T @ A
    if not np.isfinite(gram).all():
        raise DomainError("A^T A overflows")
    eig = np.linalg.eigvalsh(gram)
    if not eig[-1] < np.inf:
        raise DomainError(f"lambda_max(A^T A) overflows: {float(eig[-1])!r}")
    return A, b, eig


def _residual_oracle(A, b, loss, curvature, lipschitz) -> SmoothOracle:
    """The oracle of f(x) = phi(Ax - b), where `loss(r)` returns phi(r) as
    a float and its gradient in r, and `curvature(r)` the diagonal of its
    Hessian in r. `value_and_gradient` computes r once; a separate `value`
    or `gradient` call evaluates the whole loss."""

    def value(x):
        return loss(A @ x - b)[0]

    def gradient(x):
        return A.T @ loss(A @ x - b)[1]

    def value_and_gradient(x):
        fval, slope = loss(A @ x - b)
        return fval, A.T @ slope

    oracle = SmoothOracle(value, gradient, lipschitz, _residual=(A, b, loss, curvature))
    object.__setattr__(oracle, "_fused", value_and_gradient)
    return oracle


def _half_squares(r):
    return 0.5 * float(r @ r), r


def _log_squares(r):
    r2 = r * r
    return float(np.log1p(r2).sum()), 2.0 * r / (r2 + 1.0)


def _unit_curvature(r):
    return np.ones_like(r)


def _log_squares_curvature(r):
    r2 = r * r
    return 2.0 * (1.0 - r2) / (1.0 + r2) ** 2


def _least_squares(A, b):
    """The least-squares oracle and the spectrum it took L from."""
    A, b, eig = _check_data(A, b)
    return _residual_oracle(A, b, _half_squares, _unit_curvature, float(eig[-1])), eig


def least_squares_oracle(A, b) -> SmoothOracle:
    """Smooth part 0.5*||Ax - b||^2 with L = lambda_max(A^T A)."""
    return _least_squares(A, b)[0]


def robust_log_oracle(A, b) -> SmoothOracle:
    """Smooth part sum_k log((Ax - b)_k^2 + 1).

    The scalar loss t -> log(t^2 + 1) has curvature in [-1/4, 2], so
    2*lambda_max(A^T A) is a valid (conservative) gradient Lipschitz
    constant for the composition.
    """
    A, b, eig = _check_data(A, b)
    return _residual_oracle(A, b, _log_squares, _log_squares_curvature, 2.0 * float(eig[-1]))


def soft_threshold(x, t):
    """Componentwise shrinkage toward zero by t >= 0."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def l1_prox(lam: float) -> ProxOperator:
    """h(x) = lam*||x||_1; prox is soft-thresholding at gamma*lam."""
    if not 0 < lam < np.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam!r}")

    def value(x):
        return lam * float(np.abs(x).sum())

    def prox(x, gamma):
        return soft_threshold(x, gamma * lam)

    return ProxOperator(value, prox, _penalty=(lam, 0.0))


def elastic_net_prox(lam: float, delta: float) -> ProxOperator:
    """h(x) = lam*||x||_1 + (delta/2)*||x||^2.

    prox(x, gamma) = soft_threshold(x, gamma*lam) / (1 + gamma*delta),
    componentwise.
    """
    if not 0 < lam < np.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam!r}")
    if not 0 < delta < np.inf:
        raise DomainError(f"delta must be positive and finite, got {delta!r}")

    def value(x):
        return lam * float(np.abs(x).sum()) + 0.5 * delta * float(x @ x)

    def prox(x, gamma):
        return soft_threshold(x, gamma * lam) / (1.0 + gamma * delta)

    return ProxOperator(value, prox, _penalty=(lam, delta))


def restricted_model(problem: CompositeProblem):
    """F restricted to a support and sign pattern, for a family problem.

    Returns `model(x, support) -> (F(x), gradient, Hessian)`, the last two
    over the coordinates `support` with the signs of x there held fixed;
    x must be zero off `support`. There F is smooth: phi(A_S x_S - b) +
    lam*s.x_S + (delta/2)*||x_S||^2, with Hessian A_S^T diag(phi'') A_S +
    delta*I. It evaluates from the family's data and calls no oracle.
    Returns None when f or h carries no family data: a user oracle,
    `zero_prox`, or one built directly as a `SmoothOracle`.
    """
    residual = getattr(problem.f, "_residual", None)
    penalty = getattr(problem.h, "_penalty", None)
    if residual is None or penalty is None:
        return None
    A, b, loss, curvature = residual
    lam, delta = penalty

    def model(x, support):
        xs, cols = x[support], A[:, support]
        r = cols @ xs - b
        fval, slope = loss(r)
        value = fval + lam * float(np.abs(xs).sum()) + 0.5 * delta * float(xs @ xs)
        gradient = cols.T @ slope + lam * np.sign(xs) + delta * xs
        hessian = cols.T @ (curvature(r)[:, None] * cols) + delta * np.eye(support.size)
        return value, gradient, hessian

    return model


def zero_prox() -> ProxOperator:
    """h = 0; the prox is the identity."""
    return ProxOperator(value=lambda x: 0.0, prox=lambda x, gamma: np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# experiment instances

KINDS = ("srlr", "lasso", "elastic_net")


@dataclass(frozen=True)
class ProblemData:
    """Realized random instance: data, parameters, and generation seed."""

    kind: str
    A: Array
    b: Array
    lam: float
    delta: Optional[float]
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown problem kind {self.kind!r}")
        if (self.delta is not None) != (self.kind == "elastic_net"):
            raise DomainError("delta must be present exactly for elastic_net instances")

    def problem(self) -> CompositeProblem:
        if self.kind == "srlr":
            return CompositeProblem(robust_log_oracle(self.A, self.b), l1_prox(self.lam))
        if self.kind == "lasso":
            return CompositeProblem(least_squares_oracle(self.A, self.b), l1_prox(self.lam))
        # lmin(A^T A) + delta is the strong-convexity modulus of F, which
        # gives the subgradient form everywhere; the prox-residual form
        # holds only at a modulus shrunk by the step-dependent prox factor
        f, eig = _least_squares(self.A, self.b)
        mu = float(eig[0]) + self.delta
        return CompositeProblem(
            f,
            elastic_net_prox(self.lam, self.delta),
            mu=mu,
            mu_inequality="pl",
        )

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "n": self.A.shape[0],
            "d": self.A.shape[1],
            "lambda": self.lam,
            "delta": self.delta,
            "seed": self.seed,
            "A": [float(v) for v in self.A.ravel()],  # row-major
            "b": [float(v) for v in self.b],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "ProblemData":
        """Read a to_json document; DomainError if it is not one."""
        try:
            doc = json.loads(text)
            n, d = int(doc["n"]), int(doc["d"])
            if n < 1 or d < 1:  # reshape would infer a -1
                raise ValueError(f"n and d must be positive, got n={n}, d={d}")
            fields = dict(
                kind=doc["kind"],
                A=np.asarray(doc["A"], dtype=float).reshape(n, d),
                b=np.asarray(doc["b"], dtype=float),
                lam=float(doc["lambda"]),
                delta=None if doc["delta"] is None else float(doc["delta"]),
                seed=int(doc["seed"]),
            )
        except (TypeError, KeyError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise DomainError(f"bad instance document: {type(exc).__name__}: {exc}") from None
        return ProblemData(**fields)


def generate_instance(kind, n, d, lam, seed, delta=None) -> ProblemData:
    """Draw A (n-by-d, row-major) then b from one seeded normal stream."""
    if n < 1 or d < 1:
        raise DomainError("n and d must be positive")
    gen = rng.generator(seed)
    A = rng.normal_matrix(gen, n, d)
    b = rng.standard_normals(gen, n)
    return ProblemData(kind=kind, A=A, b=b, lam=lam, delta=delta, seed=seed)

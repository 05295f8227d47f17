"""Composite problems F = f + h.

A problem pairs a smooth first-order oracle f (value, gradient, gradient
Lipschitz constant) with a prox-capable closed convex part h. This module
also builds the three experiment families (sparse robust linear
regression, lasso, elastic net) from seeded random data and serializes
instances so runs are replayable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainError

Array = np.ndarray

@dataclass(frozen=True)
class SmoothOracle:
    """First-order oracle for a smooth function with L-Lipschitz gradient."""

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz: float

    def __post_init__(self):
        if not self.lipschitz > 0:
            raise DomainError("lipschitz constant must be positive")


@dataclass(frozen=True)
class ProxOperator:
    """Closed proper convex function with an exact proximal map.

    `subgradient_at_prox(x, gamma)` returns the s with
    prox(x, gamma) = x - gamma*s, which is a certified element of the
    subdifferential at the prox output.
    """

    value: Callable[[Array], float]
    prox: Callable[[Array, float], Array]
    subgradient_at_prox: Callable[[Array, float], Array] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.subgradient_at_prox is None:
            prox = self.prox
            object.__setattr__(
                self, "subgradient_at_prox", lambda x, gamma: (x - prox(x, gamma)) / gamma
            )


@dataclass(frozen=True)
class CompositeProblem:
    """F = f + h with an optional PL-type modulus.

    `mu_inequality` tags which inequality the modulus `mu` refers to:
    "pl" (subgradient-distance form) or "rpl" (prox-residual form).
    Oracles are pure functions of their inputs; instances are immutable
    and safe to share across threads.
    """

    f: SmoothOracle
    h: ProxOperator
    mu: Optional[float] = None
    mu_inequality: Optional[str] = None

    def __post_init__(self):
        if self.mu is not None:
            if not self.mu > 0:
                raise DomainError("mu must be positive when given")
            if self.mu_inequality not in ("pl", "rpl"):
                raise DomainError("mu requires mu_inequality 'pl' or 'rpl'")

    def objective(self, x: Array) -> float:
        return float(self.f.value(x)) + float(self.h.value(x))


def _check_data(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise DomainError("A must be a 2-d matrix")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise DomainError(f"b has length {b.shape[0] if b.ndim == 1 else '?'}, expected {A.shape[0]}")
    if not np.any(A):
        raise DomainError("A must be nonzero")
    return A, b


def least_squares_oracle(A, b) -> SmoothOracle:
    """Smooth part 0.5*||Ax - b||^2 with L = lambda_max(A^T A)."""
    A, b = _check_data(A, b)
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])

    def value(x):
        r = A @ x - b
        return 0.5 * float(r @ r)

    def gradient(x):
        return A.T @ (A @ x - b)

    return SmoothOracle(value, gradient, L)


def robust_log_oracle(A, b) -> SmoothOracle:
    """Smooth part sum_k log((Ax - b)_k^2 + 1).

    The scalar loss t -> log(t^2 + 1) has curvature in [-1/4, 2], so
    2*lambda_max(A^T A) is a valid (conservative) gradient Lipschitz
    constant for the composition.
    """
    A, b = _check_data(A, b)
    L = 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])

    def value(x):
        r = A @ x - b
        return float(np.sum(np.log1p(r * r)))

    def gradient(x):
        r = A @ x - b
        return A.T @ (2.0 * r / (r * r + 1.0))

    return SmoothOracle(value, gradient, L)


def soft_threshold(x, t):
    """Componentwise shrinkage toward zero by t >= 0."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def l1_prox(lam: float) -> ProxOperator:
    """h(x) = lam*||x||_1; prox is soft-thresholding at gamma*lam."""
    if not lam > 0:
        raise DomainError("lambda must be positive")

    def value(x):
        return lam * float(np.sum(np.abs(x)))

    def prox(x, gamma):
        return soft_threshold(x, gamma * lam)

    return ProxOperator(value, prox)


def elastic_net_prox(lam: float, delta: float) -> ProxOperator:
    """h(x) = lam*||x||_1 + (delta/2)*||x||^2.

    prox(x, gamma) = soft_threshold(x, gamma*lam) / (1 + gamma*delta),
    componentwise.
    """
    if not lam > 0:
        raise DomainError("lambda must be positive")
    if not delta > 0:
        raise DomainError("delta must be positive")

    def value(x):
        return lam * float(np.sum(np.abs(x))) + 0.5 * delta * float(x @ x)

    def prox(x, gamma):
        return soft_threshold(x, gamma * lam) / (1.0 + gamma * delta)

    return ProxOperator(value, prox)


def zero_prox() -> ProxOperator:
    """h = 0; the prox is the identity and every subgradient is zero."""
    return ProxOperator(
        value=lambda x: 0.0,
        prox=lambda x, gamma: np.asarray(x, dtype=float),
        subgradient_at_prox=lambda x, gamma: np.zeros_like(np.asarray(x, dtype=float)),
    )


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
        mu = float(np.linalg.eigvalsh(self.A.T @ self.A)[0]) + self.delta
        return CompositeProblem(
            least_squares_oracle(self.A, self.b),
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

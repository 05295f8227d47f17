"""Exact one-step worst case as a small semidefinite program.

For fixed (function class, inequality, L, mu, gamma) the largest one-step
objective gap F(x2) - F* over all instances satisfying the proof's
constraint set is a semidefinite program (performance estimation: Drori
& Teboulle, Math. Prog. 2014; Taylor, Hendrickx & Glineur, SIAM J.
Optim. 2017). Its variables are a PSD Gram matrix over the vector
symbols (g1, g2, s2) and the scalar values (f2, h2), normalized to
h1 = F(x1) - F* = 1 in the gauge `build_constraint` fixes (x1 = 0,
f(x1) = 0, F* = 0), and each constraint is a `build_constraint`
expression required to be <= 0. Its dual is the certificate problem:
nonnegative multipliers whose weighted constraint sum leaves a
nonpositive remainder; the dual value is an upper bound.

One primal-dual interior-point solve (HKM direction, Mehrotra
predictor-corrector; Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J.
Optim. 1996) returns both sides: the worst-case instance, whose gap
ratio is a lower bound, and one multiplier per constraint with the
upper bound. The two must agree to DUALITY_GAP_TOL, and the lower bound
must never exceed the analytic rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certificate import CONSTRAINT_NAMES, build_constraint
from .errors import DomainError, VerificationError
from .rates import CASES, rate_formula

# per pair, the constraints its certificates use, in CONSTRAINT_NAMES order
CONSTRAINT_SETS = {
    pair: tuple(n for n in CONSTRAINT_NAMES if any(n == cname for cert in certs for cname, _, _ in cert.multipliers))
    for pair, certs in CASES.items()
}

SOUNDNESS_SLACK = 1e-6
DUALITY_GAP_TOL = 1e-8
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class SearchParams:
    fn_class: str
    ineq: str
    L: float
    mu: float
    gamma: float

    def __post_init__(self):
        if (self.fn_class, self.ineq) not in CONSTRAINT_SETS:
            raise DomainError(f"unknown class/inequality pair ({self.fn_class!r}, {self.ineq!r})")
        # mu > L stays allowed; a subnormal L leaves no finite bound on gamma
        if not (0 < self.L and 0 < 2.0 / self.L < math.inf and 0 < self.mu < math.inf):
            raise DomainError(f"L, 2/L and mu must be positive and finite, got L={self.L!r}, mu={self.mu!r}")
        if not 0 < self.gamma < 2.0 / self.L:
            raise DomainError(f"gamma out of (0, 2/L): gamma={self.gamma!r}, L={self.L!r}")

    @property
    def constraint_names(self):
        return CONSTRAINT_SETS[(self.fn_class, self.ineq)]


@dataclass
class SearchInstance:
    """A concrete candidate: Gram factor, scalar values, and its slacks."""

    params: SearchParams
    V: np.ndarray  # (3, 3), one row per vector symbol (g1, g2, s2)
    f2: float
    h2: float

    @property
    def gram(self) -> np.ndarray:
        return self.V @ self.V.T

    @property
    def scalars(self) -> np.ndarray:
        return np.array([self.f2, 1.0, self.h2])

    @property
    def ratio(self) -> float:
        return self.f2 + self.h2

    def slacks(self) -> dict:
        """Constraint slacks re-evaluated from the Gram matrix directly."""
        p = self.params
        out = {}
        for name in p.constraint_names:
            expr = build_constraint(name, p.L, p.mu, p.gamma)
            out[name] = float(expr.evaluate(self.gram, self.scalars))
        return out

    @property
    def feasible(self) -> bool:
        return max(self.slacks().values()) <= FEASIBILITY_TOL


@dataclass
class SearchResult:
    """Both sides of one solve: the worst-case instance, whose ratio
    `best_ratio` is the lower bound, and the constraint multipliers with
    their value `upper`, the upper bound; next to them the analytic rate
    and the instance's largest constraint slack."""

    instance: SearchInstance
    best_ratio: float
    upper: float
    multipliers: dict
    iterations: int
    analytic_rate: float
    max_slack: float

    restarts_used = 1  # one deterministic solve; the output columns keep the count

    @property
    def gap(self) -> float:
        return self.analytic_rate - self.best_ratio

    @property
    def duality_gap(self) -> float:
        return self.upper - self.best_ratio


def _step_to_boundary(X, dX, lam, dlam):
    """Largest step keeping X + a*dX PSD and lam + a*dlam nonnegative."""
    Linv = np.linalg.inv(np.linalg.cholesky(X))
    worst = min(float(np.linalg.eigvalsh(Linv @ dX @ Linv.T)[0]), float(np.min(dlam / lam)))
    return np.inf if worst >= 0 else -1.0 / worst


def _interior_point(AS, AL, CL, h):
    """Primal-dual interior-point method on the cone S^n_+ x R^m_+.

    Primal: min CL.lam  s.t. <AS_k, X> + AL_k.lam = h_k, (X, lam) in the cone.
    Dual:   max h.y     s.t. Z = -sum_k y_k AS_k and t = CL - AL^T y in the cone.
    Stops once the relative residuals and the relative gap are below
    1e-10, when the Newton system turns singular near the optimum, when
    eight iterations after reaching 1e-8 have not improved on the best
    iterate (rounding then limits progress), or after 50 iterations.
    Returns (lam, y) of the iterate where the largest of those three
    measures was smallest, and the iteration count.
    """
    p, n, _ = AS.shape
    m = AL.shape[1]
    X, lam, Z, t = np.eye(n), np.ones(m), np.eye(n), np.ones(m)
    y = np.zeros(p)
    scale_p, scale_d = 1.0 + np.linalg.norm(h), 1.0 + np.linalg.norm(CL)
    best, best_error, best_it = (lam, y), np.inf, 0
    for it in range(1, 51):
        rp = h - np.einsum("kij,ij->k", AS, X) - AL @ lam
        RS = -np.einsum("k,kij->ij", y, AS) - Z
        RL = CL - AL.T @ y - t
        pobj, dobj = CL @ lam, h @ y
        error = max(
            np.linalg.norm(rp) / scale_p,
            np.sqrt(np.sum(RS * RS) + RL @ RL) / scale_d,
            abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        )
        if error < best_error:
            best, best_error, best_it = (lam, y), error, it
        if error <= 1e-10 or (best_error <= 1e-8 and it - best_it >= 8):
            break
        mu = (np.sum(X * Z) + lam @ t) / (n + m)
        try:
            Zi = np.linalg.inv(Z)
            M = np.einsum("jab,kba->jk", AS, X @ AS @ Zi) + (AL * (lam / t)) @ AL.T
            base = rp + np.einsum("kij,ij->k", AS, X @ RS @ Zi) + AL @ (lam * RL / t)

            def direction(RcS, RcL):
                rhs = base - np.einsum("kij,ij->k", AS, RcS @ Zi) - AL @ (RcL / t)
                dy = np.linalg.lstsq(M, rhs, rcond=None)[0]
                dZ = RS - np.einsum("k,kij->ij", dy, AS)
                dt = RL - AL.T @ dy
                dX = (RcS - X @ dZ) @ Zi
                return (dX + dX.T) / 2, (RcL - lam * dt) / t, dy, dZ, dt

            # predictor (affine scaling), then Mehrotra's centering and correction
            dX, dlam, dy, dZ, dt = direction(-X @ Z, -lam * t)
            ap = min(1.0, _step_to_boundary(X, dX, lam, dlam))
            ad = min(1.0, _step_to_boundary(Z, dZ, t, dt))
            mu_aff = (np.sum((X + ap * dX) * (Z + ad * dZ)) + (lam + ap * dlam) @ (t + ad * dt)) / (n + m)
            sigma = min(1.0, (mu_aff / mu) ** 3)
            dX, dlam, dy, dZ, dt = direction(
                sigma * mu * np.eye(n) - X @ Z - dX @ dZ, sigma * mu - lam * t - dlam * dt
            )
            ap = min(1.0, 0.98 * _step_to_boundary(X, dX, lam, dlam))
            ad = min(1.0, 0.98 * _step_to_boundary(Z, dZ, t, dt))
            # backtrack until no complementary pair falls below a fraction of
            # their mean: a pair that runs ahead to the boundary stalls the
            # later steps (a wide-neighborhood safeguard)
            for _ in range(40):
                Xn, lamn, Zn, tn = X + ap * dX, lam + ap * dlam, Z + ad * dZ, t + ad * dt
                Lx = np.linalg.cholesky(Xn)
                smallest = min(np.linalg.eigvalsh(Lx.T @ Zn @ Lx)[0], np.min(lamn * tn))
                if smallest >= 1e-3 * (np.sum(Xn * Zn) + lamn @ tn) / (n + m):
                    break
                ap, ad = 0.8 * ap, 0.8 * ad
        except np.linalg.LinAlgError:
            break
        X, lam = X + ap * dX, lam + ap * dlam
        y, Z, t = y + ad * dy, Z + ad * dZ, t + ad * dt
    return (*best, it)


def search_worst_case(params: SearchParams, restarts=None, budget=None, seed=None) -> SearchResult:
    """The exact worst case of the constraint set, from one SDP solve.

    Each constraint set touches all of (g1, g2, s2) and both of (f2, h2);
    a variable that entered no constraint would leave the certificate
    side without an interior point. `restarts`, `budget` and `seed` are
    accepted and not read: they belong to the multistart search this
    solve replaced, and callers still pass them. Raises VerificationError
    if the two bounds differ by more than DUALITY_GAP_TOL, if the instance
    is infeasible beyond FEASIBILITY_TOL, or if its ratio exceeds the
    analytic rate beyond SOUNDNESS_SLACK (that would mean the constraint
    encoding and the certificates disagree).
    """
    p = params
    exprs = [build_constraint(name, p.L, p.mu, p.gamma) for name in p.constraint_names]
    Q = np.stack([e.Q for e in exprs])
    c = np.stack([e.c for e in exprs])
    Q_scale = np.abs(Q).max()  # the solver's Gram variable is Q_scale * Gram
    n = Q.shape[1]

    # <Q_i, G> + a_i.(f2, h2) <= b_i at h1 = 1; c's columns are (f2, h1, h2)
    a, b = c[:, [0, 2]], -c[:, 1]
    objective = np.ones(2)

    # y = (scaled Gram entries in an orthonormal basis E of the symmetric
    # matrices, f2, h2); the dual slack is the Gram block and the
    # constraint slacks, the primal the certificate
    rows, cols = np.triu_indices(n)
    k = np.arange(len(rows))
    E = np.zeros((len(rows), n, n))
    E[k, rows, cols] = E[k, cols, rows] = np.where(rows == cols, 1.0, np.sqrt(0.5))
    AS = np.concatenate([-E, np.zeros((2, n, n))])
    AL = np.concatenate([np.einsum("mij,kij->km", Q / Q_scale, E), a.T])
    h = np.concatenate([np.zeros(len(k)), objective])

    lam, y, iterations = _interior_point(AS, AL, b, h)

    gram = np.einsum("k,kij->ij", y[: len(k)], E) / Q_scale
    w, vecs = np.linalg.eigh(gram)
    V = vecs * np.sqrt(np.maximum(w, 0.0))
    f2, h2 = (float(v) for v in y[len(k) :])
    instance = SearchInstance(p, V, f2, h2)
    lower, upper = instance.ratio, float(b @ lam)
    if not abs(upper - lower) <= DUALITY_GAP_TOL:
        raise VerificationError(
            f"one-step SDP for {p.fn_class}/{p.ineq} at gamma={p.gamma!r} did not converge: "
            f"bounds {lower!r} and {upper!r} after {iterations} iterations"
        )
    gram, scalars = instance.gram, instance.scalars
    max_slack = max(float(e.evaluate(gram, scalars)) for e in exprs)
    if not max_slack <= FEASIBILITY_TOL:
        raise VerificationError(
            f"worst-case instance for {p.fn_class}/{p.ineq} at gamma={p.gamma!r} is infeasible "
            f"(max slack {max_slack:.3e}, tol {FEASIBILITY_TOL:.1e})"
        )
    analytic = rate_formula(p.fn_class, p.ineq, p.L, p.mu, p.gamma).rho
    if not lower <= analytic + SOUNDNESS_SLACK:
        raise VerificationError(
            f"searched ratio {lower!r} exceeds analytic rate {analytic!r} "
            f"for {p.fn_class}/{p.ineq} at gamma={p.gamma!r}"
        )
    multipliers = dict(zip(p.constraint_names, map(float, lam)))
    return SearchResult(instance, lower, upper, multipliers, iterations, analytic, max_slack)


def tightness_curve(fn_class: str, ineq: str, L: float, mu: float, gamma_grid: Sequence[float]) -> list[SearchResult]:
    """Search at every point of a gamma grid.

    Gaps above the reporting tolerance are findings, not failures; only
    soundness violations raise.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    return [search_worst_case(SearchParams(fn_class, ineq, L, mu, float(g))) for g in grid]


def write_tightness_csv(path, rows: Sequence[SearchResult]):
    from .tableio import write_csv

    write_csv(
        path,
        ["gamma", "analytic_rate", "searched_ratio", "gap", "restarts_used"],
        [[r.instance.params.gamma, r.analytic_rate, r.best_ratio, r.gap, r.restarts_used] for r in rows],
    )

"""The proximal gradient iteration and its per-step diagnostics.

One step from x is prox_{gamma*h}(x - gamma*grad_f(x)). The recorded
residual is the prox-gradient map

    G_gamma(x) = (x - prox_{gamma*h}(x - gamma*grad_f(x))) / gamma,

computed as grad_f(x) + s_next, where s_next is the prox-certified
subgradient at the new point; that form makes the iteration identity
x_next = x - gamma*(g + s_next) hold to roundoff and reduces exactly to
grad_f(x) when h = 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NonFiniteError
from .problem import CompositeProblem

_EPS = float(np.finfo(float).eps)

# gaps below this multiple of machine epsilon are 0/0 noise, not signal
CONTRACTION_SIGNIFICANCE = 1e2

# residual-norm tolerance of the reference run behind estimate_fstar
FSTAR_STOP_TOL = 1e-13


@dataclass(frozen=True)
class PgmConfig:
    """Run parameters; `step` must satisfy 0 < step < 2/L at run start."""

    step: float
    max_iters: int = 100_000
    stop_tol: float = 1e-10

    def validate(self, lipschitz: float):
        if not self.step > 0 or not self.step < 2.0 / lipschitz:
            raise DomainError(
                f"gamma out of (0, 2/L): gamma={self.step!r}, L={lipschitz!r}"
            )
        if self.max_iters < 1:
            raise DomainError("max_iters must be positive")
        if self.stop_tol < 0:
            raise DomainError("stop_tol must be nonnegative")


@dataclass
class Trace:
    """Per-iterate record of a run.

    Row i holds the i-th visited point with its objective value, the
    residual norm ||G_gamma(x_i)||, the gradient g_i, and the certified
    subgradient s_{i+1} at the *next* point. `points`, `gradients` and `subgradients`
    are (n, d) arrays, the rest length-n vectors; the final visited point
    is the last row.
    """

    gamma: float
    points: np.ndarray
    F_vals: np.ndarray
    residual_norms: np.ndarray
    gradients: np.ndarray
    subgradients: np.ndarray
    stopped_on: str  # "stop_tol" | "max_iters"
    increase_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def monotone(self) -> bool:
        return self.increase_indices.size == 0

    def _significant_gaps(self, fstar: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-row gaps F_i - F*, and the mask of steps i -> i+1 whose two
        gaps both clear the significance floor (so neither is zero)."""
        gaps = self.F_vals - fstar
        floor = CONTRACTION_SIGNIFICANCE * _EPS * (1.0 + abs(fstar))
        return gaps, (gaps[:-1] > floor) & (gaps[1:] > floor)

    def contraction_factors(self, fstar: float) -> np.ndarray:
        """(F_{i+1} - F*)/(F_i - F*) on steps where the gap is significant."""
        gaps, significant = self._significant_gaps(fstar)
        return gaps[1:][significant] / gaps[:-1][significant]

    def to_csv(self, path, fstar: Optional[float] = None):
        """Write iter, F, gap, residual_norm, contraction rows.

        Gap and contraction columns are left blank when fstar is unknown
        or when the gap falls below the significance floor.
        """
        from .tableio import format_float, write_csv

        rows = [
            [i + 1, format_float(F), "", format_float(r), ""]
            for i, (F, r) in enumerate(zip(self.F_vals, self.residual_norms))
        ]
        if fstar is not None:
            gaps, significant = self._significant_gaps(fstar)
            for row, gap in zip(rows, gaps):
                row[2] = format_float(gap)
            for i, factor in zip(np.flatnonzero(significant) + 1, self.contraction_factors(fstar)):
                rows[i][4] = format_float(factor)
        write_csv(path, ["iter", "F", "gap", "residual_norm", "contraction"], rows)


class _Eval(NamedTuple):
    F: float  # f(x) + h(x)
    g: np.ndarray
    y: np.ndarray  # next point
    s_next: np.ndarray
    residual: np.ndarray


def _evaluate(problem: CompositeProblem, gamma: float, x: np.ndarray, index: int) -> _Eval:
    fval = float(problem.f.value(x))
    g = np.asarray(problem.f.gradient(x), dtype=float)
    if not np.isfinite(fval) or not np.all(np.isfinite(g)):
        raise NonFiniteError(f"non-finite f value/gradient at iteration {index}", index)
    hval = float(problem.h.value(x))
    if not np.isfinite(hval):
        raise NonFiniteError(f"non-finite h value at iteration {index}", index)
    u = x - gamma * g
    y = np.asarray(problem.h.prox(u, gamma), dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonFiniteError(f"non-finite prox output at iteration {index}", index)
    s_next = (u - y) / gamma
    residual = g + s_next
    return _Eval(fval + hval, g, y, s_next, residual)


def residual(problem: CompositeProblem, gamma: float, x) -> tuple[np.ndarray, float]:
    """Prox-gradient residual G_gamma(x) and its Euclidean norm."""
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("non-finite point passed to residual")
    ev = _evaluate(problem, gamma, x, 0)
    return ev.residual, float(np.linalg.norm(ev.residual))


def _iterates(problem: CompositeProblem, gamma: float, x1, max_iters: int, stop_tol: float):
    """Yield (x_i, _evaluate(x_i), ||G_gamma(x_i)||) for i = 1, 2, ...
    through the first point whose residual norm is at most stop_tol, or
    through x_{max_iters+1} when the budget runs out first."""
    x = np.array(x1, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("non-finite starting point")
    for i in range(1, max_iters + 2):
        ev = _evaluate(problem, gamma, x, i)
        rnorm = float(np.linalg.norm(ev.residual))
        yield x, ev, rnorm
        if rnorm <= stop_tol:
            return
        x = ev.y


def run_pgm(problem: CompositeProblem, config: PgmConfig, x1) -> Trace:
    """Run the iteration from x1 until stop_tol on ||G_gamma|| or max_iters.

    A value increase is recorded (not an error): with a valid step the
    objective is nonincreasing, so increases flag modeling or scaling
    problems in the oracles.
    """
    config.validate(problem.f.lipschitz)
    gamma = config.step
    rows = [
        (x, ev.g, ev.s_next, ev.F, rnorm)
        for x, ev, rnorm in _iterates(problem, gamma, x1, config.max_iters, config.stop_tol)
    ]
    points, grads, subs, F_vals, res_norms = (np.array(col) for col in zip(*rows))
    stopped_on = "stop_tol" if res_norms[-1] <= config.stop_tol else "max_iters"
    # flag only increases that exceed evaluation roundoff
    floor = 8.0 * _EPS * (1.0 + np.abs(F_vals[:-1]))
    increases = np.nonzero(np.diff(F_vals) > floor)[0] + 1
    return Trace(
        gamma=gamma,
        points=points,
        F_vals=F_vals,
        residual_norms=res_norms,
        gradients=grads,
        subgradients=subs,
        stopped_on=stopped_on,
        increase_indices=increases,
    )


class FstarEstimate(NamedTuple):
    """Best objective value found by a long reference run.

    `stale` is set when the budget ran out before the residual tolerance
    was met, i.e. the value may still be improvable. `iterations` counts
    the steps taken, as `Trace.iterations` does.
    """

    value: float
    stale: bool
    iterations: int


def estimate_fstar(problem: CompositeProblem, x1, max_iters: int = 200_000) -> FstarEstimate:
    """Surrogate optimal value from a long run with step 1/L, stopped at
    FSTAR_STOP_TOL on the residual norm.

    Only the best value is kept, so budgets in the hundreds of thousands
    of iterations stay cheap.
    """
    config = PgmConfig(1.0 / problem.f.lipschitz, max_iters, FSTAR_STOP_TOL)
    config.validate(problem.f.lipschitz)
    best = np.inf
    for steps, (_, ev, rnorm) in enumerate(_iterates(problem, config.step, x1, max_iters, FSTAR_STOP_TOL)):
        best = min(best, ev.F)
    return FstarEstimate(best, stale=rnorm > FSTAR_STOP_TOL, iterations=steps)

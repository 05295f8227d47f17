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

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NonFiniteError, check_parameters
from .problem import CompositeProblem, restricted_model

_EPS = float(np.finfo(float).eps)

# gaps below this multiple of eps*(1 + |F*|) are rounding, not signal.
# F sums m nonnegative terms (n losses, d penalties), and that sum errs by
# at most gamma_m*F, about (m/2)*eps*F (Higham 2002, sec. 4.2), so a gap
# above the floor is signal for m < K. A shift of F* by k ulps moves each
# factor whose gaps clear the floor by at most k/(K - k) relative
CONTRACTION_SIGNIFICANCE = 1e4

# residual-norm tolerance and least step budget of the reference run
# behind estimate_fstar
FSTAR_STOP_TOL = 1e-13
REFERENCE_BUDGET = 200_000

# a run stops at an iterate equal, bit for bit, to one of this many
# iterates before it; floating-point orbits of period up to 42 were seen
# on srlr at 0.5/L, and the bound keeps the memory of a run at O(64*d)
CYCLE_WINDOW = 64

# the reference run jumps to a Newton point once the sign pattern of its
# next point has held this many steps (srlr, lasso and elastic net at
# n = 200, d = 20 fix theirs after 4-36), and takes at most NEWTON_STEPS
# Newton steps per jump: srlr's restriction took up to 6, a quadratic one 1
SIGN_WINDOW = 5
NEWTON_STEPS = 8

# numpy's warnings that a step's arithmetic may raise on its way to a
# non-finite value, which `_evaluate` then names; a run enters this once
_QUIET = {"invalid": "ignore", "over": "ignore"}


def significance_floor(fstar: float) -> float:
    """Gaps F - fstar at or below this are rounding, not signal."""
    return CONTRACTION_SIGNIFICANCE * _EPS * (1.0 + abs(fstar))


@dataclass(frozen=True)
class PgmConfig:
    """Run parameters; at run start (L, step) must lie in
    `check_parameters`' domain, with L the gradient Lipschitz constant.
    Given a reference value, the run also stops at its first point within
    `significance_floor(reference)` of it."""

    step: float
    max_iters: int = 100_000
    stop_tol: float = 1e-10
    reference: Optional[float] = None

    def validate(self, lipschitz: float):
        check_parameters(lipschitz, gamma=self.step)
        if self.max_iters < 1:
            raise DomainError("max_iters must be positive")
        if not self.stop_tol >= 0:
            raise DomainError(f"stop_tol must be nonnegative, got {self.stop_tol!r}")
        if self.reference is not None and not math.isfinite(self.reference):
            raise DomainError(f"reference must be finite, got {self.reference!r}")


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
    # "reference" (F within the significance floor of PgmConfig.reference,
    # so later gaps would publish no factor) | "stop_tol" (residual norm at
    # most stop_tol) | "max_iters" (budget ran out) | "cycle" (the last
    # point repeats one of the CYCLE_WINDOW points before it bit for bit,
    # so later rows would repeat earlier ones)
    stopped_on: str
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
        floor = significance_floor(fstar)
        return gaps, (gaps[:-1] > floor) & (gaps[1:] > floor)

    def contraction_factors(self, fstar: float) -> np.ndarray:
        """(F_{i+1} - F*)/(F_i - F*) on steps where the gap is significant."""
        gaps, significant = self._significant_gaps(fstar)
        return gaps[1:][significant] / gaps[:-1][significant]

    def to_csv(self, path, fstar: Optional[float] = None):
        """Write iter, F, gap, residual_norm, contraction rows.

        Gap and contraction columns are left blank when fstar is unknown,
        and a contraction cell also unless both its gaps clear the floor.
        """
        from .tableio import write_csv

        rows = [[i + 1, F, None, r, None] for i, (F, r) in enumerate(zip(self.F_vals, self.residual_norms))]
        if fstar is not None:
            gaps, significant = self._significant_gaps(fstar)
            for row, gap in zip(rows, gaps):
                row[2] = gap
            for i, factor in zip(np.flatnonzero(significant) + 1, self.contraction_factors(fstar)):
                rows[i][4] = factor
        write_csv(path, ["iter", "F", "gap", "residual_norm", "contraction"], rows)


class _Eval(NamedTuple):
    F: float  # f(x) + h(x)
    g: np.ndarray
    y: np.ndarray  # next point
    s_next: np.ndarray
    residual: np.ndarray
    rnorm: float  # ||residual||


def _evaluate(problem: CompositeProblem, gamma: float, x: np.ndarray, index: int) -> _Eval:
    """One step from x. Call it under np.errstate(**_QUIET): an overflow
    makes an inf, and a NaN or inf in g or y reaches rnorm, sometimes
    through inf - inf, where the checks below name it."""
    fval, g = problem.f.value_and_gradient(x)
    hval = float(problem.h.value(x))
    u = x - gamma * g
    y = np.asarray(problem.h.prox(u, gamma), dtype=float)
    s_next = (u - y) / gamma
    residual = g + s_next
    rnorm = math.sqrt(residual.dot(residual))  # np.linalg.norm's formula, without its wrapper
    # one scalar test per step; the array tests run only when it fails,
    # and pass when the norm alone overflowed
    if not (math.isfinite(fval) and math.isfinite(hval) and math.isfinite(rnorm)):
        if not np.isfinite(fval) or not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite f value/gradient at iteration {index}", index)
        if not np.isfinite(hval):
            raise NonFiniteError(f"non-finite h value at iteration {index}", index)
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(f"non-finite prox output at iteration {index}", index)
        if np.all(np.isfinite(residual)):  # the squares overflowed: rescale
            m = float(np.max(np.abs(residual)))
            rnorm = m * float(np.linalg.norm(residual / m))
    return _Eval(fval + hval, g, y, s_next, residual, rnorm)


def residual(problem: CompositeProblem, gamma: float, x) -> tuple[np.ndarray, float]:
    """Prox-gradient residual G_gamma(x) and its Euclidean norm.

    G_gamma is defined for every gamma > 0, so gamma is not bounded by 2/L
    here; it must be positive and finite, and only a run's step
    (`PgmConfig`) must lie in (0, 2/L)."""
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("non-finite point passed to residual")
    with np.errstate(**_QUIET):
        ev = _evaluate(problem, gamma, x, 0)
    return ev.residual, ev.rnorm


def _iterates(
    problem: CompositeProblem, gamma: float, x1, max_iters: int, stop_tol: float, reference: Optional[float] = None, first: int = 1
):
    """Yield (x_i, _evaluate(x_i), stop) for i = first, first + 1, ...,
    with x_first = x1; `stop` is None except on the last point, where it
    is the run's `Trace.stopped_on`. A `first` above 1 continues a run
    whose earlier points came from elsewhere, under the same budget.

    The run stops at the first point whose F lies within the significance
    floor of `reference` (when one is given), whose residual norm is at
    most stop_tol, or that equals one of the CYCLE_WINDOW points before it
    (the map is deterministic, so every later row would repeat an
    earlier one), or at x_{max_iters+1}. Consume it under
    np.errstate(**_QUIET) (see `_evaluate`).
    """
    x = np.array(x1, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("non-finite starting point")
    recent = {}  # byte keys of the last CYCLE_WINDOW points, oldest first
    floor = significance_floor(reference or 0.0)
    for i in range(first, max_iters + 2):
        ev = _evaluate(problem, gamma, x, i)
        key = x.tobytes()
        if reference is not None and abs(ev.F - reference) <= floor:
            stop = "reference"
        elif ev.rnorm <= stop_tol:
            stop = "stop_tol"
        elif key in recent:
            stop = "cycle"
        elif i > max_iters:
            stop = "max_iters"
        else:
            stop = None
        yield x, ev, stop
        if stop is not None:
            return
        recent[key] = None
        if len(recent) > CYCLE_WINDOW:
            del recent[next(iter(recent))]
        x = ev.y


def run_pgm(problem: CompositeProblem, config: PgmConfig, x1) -> Trace:
    """Run the iteration from x1 until the reference value (if given),
    stop_tol on ||G_gamma||, a floating-point cycle, or max_iters.

    A value increase is recorded (not an error): with a valid step the
    objective is nonincreasing, so increases flag modeling or scaling
    problems in the oracles.
    """
    config.validate(problem.f.lipschitz)
    gamma = config.step
    # rows are appended as bytes and viewed once as (n, d) arrays at the
    # end, which costs less per step than stacking per-row arrays
    points, grads, subs = bytearray(), bytearray(), bytearray()
    F_list, rnorm_list = [], []
    with np.errstate(**_QUIET):
        for x, ev, stopped_on in _iterates(problem, gamma, x1, config.max_iters, config.stop_tol, config.reference):
            points += x.tobytes()
            grads += ev.g.tobytes()
            subs += ev.s_next.tobytes()
            F_list.append(ev.F)
            rnorm_list.append(ev.rnorm)
    F_vals, res_norms = np.array(F_list), np.array(rnorm_list)
    points, grads, subs = (np.frombuffer(rows).reshape(F_vals.size, -1) for rows in (points, grads, subs))
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
    """Best objective value found by the reference run.

    `value` is the least F that a PGM step evaluated. `stale` is set only
    when the budget ran out, i.e. the value may still be improvable. A run
    that stops at a floating-point cycle is not stale: further steps would
    revisit the same points, so they cannot lower the best value.
    `iterations` counts the steps taken, as `Trace.iterations` does: the
    points visited, less one. `warm_start` is the outcome of the run's
    last Newton attempt (see `estimate_fstar`): None where there was none
    (no family data, or a stop rule came first), "newton" where PGM
    resumed from the Newton point, or the reason PGM went on from its own
    point instead: "indefinite" (the restricted Hessian has no Cholesky
    factor) or "no_decrease" (Newton did not lower the restricted F).
    """

    value: float
    stale: bool
    iterations: int
    warm_start: Optional[str] = None


def _newton(model, x) -> tuple[Optional[np.ndarray], str]:
    """At most NEWTON_STEPS Newton steps on `model` (see
    `problem.restricted_model`) from x, over x's support and signs.

    A coordinate whose sign a step would flip, or zero, is dropped from
    the support, set to 0, and the step solved again. Steps go on while
    each lowers the norm of the restricted gradient without raising F
    above its value at x, until that norm is at most FSTAR_STOP_TOL.
    Returns the last such point and "newton" if its F is below x's, else
    None and the reason ("indefinite": the restricted Hessian has no
    Cholesky factor; "no_decrease"). x itself is never written.
    """
    z = x
    support = np.flatnonzero(z)
    start_F, g, H = model(z, support)
    best, best_F, best_norm = None, start_F, math.sqrt(g @ g)
    for _ in range(NEWTON_STEPS):
        try:
            factor = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            if best is None:
                return None, "indefinite"
            break
        trial = z[support] - np.linalg.solve(factor.T, np.linalg.solve(factor, g))
        flipped = np.sign(trial) != np.sign(z[support])
        z = z.copy()
        if flipped.any():
            z[support[flipped]] = 0.0
            support = support[~flipped]
            _, g, H = model(z, support)
            continue
        z[support] = trial
        F, g, H = model(z, support)
        norm = math.sqrt(g @ g)
        if not (norm < best_norm and F <= start_F):
            break
        best, best_F, best_norm = z, F, norm
        if norm <= FSTAR_STOP_TOL:
            break
    if best is None or not best_F < start_F:
        return None, "no_decrease"
    return best, "newton"


def estimate_fstar(problem: CompositeProblem, x1, max_iters: int = REFERENCE_BUDGET) -> FstarEstimate:
    """Surrogate optimal value from a run with step 1/L, stopped at
    FSTAR_STOP_TOL on the residual norm, at a floating-point cycle, or
    when max_iters steps are spent.

    On a family problem (`problem.restricted_model`), once the sign
    pattern of the next point has held SIGN_WINDOW steps, Newton steps on
    F restricted to that support and those signs (`_newton`) move the
    next point, and PGM resumes from there under the same stop rules and
    budget, so a PGM step confirms every value. The pattern can still
    change after a jump (a coordinate may cross zero on its way to the
    optimum); once a new one holds SIGN_WINDOW steps, Newton runs again.
    Where Newton fails, PGM goes on from its own next point and takes no
    more Newton steps, so a run whose first attempt fails is the plain run
    bit for bit.

    Only the best value is kept, so budgets in the hundreds of thousands
    of iterations stay cheap.
    """
    config = PgmConfig(1.0 / problem.f.lipschitz, max_iters, FSTAR_STOP_TOL)
    config.validate(problem.f.lipschitz)
    model = restricted_model(problem)
    best, warm_start, held, pattern, i = np.inf, None, 0, None, 0
    with np.errstate(**_QUIET):
        run = _iterates(problem, config.step, x1, max_iters, FSTAR_STOP_TOL)
        while True:
            for i, (_, ev, stop) in enumerate(run, i + 1):
                best = min(best, ev.F)
                if model is not None and stop is None:
                    signs = np.sign(ev.y).tobytes()
                    held = held + 1 if signs == pattern else 0
                    pattern = signs
                    if held == SIGN_WINDOW:
                        start, warm_start = _newton(model, ev.y)
                        break
            else:
                break
            if start is None:
                model = None
            else:
                run = _iterates(problem, config.step, start, max_iters, FSTAR_STOP_TOL, first=i + 1)
                held = 0
    return FstarEstimate(best, stale=stop == "max_iters", iterations=i - 1, warm_start=warm_start)

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from proxrate import pgm
from proxrate.errors import DomainError, NonFiniteError
from proxrate.pgm import (
    CYCLE_WINDOW,
    FSTAR_STOP_TOL,
    REFERENCE_BUDGET,
    PgmConfig,
    _evaluate,
    estimate_fstar,
    residual,
    run_pgm,
)
from proxrate.problem import (
    CompositeProblem,
    ProxOperator,
    SmoothOracle,
    generate_instance,
    l1_prox,
    least_squares_oracle,
    robust_log_oracle,
    zero_prox,
)

EPS = float(np.finfo(float).eps)


def without_family_data(problem):
    """The same F through user-built oracles, which carry no family data:
    its reference run is PGM alone."""
    f = SmoothOracle(problem.f.value, problem.f.gradient, problem.f.lipschitz)
    return CompositeProblem(f, ProxOperator(problem.h.value, problem.h.prox), problem.mu, problem.mu_inequality)


@pytest.fixture
def visited(monkeypatch):
    """(point bytes, F, stop) of every point the runs' `_iterates` yield."""
    seen = []
    original = pgm._iterates

    def recording(*args, **kwargs):
        for x, ev, stop in original(*args, **kwargs):
            seen.append((x.tobytes(), ev.F, stop))
            yield x, ev, stop

    monkeypatch.setattr(pgm, "_iterates", recording)
    return seen


def quadratic_problem():
    # f = 0.5*x^2 in one dimension, h = 0
    f = SmoothOracle(
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=float),
        lipschitz=1.0,
    )
    return CompositeProblem(f, zero_prox())


class TestConfig:
    def test_step_domain(self):
        with pytest.raises(DomainError):
            PgmConfig(step=2.0).validate(1.0)
        with pytest.raises(DomainError):
            PgmConfig(step=0.0).validate(1.0)
        PgmConfig(step=1.999).validate(1.0)

    @pytest.mark.parametrize("reference", [math.inf, -math.inf, math.nan])
    def test_reference_must_be_finite(self, reference):
        # an infinite reference would stop every run at its first point
        with pytest.raises(DomainError):
            PgmConfig(step=1.0, reference=reference).validate(1.0)

    def test_run_rejects_bad_step(self):
        with pytest.raises(DomainError):
            run_pgm(quadratic_problem(), PgmConfig(step=3.0), np.array([1.0]))

    def test_non_finite_start(self):
        with pytest.raises(NonFiniteError):
            run_pgm(quadratic_problem(), PgmConfig(step=1.0), np.array([np.nan]))


class TestRunExamples:
    def test_exact_minimizer_in_one_step(self):
        trace = run_pgm(quadratic_problem(), PgmConfig(step=1.0, max_iters=1), np.array([4.0]))
        assert trace.points[1][0] == 0.0
        assert trace.residual_norms[0] == 4.0

    def test_soft_threshold_step(self):
        problem = CompositeProblem(quadratic_problem().f, l1_prox(1.0))
        trace = run_pgm(problem, PgmConfig(step=1.0, max_iters=1), np.array([4.0]))
        assert trace.points[1][0] == 0.0

    def test_lasso_converges_with_monotone_gaps(self):
        data = generate_instance("lasso", 80, 10, 0.1, seed=11)
        problem = data.problem()
        config = PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=50_000, stop_tol=1e-10)
        trace = run_pgm(problem, config, np.zeros(10))
        assert trace.stopped_on == "stop_tol"
        assert trace.residual_norms[-1] <= 1e-10
        fstar = estimate_fstar(problem, np.zeros(10)).value
        factors = trace.contraction_factors(fstar)
        assert factors.size > 0
        assert float(factors.max()) <= 1.0 + 1e-12

    def test_iteration_identity_holds(self):
        data = generate_instance("lasso", 40, 6, 0.1, seed=2)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.2 / problem.f.lipschitz, max_iters=300, stop_tol=0.0), np.zeros(6))
        for i in range(len(trace.points) - 1):
            predicted = trace.points[i] - trace.gamma * (trace.gradients[i] + trace.subgradients[i])
            err = np.linalg.norm(predicted - trace.points[i + 1])
            assert err <= 1e-12 * max(1.0, np.linalg.norm(trace.points[i + 1]))

    def test_objective_monotone_for_valid_steps(self):
        data = generate_instance("srlr", 50, 8, 0.1, seed=4)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.9 / problem.f.lipschitz, max_iters=2_000, stop_tol=0.0), np.zeros(8))
        assert trace.monotone


class TestResidual:
    def test_zero_h_gives_gradient_exactly(self, rng):
        data = generate_instance("lasso", 30, 5, 0.1, seed=7)
        problem = CompositeProblem(data.problem().f, zero_prox())
        x = rng.standard_normal(5)
        G, norm = residual(problem, 0.37, x)
        assert np.array_equal(G, problem.f.gradient(x))
        assert norm == np.linalg.norm(G)

    def test_one_dimensional_arithmetic(self):
        G, norm = residual(quadratic_problem(), 0.5, np.array([2.0]))
        assert G[0] == 2.0 and norm == 2.0

    def test_zero_at_solved_point(self):
        data = generate_instance("lasso", 60, 8, 0.1, seed=13)
        problem = data.problem()
        config = PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=200_000, stop_tol=1e-12)
        trace = run_pgm(problem, config, np.zeros(8))
        _, norm = residual(problem, trace.gamma, trace.final_point)
        assert norm <= 1e-9

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(DomainError):
            residual(quadratic_problem(), 0.0, np.array([1.0]))

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_a_non_finite_gamma(self, gamma):
        # G_gamma needs a finite gamma; an infinite one is a domain error,
        # not a non-finite prox output
        with pytest.raises(DomainError, match="gamma must be positive and finite"):
            residual(quadratic_problem(), gamma, np.array([1.0]))


class TestEstimateFstar:
    def test_pure_quadratic(self):
        est = estimate_fstar(quadratic_problem(), np.array([3.0]))
        assert est.value == pytest.approx(0.0, abs=1e-20)
        assert not est.stale

    def test_one_dimensional_lasso(self):
        problem = CompositeProblem(
            least_squares_oracle(np.array([[1.0]]), np.array([1.0])), l1_prox(0.5)
        )
        est = estimate_fstar(problem, np.array([0.0]))
        assert est.value == pytest.approx(0.375, abs=1e-12)

    def test_two_runs_agree(self, rng):
        data = generate_instance("elastic_net", 60, 8, 0.1, seed=21, delta=1.0)
        problem = data.problem()
        a = estimate_fstar(problem, np.zeros(8))
        b = estimate_fstar(problem, rng.standard_normal(8) * 5.0)
        assert abs(a.value - b.value) <= 1e-10 * (1.0 + abs(a.value))

    @pytest.mark.parametrize("max_iters", [10_000, 20])
    def test_matches_run_pgm_at_1_over_L(self, max_iters):
        # without family data, the same iteration: the best value is the
        # trace's minimum and the iteration count is the number of steps taken
        data = generate_instance("lasso", 40, 6, 0.1, seed=3)
        problem = without_family_data(data.problem())
        est = estimate_fstar(problem, np.zeros(6), max_iters=max_iters)
        trace = run_pgm(problem, PgmConfig(1.0 / problem.f.lipschitz, max_iters, 1e-13), np.zeros(6))
        assert trace.stopped_on == ("stop_tol" if max_iters == 10_000 else "max_iters")
        assert est.value == trace.F_vals.min()
        assert est.iterations == trace.iterations
        assert est.stale == (trace.stopped_on == "max_iters")

    def test_rejects_empty_budget(self):
        with pytest.raises(DomainError):
            estimate_fstar(quadratic_problem(), np.array([3.0]), max_iters=0)

    def test_stale_flag_on_tiny_budget(self):
        data = generate_instance("lasso", 40, 6, 0.1, seed=3)
        est = estimate_fstar(data.problem(), np.zeros(6), max_iters=3)
        assert est.stale

    def test_cycling_reference_run_is_not_stale(self):
        # scaled up, the residual's roundoff floor (about 1e-11) lies above
        # FSTAR_STOP_TOL, and the 1/L run cycles instead of meeting it
        problem = without_family_data(scaled_lasso())
        est = estimate_fstar(problem, np.zeros(6))
        trace = run_pgm(problem, PgmConfig(1.0 / problem.f.lipschitz, 200_000, 1e-13), np.zeros(6))
        assert trace.stopped_on == "cycle"
        assert trace.residual_norms[-1] > 1e-13
        assert not est.stale
        assert est.iterations == trace.iterations < 200_000
        assert est.value == trace.F_vals.min()


FAMILIES = [("srlr", None), ("lasso", None), ("elastic_net", 1e-2), ("elastic_net", 1.0), ("elastic_net", 100.0)]

# most steps a reference run takes on the FAMILIES instances at n = 200,
# d = 20, seeds 0-9 (18 were seen; the plain 1/L run takes 44-397)
NEWTON_REFERENCE_STEPS = 30


class TestNewtonReference:
    """The reference run of a family problem: PGM, Newton once the sign
    pattern holds, then PGM again from the Newton point."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind, delta", FAMILIES)
    def test_pgm_confirms_the_newton_point(self, kind, delta, seed, visited):
        problem = generate_instance(kind, 200, 20, 0.1, seed, delta).problem()
        est = estimate_fstar(problem, np.zeros(20))
        assert est.warm_start == "newton"
        assert visited[-1][2] == "stop_tol" and not est.stale
        assert est.iterations == len(visited) - 1 <= NEWTON_REFERENCE_STEPS
        assert est.value == min(F for _, F, _ in visited)
        plain = run_pgm(problem, PgmConfig(1.0 / problem.f.lipschitz, REFERENCE_BUDGET, FSTAR_STOP_TOL), np.zeros(20))
        assert plain.stopped_on == "stop_tol" and est.iterations < plain.iterations
        assert abs(est.value - plain.F_vals.min()) <= 4 * EPS * abs(plain.F_vals.min())

    def test_forced_fallback_is_the_plain_run_bit_for_bit(self, visited):
        # srlr in one dimension, started far from b: the pattern holds at
        # once, while the residual's curvature is still negative there
        problem = CompositeProblem(robust_log_oracle(np.array([[1.0]]), np.array([10.0])), l1_prox(0.01))
        est = estimate_fstar(problem, np.zeros(1))
        newton_visits = visited[:]
        visited.clear()
        plain = estimate_fstar(without_family_data(problem), np.zeros(1))
        assert est.warm_start == "indefinite" and plain.warm_start is None
        assert est[:3] == plain[:3]
        assert newton_visits == visited
        assert est.iterations > pgm.SIGN_WINDOW

    def test_a_stop_rule_before_the_pattern_holds_leaves_the_plain_run(self):
        data = generate_instance("lasso", 40, 6, 0.1, seed=3)
        est = estimate_fstar(data.problem(), np.zeros(6), max_iters=3)
        assert est == estimate_fstar(without_family_data(data.problem()), np.zeros(6), max_iters=3)
        assert est.warm_start is None and est.stale

    def test_replaced_oracles_keep_the_warm_start(self):
        # f, h and the problem rebuilt around wrapped callables, as a caller
        # counting oracle calls does: the family data carries over
        problem = generate_instance("srlr", 200, 20, 0.1, seed=2).problem()
        calls = Counter()
        f = dataclasses.replace(
            problem.f,
            value=counted(problem.f.value, calls, "f.value"),
            gradient=counted(problem.f.gradient, calls, "f.gradient"),
        )
        h = dataclasses.replace(problem.h, value=counted(problem.h.value, calls, "h.value"), prox=counted(problem.h.prox, calls, "h.prox"))
        est = estimate_fstar(dataclasses.replace(problem, f=f, h=h), np.zeros(20))
        assert est == estimate_fstar(problem, np.zeros(20))
        assert est.warm_start == "newton"
        # the Newton steps call no oracle: each visited point costs one call of each
        assert calls == dict.fromkeys(["f.value", "f.gradient", "h.value", "h.prox"], est.iterations + 1)


class TestCycleStop:
    @pytest.fixture(scope="class")
    def run(self):
        # criterion 7's srlr instance at seed 0 and its 0.5/L policy
        problem = generate_instance("srlr", 200, 20, 0.1, seed=0).problem()
        trace = run_pgm(problem, PgmConfig(0.5 / problem.f.lipschitz, 60_000, 1e-14), np.zeros(20))
        return problem, trace

    def test_stops_at_a_repeated_point(self, run):
        _, trace = run
        assert trace.stopped_on == "cycle"
        assert trace.iterations < 60_000
        last = trace.final_point.tobytes()
        window = trace.points[-CYCLE_WINDOW - 1 : -1]
        assert any(p.tobytes() == last for p in window)
        # and it is the first repeat: the points before it are distinct
        keys = [p.tobytes() for p in trace.points[:-1]]
        assert len(set(keys)) == len(keys)

    def test_later_steps_add_no_new_values(self, run):
        problem, trace = run
        x, F_more = trace.final_point, []
        for i in range(2 * CYCLE_WINDOW):
            ev = _evaluate(problem, trace.gamma, x, i)
            F_more.append(ev.F)
            x = ev.y
        assert set(F_more) <= set(trace.F_vals)
        longer = dataclasses.replace(trace, F_vals=np.concatenate([trace.F_vals, F_more]))
        # both with the reference value and below it, where the cycle's
        # gaps clear the significance floor and yield factors
        fstar = estimate_fstar(problem, np.zeros(20)).value
        below = float(trace.F_vals.min()) - 1e-6
        for ref in (fstar, below):
            assert set(longer.contraction_factors(ref)) <= set(trace.contraction_factors(ref))
        assert longer.contraction_factors(below).size > trace.contraction_factors(below).size


def scaled_lasso():
    # scaled up, its 1/L run stops at a cycle (see test_cycling_reference_run_is_not_stale)
    data = generate_instance("lasso", 40, 6, 0.1, seed=0)
    return CompositeProblem(least_squares_oracle(data.A, 1e4 * data.b), l1_prox(1e3))


def family(kind, delta=None):
    return lambda: generate_instance(kind, 40, 6, 0.1, seed=2, delta=delta).problem()


FAMILY_RUNS = [
    # (problem, step in units of 1/L, max_iters, stop_tol), stopping on
    # max_iters, stop_tol, stop_tol, stop_tol and cycle
    pytest.param(family("srlr"), 0.5, 400, 1e-12, id="srlr-0.5"),
    pytest.param(family("srlr"), 1.7, 400, 1e-12, id="srlr-1.7"),
    pytest.param(family("lasso"), 1.0, 2_000, 1e-10, id="lasso-1"),
    pytest.param(family("elastic_net", 0.5), 1.5, 2_000, 1e-10, id="elastic_net-1.5"),
    pytest.param(scaled_lasso, 1.0, 2_000, 1e-13, id="scaled_lasso-1"),
]


def reference_run(problem, gamma, x1, max_iters, stop_tol):
    """The PGM loop written out with separate oracle calls and
    np.linalg.norm: visited points, F values, residual norms, stop rule."""
    x = np.array(x1, dtype=float)
    points, F_vals, norms, keys = [], [], [], []
    for i in range(1, max_iters + 2):
        g = problem.f.gradient(x)
        u = x - gamma * g
        y = problem.h.prox(u, gamma)
        rnorm = float(np.linalg.norm(g + (u - y) / gamma))
        points.append(x)
        F_vals.append(float(problem.f.value(x)) + float(problem.h.value(x)))
        norms.append(rnorm)
        if rnorm <= stop_tol:
            stop = "stop_tol"
        elif x.tobytes() in keys[-CYCLE_WINDOW:]:
            stop = "cycle"
        elif i > max_iters:
            stop = "max_iters"
        else:
            keys.append(x.tobytes())
            x = y
            continue
        return np.array(points), np.array(F_vals), np.array(norms), stop


def counted(fn, calls, key):
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)

    return wrapper


class TestFamilyRuns:
    @pytest.mark.parametrize("make, multiple, max_iters, stop_tol", FAMILY_RUNS)
    def test_run_matches_reference_loop_bit_for_bit(self, make, multiple, max_iters, stop_tol):
        problem = make()
        gamma = multiple / problem.f.lipschitz
        trace = run_pgm(problem, PgmConfig(gamma, max_iters, stop_tol), np.zeros(6))
        points, F_vals, norms, stop = reference_run(problem, gamma, np.zeros(6), max_iters, stop_tol)
        assert trace.points.tobytes() == points.tobytes()
        assert trace.F_vals.tobytes() == F_vals.tobytes()
        assert trace.residual_norms.tobytes() == norms.tobytes()
        assert trace.stopped_on == stop

    @pytest.mark.parametrize("make, multiple, max_iters, stop_tol", FAMILY_RUNS)
    def test_rebuilt_oracle_calls_each_callable_once_per_point(self, make, multiple, max_iters, stop_tol):
        # f rebuilt by dataclasses.replace, as a caller counting oracle calls does
        problem = make()
        calls = Counter()
        f = dataclasses.replace(
            problem.f,
            value=counted(problem.f.value, calls, "value"),
            gradient=counted(problem.f.gradient, calls, "gradient"),
        )
        rebuilt = dataclasses.replace(problem, f=f)
        config = PgmConfig(multiple / problem.f.lipschitz, max_iters, stop_tol)
        trace = run_pgm(rebuilt, config, np.zeros(6))
        assert calls == {"value": len(trace.points), "gradient": len(trace.points)}
        assert trace.points.tobytes() == run_pgm(problem, config, np.zeros(6)).points.tobytes()
        calls.clear()
        est = estimate_fstar(rebuilt, np.zeros(6), max_iters=max_iters)
        assert calls == {"value": est.iterations + 1, "gradient": est.iterations + 1}
        assert est == estimate_fstar(problem, np.zeros(6), max_iters=max_iters)


def broken_problem(value=0.5, gradient=1.0, h_value=0.0, prox=zero_prox().prox):
    # 2-d oracles that return the given constants
    f = SmoothOracle(lambda x: value, lambda x: np.full(2, gradient), lipschitz=1.0)
    return CompositeProblem(f, ProxOperator(lambda x: h_value, prox))


class TestNonFinite:
    @pytest.mark.parametrize(
        "problem, message",
        [
            (broken_problem(value=np.nan), "non-finite f value/gradient at iteration 1"),
            (broken_problem(value=np.inf), "non-finite f value/gradient at iteration 1"),
            (broken_problem(gradient=np.nan), "non-finite f value/gradient at iteration 1"),
            (broken_problem(gradient=np.inf), "non-finite f value/gradient at iteration 1"),
            (broken_problem(gradient=-np.inf), "non-finite f value/gradient at iteration 1"),
            (broken_problem(h_value=np.nan), "non-finite h value at iteration 1"),
            (broken_problem(h_value=np.inf), "non-finite h value at iteration 1"),
            (broken_problem(prox=lambda u, g: np.full(2, np.nan)), "non-finite prox output at iteration 1"),
            (broken_problem(prox=lambda u, g: np.full(2, np.inf)), "non-finite prox output at iteration 1"),
            (broken_problem(prox=lambda u, g: u if u[0] > -2.0 else np.full(2, np.nan)),
             "non-finite prox output at iteration 2"),
        ],
    )
    def test_message_and_index(self, problem, message):
        # the first failing array check names the error; no numpy warning
        # escapes (pytest turns warnings into errors)
        with pytest.raises(NonFiniteError) as info:
            run_pgm(problem, PgmConfig(step=1.0, max_iters=5, stop_tol=0.0), np.zeros(2))
        assert str(info.value) == message
        assert info.value.iteration == int(message.rsplit(" ", 1)[1])
        with pytest.raises(NonFiniteError, match=message):
            estimate_fstar(problem, np.zeros(2), max_iters=5)

    def test_overflowing_residual_norm_alone_proceeds(self):
        # finite values, gradient and prox output whose residual's squares
        # overflow: the run goes on without a warning, and the norm is
        # rescaled to stay finite
        problem = broken_problem(value=0.0, gradient=1e200)
        trace = run_pgm(problem, PgmConfig(step=1.0, max_iters=3, stop_tol=0.0), np.zeros(2))
        assert trace.stopped_on == "max_iters"
        assert np.allclose(trace.residual_norms, np.sqrt(2) * 1e200, rtol=1e-15, atol=0)
        assert np.all(np.isfinite(trace.points))

    @pytest.mark.parametrize("kind", ["srlr", "lasso"])
    def test_overflow_is_a_non_finite_error(self, kind):
        # an overflow in the oracles or the step is named as the inf it
        # makes, not raised as numpy's RuntimeWarning (pytest turns
        # warnings into errors)
        problem = generate_instance(kind, 30, 5, 0.1, seed=3).problem()
        x1 = 1e200 * np.ones(5)
        with pytest.raises(NonFiniteError, match="non-finite f value/gradient at iteration 1"):
            run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=5), x1)
        with pytest.raises(NonFiniteError, match="non-finite f value/gradient at iteration 1"):
            estimate_fstar(problem, x1, max_iters=5)
        with pytest.raises(NonFiniteError, match="non-finite prox output"):
            residual(problem, 1e308, np.ones(5))


class TestTraceExport:
    def test_csv_is_deterministic_and_complete(self, tmp_path):
        data = generate_instance("lasso", 30, 5, 0.1, seed=1)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=50, stop_tol=0.0), np.zeros(5))
        fstar = estimate_fstar(problem, np.zeros(5)).value
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1, fstar=fstar)
        trace.to_csv(p2, fstar=fstar)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "iter,F,gap,residual_norm,contraction"
        assert len(lines) == len(trace.points) + 1

    def test_gap_column_blank_without_fstar(self, tmp_path):
        trace = run_pgm(quadratic_problem(), PgmConfig(step=0.5, max_iters=5, stop_tol=0.0), np.array([1.0]))
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "" and row[4] == ""

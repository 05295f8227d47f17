import numpy as np
import pytest

from proxrate.errors import DomainError, NonFiniteError
from proxrate.pgm import PgmConfig, estimate_fstar, residual, run_pgm
from proxrate.problem import (
    CompositeProblem,
    SmoothOracle,
    generate_instance,
    l1_prox,
    least_squares_oracle,
    zero_prox,
)


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
        # the same iteration: the best value is the trace's minimum and
        # the iteration count is the number of steps taken
        data = generate_instance("lasso", 40, 6, 0.1, seed=3)
        problem = data.problem()
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

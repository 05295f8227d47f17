import dataclasses

import numpy as np
import pytest

from proxrate.errors import DomainError
from proxrate.interp import (
    Triple,
    TriplePair,
    cond_A,
    cond_B,
    cond_C,
    cond_D,
    cond_E,
    cond_E_prime,
    validate_trace,
)
from proxrate.pgm import PgmConfig, estimate_fstar, run_pgm
from proxrate.problem import generate_instance, l1_prox


def triple_at(fn, grad, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return Triple(x, grad(x), fn(x))


class TestCondA:
    def test_equal_triples_vanish(self, rng):
        t = Triple(rng.standard_normal(3), rng.standard_normal(3), 0.7)
        assert cond_A(t, t, 2.0) == 0.0

    def test_tight_on_concave_quadratic(self):
        # f(x) = -(L/2)x^2 is the extreme L-smooth function: the slack is
        # exactly zero between any two of its triples
        L = 1.0
        fn = lambda x: -0.5 * L * float(x @ x)
        grad = lambda x: -L * x
        i = triple_at(fn, grad, [0.0])
        j = triple_at(fn, grad, [1.0])
        assert cond_A(i, j, L) == pytest.approx(0.0, abs=1e-15)
        assert cond_A(j, i, L) == pytest.approx(0.0, abs=1e-15)

    def test_tight_on_convex_quadratic_both_orders(self):
        L = 1.0
        fn = lambda x: 0.5 * L * float(x @ x)
        grad = lambda x: L * x
        i = triple_at(fn, grad, [1.0])
        j = triple_at(fn, grad, [0.0])
        assert cond_A(i, j, L) == pytest.approx(0.0, abs=1e-15)
        assert cond_A(j, i, L) == pytest.approx(0.0, abs=1e-15)

    def test_sine_samples_never_violate(self, rng):
        fn = lambda x: float(np.sin(x[0]))
        grad = lambda x: np.cos(x)
        for _ in range(1000):
            i = triple_at(fn, grad, rng.uniform(-6, 6, 1))
            j = triple_at(fn, grad, rng.uniform(-6, 6, 1))
            assert cond_A(i, j, 1.0) <= 1e-12

    def test_requires_positive_L(self, rng):
        t = Triple(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(DomainError):
            cond_A(t, t, 0.0)


class TestCondB:
    def test_equal_triples_vanish(self):
        t = Triple(np.ones(2), np.ones(2), 1.0)
        assert cond_B(t, t, 3.0) == 0.0

    def test_tight_on_quadratic(self):
        L = 1.0
        fn = lambda x: 0.5 * L * float(x @ x)
        grad = lambda x: L * x
        i = triple_at(fn, grad, [1.0])
        j = triple_at(fn, grad, [0.0])
        assert cond_B(i, j, L) == pytest.approx(0.0, abs=1e-15)

    def test_least_squares_samples_never_violate(self, rng):
        A = rng.standard_normal((60, 8))
        b = rng.standard_normal(60)
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        fn = lambda x: 0.5 * float(np.sum((A @ x - b) ** 2))
        grad = lambda x: A.T @ (A @ x - b)
        for _ in range(1000):
            i = triple_at(fn, grad, rng.standard_normal(8))
            j = triple_at(fn, grad, rng.standard_normal(8))
            assert cond_B(i, j, L) <= 1e-10


class TestCondC:
    def test_equal_triples_vanish(self):
        t = Triple(np.ones(1), np.ones(1), 1.0)
        assert cond_C(t, t) == 0.0

    def test_absolute_value_example(self):
        i = Triple(np.array([1.0]), np.array([1.0]), 1.0)
        j = Triple(np.array([-1.0]), np.array([-1.0]), 1.0)
        assert cond_C(i, j) == -2.0

    def test_l1_with_certified_subgradients(self, rng):
        lam = 0.3
        h = l1_prox(lam)
        gamma = 0.9
        for _ in range(1000):
            x1, x2 = rng.standard_normal((2, 4)) * 2.0
            y1, y2 = h.prox(x1, gamma), h.prox(x2, gamma)
            s1, s2 = h.subgradient_at_prox(x1, gamma), h.subgradient_at_prox(x2, gamma)
            i = Triple(y1, s1, h.value(y1))
            j = Triple(y2, s2, h.value(y2))
            assert cond_C(i, j) <= 1e-12


class TestCondDE:
    def test_zero_at_minimizer(self):
        x = np.zeros(2)
        pair = TriplePair(Triple(x, np.zeros(2), 1.0), Triple(x, np.zeros(2), -1.0))
        assert cond_D(pair, 0.0, 0.5) == 0.0
        assert cond_E(pair, 0.0, 0.5, 0.0) == 0.0

    def test_quadratic_tightness(self):
        # F(x) = x^2/2, h = 0: domination modulus 1 holds with equality
        x = np.array([1.0])
        pair = TriplePair(Triple(x, x, 0.5), Triple(x, np.zeros(1), 0.0))
        assert cond_D(pair, 0.0, 1.0) == 0.0

    def test_pair_requires_matching_points(self):
        with pytest.raises(DomainError):
            TriplePair(Triple(np.zeros(2), np.zeros(2), 0.0), Triple(np.ones(2), np.zeros(2), 0.0))

    def test_E_and_E_prime_agree_on_traces(self):
        data = generate_instance("lasso", 50, 6, 0.1, seed=8)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=200, stop_tol=0.0), np.zeros(6))
        fstar = estimate_fstar(problem, np.zeros(6)).value
        for i in range(60):
            x = trace.points[i]
            pair = TriplePair(
                Triple(x, trace.gradients[i], trace.f_vals[i]),
                Triple(x, np.zeros_like(x), trace.h_vals[i]),
            )
            e = cond_E(pair, fstar, 0.5, trace.residual_norms[i])
            ep = cond_E_prime(pair, trace.subgradients[i], fstar, 0.5)
            assert abs(e - ep) <= 1e-12 * max(1.0, abs(e))


class TestTraceValidation:
    @pytest.mark.parametrize("kind,delta", [("srlr", None), ("lasso", None), ("elastic_net", 1.0)])
    def test_lemma_ordering_on_experiment_traces(self, kind, delta):
        data = generate_instance(kind, 60, 8, 0.1, seed=5, delta=delta)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=400, stop_tol=0.0), np.zeros(8))
        report = validate_trace(problem, trace)
        assert report.max_lemma_violation <= 1e-10
        assert report.max_iteration_identity_error <= 1e-12
        assert report.max_residual_identity_error <= 1e-12

    def test_corrupted_trace_fails(self):
        data = generate_instance("lasso", 60, 8, 0.1, seed=5)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=100, stop_tol=0.0), np.zeros(8))
        assert validate_trace(problem, trace).ok()

        moved = dataclasses.replace(trace, points=trace.points.copy())
        moved.points[40] += 1e-6
        report = validate_trace(problem, moved)
        assert report.max_iteration_identity_error > 1e-12
        assert report.max_residual_identity_error > 1e-12
        assert not report.ok()

        inflated = dataclasses.replace(trace, residual_norms=trace.residual_norms.copy())
        inflated.residual_norms[40] *= 2.0
        report = validate_trace(problem, inflated)
        assert report.max_lemma_violation > 1e-10
        assert not report.ok()

    def test_domination_slacks_on_elastic_net(self):
        data = generate_instance("elastic_net", 100, 10, 0.1, seed=6, delta=0.01)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=5_000, stop_tol=1e-12), np.zeros(10))
        fstar = estimate_fstar(problem, np.zeros(10)).value
        report = validate_trace(problem, trace, fstar=fstar, mu=problem.mu)
        assert report.max_D_slack is not None and report.max_D_slack <= 1e-9
        assert report.skipped_indices.size == 0
        assert report.ok(tol=1e-9)

    def test_elastic_net_modulus_holds_in_its_tagged_form(self):
        # lmin + delta is the strong-convexity modulus of F: the subgradient
        # form (D) holds along the trace, but at delta = 100 the prox shrinks
        # the residual by 1 + gamma*delta and the residual form (E) fails
        data = generate_instance("elastic_net", 200, 20, 0.1, seed=0, delta=100.0)
        problem = data.problem()
        assert problem.mu < problem.f.lipschitz
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=5_000, stop_tol=1e-12), np.zeros(20))
        fstar = estimate_fstar(problem, np.zeros(20)).value
        report = validate_trace(problem, trace, fstar=fstar, mu=problem.mu)
        tagged = {"pl": report.max_D_slack, "rpl": report.max_E_slack}[problem.mu_inequality]
        assert tagged is not None and tagged <= 1e-9
        assert report.max_E_slack is not None and report.max_E_slack > 0.0

    def test_domination_checks_skip_ascent_iterates(self):
        # the domination inequalities are only assumed on the initial
        # sublevel set, so iterates where F went up are skipped, not failed
        data = generate_instance("elastic_net", 60, 8, 0.1, seed=12, delta=0.5)
        problem = data.problem()
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=200, stop_tol=0.0), np.zeros(8))
        fstar = estimate_fstar(problem, np.zeros(8)).value
        k = 3
        trace.F_vals = trace.F_vals.copy()
        trace.F_vals[k] = trace.F_vals[0] + 1.0  # synthetic ascent at row k
        trace.increase_indices = np.array([k])
        report = validate_trace(problem, trace, fstar=fstar, mu=problem.mu)
        assert list(report.skipped_indices) == [k]
        assert report.max_D_slack is not None and report.max_D_slack <= 1e-9

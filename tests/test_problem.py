import json

import numpy as np
import pytest

from proxrate import rng as prng
from proxrate.errors import DomainError
from proxrate.pgm import residual
from proxrate.problem import (
    CompositeProblem,
    ProblemData,
    SmoothOracle,
    elastic_net_prox,
    generate_instance,
    l1_prox,
    least_squares_oracle,
    robust_log_oracle,
    soft_threshold,
    zero_prox,
)

from conftest import central_difference_gradient


class TestLeastSquaresOracle:
    def test_identity_case(self):
        f = least_squares_oracle(np.eye(2), np.zeros(2))
        x = np.array([1.0, 1.0])
        assert f.value(x) == pytest.approx(1.0, abs=0)
        assert np.allclose(f.gradient(x), [1.0, 1.0])
        assert f.lipschitz == pytest.approx(1.0, abs=1e-12)

    def test_scalar_lipschitz(self):
        f = least_squares_oracle(np.array([[2.0]]), np.array([0.0]))
        assert f.lipschitz == pytest.approx(4.0, abs=1e-10)

    def test_lipschitz_matches_eigensolve(self, rng):
        A = rng.standard_normal((200, 20))
        f = least_squares_oracle(A, rng.standard_normal(200))
        lam_max = np.linalg.eigvalsh(A.T @ A)[-1]
        assert abs(f.lipschitz - lam_max) <= 1e-8 * lam_max

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            least_squares_oracle(np.eye(3), np.zeros(2))


class TestRobustLogOracle:
    def test_zero_residual(self):
        f = robust_log_oracle(np.array([[1.0]]), np.array([0.0]))
        assert f.value(np.array([0.0])) == 0.0
        assert np.allclose(f.gradient(np.array([0.0])), [0.0])

    def test_unit_residual(self):
        f = robust_log_oracle(np.array([[1.0]]), np.array([0.0]))
        assert f.value(np.array([1.0])) == pytest.approx(np.log(2.0), rel=1e-15)
        assert f.gradient(np.array([1.0]))[0] == pytest.approx(1.0, rel=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        A = rng.standard_normal((200, 20))
        b = rng.standard_normal(200)
        f = robust_log_oracle(A, b)
        for _ in range(5):
            x = rng.standard_normal(20)
            fd = central_difference_gradient(f.value, x)
            g = f.gradient(x)
            assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))

    def test_lipschitz_is_twice_gram_eigenvalue(self, rng):
        A = rng.standard_normal((40, 6))
        f = robust_log_oracle(A, rng.standard_normal(40))
        lam_max = np.linalg.eigvalsh(A.T @ A)[-1]
        assert f.lipschitz == pytest.approx(2.0 * lam_max, rel=1e-9)


class TestGradientChecks:
    @pytest.mark.parametrize("builder", ["least_squares", "robust_log"])
    def test_hundred_random_points(self, rng, builder):
        A = rng.standard_normal((60, 8))
        b = rng.standard_normal(60)
        f = least_squares_oracle(A, b) if builder == "least_squares" else robust_log_oracle(A, b)
        for _ in range(100):
            x = rng.standard_normal(8) * rng.uniform(0.1, 3.0)
            fd = central_difference_gradient(f.value, x)
            g = f.gradient(x)
            assert np.linalg.norm(fd - g) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_gradient_lipschitz_on_pairs(self, rng):
        A = rng.standard_normal((60, 8))
        b = rng.standard_normal(60)
        for f in (least_squares_oracle(A, b), robust_log_oracle(A, b)):
            for _ in range(200):
                x, y = rng.standard_normal((2, 8)) * 2.0
                lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
                assert lhs <= f.lipschitz * np.linalg.norm(x - y) * (1.0 + 1e-12)


class TestL1Prox:
    def test_soft_threshold_example(self):
        h = l1_prox(1.0)
        out = h.prox(np.array([3.0, -0.5]), 1.0)
        assert np.allclose(out, [2.0, 0.0])

    def test_zero_fixed_point(self):
        h = l1_prox(0.7)
        assert np.allclose(h.prox(np.zeros(4), 2.5), np.zeros(4))

    def test_subgradient_inequality_on_samples(self, rng):
        lam = 0.3
        h = l1_prox(lam)
        gamma = 0.8
        for _ in range(1000):
            x, z = rng.standard_normal((2, 5)) * 3.0
            y = h.prox(x, gamma)
            s = (x - y) / gamma  # the subgradient at y that the prox certifies
            lhs = h.value(z)
            rhs = h.value(y) + s @ (z - y)
            assert lhs >= rhs - 1e-10

    def test_requires_positive_lambda(self):
        with pytest.raises(DomainError):
            l1_prox(0.0)


class TestElasticNetProx:
    def test_closed_form_example(self):
        h = elastic_net_prox(1.0, 1.0)
        out = h.prox(np.array([3.0]), 1.0)
        assert out[0] == pytest.approx(1.0, abs=0)

    def test_zero_fixed_point(self):
        h = elastic_net_prox(0.5, 2.0)
        assert np.allclose(h.prox(np.zeros(3), 1.3), np.zeros(3))

    def test_matches_scalar_minimization(self, rng):
        lam, delta, gamma = 0.4, 1.7, 0.9
        h = elastic_net_prox(lam, delta)

        def brute(v):
            # bracket the 1-d prox objective on a grid, then bisect on the
            # sign of its (strictly increasing) derivative; value grids
            # alone cannot localize past sqrt(eps)
            obj = lambda y: gamma * (lam * abs(y) + 0.5 * delta * y * y) + 0.5 * (y - v) ** 2
            dobj = lambda y: gamma * (lam * np.sign(y) + delta * y) + (y - v)
            ys = np.linspace(-abs(v) - 1.0, abs(v) + 1.0, 81)
            k = int(np.argmin([obj(y) for y in ys]))
            lo, hi = ys[max(0, k - 1)], ys[min(80, k + 1)]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if mid == 0.0:
                    mid = lo + 0.25 * (hi - lo)
                if dobj(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        for _ in range(100):
            v = float(rng.standard_normal() * 3.0)
            got = h.prox(np.array([v]), gamma)[0]
            assert got == pytest.approx(brute(v), abs=1e-8)


class TestProxProperties:
    @pytest.mark.parametrize(
        "make",
        [lambda: l1_prox(0.25), lambda: elastic_net_prox(0.25, 2.0), zero_prox],
    )
    def test_nonexpansiveness(self, rng, make):
        h = make()
        gamma = 0.6
        for _ in range(300):
            x, y = rng.standard_normal((2, 6)) * 4.0
            d_out = np.linalg.norm(h.prox(x, gamma) - h.prox(y, gamma))
            assert d_out <= np.linalg.norm(x - y) * (1.0 + 1e-12)

    def test_prox_optimality_relation(self, rng):
        # with f = 0 the residual G_gamma(x) is the subgradient of h that the
        # prox certifies at prox(x), so x - gamma * G_gamma(x) recovers prox(x)
        h = l1_prox(0.5)
        gamma = 1.2
        problem = CompositeProblem(SmoothOracle(lambda x: 0.0, np.zeros_like, 1.0), h)
        for _ in range(200):
            x = rng.standard_normal(4) * 2.0
            y = h.prox(x, gamma)
            s, _ = residual(problem, gamma, x)
            assert np.allclose(x - gamma * s, y, rtol=0, atol=1e-15)

    def test_zero_prox_identity(self, rng):
        h = zero_prox()
        x = rng.standard_normal(5)
        assert np.array_equal(h.prox(x, 0.7), x)


class TestSpectral:
    def test_lipschitz_is_top_eigenvalue(self, rng):
        for _ in range(10):
            A = rng.standard_normal((30, 8))
            b = rng.standard_normal(30)
            top = np.linalg.eigvalsh(A.T @ A)[-1]
            assert least_squares_oracle(A, b).lipschitz == top
            assert robust_log_oracle(A, b).lipschitz == 2.0 * top

    def test_elastic_net_mu_is_bottom_eigenvalue_plus_delta(self):
        for seed in range(5):
            data = generate_instance("elastic_net", 30, 8, 0.1, seed=seed, delta=0.5)
            assert data.problem().mu == np.linalg.eigvalsh(data.A.T @ data.A)[0] + 0.5


class TestInstances:
    def test_elastic_net_mu(self):
        data = generate_instance("elastic_net", 200, 20, 0.1, seed=5, delta=0.5)
        problem = data.problem()
        lam_min = np.linalg.eigvalsh(data.A.T @ data.A)[0]
        assert problem.mu == pytest.approx(lam_min + 0.5, abs=1e-8 * (lam_min + 0.5))
        assert problem.mu_inequality == "pl"

    def test_delta_only_for_elastic_net(self):
        with pytest.raises(DomainError):
            generate_instance("lasso", 10, 3, 0.1, seed=0, delta=1.0)
        with pytest.raises(DomainError):
            generate_instance("elastic_net", 10, 3, 0.1, seed=0)

    def test_serialization_roundtrip(self):
        data = generate_instance("elastic_net", 12, 4, 0.1, seed=9, delta=2.0)
        text = data.to_json()
        back = ProblemData.from_json(text)
        assert back.kind == data.kind
        assert back.seed == data.seed
        assert back.delta == data.delta
        assert np.array_equal(back.A, data.A)
        assert np.array_equal(back.b, data.b)
        # row-major layout in the document
        doc = json.loads(text)
        assert doc["A"][: data.A.shape[1]] == [float(v) for v in data.A[0]]

    def test_generation_is_seed_deterministic(self):
        a = generate_instance("lasso", 30, 7, 0.1, seed=123)
        b = generate_instance("lasso", 30, 7, 0.1, seed=123)
        c = generate_instance("lasso", 30, 7, 0.1, seed=124)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
        assert not np.array_equal(a.A, c.A)

    def test_box_muller_moments(self):
        gen = prng.generator(0)
        z = prng.standard_normals(gen, 200_000)
        assert abs(float(z.mean())) < 0.01
        assert abs(float(z.std()) - 1.0) < 0.01

    def test_objective_lower_bounded_by_optimal_value(self, rng):
        data = generate_instance("elastic_net", 50, 6, 0.1, seed=3, delta=1.0)
        problem = data.problem()
        from proxrate.pgm import estimate_fstar

        fstar = estimate_fstar(problem, np.zeros(6)).value
        for _ in range(200):
            x = rng.standard_normal(6) * 3.0
            assert problem.objective(x) >= fstar - 1e-9


def test_soft_threshold_shapes():
    x = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
    out = soft_threshold(x, 0.5)
    assert np.allclose(out, [-1.5, 0.0, 0.0, 0.0, 1.5])

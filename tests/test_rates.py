import math

import numpy as np
import pytest

from proxrate.errors import DomainError
from proxrate.rates import (
    RateQuery,
    baseline_garrigos,
    baseline_zhang,
    optimal_step,
    rate,
    rate_curve,
    rate_formula,
    rpl_convex_interior_step,
    write_rate_curve_csv,
)


def rho(fn_class, ineq, L, mu, gamma):
    return rate(RateQuery(fn_class, ineq, L, mu, gamma)).rho


class TestRateValues:
    def test_convex_pl_small_step(self):
        res = rate(RateQuery("convex", "pl", 1.0, 0.1, 1.0))
        assert abs(res.rho - 1.0 / 1.2) <= 1e-15
        assert res.branch == "Thm3.2-case1"

    def test_nonconvex_rpl(self):
        res = rate(RateQuery("nonconvex", "rpl", 1.0, 0.1, 1.0))
        assert abs(res.rho - 0.9) <= 1e-15
        assert res.branch == "Thm4.1"

    def test_convex_rpl_at_inverse_L(self):
        res = rate(RateQuery("convex", "rpl", 1.0, 0.1, 1.0))
        assert res.rho == pytest.approx(0.9 / 1.1, abs=1e-15)
        assert res.branch == "Thm4.2-case1"

    def test_mu_to_zero_means_no_contraction(self):
        for fn_class in ("convex", "nonconvex"):
            for ineq in ("pl", "rpl"):
                assert rho(fn_class, ineq, 1.0, 1e-14, 0.7) == pytest.approx(1.0, abs=1e-10)

    def test_rho_in_unit_interval(self, rng):
        for _ in range(300):
            L = float(np.exp(rng.uniform(-2, 3)))
            mu = L * float(rng.uniform(0.001, 1.0))
            g = float(rng.uniform(1e-6, 2.0 - 1e-6)) / L
            for fn_class in ("convex", "nonconvex"):
                for ineq in ("pl", "rpl"):
                    r = rho(fn_class, ineq, L, mu, g)
                    assert 0.0 <= r <= 1.0 + 1e-15


class TestValidation:
    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            rate(RateQuery("convex", "pl", 1.0, 0.1, 2.0))
        with pytest.raises(DomainError):
            rate(RateQuery("convex", "pl", 1.0, 0.1, 0.0))

    def test_mu_above_L_rejected(self):
        with pytest.raises(DomainError):
            rate(RateQuery("convex", "pl", 1.0, 1.5, 1.0))

    def test_unknown_labels(self):
        with pytest.raises(DomainError):
            rate(RateQuery("affine", "pl", 1.0, 0.1, 1.0))
        with pytest.raises(DomainError):
            rate(RateQuery("convex", "kl", 1.0, 0.1, 1.0))

    @pytest.mark.parametrize(
        "args",
        [
            ("convex", "pl", 0.0, 0.1, 1.0),
            ("convex", "pl", 1.0, -0.5, 1.0),
            ("convex", "rpl", 1.0, 0.0, 0.5),
            ("nonconvex", "rpl", 1.0, math.inf, 1.0),
            ("convex", "pl", 1.0, math.inf, 1.0),
            ("nonconvex", "rpl", 1e-300, 1e10, 1e299),
            ("convex", "rpl", 1e-300, 1e10, 1.5e300),
            ("convex", "pl", 1e300, 1e-300, 1e-300),
        ],
    )
    def test_formula_rejects_nonpositive_constants(self, args):
        # unchecked, these divide by zero (L = 0; mu = -0.5 at gamma = 1), give rho = 1 (mu = 0),
        # give rho = nan or 0 (mu = inf), or give rho = nan (mu/L overflows to inf);
        # mu/L underflowing to 0 is refused like mu = 0
        with pytest.raises(DomainError):
            rate_formula(*args)

    def test_formula_path_skips_mu_gate(self):
        # raw formula evaluation stays available for out-of-contract probes
        val = rate_formula("convex", "pl", 1.0, 10.0, 1.0).rho
        assert val == pytest.approx(1.0 / 21.0, rel=1e-15)


class TestBranchBoundaries:
    def test_continuity_at_interval_joins(self, rng):
        for _ in range(100):
            L = float(np.exp(rng.uniform(-2, 3)))
            mu = L * float(rng.uniform(0.01, 0.99))
            checks = [
                ("nonconvex", "pl", math.sqrt(3.0) / L),
                ("convex", "pl", 1.5 / L),
                ("convex", "rpl", 1.0 / L),
                ("convex", "rpl", 1.5 / L),
            ]
            for fn_class, ineq, g in checks:
                left = rate_formula(fn_class, ineq, L, mu, g * (1 - 1e-12)).rho
                right = rate_formula(fn_class, ineq, L, mu, g * (1 + 1e-12)).rho
                assert abs(left - right) <= 1e-10

    def test_closed_endpoint_owns_the_label(self):
        assert rate(RateQuery("convex", "pl", 1.0, 0.1, 1.5)).branch == "Thm3.2-case1"
        assert rate(RateQuery("convex", "rpl", 1.0, 0.1, 1.0)).branch == "Thm4.2-case1"
        assert rate(RateQuery("nonconvex", "pl", 1.0, 0.1, math.sqrt(3.0))).branch == "Thm3.1-case1"

    def test_convex_pl_value_at_three_halves(self, rng):
        for _ in range(50):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.01, 0.99))
            assert rho("convex", "pl", L, mu, 1.5 / L) == pytest.approx(L / (L + 3 * mu), abs=1e-13)


class TestDominanceAndShape:
    def test_convex_pl_dominates_garrigos(self, rng):
        for _ in range(100):
            L = float(np.exp(rng.uniform(-2, 2)))
            mu = L * float(rng.uniform(0.01, 0.99))
            grid = np.linspace(1e-3, 2.0 - 1e-3, 200) / L
            for g in grid:
                assert rho("convex", "pl", L, mu, g) <= baseline_garrigos(L, mu, g) + 1e-14

    def test_nonconvex_pl_v_shape(self, rng):
        for _ in range(20):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.05, 0.95))
            star = math.sqrt(3.0) / L
            down = np.linspace(0.01 / L, star, 400)
            up = np.linspace(star, (2.0 - 1e-4) / L, 400)
            vals_down = [rho("nonconvex", "pl", L, mu, g) for g in down]
            vals_up = [rho("nonconvex", "pl", L, mu, g) for g in up]
            assert all(a >= b - 1e-14 for a, b in zip(vals_down, vals_down[1:]))
            assert all(a <= b + 1e-14 for a, b in zip(vals_up, vals_up[1:]))


class TestOptimalStep:
    def test_nonconvex_pl(self):
        step = optimal_step("nonconvex", "pl", 1.0, 0.1)
        assert abs(step.gamma_star - math.sqrt(3.0)) <= 1e-15

    def test_convex_pl(self):
        step = optimal_step("convex", "pl", 2.0, 0.1)
        assert step.gamma_star == pytest.approx(0.75, abs=0)

    def test_nonconvex_rpl(self):
        step = optimal_step("nonconvex", "rpl", 4.0, 0.1)
        assert step.gamma_star == pytest.approx(0.25, abs=0)

    def test_convex_rpl_branches(self):
        step = optimal_step("convex", "rpl", 1.0, 0.25)
        assert abs(step.gamma_star - 4.0 / 3.0) <= 1e-15
        assert step.branch == "Prop4.2-large-mu"
        small = optimal_step("convex", "rpl", 1.0, 0.05)
        assert small.gamma_star == 1.5
        assert small.branch == "Prop4.2-small-mu"

    def test_convex_rpl_branch_formulas_agree_at_split(self):
        L = 9.0
        mu = 1.0  # exactly L/9
        assert abs(rpl_convex_interior_step(L, mu) - 1.5 / L) <= 1e-12

    @pytest.mark.parametrize("fn_class, ineq", [("nonconvex", "pl"), ("convex", "pl"), ("nonconvex", "rpl"), ("convex", "rpl")])
    def test_every_pair_refuses_mu_above_L(self, fn_class, ineq):
        with pytest.raises(DomainError, match="mu > L"):
            optimal_step(fn_class, ineq, 1.0, float(np.nextafter(1.0, 2.0)))

    @pytest.mark.parametrize("L", [1.0, 3.7, 0.013])
    def test_every_pair_answers_at_mu_equal_L(self, L):
        for fn_class, ineq in [("nonconvex", "pl"), ("convex", "pl"), ("nonconvex", "rpl"), ("convex", "rpl")]:
            step = optimal_step(fn_class, ineq, L, L)
            assert step.rho_star == rho(fn_class, ineq, L, L, step.gamma_star)
        # Prop4.2's interior step is 1/L there, where the rate vanishes
        assert step.branch == "Prop4.2-large-mu"
        assert step.gamma_star == pytest.approx(1.0 / L, rel=1e-15)
        assert step.rho_star == pytest.approx(0.0, abs=1e-15)
        assert optimal_step("convex", "rpl", 1.0, 1.0)[:2] == (1.0, 0.0)

    @pytest.mark.parametrize(
        "fn_class, ineq", [("nonconvex", "pl"), ("convex", "pl"), ("nonconvex", "rpl"), ("convex", "rpl")]
    )
    def test_optimal_step_minimizes_rate_on_grid(self, fn_class, ineq, rng):
        for _ in range(20):
            L = float(np.exp(rng.uniform(-1, 2)))
            for mu_frac in (0.05, 0.3, 0.8, 0.99):
                mu = L * mu_frac
                step = optimal_step(fn_class, ineq, L, mu)
                grid = np.linspace(1e-3, 2.0 - 1e-3, 500) / L
                best = min(rho(fn_class, ineq, L, mu, g) for g in grid)
                assert step.rho_star <= best + 1e-12


class TestBaselines:
    def test_garrigos_value(self):
        assert baseline_garrigos(1.0, 0.1, 1.0) == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_garrigos_at_inverse_L(self, rng):
        for _ in range(50):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.01, 0.99))
            assert baseline_garrigos(L, mu, 1.0 / L) == pytest.approx(L / (L + mu), rel=1e-14)

    def test_garrigos_mu_to_zero(self):
        assert baseline_garrigos(1.0, 1e-16, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zhang_value_and_domain(self):
        assert baseline_zhang(0.1, 1.0) == pytest.approx(0.9 / 1.1, rel=1e-15)
        with pytest.raises(DomainError):
            baseline_zhang(0.1, 1.5, L=1.0)

    @pytest.mark.parametrize(
        "args",
        [(0.1, 1e300), (0.1, 50.0), (math.inf, 0.5, 1.0), (0.1, 1e300, 1e-310), (0.1, 0.5, 1e-310), (0.0, 1.0), (math.nan, 1.0), (0.1, -1.0)],
    )
    def test_zhang_refuses_a_negative_or_nan_rate(self, args):
        # outside its domain the formula gives -1.0, -0.667 or nan; at a
        # subnormal L, 1/L is inf and only check_parameters refuses it
        with pytest.raises(DomainError):
            baseline_zhang(*args)

    def test_zhang_equals_convex_rpl_on_small_steps(self, rng):
        L, mu = 1.0, 0.1
        for g in np.linspace(0.01, 1.0, 50):
            assert abs(baseline_zhang(mu, g, L) - rho("convex", "rpl", L, mu, g)) <= 1e-13


class TestCoincidences:
    def test_pl_equals_rpl_on_large_steps(self, rng):
        for _ in range(10):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.01, 0.99))
            for g in np.linspace(1.5 / L * (1 + 1e-9), (2.0 - 1e-6) / L, 50):
                assert abs(rho("convex", "pl", L, mu, g) - rho("convex", "rpl", L, mu, g)) <= 1e-13


class TestMaxFormAgreement:
    # the tabled rates can also be written as a max of branch expressions;
    # the interval form must coincide with that max everywhere

    def test_convex_rpl_interval_form_is_the_max(self, rng):
        for _ in range(50):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.02, 0.98))
            for g in np.linspace(1e-3, 2 - 1e-3, 60) / L:
                e1 = (1 - g * mu) / (1 + g * mu)
                e2 = (-2 * L * g * g * mu + L * g + 3 * g * mu - 2) / (L * g - g * mu - 2)
                e3 = (L * g - 1) ** 2 / ((L * g - 1) ** 2 - L * g * g * mu + 2 * g * mu)
                assert rho("convex", "rpl", L, mu, float(g)) == pytest.approx(
                    max(e1, e2, e3), rel=1e-12
                )

    def test_pl_interval_forms_are_the_max(self, rng):
        for _ in range(50):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.02, 0.98))
            for g in np.linspace(1e-3, 2 - 1e-3, 60) / L:
                big = (L * g - 1) ** 2 / ((L * g - 1) ** 2 - L * g * g * mu + 2 * g * mu)
                small_nc = (L * g + 1) ** 2 / ((L * g + 1) ** 2 + L * g * g * mu + 2 * g * mu)
                small_c = 1 / (2 * g * mu + 1)
                assert rho("nonconvex", "pl", L, mu, float(g)) == pytest.approx(
                    max(small_nc, big), rel=1e-12
                )
                assert rho("convex", "pl", L, mu, float(g)) == pytest.approx(
                    max(small_c, big), rel=1e-12
                )


class TestRateCurve:
    def test_row_count_and_fields(self):
        rows = rate_curve("convex", "pl", 1.0, 0.1, [0.5, 1.0, 1.5])
        assert len(rows) == 3
        assert all(r.baseline_garrigos is not None for r in rows)
        assert all(r.baseline_zhang is None for r in rows)

    def test_zhang_column_only_on_valid_interval(self):
        rows = rate_curve("convex", "rpl", 1.0, 0.1, [0.5, 1.0, 1.2])
        assert rows[0].baseline_zhang is not None
        assert rows[1].baseline_zhang is not None
        assert rows[2].baseline_zhang is None

    def test_branch_continuity_at_emitted_boundary(self):
        L, mu = 1.0, 0.1
        left = rate_formula("convex", "pl", L, mu, 1.5).rho
        right = rate_formula("convex", "pl", L, mu, 1.5 * (1 + 1e-13)).rho
        assert abs(left - right) <= 1e-12

    def test_csv_output(self, tmp_path):
        rows = rate_curve("convex", "rpl", 1.0, 0.1, np.linspace(0.1, 1.9, 7))
        path = tmp_path / "curve.csv"
        write_rate_curve_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,rate,branch,baseline_garrigos,baseline_zhang"
        assert len(lines) == 8

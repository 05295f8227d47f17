import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxrate import certificate as cm
from proxrate.errors import DomainError, VerificationError
from proxrate.interp import (
    Point,
    convex_slack,
    pl_slack,
    rpl_slack,
    smooth_convex_slack,
    smooth_slack,
)
from proxrate.pepsearch import SearchParams, search_worst_case
from proxrate.pgm import PgmConfig, estimate_fstar, run_pgm
from proxrate.problem import generate_instance
from proxrate.rates import CASES, rate_formula


def gauged(g1, g2, s2, f1, f2, h1, h2, fstar):
    """Gram matrix of (g1, g2, s2) and scalars (f2, h1, h2) of concrete
    values in the gauge x1 = 0, f1 = 0, F* = 0; x1 drops out with it."""
    vs = [g1, g2, s2]
    dtype = np.result_type(g1)
    gram = np.array([[a @ b for b in vs] for a in vs], dtype=dtype)
    return gram, np.array([f2 - f1, h1 + f1 - fstar, h2 + f1 - fstar], dtype=dtype)


class TestCatalog:
    def test_eight_cases(self):
        assert len(cm.certificate_catalog()) == 8

    def test_case_ids_unique_and_resolvable(self):
        ids = [c.case_id for c in cm.certificate_catalog()]
        assert len(set(ids)) == 8
        for cid in ids:
            assert cm.certificate_for(cid).case_id == cid
        with pytest.raises(DomainError):
            cm.certificate_for("Thm9.9")

    def test_one_set_of_certificate_objects(self):
        # every catalog is the one set of objects, each list a new one
        catalog = cm.certificate_catalog()
        assert catalog is not cm.certificate_catalog()
        assert all(a is b for a, b in zip(catalog, cm.certificate_catalog()))
        assert all(cm.certificate_for(cert.case_id) is cert for cert in catalog)
        grouped = [cert for certs in CASES.values() for cert in certs]
        assert sorted(map(id, grouped)) == sorted(map(id, catalog))

    def test_import_builds_each_certificate_once(self):
        code = (
            "import gc, proxrate.certificate\n"
            "gc.collect()\n"
            "print(sum(isinstance(o, proxrate.Certificate) for o in gc.get_objects()))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cm.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["8"]

    def test_first_nonconvex_multiplier_values(self):
        cert = cm.certificate_for("Thm3.1-case1")
        L, mu, g = 1.0, 0.1, 1.0
        values = {label: fn(L, mu, g) for (_, label, fn) in cert.multipliers}
        assert values["alpha1"] == pytest.approx(6.0 / 4.3, rel=1e-15)
        assert values["alpha2"] == pytest.approx(2.0 / 4.3, rel=1e-15)
        assert values["beta1"] == pytest.approx(4.0 / 4.3, rel=1e-15)
        assert values["lambda1"] == pytest.approx(0.3 / 4.3, rel=1e-14)
        coeff = cert.remainder_coeff(L * g, mu / L)
        assert coeff == pytest.approx((1.0 - 3.0) / (4.0 * 4.3), rel=1e-14)

    def test_nonconvex_rpl_unit_multipliers(self, rng):
        cert = cm.certificate_for("Thm4.1")
        for _ in range(20):
            L = float(np.exp(rng.uniform(-2, 2)))
            mu = L * float(rng.uniform(0.05, 0.95))
            g = float(rng.uniform(1e-3, 2 - 1e-3)) / L
            values = {label: fn(L, mu, g) for (_, label, fn) in cert.multipliers}
            assert values["alpha1"] == 1.0 and values["beta1"] == 1.0
            assert cert.remainder_coeff(L * g, mu / L) == pytest.approx(-1.0 / 4.0, rel=1e-15)
            chk = cm.verify_certificate(cert, L, mu, g)
            assert chk.identity_residual <= 1e-12

    def test_remainder_vanishes_at_sqrt3_boundary(self):
        cert = cm.certificate_for("Thm3.1-case1")
        L = 1.0
        g = math.sqrt(3.0) / L
        assert cert.remainder_coeff(L * g, 0.3 / L) == pytest.approx(0.0, abs=1e-15)

    def test_mid_interval_rpl_multipliers(self):
        cert = cm.certificate_for("Thm4.2-case2")
        values = {label: fn(1.0, 0.1, 1.25) for (_, label, fn) in cert.multipliers}
        assert values["alpha1"] == pytest.approx(1.0 / 0.875, rel=1e-15)
        assert values["lambda1"] == pytest.approx(0.125 * 0.5 / 0.875, rel=1e-14)

    def test_large_step_cases_share_multipliers(self, rng):
        a = cm.certificate_for("Thm3.2-case2")
        b = cm.certificate_for("Thm4.2-case3")
        for _ in range(30):
            L = float(np.exp(rng.uniform(-2, 2)))
            mu = L * float(rng.uniform(0.05, 0.95))
            g = float(rng.uniform(1.5 + 1e-6, 2 - 1e-6)) / L
            va = sorted(fn(L, mu, g) for (_, _, fn) in a.multipliers)
            vb = sorted(fn(L, mu, g) for (_, _, fn) in b.multipliers)
            assert np.allclose(va, vb, rtol=1e-15)


class TestGramExpression:
    @pytest.mark.parametrize("num", [float, Fraction])
    @pytest.mark.parametrize("batch", [(), (9,), (2, 3)])
    def test_q_and_c_round_trip(self, rng, num, batch):
        def cast(x):
            return np.vectorize(num, otypes=[object if num is Fraction else float])(x)

        M = rng.integers(-9, 10, size=batch + (3, 3))
        Q, c = cast(M + np.swapaxes(M, -1, -2)), cast(rng.integers(-9, 10, size=batch + (3,)))
        expr = cm.GramExpression(Q, c)
        assert expr.Q.shape == Q.shape and expr.Q.dtype == Q.dtype and np.array_equal(expr.Q, Q)
        assert expr.c.shape == c.shape and expr.c.dtype == c.dtype and np.array_equal(expr.c, c)
        # a nonsymmetric Q stands for its symmetric part, as <Q, G> does
        assert np.array_equal(cm.GramExpression(cast(M), c).Q, cast(M + np.swapaxes(M, -1, -2)) / 2)
        # an unbatched operand broadcasts over the batch axes, also when
        # there are as many batch points as entries
        point = cm.GramExpression(Q[(0,) * len(batch)], c[(0,) * len(batch)])
        diff = expr - point
        assert np.array_equal(diff.Q, Q - point.Q) and np.array_equal(diff.c, c - point.c)


class TestBuildConstraint:
    def test_unknown_name(self):
        with pytest.raises(DomainError):
            cm.build_constraint("Z99", 1.0, 0.1, 1.0)

    def test_c12_structure(self):
        expr = cm.build_constraint("C12", 1.0, 0.1, 0.7)
        assert np.allclose(expr.c, [0.0, -1.0, 1.0])
        g1_row = np.asarray(expr.Q)[0]
        # the only coupling of g1 enters through the x2 substitution
        assert g1_row[2] != 0.0
        assert g1_row[0] == 0.0 and g1_row[1] == 0.0

    def test_d2_zero_at_stationary_optimal_assignment(self, rng):
        gamma, L, mu = 0.8, 1.0, 0.4
        g1 = rng.standard_normal(6)
        s2 = rng.standard_normal(6)
        g2 = -s2  # g2 + s2 = 0
        gram, scal = gauged(g1, g2, s2, 0.3, 0.2, 0.1, 0.5, 0.7)  # f2 + h2 = Fstar
        expr = cm.build_constraint("D2", L, mu, gamma)
        assert float(expr.evaluate(gram, scal)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("gamma", [Fraction(3, 10), Fraction(9, 10), Fraction(17, 10)])
    @pytest.mark.parametrize("num,tol,trials", [(float, 1e-12, 25), (Fraction, 0, 5)])
    def test_gram_form_equals_definitions(self, rng, num, tol, trials, gamma):
        # float: normal draws, agreement to roundoff; Fraction: integer
        # vectors and values with rational parameters, so both sides are
        # exact and the Gram form must equal the definition exactly
        L, mu, gamma = num(Fraction(13, 10)), num(Fraction(21, 100)), num(gamma)

        def draw(n):
            if num is float:
                return rng.standard_normal(n)
            return np.array([Fraction(int(v)) for v in rng.integers(-5, 6, size=n)], dtype=object)

        for _ in range(trials):
            x1, g1, g2, s2 = (draw(6) for _ in range(4))
            x2 = x1 - gamma * (g1 + s2)
            f1v, f2v, h1v, h2v, fsv = draw(5)
            gram, scal = gauged(g1, g2, s2, f1v, f2v, h1v, h2v, fsv)
            tf1, tf2 = Point(x1, g1, f1v), Point(x2, g2, f2v)
            th1, th2 = Point(x1, None, h1v), Point(x2, s2, h2v)
            residual1 = (x1 - x2) / gamma
            expected = {
                "A12": smooth_slack(tf1, tf2, L),
                "A21": smooth_slack(tf2, tf1, L),
                "B12": smooth_convex_slack(tf1, tf2, L),
                "B21": smooth_convex_slack(tf2, tf1, L),
                "C12": convex_slack(th1, th2),
                "D2": pl_slack(f2v + h2v, fsv, g2, s2, mu),
                "E1": rpl_slack(f1v + h1v, fsv, residual1, mu),
                "E2": pl_slack(f2v + h2v, fsv, g2, s2, mu),
                "Eprime1": rpl_slack(f1v + h1v, fsv, residual1, mu),
            }
            assert tuple(expected) == cm.CONSTRAINT_NAMES
            for name, want in expected.items():
                got = cm.build_constraint(name, L, mu, gamma).evaluate(gram, scal)
                assert isinstance(got, num) and isinstance(want, num), name
                assert abs(got - want) <= tol * max(1, abs(want)), name

    @pytest.mark.parametrize(
        "L,mu,gammas",
        [
            (1, Fraction(1, 4), (Fraction(1, 4), Fraction(3, 4), Fraction(5, 4), Fraction(7, 4))),
            (2, Fraction(1, 2), (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8))),
        ],
    )
    def test_float_equals_exact_at_dyadic_parameters(self, L, mu, gammas):
        # dyadic parameters make every float operation exact, so float mode
        # and exact mode must give the same numbers, bit for bit
        L = Fraction(L)

        def same(got, want):
            return got.dtype == float and np.array_equal(got, want.astype(float))

        for name in cm.CONSTRAINT_NAMES:
            cases = [(float(L), float(mu), np.array(gammas, dtype=float), np.array(gammas, dtype=object))]
            cases += [(float(L), float(mu), float(g), g) for g in gammas]
            for Lf, muf, gf, gx in cases:
                got = cm.build_constraint(name, Lf, muf, gf)
                want = cm.build_constraint(name, L, mu, gx)
                assert same(got.Q, want.Q) and same(got.c, want.c), (name, gf)

    def test_batched_matches_pointwise(self):
        grid = np.linspace(0.1, 1.4, 9)
        batched = cm.build_constraint("B12", 1.0, 0.1, grid)
        for i, g in enumerate(grid):
            single = cm.build_constraint("B12", 1.0, 0.1, float(g))
            assert np.allclose(np.asarray(batched.Q)[i], np.asarray(single.Q))


class TestVerification:
    def test_all_cases_random_parameters(self, rng):
        for cert in cm.certificate_catalog():
            for _ in range(10):
                L = float(np.exp(rng.uniform(-2, 3)))
                mu = L * float(rng.uniform(0.01, 0.99))
                grid = cm.interval_grid(cert, L, 100)
                chk = cm.verify_certificate(cert, L, mu, grid)
                assert chk.ok, (cert.case_id, chk.failures)
                assert chk.identity_residual <= 1e-11
                assert chk.min_multiplier >= -1e-14
                assert chk.remainder_max_eigenvalue <= 1e-10

    @staticmethod
    def assert_grid_reports_equal_pointwise_reports(exact, n=9):
        for cert in cm.certificate_catalog():
            grid = cm.interval_grid(cert, 1.3, n)
            chk = cm.verify_certificate(cert, 1.3, 0.2, grid, exact=exact)
            points = [cm.verify_certificate(cert, 1.3, 0.2, float(g), exact=exact) for g in grid]
            for i, point in enumerate(points):
                assert {k: v[i] for k, v in chk.multipliers.items()} == point.multipliers, (cert.case_id, i)
                assert chk.remainder_coefficient[i] == point.remainder_coefficient, (cert.case_id, i)
                assert type(point.remainder_coefficient) is (Fraction if exact else float), (cert.case_id, i)
            assert chk.min_multiplier == min(point.min_multiplier for point in points), cert.case_id
            assert chk.identity_residual == max(point.identity_residual for point in points), cert.case_id
            assert chk.remainder_max_eigenvalue == max(point.remainder_max_eigenvalue for point in points)
            assert chk.failures == [] and all(point.ok for point in points), cert.case_id

    def test_grid_reports_equal_pointwise_reports(self):
        # the reductions over a grid run over the entry axis only: each
        # point's values are those of a one-point call, bit for bit
        self.assert_grid_reports_equal_pointwise_reports(exact=False)

    def test_exact_grid_reports_equal_pointwise_reports(self):
        # exact mode decides a grid one point at a time
        self.assert_grid_reports_equal_pointwise_reports(exact=True)

    @pytest.mark.parametrize("exact", [False, True])
    def test_benchmark_size_grid_reports_equal_pointwise_reports(self, exact):
        # a numpy kernel that changes with the batch size would show only
        # on larger grids, and so would a formula's x**2 that rounds
        # otherwise on a float than on an array; 500 is the benchmark's grid
        self.assert_grid_reports_equal_pointwise_reports(exact, n=500)

    def test_grid_combination_equals_pointwise_combinations(self):
        # the contraction adds the same products in the same order at every
        # batch shape: a 500-point grid, one point of it, and a scalar
        q = 0.2 / 1.3
        for cert in cm.certificate_catalog():
            t = 1.3 * cm.interval_grid(cert, 1.3, 500)
            values = [np.broadcast_to(formula(1, q, t), t.shape) for _cname, _label, formula in cert.multipliers]
            rho = cert.rate(1, q, t)
            grid = cert.weighted_combination(t, q, values, rho).a
            for i, ti in enumerate(t.tolist()):
                point = [float(v[i]) for v in values]
                assert np.array_equal(cert.weighted_combination(t[i : i + 1], q, point, rho[i]).a[:, 0], grid[:, i])
                assert np.array_equal(cert.weighted_combination(ti, q, point, float(rho[i])).a, grid[:, i])

    @pytest.mark.parametrize("case", [c.case_id for c in cm.certificate_catalog()])
    def test_float_mode_catches_each_tampered_multiplier(self, case):
        # each multiplier reaches the combination through its own columns
        # of the certificate's coefficient array: scaling any one of them
        # breaks the identity, and only it
        cert = cm.certificate_for(case)
        grid = cm.interval_grid(cert, 1.3, 500)
        for i, (cname, label, formula) in enumerate(cert.multipliers):
            tampered = (cname, label, scaled(formula, 1.001))
            bad = dataclasses.replace(cert, multipliers=cert.multipliers[:i] + (tampered,) + cert.multipliers[i + 1 :])
            chk = cm.verify_certificate(bad, 1.3, 0.2, grid)
            assert len(chk.failures) == 1 and chk.failures[0].startswith("identity residual"), (case, label, chk.failures)

    def test_exact_mode_reads_binary_floats(self):
        # at L = 1/3, mu = 1/30 and gamma = 1/2 (t = 1/6, q = 1/10) the
        # remainder coefficient is -40/31, and L = 10/3, gamma = 9/20 is the
        # closed endpoint t = 3/2: exact mode refuses a parameter that its
        # float would round, rather than check another point
        cert = cm.certificate_for("Thm3.2-case1")
        third = Fraction(1, 3)
        for L, mu, gamma in [(third, third / 10, Fraction(1, 2)), (10 * third, third, Fraction(9, 20)), (1.0, 0.1, [0.5, third])]:
            with pytest.raises(DomainError, match="binary float"):
                cm.verify_certificate(cert, L, mu, gamma, exact=True)
        # an int or a Fraction that is a float is read as that float
        want = cm.verify_certificate(cert, 1.5, 0.25, np.array([0.5, 1.0]), exact=True)
        got = cm.verify_certificate(cert, Fraction(3, 2), Fraction(1, 4), [Fraction(1, 2), 1], exact=True)
        assert got.ok and repr(got) == repr(want)

    def test_equality_case_combination_is_identically_zero(self, rng):
        cert = cm.certificate_for("Thm4.2-case2")
        for _ in range(20):
            L = float(np.exp(rng.uniform(-1, 2)))
            mu = L * float(rng.uniform(0.05, 0.95))
            grid = cm.interval_grid(cert, L, 50)
            combo = cert.weighted_combination(L * grid, mu / L)
            assert float(np.abs(np.asarray(combo.Q)).max()) <= 1e-13
            assert float(np.abs(np.asarray(combo.c)).max()) <= 1e-13

    def test_exact_mode_all_cases(self, rng):
        for cert in cm.certificate_catalog():
            L = float(np.exp(rng.uniform(-1, 1)))
            mu = L * float(rng.uniform(0.1, 0.9))
            grid = cm.interval_grid(cert, L, 9)
            chk = cm.verify_certificate(cert, L, mu, grid, exact=True)
            assert chk.ok and chk.identity_residual == 0.0

    def test_exact_remainder_coefficient_is_nonpositive_fraction(self, rng):
        for cert in cm.certificate_catalog():
            L = float(np.exp(rng.uniform(-1, 1)))
            mu = L * float(rng.uniform(0.1, 0.9))
            for g in cm.interval_grid(cert, L, 5):
                chk = cm.verify_certificate(cert, L, mu, float(g), exact=True)
                assert chk.ok, (cert.case_id, g, chk.failures)
                assert type(chk.remainder_coefficient) is Fraction, cert.case_id
                assert chk.remainder_coefficient <= 0, cert.case_id

    def test_exact_mode_decides_the_remainder_sign_exactly(self):
        # fl(1.5/1.1) passes the float test gamma <= 1.5/L, but its exact
        # t = L*gamma lies past 1.5, where the coefficient (2t - 3)/... is
        # positive; only float tolerances accept it
        cert = cm.certificate_for("Thm3.2-case1")
        L, g = 1.1, 1.5 / 1.1
        assert cm.verify_certificate(cert, L, 0.1, g).ok
        chk = cm.verify_certificate(cert, L, 0.1, g, exact=True)
        assert chk.remainder_coefficient > 0
        assert any("remainder coefficient positive" in f for f in chk.failures)
        assert chk.remainder_max_eigenvalue > 0
        assert any("remainder not negative semidefinite" in f for f in chk.failures)

    def test_exact_mode_decides_multiplier_signs_exactly(self):
        # fl(1.5/1.1) lies just above 1.5/L, where E1's multiplier
        # gamma*mu*(3 - 2L*gamma)/... is negative; only float tolerances accept it
        cert = cm.certificate_for("Thm4.2-case2")
        L, mu, g = 1.1, 0.11, 1.5 / 1.1
        assert cm.verify_certificate(cert, L, mu, g).ok
        chk = cm.verify_certificate(cert, L, mu, g, exact=True)
        assert chk.min_multiplier < 0
        assert any(f.startswith("negative multiplier") and repr(g) in f for f in chk.failures)

    def test_exact_mode_catches_tampering(self):
        cert = cm.certificate_for("Thm4.1")
        bad = cm.Certificate(
            case_id=cert.case_id,
            fn_class=cert.fn_class,
            ineq=cert.ineq,
            multipliers=cert.multipliers,
            rate=lambda L, m, g: cert.rate(L, m, g) * Fraction(1001, 1000)
            if isinstance(g, Fraction)
            else cert.rate(L, m, g) * 1.001,
            remainder_coeff=cert.remainder_coeff,
            remainder_weights=cert.remainder_weights,
            interval=cert.interval,
            check_kind=cert.check_kind,
        )
        chk = cm.verify_certificate(bad, 1.0, 0.1, 0.9)
        assert not chk.ok
        assert any("identity residual" in f for f in chk.failures)
        chk_exact = cm.verify_certificate(bad, 1.0, 0.1, 0.9, exact=True)
        assert not chk_exact.ok
        assert chk_exact.identity_residual > 0
        assert any("identity residual" in f for f in chk_exact.failures)

    @pytest.mark.parametrize("L", [1.0, 3.7, 0.013])
    def test_rate_formula_branch_verifies_at_its_boundaries(self, L):
        # rate_formula and verify_certificate decide membership by one rule:
        # the case a gamma one ulp either side of a join, or one ulp below
        # 2/L, is assigned to is a case it verifies in
        mu = L / 10
        for (fn_class, ineq), certs in CASES.items():
            joins = [cert.interval[1] / L for cert in certs[:-1]]
            probes = [np.nextafter(j, side) for j in joins for side in (0.0, math.inf)]
            for g in map(float, probes + [np.nextafter(2.0 / L, 0.0)]):
                branch = rate_formula(fn_class, ineq, L, mu, g).branch
                assert cm.verify_certificate(cm.certificate_for(branch), L, mu, g).ok, (branch, g)

    def test_gamma_outside_interval_rejected(self):
        cert = cm.certificate_for("Thm3.2-case1")
        with pytest.raises(DomainError):
            cm.verify_certificate(cert, 1.0, 0.1, 1.7)

    def test_negative_multiplier_reported(self):
        cert = cm.certificate_for("Thm3.2-case1")
        bad = cm.Certificate(
            case_id=cert.case_id,
            fn_class=cert.fn_class,
            ineq=cert.ineq,
            multipliers=tuple(
                (cname, label, (lambda L, m, g: -1e-6) if label == "alpha2" else fn)
                for (cname, label, fn) in cert.multipliers
            ),
            rate=cert.rate,
            remainder_coeff=cert.remainder_coeff,
            remainder_weights=cert.remainder_weights,
            interval=cert.interval,
            check_kind=cert.check_kind,
        )
        chk = cm.verify_certificate(bad, 1.0, 0.1, 0.9)
        assert any("negative multiplier" in f for f in chk.failures)

    @pytest.mark.parametrize("exact", [False, True])
    def test_nan_multiplier_fails(self, exact):
        cert = cm.certificate_for("Thm3.2-case1")
        bad = dataclasses.replace(
            cert,
            multipliers=tuple(
                (cname, label, (lambda L, m, g: math.nan) if label == "alpha2" else fn)
                for (cname, label, fn) in cert.multipliers
            ),
        )
        chk = cm.verify_certificate(bad, 1.0, 0.1, 0.9, exact=exact)
        assert not chk.ok
        assert any("negative multiplier" in f for f in chk.failures)
        assert any(f.startswith("identity residual nan") for f in chk.failures)

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_multiplier_fails(self, exact, value, grid):
        # no identity holds with an infinite multiplier, and exact mode
        # refuses one as a multiplier: it is not a nonnegative rational. On
        # a grid the float combination meets inf - inf, silently
        cert = cm.certificate_for("Thm3.2-case1")
        bad = dataclasses.replace(
            cert,
            multipliers=tuple(
                (cname, label, (lambda L, m, g: value) if label == "alpha2" else fn)
                for (cname, label, fn) in cert.multipliers
            ),
        )
        L, mu, gamma = (1.3, 0.2, cm.interval_grid(cert, 1.3, 7)) if grid else (1.0, 0.1, 0.9)
        chk = cm.verify_certificate(bad, L, mu, gamma, exact=exact)
        assert np.all(chk.multipliers["alpha2"] == value)
        assert any(f.startswith("identity residual nan") for f in chk.failures)
        assert any("negative multiplier" in f for f in chk.failures) == (exact or value < 0)

    def test_exact_mode_reads_a_float_multiplier_exactly(self):
        # a Fraction formula times a float is a float; exact mode checks the
        # rational it stands for, and reports that rational's residual
        cert = cm.certificate_for("Thm3.2-case1")
        (cname, label, formula), *rest = cert.multipliers
        bad = dataclasses.replace(cert, multipliers=((cname, label, lambda L, m, g: formula(L, m, g) * 1.001), *rest))
        chk = cm.verify_certificate(bad, 1.0, 0.1, 0.9, exact=True)
        q, t = Fraction(0.1), Fraction(0.9)
        values = [fn(1, q, t) for _cname, _label, fn in bad.multipliers]
        assert type(values[0]) is float
        combo = reference_combination(cert, t, q, [Fraction(v) for v in values], cert.rate(1, q, t))
        remainder = cert.remainder_expression(t, q)
        terms = np.concatenate([combo.a, remainder.a])
        want = float(np.abs(combo.a - remainder.a).max() / max(np.abs(terms).max(), 1))
        assert 0 < chk.identity_residual == want
        assert chk.failures == [f"identity residual {want:.3e} exceeds 0.0e+00 at gamma=0.9"]

    def test_mu_above_L_rejected(self):
        # as `rate` refuses it: no theorem of the paper covers mu > L
        cert = cm.certificate_for("Thm3.2-case1")
        for exact in (False, True):
            with pytest.raises(DomainError, match="mu > L rejected"):
                cm.verify_certificate(cert, 1.0, 2.0, 0.9, exact=exact)
            assert cm.verify_certificate(cert, 1.0, 1.0, 0.9, exact=exact).ok

    @pytest.mark.parametrize("L, mu", [(1.0, math.inf), (math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan)])
    def test_non_finite_parameters_rejected(self, L, mu):
        with pytest.raises(DomainError, match="finite"):
            cm.verify_certificate(cm.certificate_for("Thm3.2-case1"), L, mu, 0.9)

    def test_overflow_is_a_domain_error(self):
        # mu/L overflows to inf as a float
        cert = cm.certificate_for("Thm3.2-case2")
        with pytest.raises(DomainError, match="mu/L"):
            cm.verify_certificate(cert, 1e-300, 1e300, 1.7e300)


class TestSweep:
    def test_summary_fields(self):
        s = cm.sweep_verify("Thm3.2-case1", 1.0, 0.1, np.linspace(0.01, 1.5, 200))
        assert s.n_points == 200
        assert s.worst_identity_residual <= 1e-11
        assert s.min_multiplier >= 0.0

    @pytest.mark.parametrize("mu", [0.01, 0.1, 0.5])
    def test_convex_pl_cases_across_moduli(self, mu):
        for case in ("Thm3.2-case1", "Thm3.2-case2"):
            cert = cm.certificate_for(case)
            s = cm.sweep_verify(case, 1.0, mu, cm.interval_grid(cert, 1.0, 200))
            assert s.worst_identity_residual <= 1e-11

    def test_failure_names_the_first_failing_point(self, monkeypatch):
        # Thm4.2-case2's identity holds past 1.5/L, where its E1 multiplier
        # turns negative: widened to (1/L, 2/L) only the sign check fails
        cert = cm.certificate_for("Thm4.2-case2")
        widened = dataclasses.replace(cert, interval=(1.0, 2.0, False, False))
        monkeypatch.setitem(cm._CATALOG, cert.case_id, widened)
        grid = np.linspace(1.05, 1.95, 10)
        first_bad = float(grid[grid > 1.5][0])
        with pytest.raises(VerificationError) as err:
            cm.sweep_verify(cert.case_id, 1.0, 0.1, grid)
        message = str(err.value)
        assert "negative multiplier" in message
        assert f"at gamma={first_bad!r}" in message
        assert "identity residual" not in message

    def test_empty_grid(self):
        s = cm.sweep_verify("Thm3.2-case1", 1.0, 0.1, [])
        assert s.n_points == 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_an_empty_gamma_is_a_domain_error(self, exact):
        with pytest.raises(DomainError, match="no gamma"):
            cm.verify_certificate(cm.certificate_for("Thm3.2-case1"), 1.0, 0.1, [], exact=exact)

    def test_point_outside_interval_names_it(self):
        with pytest.raises(DomainError) as err:
            cm.sweep_verify("Thm3.2-case1", 1.0, 0.1, [0.5, 1.7])
        assert "gamma 1.7 outside" in str(err.value)


class TestScaleInvariance:
    @settings(derandomize=True, deadline=None, database=None)
    @given(
        case=st.sampled_from([c.case_id for c in cm.certificate_catalog()]),
        k=st.integers(-300, 300),
        q=st.floats(0.01, 0.99),
        u=st.floats(0.0, 1.0),
    )
    def test_every_route_equals_its_unit_scale_result(self, case, k, q, u):
        # L = 2**k scales exactly: (L, q*L, t/L) normalizes to (1, q, t)
        # bit for bit, so reports, rates and searches must all be equal
        cert = cm.certificate_for(case)
        a, b = cm.interval_grid(cert, 1.0, 2)
        t = float(min(a + (b - a) * u, b))
        L = 2.0**k
        scaled, unit = (L, q * L, t / L), (1.0, q, t)
        for exact in (False, True):
            got = cm.verify_certificate(cert, *scaled, exact=exact)
            want = cm.verify_certificate(cert, *unit, exact=exact)
            assert got.ok
            assert dataclasses.replace(got, gamma=None) == dataclasses.replace(want, gamma=None)
        assert rate_formula(cert.fn_class, cert.ineq, *scaled) == rate_formula(cert.fn_class, cert.ineq, *unit)

        def search(p):
            try:
                return search_worst_case(SearchParams(cert.fn_class, cert.ineq, *p)).best_ratio
            except VerificationError as exc:  # a gate must fail alike at both scales
                return str(exc).replace(f"gamma={p[2]!r}", "")

        assert search(scaled) == search(unit)


def reference_combination(cert, t, q, values, rho):
    """f2 + h2 - rho*h1 - sum(m * constraint) in the exact Gram algebra of
    the interp definitions, with the multiplier values and rate given."""
    combo = cm.GramExpression(np.full((3, 3), Fraction(0), dtype=object), np.array([1, -rho, 1], dtype=object))
    for (cname, _label, _formula), m in zip(cert.multipliers, values):
        combo = combo - m * cm._definition(cname, q, t)
    return combo


class TestCoefficientTables:
    @settings(derandomize=True, deadline=None, database=None)
    @given(
        case=st.sampled_from([c.case_id for c in cm.certificate_catalog()]),
        t=st.fractions(-3, 5, max_denominator=10**6),
        q=st.fractions(Fraction(1, 1000), 3, max_denominator=10**6),
        L=st.fractions(Fraction(1, 1000), 1000, max_denominator=10**6),
    )
    def test_tables_equal_the_constraint_algebra(self, case, t, q, L):
        # t and q range past every interval and past mu <= L
        for name in cm.CONSTRAINT_NAMES:
            entries = [Fraction(0)] * 9
            features = cm._features(t, 1 / q)
            for f, row in cm._table(name):
                for e, coeff in row:
                    assert type(coeff) is Fraction, name
                    entries[e] += coeff * features[f]
            want = cm._definition(name, q, t)
            assert entries == want.Q[np.triu_indices(3)].tolist() + want.c.tolist(), name
            # at L, Q scales by 1/L and c does not
            got = cm.build_constraint(name, L, q * L, t / L)
            assert got.Q.tolist() == (want.Q / L).tolist() and got.c.tolist() == want.c.tolist(), name

        cert = cm.certificate_for(case)
        try:
            values = [formula(1, q, t) for _cname, _label, formula in cert.multipliers]
            rho = cert.rate(1, q, t)
        except ZeroDivisionError:  # a formula's pole
            return
        got = cert.weighted_combination(t, q)
        want = reference_combination(cert, t, q, values, rho)
        assert got.Q.tolist() == want.Q.tolist() and got.c.tolist() == want.c.tolist()

        # float mode, at float points near t, against the exact algebra at
        # the same float inputs and float multipliers: only the tables'
        # float arithmetic differs, so it must agree to roundoff
        ts = float(t) + np.arange(3) / 8
        qf = float(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = [formula(1, qf, ts) for _cname, _label, formula in cert.multipliers]
            rho = cert.rate(1, qf, ts)
        got = cert.weighted_combination(ts, qf, values)
        for i, ti in enumerate(ts):
            vi = [np.broadcast_to(v, ts.shape)[i] for v in values]
            if not np.all(np.isfinite(vi + [rho[i]])):
                continue
            want = reference_combination(cert, Fraction(ti), Fraction(qf), [Fraction(float(v)) for v in vi], Fraction(rho[i]))
            err = float((cm.GramExpression(got.Q[i], got.c[i]) - want).max_abs())
            # relative to the largest term of the sum
            terms = [abs(v) * float(cm.build_constraint(c, 1, qf, ti).max_abs()) for (c, _l, _f), v in zip(cert.multipliers, vi)]
            assert err <= 1e-14 * max([1, abs(rho[i])] + terms), (case, ti)

    def test_guard_rejects_a_constraint_outside_the_span(self, monkeypatch):
        original = cm._definition
        monkeypatch.setattr(cm, "_definition", lambda name, q, t: t**3 * original(name, q, t))
        with pytest.raises(VerificationError, match="degree"):
            cm._table.__wrapped__("C12")  # uncached, so no table is replaced

    def test_tables_are_built_on_first_use(self):
        code = (
            "from proxrate import certificate as cm\n"
            "def counts(): return cm._table.cache_info().currsize, cm._integer_forms.cache_info().misses\n"
            "print(*counts())\n"
            "cm.sweep_verify('Thm4.1', 1.0, 0.1, [1.0]); print(*counts())\n"
            "cm.verify_certificate(cm.certificate_for('Thm4.1'), 1.0, 0.1, 1.0, exact=True); print(*counts())\n"
            "cm.verify_certificate(cm.certificate_for('Thm4.1'), 1.0, 0.1, 1.5, exact=True); print(*counts())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cm.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        # nothing at import; a float sweep builds Thm4.1's three tables and
        # analyses nothing; the first exact check analyses Thm4.1 once (its
        # formulas on symbols, its proof on those tables, its integer
        # forms), and the second reuses that analysis
        assert out.stdout.splitlines() == ["0 0", "3 0", "3 1", "3 1"]


def scaled(f, factor=Fraction(1001, 1000)):
    return lambda *args: f(*args) * factor


class TestProofs:
    def test_catalog_is_proved(self):
        for cert in cm.certificate_catalog():
            assert cm._proved(cert), cert.case_id

    @pytest.mark.parametrize("part", ["multiplier", "rate", "remainder coefficient", "remainder weight"])
    def test_tampering_fails_the_proof(self, part):
        for cert in cm.certificate_catalog():
            if not cert.remainder_weights(1, 1) and part.startswith("remainder"):
                continue  # an empty square has nothing to tamper with
            i = len(cert.multipliers) - 1
            cname, label, formula = cert.multipliers[i]

            def weights(t, q, w=cert.remainder_weights):
                return {**w(t, q), "g1": w(t, q)["g1"] * Fraction(1001, 1000)}

            bad = dataclasses.replace(cert, **{
                "multiplier": {"multipliers": cert.multipliers[:i] + ((cname, label, scaled(formula)),)},
                "rate": {"rate": scaled(cert.rate)},
                "remainder coefficient": {"remainder_coeff": scaled(cert.remainder_coeff)},
                "remainder weight": {"remainder_weights": weights},
            }[part])
            assert not cm._proved(bad), (cert.case_id, part)
            # a point's report carries the exact residual there
            lo, hi = cm.interval_grid(cert, 1.0, 2)
            g = float(lo + (hi - lo) / 3)
            chk = cm.verify_certificate(bad, 1.0, 0.1, g, exact=True)
            assert chk.identity_residual > 0 and any("identity residual" in f for f in chk.failures), cert.case_id

    def test_a_formula_that_cannot_run_on_symbols_is_not_proved(self):
        cert = cm.certificate_for("Thm3.2-case1")
        (cname, label, formula), *rest = cert.multipliers
        rooted = dataclasses.replace(
            cert, multipliers=((cname, label, lambda L, m, g: math.sqrt(formula(L, m, g) ** 2)), *rest)
        )
        assert cm.verify_certificate(rooted, 1.0, 0.1, 0.9).ok  # the same values in floats
        assert not cm._proved(rooted)
        chk = cm.verify_certificate(rooted, 1.0, 0.1, 0.9, exact=True)
        assert not chk.ok and any("identity residual" in f for f in chk.failures)

    @pytest.mark.parametrize(
        "left, right, t, joins",
        [
            ("Thm3.2-case1", "Thm3.2-case2", Fraction(3, 2), True),
            ("Thm4.2-case2", "Thm4.2-case3", Fraction(3, 2), True),
            ("Thm4.2-case1", "Thm4.2-case2", 1, True),
            ("Thm4.2-case1", "Thm4.2-case3", 1, False),
        ],
    )
    def test_rates_join_for_every_q(self, left, right, t, joins):
        # at a rational join the two branches' rates are one function of q
        a, b = (cm.certificate_for(case).rate(1, cm._Q, t) for case in (left, right))
        assert (not (a - b).num) == joins

    def test_rational_functions_are_exact(self):
        t, q = cm._T, cm._Q
        assert not ((t + 1) ** 2 / (t + 1) - t - 1).num
        assert not (0.1 * t - Fraction(0.1) * t).num and (0.1 * t - Fraction(1, 10) * t).num
        assert not (1 / (1 / q) - q).num and not ((1 - q) + (q - 1)).num
        # neither denominator divides the other
        assert not (t / (1 + t) + 2 / (2 + q) - (2 + 4 * t + t * q) / ((1 + t) * (2 + q))).num
        with pytest.raises(ValueError):
            t * math.nan
        with pytest.raises(OverflowError):
            math.inf + q
        with pytest.raises(ZeroDivisionError):
            t / (q - q)
        for bad in ("t", [1], None):
            with pytest.raises(TypeError):
                t * bad
        for exponent in (-1, Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                t**exponent
        with pytest.raises(TypeError):
            math.sqrt(t)


def rational_points(gen, lo, hi, n):
    """n seeded random rationals strictly between lo and hi."""
    return [lo + (hi - lo) * Fraction(int(gen.integers(1, 10**9)), 10**9) for _ in range(n)]


class TestIntegerForms:
    def test_integer_decisions_equal_fraction_decisions(self):
        # a proved certificate's points are decided on integers; the
        # per-point Fraction path is the reference, value for value and
        # type for type, inside each interval and on both sides of each
        # endpoint, sqrt(3) among them
        gen = np.random.default_rng(29)
        qs = rational_points(gen, Fraction(0), Fraction(1), 4) + [Fraction(1), Fraction(0.1), Fraction(5e-324)]
        for cert in cm.certificate_catalog():
            forms = cm._integer_forms(cert)
            assert forms is not None, cert.case_id
            lo, hi = cert.interval[:2]
            ts = rational_points(gen, Fraction(lo), Fraction(hi), 12)
            for edge in (lo, hi):  # sqrt(3), each closed endpoint, and the rest
                x, y = Fraction(edge), Fraction(1, 10**12)
                ts += [x, Fraction(np.nextafter(edge, 0.0)), Fraction(np.nextafter(edge, 3.0)), x - y, x + y]
            for t in ts:
                for q in qs:
                    want = cm._decide_fraction(cert, q, t)
                    got = cm._decide_integer(forms, q, t)
                    assert got == want, (cert.case_id, t, q)
                    assert repr(got) == repr(want)  # the sign of a zero too
                    assert [type(x) for x in got] == [type(x) for x in want] and type(got[4]) is Fraction
                    assert [type(x) for x in got[0]] == [float] * len(cert.multipliers)
                    assert cm._decide_exact(cert, q, t) == want

    def test_a_pole_is_decided_on_fractions(self):
        # Thm4.2-case2's denominator -t + t*q + 2 vanishes at (t, q) = (4, 1/2),
        # outside its interval: both exact paths raise there
        cert = cm.certificate_for("Thm4.2-case2")
        q, t = Fraction(1, 2), Fraction(4)
        with pytest.raises(ZeroDivisionError):
            cm._decide_integer(cm._integer_forms(cert), q, t)
        with pytest.raises(ZeroDivisionError):
            cm._decide_fraction(cert, q, t)
        with pytest.raises(ZeroDivisionError):
            cm._decide_exact(cert, q, t)

    def test_an_unproved_certificate_has_no_integer_forms(self):
        cert = cm.certificate_for("Thm3.2-case1")
        bad = dataclasses.replace(cert, rate=scaled(cert.rate))
        assert cm._integer_forms(bad) is None
        assert cm._decide_exact(bad, Fraction(1, 10), Fraction(9, 10)) == cm._decide_fraction(bad, Fraction(1, 10), Fraction(9, 10))


class TestExactVanishing:
    @settings(derandomize=True, deadline=None, database=None)
    @given(
        case=st.sampled_from([c.case_id for c in cm.certificate_catalog()]),
        u=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0, exclude_min=True),
        k=st.integers(1, 10**6),
        which=st.integers(0, 4),
    )
    def test_identities_vanish_on_integers(self, case, u, q, k, which):
        # a float t inside the interval and a float q in (0, 1] are dyadic
        # rationals, so exact mode decides the identity there
        cert = cm.certificate_for(case)
        a, b = cm.interval_grid(cert, 1.0, 2)
        t = float(min(a + (b - a) * u, b))
        chk = cm.verify_certificate(cert, 1.0, q, t, exact=True)
        assert chk.ok and chk.identity_residual == 0.0, chk.failures

        # one multiplier off by the factor 1 + 1/k breaks the identity, and only it
        i = which % len(cert.multipliers)
        cname, label, formula = cert.multipliers[i]
        scaled = (cname, label, lambda L, m, g: formula(L, m, g) * Fraction(k + 1, k))
        bad = dataclasses.replace(cert, multipliers=cert.multipliers[:i] + (scaled,) + cert.multipliers[i + 1 :])
        chk = cm.verify_certificate(bad, 1.0, q, t, exact=True)
        assert len(chk.failures) == 1 and chk.failures[0].startswith("identity residual"), chk.failures
        assert chk.identity_residual > 0


class TestConsequenceOnTraces:
    def test_one_step_gap_bounded_by_certificate_rate(self):
        data = generate_instance("elastic_net", 200, 20, 0.1, seed=0, delta=0.01)
        problem = data.problem()
        L, mu = problem.f.lipschitz, problem.mu
        fstar = estimate_fstar(problem, np.zeros(20)).value
        gen = np.random.default_rng(99)
        for cert in cm.certificate_catalog():
            if (cert.fn_class, cert.ineq) != ("convex", "rpl"):
                continue
            grid = cm.interval_grid(cert, L, 5)
            g = float(grid[2])
            tau = cert.rate(L, mu, g)
            for _ in range(20):
                x1 = gen.standard_normal(20) * gen.uniform(0.1, 5.0)
                tr = run_pgm(problem, PgmConfig(step=g, max_iters=1), x1)
                gap1 = tr.F_vals[0] - fstar
                gap2 = problem.objective(tr.final_point) - fstar
                assert gap2 <= tau * gap1 + 1e-9

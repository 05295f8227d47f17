from types import SimpleNamespace

import numpy as np
import pytest

from proxrate import pepsearch
from proxrate.errors import DomainError, VerificationError
from proxrate.interp import Point, convex_slack, pl_slack, rpl_slack, smooth_convex_slack, smooth_slack
from proxrate.pepsearch import (
    CONSTRAINT_SETS,
    DUALITY_GAP_TOL,
    FEASIBILITY_TOL,
    SearchParams,
    search_worst_case,
    tightness_curve,
    write_tightness_csv,
)
from proxrate.rates import rate_formula


class TestParams:
    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            SearchParams("convex", "pl", 1.0, 0.1, 2.0)

    def test_mu_above_L_rejected(self):
        # as `rate` refuses it: no theorem of the paper covers mu > L
        for mu in (10.0, float(np.nextafter(1.0, 2.0))):
            with pytest.raises(DomainError, match="mu > L rejected"):
                SearchParams("convex", "pl", 1.0, mu, 1.0)
        SearchParams("convex", "pl", 1.0, 1.0, 1.0)

    def test_unknown_pair(self):
        with pytest.raises(DomainError):
            SearchParams("convex", "kl", 1.0, 0.1, 1.0)

    def test_constraint_sets_cover_all_pairs(self):
        # the SDP stacks its constraints in this order
        assert CONSTRAINT_SETS == {
            ("nonconvex", "pl"): ("A12", "A21", "C12", "D2"),
            ("convex", "pl"): ("B12", "B21", "C12", "D2"),
            ("nonconvex", "rpl"): ("A12", "C12", "Eprime1"),
            ("convex", "rpl"): ("B12", "B21", "C12", "E1", "E2"),
        }


class TestSearch:
    def test_convex_pl_reaches_analytic_rate(self):
        params = SearchParams("convex", "pl", 1.0, 0.1, 1.0)
        res = search_worst_case(params)
        assert res.best_ratio == pytest.approx(1.0 / 1.2, abs=1e-4)
        assert res.max_slack <= FEASIBILITY_TOL
        assert res.instance.feasible

    def test_soundness_never_exceeds_rate(self):
        for fn_class, ineq in CONSTRAINT_SETS:
            params = SearchParams(fn_class, ineq, 1.0, 0.1, 0.9)
            res = search_worst_case(params)
            assert res.best_ratio <= res.analytic_rate + 1e-6

    def test_reproducible_given_seed(self):
        # the solve draws nothing at random: repeated calls agree bit for bit
        params = SearchParams("convex", "rpl", 1.0, 0.1, 1.2)
        a, b = search_worst_case(params), search_worst_case(params)
        assert a.best_ratio == b.best_ratio and a.restarts_used == 1
        assert np.array_equal(a.instance.V, b.instance.V)
        assert (a.instance.f2, a.instance.h2) == (b.instance.f2, b.instance.h2)

    def test_instance_slacks_match_reported(self):
        params = SearchParams("nonconvex", "pl", 1.0, 0.1, 1.0)
        res = search_worst_case(params)
        slacks = res.instance.slacks()
        assert set(slacks) == set(params.constraint_names)
        assert max(slacks.values()) == pytest.approx(res.max_slack, abs=1e-12)


class TestExactSolve:
    @pytest.mark.parametrize("L, mu", [(1.0, 0.1), (4.0, 1.5)])
    def test_matches_closed_forms(self, L, mu):
        # the criterion-5 grid; convex/rpl on (0, 1/L] is the one place
        # where the constraint set's worst case lies below the closed form
        for fn_class, ineq in CONSTRAINT_SETS:
            for g in np.linspace(0.04, 1.96, 25) / L:
                if (fn_class, ineq) == ("convex", "rpl") and g <= 1.0 / L:
                    continue
                res = search_worst_case(SearchParams(fn_class, ineq, L, mu, float(g)))
                assert abs(res.gap) <= 1e-8, (fn_class, ineq, g, res.gap)

    @pytest.mark.parametrize("gamma", [0.3, 0.6, 1.2, 1.8])
    def test_worst_case_realized_as_points(self, rng, gamma):
        # the instance's Gram factor and values, placed at a random x1 with
        # random f(x1) and F*, satisfy every constraint's own definition
        L, mu = 1.0, 0.1
        for fn_class, ineq in CONSTRAINT_SETS:
            params = SearchParams(fn_class, ineq, L, mu, gamma)
            instance = search_worst_case(params).instance
            g1, g2, s2 = instance.V
            x1 = rng.standard_normal(3)
            f1, fstar = rng.standard_normal(2)
            x2 = x1 - gamma * (g1 + s2)
            tf1, tf2 = Point(x1, g1, f1), Point(x2, g2, instance.f2 + f1)
            th1, th2 = Point(x1, None, 1.0 - f1 + fstar), Point(x2, s2, instance.h2 - f1 + fstar)
            F1, F2 = tf1.fv + th1.fv, tf2.fv + th2.fv
            e1 = rpl_slack(F1, fstar, (x1 - x2) / gamma, mu)
            d2 = pl_slack(F2, fstar, g2, s2, mu)
            slacks = {
                "A12": smooth_slack(tf1, tf2, L), "A21": smooth_slack(tf2, tf1, L),
                "B12": smooth_convex_slack(tf1, tf2, L), "B21": smooth_convex_slack(tf2, tf1, L),
                "C12": convex_slack(th1, th2), "D2": d2, "E2": d2, "E1": e1, "Eprime1": e1,
            }
            case = (fn_class, ineq)
            for name in params.constraint_names:
                assert slacks[name] <= FEASIBILITY_TOL, (case, name, slacks[name])
            assert F2 - fstar == pytest.approx(instance.ratio, abs=1e-12), case

    def test_convex_rpl_small_step_gap(self):
        params = SearchParams("convex", "rpl", 1.0, 0.1, 0.6)
        res = search_worst_case(params)
        assert res.best_ratio == pytest.approx(0.8866639, abs=1e-7)
        assert res.gap == pytest.approx(1.2858e-4, abs=1e-7)
        lam = res.multipliers
        assert lam["B12"] == pytest.approx(0.9456, abs=1e-4)
        assert lam["C12"] == pytest.approx(lam["B12"], abs=1e-8)
        assert lam["E1"] == pytest.approx(0.0589, abs=1e-4)
        assert lam["E2"] == pytest.approx(0.0544, abs=1e-4)
        assert lam["B21"] == pytest.approx(0.0, abs=1e-6)

    def test_random_parameters_sound_and_converged(self):
        gen = np.random.default_rng(7)
        for fn_class, ineq in CONSTRAINT_SETS:
            for _ in range(100):
                L = float(np.exp(gen.uniform(-2.0, 3.0)))
                mu = L * float(gen.uniform(0.005, 0.995))
                g = float(gen.uniform(0.005, 1.995)) / L
                sol = search_worst_case(SearchParams(fn_class, ineq, L, mu, g))
                case = (fn_class, ineq, L, mu, g)
                assert sol.instance.feasible, case
                assert sol.best_ratio <= rate_formula(fn_class, ineq, L, mu, g).rho + 1e-6, case
                assert abs(sol.duality_gap) <= DUALITY_GAP_TOL, case


class TestGates:
    # each gate of the one solve raises and names what failed
    PARAMS = SearchParams("convex", "pl", 1.0, 0.1, 1.0)

    def test_duality_gap_gate(self, monkeypatch):
        monkeypatch.setattr(pepsearch, "DUALITY_GAP_TOL", -1.0)
        with pytest.raises(VerificationError, match="did not converge"):
            search_worst_case(self.PARAMS)

    def test_feasibility_gate(self, monkeypatch):
        monkeypatch.setattr(pepsearch, "FEASIBILITY_TOL", -1e-3)
        with pytest.raises(VerificationError, match="infeasible"):
            search_worst_case(self.PARAMS)

    def test_soundness_gate(self, monkeypatch):
        monkeypatch.setattr(pepsearch, "rate_formula", lambda *args: SimpleNamespace(rho=0.5))
        with pytest.raises(VerificationError, match="exceeds analytic rate"):
            search_worst_case(self.PARAMS)


class TestTightnessCurve:
    def test_single_point_grid(self):
        rows = tightness_curve("convex", "pl", 1.0, 0.1, [1.0])
        assert len(rows) == 1
        assert rows[0].gap >= -1e-6

    def test_grid_and_csv(self, tmp_path):
        grid = np.linspace(0.3, 1.7, 5)
        rows = tightness_curve("convex", "rpl", 1.0, 0.1, grid)
        assert len(rows) == 5
        assert max(r.gap for r in rows) <= 5e-3
        path = tmp_path / "curve.csv"
        write_tightness_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,analytic_rate,searched_ratio,gap,restarts_used"
        assert len(lines) == 6

import math

import numpy as np
import pytest

from proxrate.errors import DomainError
from proxrate.experiments import (
    DEFAULT_POLICIES,
    ExperimentSpec,
    parse_policy,
    run_experiment,
    tail_geometric_mean,
)
from proxrate.pgm import PgmConfig, run_pgm
from proxrate.problem import KINDS, generate_instance


class TestPolicyParsing:
    def test_fixed_multiples(self):
        p = parse_policy("1.5/L")
        assert p.kind == "multiple" and p.value == 1.5
        assert p.resolve("lasso", 2.0, None) == (0.75, "1.5/L")

    def test_sqrt3(self):
        p = parse_policy("sqrt3/L")
        gamma, _ = p.resolve("srlr", 1.0, None)
        assert gamma == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_absolute_gamma(self):
        p = parse_policy(0.25)
        assert p.resolve("lasso", 100.0, None)[0] == 0.25

    def test_optimal_per_kind(self):
        assert parse_policy("optimal").resolve("srlr", 1.0, None)[0] == pytest.approx(math.sqrt(3.0))
        assert parse_policy("optimal").resolve("lasso", 1.0, None)[0] == 1.5
        gamma, branch = parse_policy("optimal").resolve("elastic_net", 1.0, 0.25)
        assert gamma == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert branch == "Prop4.2-large-mu"

    def test_optimal_elastic_net_needs_mu(self):
        with pytest.raises(DomainError):
            parse_policy("optimal").resolve("elastic_net", 1.0, None)


class TestSpecValidation:
    def test_every_kind_has_default_policies(self):
        # ExperimentSpec accepts the kinds of problem.KINDS
        assert tuple(DEFAULT_POLICIES) == KINDS
        with pytest.raises(DomainError):
            ExperimentSpec(kind="ridge")

    def test_delta_pairing(self):
        with pytest.raises(DomainError):
            ExperimentSpec(kind="lasso", delta=1.0)
        with pytest.raises(DomainError):
            ExperimentSpec(kind="elastic_net")

    @pytest.mark.parametrize(
        "policies, budget",
        [
            *((["1/L", bad], 100) for bad in ("-1/L", "nan/L", "inf/L", "2/L", "0", "-0.5", "inf", "nan")),
            ([float("nan")], 100),
            ([-0.5], 100),
            (["1/L"], 0),
        ],
    )
    def test_bad_policy_or_budget_refused_before_any_run(self, policies, budget):
        with pytest.raises(DomainError):
            ExperimentSpec(kind="lasso", step_policies=policies, budget=budget)


class TestContractionHelpers:
    def test_constant_trace_has_no_factors(self):
        data = generate_instance("lasso", 20, 4, 0.1, seed=0)
        problem = data.problem()
        # start at an (approximate) minimizer: every gap sits below the
        # significance floor, so no factor survives the filter
        long = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=100_000, stop_tol=1e-13), np.zeros(4))
        xstar = long.final_point
        fstar = problem.objective(xstar)
        trace = run_pgm(problem, PgmConfig(step=1.0 / problem.f.lipschitz, max_iters=5, stop_tol=0.0), xstar)
        assert trace.contraction_factors(fstar).size == 0

    def test_tail_geometric_mean(self):
        assert tail_geometric_mean(np.array([])) is None
        assert tail_geometric_mean(np.full(100, 0.5)) == pytest.approx(0.5, rel=1e-12)


class TestRunExperiment:
    def test_unique_minimizer_smoke(self):
        spec = ExperimentSpec(kind="elastic_net", n=1, d=1, lam=0.1, delta=1.0, seed=3, budget=20_000)
        res = run_experiment(spec)
        finals = [r.trace.F_vals[-1] for r in res.runs]
        assert max(finals) - min(finals) <= 1e-10
        assert all(abs(f - res.fhat) <= 1e-10 for f in finals)

    def test_elastic_net_metrics(self):
        spec = ExperimentSpec(kind="elastic_net", n=60, d=8, lam=0.1, delta=0.01, seed=1, budget=30_000)
        res = run_experiment(spec)
        assert res.mu is not None and res.mu > 0
        labels = [r.policy.label for r in res.runs]
        assert labels == ["1/L", "optimal", "1.9/L"]
        for r in res.runs:
            assert r.analytic_bound is not None
            assert r.iterations_to_tol is not None
            assert r.max_contraction is not None
            assert 0.0 < r.gamma < 2.0 / res.L

    def test_lasso_policies_have_no_bound_column(self):
        spec = ExperimentSpec(kind="lasso", n=40, d=6, seed=2, budget=30_000)
        res = run_experiment(spec)
        assert all(r.analytic_bound is None for r in res.runs)
        assert all(r.tail_geomean is not None and r.tail_geomean < 1.0 for r in res.runs)

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(kind="lasso", n=30, d=5, seed=7, budget=10_000)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.fhat == b.fhat
        assert [r.iterations_to_tol for r in a.runs] == [r.iterations_to_tol for r in b.runs]

    def test_csv_outputs(self, tmp_path):
        spec = ExperimentSpec(kind="elastic_net", n=30, d=5, delta=0.5, seed=4, budget=10_000)
        res = run_experiment(spec)
        outdir = tmp_path / "exp"
        res.write_csvs(outdir)
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == "policy,gamma,iterations_to_tol,max_contraction,analytic_bound"
        assert len(summary) == 1 + len(res.runs)
        assert (outdir / "trace_1_per_L.csv").exists()

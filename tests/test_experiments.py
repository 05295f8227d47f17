import dataclasses
import math

import numpy as np
import pytest

import proxrate.experiments as experiments
from proxrate import rates
from proxrate.errors import DomainError
from proxrate.experiments import (
    DEFAULT_POLICIES,
    ExperimentSpec,
    parse_policy,
    run_experiment,
    tail_geometric_mean,
)
from proxrate.pgm import FstarEstimate, PgmConfig, estimate_fstar, run_pgm
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

    @pytest.mark.parametrize("L, mu", [(1.0, 0.25), (3.7, 0.2), (0.013, 0.0013)])
    def test_optimal_is_the_pairs_step_rule(self, L, mu):
        pairs = {"srlr": ("nonconvex", "pl"), "lasso": ("convex", "pl"), "elastic_net": ("convex", "rpl")}
        for kind, (fn_class, ineq) in pairs.items():
            step = rates.optimal_step(fn_class, ineq, L, mu)
            assert parse_policy("optimal").resolve(kind, L, mu) == (step.gamma_star, step.branch)

    @pytest.mark.parametrize("L", [1.0, 3.7, 0.013])
    def test_optimal_reads_a_modulus_above_L_as_L(self, L):
        step = rates.optimal_step("convex", "rpl", L, L)
        for mu in (L, 2 * L):
            assert parse_policy("optimal").resolve("elastic_net", L, mu) == (step.gamma_star, step.branch)

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

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(kind="srlr", n=60, d=8, seed=2, budget=5_000),
        ExperimentSpec(kind="lasso", n=40, d=6, seed=3, budget=5_000),
        ExperimentSpec(kind="elastic_net", n=30, d=5, delta=100.0, seed=1, budget=5_000),
    ], ids=lambda spec: spec.kind)
    def test_wrapped_oracles_write_the_same_csvs(self, spec, monkeypatch, tmp_path):
        # f, h and the problem rebuilt around wrapped callables, the way a
        # tracer counting oracle calls rebuilds each instance's problem
        untraced = run_experiment(spec)
        untraced.write_csvs(tmp_path / "a")
        build = experiments.ProblemData.problem

        def wrapped(data):
            p = build(data)
            f = dataclasses.replace(p.f, value=lambda x: p.f.value(x), gradient=lambda x: p.f.gradient(x))
            h = dataclasses.replace(p.h, value=lambda x: p.h.value(x), prox=lambda u, g: p.h.prox(u, g))
            return dataclasses.replace(p, f=f, h=h)

        monkeypatch.setattr(experiments.ProblemData, "problem", wrapped)
        traced = run_experiment(spec)
        traced.write_csvs(tmp_path / "b")
        assert traced.fhat == untraced.fhat
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


CUT_SPECS = [
    ExperimentSpec(kind="srlr", n=100, d=10, seed=0, budget=20_000),
    ExperimentSpec(kind="lasso", n=40, d=6, seed=2, budget=30_000),
    ExperimentSpec(kind="elastic_net", n=60, d=8, lam=0.1, delta=0.01, seed=1, budget=30_000),
]


def plain_runs(res):
    """Each policy's run from the origin under the stop rules without a
    reference value."""
    problem = res.data.problem()
    return [run_pgm(problem, PgmConfig(r.gamma, res.spec.budget, 1e-14), np.zeros(res.spec.d)) for r in res.runs]


def published(trace, fhat, gap_tol):
    """(iterations_to_tol, max_contraction, tail_geomean) of a trace."""
    hit = np.nonzero(trace.F_vals - fhat <= gap_tol)[0]
    factors = trace.contraction_factors(fhat)
    return (int(hit[0]) if hit.size else None, float(factors.max()) if factors.size else None, tail_geometric_mean(factors))


class TestReferenceCut:
    @pytest.fixture(scope="class", params=CUT_SPECS, ids=lambda s: s.kind)
    def cut(self, request):
        res = run_experiment(request.param)
        return res, plain_runs(res)

    def test_cut_run_publishes_what_the_plain_run_does(self, cut):
        res, plain = cut
        for r, p in zip(res.runs, plain):
            assert r.trace.stopped_on == "reference"
            assert r.trace.iterations < p.iterations
            assert np.array_equal(r.trace.F_vals, p.F_vals[: r.trace.iterations + 1])
            # given the same fhat, the rows after the cut add no published number
            assert published(p, res.fhat, res.spec.gap_tol) == (r.iterations_to_tol, r.max_contraction, r.tail_geomean)
            assert r.trace.contraction_factors(res.fhat).size >= 10

    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_fhat_ulp_shift_moves_max_contraction_within_precision(self, cut, ulps):
        # every factor's gaps exceed K*eps*(1 + |fhat|), and k ulps of fhat
        # are at most k*eps*|fhat|, so each factor moves by at most k/(K - k):
        # about 1e-4 per ulp at K = 1e4
        res, _ = cut
        shifted = res.fhat
        for _ in range(abs(ulps)):
            shifted = np.nextafter(shifted, math.copysign(math.inf, ulps))
        for r in res.runs:
            moved = float(r.trace.contraction_factors(shifted).max())
            assert abs(moved - r.max_contraction) <= abs(ulps) / (1e4 - abs(ulps)) * r.max_contraction

    @pytest.mark.parametrize("case", ["stale", "gap_tol below the floor", "passed below"])
    def test_uncut_runs_keep_the_plain_stop_rules(self, monkeypatch, case):
        spec = CUT_SPECS[1]
        if case == "stale":
            # a reference run with a tiny budget
            monkeypatch.setattr(experiments, "estimate_fstar", lambda problem, x1, max_iters: estimate_fstar(problem, x1, 5))
        elif case == "gap_tol below the floor":
            spec = dataclasses.replace(spec, gap_tol=1e-13)
        else:
            # a reference value that the 1/L run steps over and then drops far
            # below, as a run that reaches another basin on srlr does
            spec = dataclasses.replace(spec, step_policies=["1/L"])
            problem = generate_instance(spec.kind, spec.n, spec.d, spec.lam, spec.seed).problem()
            F = run_pgm(problem, PgmConfig(1.0 / problem.f.lipschitz, max_iters=4), np.zeros(spec.d)).F_vals
            monkeypatch.setattr(experiments, "estimate_fstar", lambda *args, **kwargs: FstarEstimate(0.5 * (F[3] + F[4]), False, 0))
        res = run_experiment(spec)
        assert res.fhat_stale == (case == "stale")
        for r, p in zip(res.runs, plain_runs(res), strict=True):
            assert r.trace.stopped_on == p.stopped_on != "reference"
            assert np.array_equal(r.trace.points, p.points) and np.array_equal(r.trace.F_vals, p.F_vals)

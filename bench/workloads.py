"""The three benchmark workloads: search, experiment and certify.

Each workload builds its inputs from the workload seed in its
constructor (that is the timed set-up), exposes a fixed `tasks` list,
runs one task with `run` the way the matching CLI command does, and
checks one task's output with `check`, outside the timed region. `check`
returns a list of problems; an empty list means the output is correct.
Workloads call proxrate through module attributes (`px.<module>.<name>`)
so that the tracer's wrappers see every call. Why each workload exists,
and which numbers it should move, is in README.md next to this file.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass
from typing import Optional

import numpy as np

PAIRS = (("nonconvex", "pl"), ("convex", "pl"), ("nonconvex", "rpl"), ("convex", "rpl"))

# criterion-5 settings of the worst-case search
SEARCH_L, SEARCH_MU = 1.0, 0.1
SEARCH_GAMMAS = (0.6, 1.2, 1.8)  # one step size in every rate branch
SEARCH_RESTARTS, SEARCH_BUDGET = 12, 90
SOUNDNESS_SLACK = 1e-6
GAP_TARGET = 5e-3  # criterion 5's tightness target

# (kind, delta, step policies, instances) for the experiment workload
# srlr at 0.5/L runs the whole 3000-iteration budget on all but about one
# instance in 200, so most of the work is the same for every seed, and with
# 9 of 12 tasks srlr the median task is a middle srlr one; srlr at 1/L or
# 1.3/L and lasso at 0.5/L or 1.9/L are left out because whether they stop
# early depends on the seed
EXPERIMENTS = (
    ("srlr", None, ("0.5/L", "sqrt3/L"), 9),
    ("lasso", None, ("1/L", "1.5/L"), 1),
    ("elastic_net", 1e-2, ("1/L", "optimal"), 1),
    ("elastic_net", 100.0, ("1/L", "optimal"), 1),
)
EXPERIMENT_N, EXPERIMENT_D, EXPERIMENT_LAM, EXPERIMENT_BUDGET = 200, 20, 0.1, 3_000

CERTIFY_DRAWS, CERTIFY_GRID = 60, 500
RATE_TOL = 1e-12


def child_seeds(seed: int, count: int) -> list[int]:
    """`count` independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def draw_L_mu(gen) -> tuple[float, float]:
    """A smoothness constant over ~2 decades and a modulus below it."""
    L = float(np.exp(gen.uniform(-2.0, 3.0)))
    return L, L * float(gen.uniform(0.005, 0.995))


def covering_certificate(px, fn_class, ineq, L, gamma):
    for cert in px.certificate.certificate_catalog():
        if (cert.fn_class, cert.ineq) == (fn_class, ineq) and cert.gamma_in_interval(L, gamma).all():
            return cert
    raise LookupError(f"no certificate covers {fn_class}/{ineq} at gamma={gamma!r}")


def rel_diff(a, b) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchTask:
    params: object  # pepsearch.SearchParams
    seed: int
    restarts: int
    budget: int

    def describe(self):
        p = self.params
        return {
            "fn_class": p.fn_class, "ineq": p.ineq, "L": p.L, "mu": p.mu, "gamma": p.gamma,
            "seed": self.seed, "restarts": self.restarts, "budget": self.budget,
        }


class SearchWorkload:
    """`search_worst_case` for every (class, inequality) pair at a few step
    sizes, as `proxrate pep-search --gamma` runs it."""

    name = "search"
    min_passes = 1

    def __init__(self, px, seed, gammas=SEARCH_GAMMAS, restarts=SEARCH_RESTARTS, budget=SEARCH_BUDGET):
        self.px = px
        combos = [(pair, g) for pair in PAIRS for g in gammas]
        self.tasks = [
            SearchTask(px.pepsearch.SearchParams(fn, ineq, SEARCH_L, SEARCH_MU, g), s, restarts, budget)
            for ((fn, ineq), g), s in zip(combos, child_seeds(seed, len(combos)))
        ]
        self.gaps: list[float] = []

    def run(self, task):
        return self.px.pepsearch.search_worst_case(task.params, restarts=task.restarts, budget=task.budget, seed=task.seed)

    def check(self, task, res) -> list[str]:
        p = task.params
        self.gaps.append(res.gap)
        problems = []
        if not res.best_ratio <= res.analytic_rate + SOUNDNESS_SLACK:
            problems.append(f"searched ratio {res.best_ratio!r} exceeds the analytic rate {res.analytic_rate!r}")
        cert = covering_certificate(self.px, p.fn_class, p.ineq, p.L, p.gamma)
        if rel_diff(res.analytic_rate, float(cert.rate(p.L, p.mu, p.gamma))) > RATE_TOL:
            problems.append(f"analytic rate {res.analytic_rate!r} disagrees with certificate {cert.case_id}")
        if not res.instance.feasible:
            problems.append(f"best instance infeasible: slacks {res.instance.slacks()}")
        if rel_diff(res.instance.ratio, res.best_ratio) > RATE_TOL:
            problems.append("reported ratio differs from the instance's gap")
        if res.gap > GAP_TARGET:
            problems.append(f"gap {res.gap:.3e} above the criterion-5 target {GAP_TARGET:.0e}")
        return problems

    def extras(self):
        return {"max_gap": {"value": max(self.gaps), "unit": "ratio"}} if self.gaps else {}

    def close(self):
        pass


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTask:
    index: int
    spec: object  # experiments.ExperimentSpec
    problem: object  # CompositeProblem of the instance, built in set-up
    L: float
    mu: Optional[float]

    def describe(self):
        s = self.spec
        return {
            "kind": s.kind, "delta": s.delta, "seed": s.seed, "n": s.n, "d": s.d, "lam": s.lam,
            "budget": s.budget, "policies": list(s.step_policies), "L": self.L, "mu": self.mu,
        }


class ExperimentWorkload:
    """`run_experiment` followed by `write_csvs`, as `proxrate experiment`
    runs it, on srlr, lasso and elastic-net instances."""

    name = "experiment"
    min_passes = 2  # the CSVs of two passes must match byte for byte

    def __init__(self, px, seed, outdir, experiments=EXPERIMENTS, n=EXPERIMENT_N, d=EXPERIMENT_D, budget=EXPERIMENT_BUDGET):
        self.px = px
        self.outdir = outdir
        rows = [(kind, delta, pols) for kind, delta, pols, count in experiments for _ in range(count)]
        self.tasks = []
        for i, ((kind, delta, pols), s) in enumerate(zip(rows, child_seeds(seed, len(rows)))):
            spec = px.experiments.ExperimentSpec(
                kind=kind, n=n, d=d, lam=EXPERIMENT_LAM, delta=delta, seed=s, step_policies=pols, budget=budget
            )
            data = px.problem.generate_instance(kind, n, d, EXPERIMENT_LAM, s, delta)
            problem = data.problem()
            self.tasks.append(ExperimentTask(i, spec, problem, problem.f.lipschitz, problem.mu))
        self.digests: dict[int, dict] = {}

    def task_dir(self, task):
        return os.path.join(self.outdir, f"task{task.index}")

    def run(self, task):
        result = self.px.experiments.run_experiment(task.spec)
        result.write_csvs(self.task_dir(task))
        return result

    def check(self, task, result) -> list[str]:
        problems = []
        if result.L != task.L or result.mu != task.mu:
            problems.append(f"instance constants (L={result.L!r}, mu={result.mu!r}) differ from set-up")
        for r in result.runs:
            v = self.px.interp.validate_trace(task.problem, r.trace)
            if not v.ok():
                problems.append(
                    f"{r.policy.label}: trace identities fail (iteration {v.max_iteration_identity_error:.2e}, "
                    f"residual {v.max_residual_identity_error:.2e}, lemma {v.max_lemma_violation:.2e})"
                )
        digests = {}
        for name in sorted(os.listdir(self.task_dir(task))):
            with open(os.path.join(self.task_dir(task), name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(task.index, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests) if first.get(k) != digests.get(k))
            problems.append(f"CSV output not byte-identical to the previous pass: {changed}")
        return problems

    def extras(self):
        return {}

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyTask:
    mode: str  # "float" (grid sweep), "exact" (rational spot check) or "rate_curve"
    case: str  # certificate case id, or "fn_class/ineq" for a rate curve
    L: float
    mu: float
    gammas: np.ndarray

    def describe(self):
        return {"mode": self.mode, "case": self.case, "L": self.L, "mu": self.mu, "points": int(self.gammas.size)}


class CertifyWorkload:
    """Certificate sweeps on 500-point grids and exact-rational spot checks
    of all eight certificates at random (L, mu), as `proxrate certify
    --exact` runs them, plus a rate curve per (class, inequality) pair as
    `proxrate rate --grid` computes it."""

    name = "certify"
    min_passes = 1

    def __init__(self, px, seed, draws=CERTIFY_DRAWS, grid=CERTIFY_GRID):
        self.px = px
        cm = px.certificate
        gen = np.random.Generator(np.random.PCG64(seed))
        catalog = cm.certificate_catalog()
        self.tasks = []
        for _ in range(draws):
            for cert in catalog:
                L, mu = draw_L_mu(gen)
                points = cm.interval_grid(cert, L, grid)
                self.tasks.append(CertifyTask("float", cert.case_id, L, mu, points))
                self.tasks.append(CertifyTask("exact", cert.case_id, L, mu, points[len(points) // 2 : len(points) // 2 + 1]))
        for fn_class, ineq in PAIRS:
            L, mu = draw_L_mu(gen)
            self.tasks.append(CertifyTask("rate_curve", f"{fn_class}/{ineq}", L, mu, np.linspace(0.01 / L, 1.99 / L, grid)))

    def run(self, task):
        cm = self.px.certificate
        if task.mode == "float":
            return cm.sweep_verify(task.case, task.L, task.mu, task.gammas)
        if task.mode == "exact":
            return cm.verify_certificate(cm.certificate_for(task.case), task.L, task.mu, float(task.gammas[0]), exact=True)
        fn_class, ineq = task.case.split("/")
        return self.px.rates.rate_curve(fn_class, ineq, task.L, task.mu, task.gammas)

    def check(self, task, out) -> list[str]:
        cm = self.px.certificate
        if task.mode == "float":
            problems = []
            if out.n_points != task.gammas.size:
                problems.append(f"swept {out.n_points} of {task.gammas.size} points")
            if not (
                out.worst_identity_residual <= cm.IDENTITY_TOL
                and out.min_multiplier >= -cm.MULTIPLIER_TOL
                and out.max_remainder_eigenvalue <= cm.EIGENVALUE_TOL
            ):
                problems.append(f"sweep summary out of tolerance: {out}")
            return problems
        if task.mode == "exact":
            if out.ok and out.identity_residual == 0.0:
                return []
            return [f"exact identity does not vanish: {out.failures}"]
        problems = []
        fn_class, ineq = task.case.split("/")
        for row in out:
            cert = cm.certificate_for(row.branch)
            if (cert.fn_class, cert.ineq) != (fn_class, ineq) or not cert.gamma_in_interval(task.L, row.gamma).all():
                problems.append(f"gamma={row.gamma!r}: branch {row.branch} does not cover it")
            elif not math.isfinite(row.rate) or rel_diff(row.rate, float(cert.rate(task.L, task.mu, row.gamma))) > RATE_TOL:
                problems.append(f"gamma={row.gamma!r}: rate {row.rate!r} disagrees with certificate {cert.case_id}")
        return problems

    def extras(self):
        return {}

    def close(self):
        pass


WORKLOADS = {"search": SearchWorkload, "experiment": ExperimentWorkload, "certify": CertifyWorkload}

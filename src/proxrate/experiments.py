"""Step-size comparison experiments on the three instance families.

Each experiment generates a seeded random instance, computes a reference
objective value from a run at step 1/L (`pgm.estimate_fstar`: PGM with a
Newton warm start, confirmed by PGM), then runs one trace per
step policy from a shared start (the origin), each stopped once its
objective is within the significance floor of that value, and tabulates
iterations to a target gap, observed contraction factors, and, where a
domination modulus is known, the analytic worst-case bound.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rates
from .errors import DomainError
from .pgm import REFERENCE_BUDGET, PgmConfig, Trace, estimate_fstar, run_pgm, significance_floor
from .problem import KINDS, ProblemData, generate_instance

GAP_TOL = 1e-8
TAIL_WINDOW = 100  # most factors tail_geometric_mean averages

DEFAULT_POLICIES = {
    # srlr: tested fixed steps span (0, sqrt3/L]; with the conservative
    # L = 2*lambda_max bound, steps beyond sqrt3/L keep gaining on this
    # family empirically, so larger probes would change the winner
    "srlr": ("0.5/L", "1/L", "1.3/L", "sqrt3/L"),
    "lasso": ("0.5/L", "1/L", "1.5/L", "1.9/L"),
    "elastic_net": ("1/L", "optimal", "1.9/L"),
}

# (function class, inequality) whose rates.STEP_RULES rule the "optimal"
# policy takes on each family. Elastic net takes the paper's Prop4.2 rule
# at lmin+delta, a reproduced step the program does not certify: that
# modulus is tagged "pl" (see ProblemData.problem), and the published
# bound follows the tag.
OPTIMAL_STEP_PAIR = {"srlr": ("nonconvex", "pl"), "lasso": ("convex", "pl"), "elastic_net": ("convex", "rpl")}


@dataclass(frozen=True)
class StepPolicy:
    """A rule mapping an instance to a concrete step size."""

    label: str
    kind: str  # "multiple" | "absolute" | "optimal"
    value: Optional[float] = None

    def resolve(self, problem_kind: str, L: float, mu: Optional[float]) -> tuple[float, str]:
        """Return (gamma, branch label) for a realized instance."""
        if self.kind == "multiple":
            return self.value / L, self.label
        if self.kind == "absolute":
            return float(self.value), self.label
        if mu is None and problem_kind == "elastic_net":
            raise DomainError("optimal policy for elastic_net needs mu")
        # a modulus above L still certifies every weaker one, L among them
        if mu is not None:
            mu = min(mu, L)
        return rates.STEP_RULES[OPTIMAL_STEP_PAIR[problem_kind]](L, mu)


def parse_policy(text) -> StepPolicy:
    """Parse 'optimal', '1.5/L', 'sqrt3/L', or an absolute gamma value.

    A multiple must lie in (0, 2) and an absolute step must be finite and
    positive; whether an absolute step stays below 2/L is known only once
    the instance exists, and `PgmConfig` checks it then.
    """
    if isinstance(text, StepPolicy):
        return text
    s = str(text).strip()
    if s == "optimal":
        return StepPolicy(label="optimal", kind="optimal")
    try:
        if s.endswith("/L"):
            head = s[: -len("/L")]
            mult = math.sqrt(3.0) if head == "sqrt3" else float(head)
            policy = StepPolicy(label=s, kind="multiple", value=mult)
        else:
            policy = StepPolicy(label=f"gamma={float(s):g}", kind="absolute", value=float(s))
    except ValueError:
        raise DomainError(f"unknown step policy {s!r}") from None
    if policy.kind == "multiple" and not 0 < policy.value < 2:
        raise DomainError(f"step policy {s!r}: the multiple of 1/L must lie in (0, 2)")
    if policy.kind == "absolute" and not 0 < policy.value < math.inf:
        raise DomainError(f"step policy {s!r}: an absolute step must be finite and positive")
    return policy


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    n: int = 200
    d: int = 20
    lam: float = 0.1
    delta: Optional[float] = None
    seed: int = 0
    step_policies: Optional[Sequence] = None
    budget: int = 50_000
    gap_tol: float = GAP_TOL

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown experiment kind {self.kind!r}")
        if self.n < 1 or self.d < 1:
            raise DomainError("n and d must be positive")
        if (self.delta is not None) != (self.kind == "elastic_net"):
            raise DomainError("delta must be present exactly for elastic_net")
        if not self.gap_tol > 0:
            raise DomainError(f"gap_tol must be positive, got {self.gap_tol!r}")
        if self.budget < 1:
            raise DomainError(f"budget must be at least 1, got {self.budget!r}")
        self.policies()  # a bad policy fails here, before any run

    def policies(self) -> list[StepPolicy]:
        raw = self.step_policies or DEFAULT_POLICIES[self.kind]
        return [parse_policy(p) for p in raw]


@dataclass
class PolicyRun:
    policy: StepPolicy
    gamma: float
    branch: str
    trace: Trace
    iterations_to_tol: Optional[int]
    max_contraction: Optional[float]
    tail_geomean: Optional[float]
    analytic_bound: Optional[float]


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    data: ProblemData
    L: float
    mu: Optional[float]
    fhat: float
    fhat_stale: bool
    runs: list[PolicyRun] = field(default_factory=list)

    def summary_rows(self):
        return [[r.policy.label, r.gamma, r.iterations_to_tol, r.max_contraction, r.analytic_bound] for r in self.runs]

    def write_csvs(self, outdir):
        from .tableio import write_csv

        os.makedirs(outdir, exist_ok=True)
        for r in self.runs:
            safe = r.policy.label.replace("/", "_per_").replace("=", "")
            r.trace.to_csv(os.path.join(outdir, f"trace_{safe}.csv"), fstar=self.fhat)
        write_csv(
            os.path.join(outdir, "summary.csv"),
            ["policy", "gamma", "iterations_to_tol", "max_contraction", "analytic_bound"],
            self.summary_rows(),
        )


def tail_geometric_mean(factors: np.ndarray) -> Optional[float]:
    """Geometric mean of the last max(10, len//4) factors, at most TAIL_WINDOW."""
    if factors.size == 0:
        return None
    k = min(factors.size, max(10, min(TAIL_WINDOW, factors.size // 4)))
    tail = factors[-k:]
    tail = tail[tail > 0]
    if tail.size == 0:
        return None
    return float(np.exp(np.mean(np.log(tail))))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Generate the instance, run every policy from the origin, tabulate.

    The reference value is the best objective seen anywhere: the
    reference run at 1/L (`estimate_fstar`) to a tight residual tolerance,
    then lowered further if some policy's trace ends below it (policies
    can reach different basins on the nonconvex family). Each policy run
    stops at its first point within the significance floor of the
    reference run's value, where its gaps stop yielding factors. A run
    that passes below that value keeps the plain stop rules, as do all
    runs when the reference run is stale or gap_tol is below twice the
    floor (a cut run could then stop short of gap_tol).
    """
    data = generate_instance(spec.kind, spec.n, spec.d, spec.lam, spec.seed, spec.delta)
    problem = data.problem()
    L = problem.f.lipschitz
    mu = problem.mu
    x0 = np.zeros(spec.d)

    reference = estimate_fstar(problem, x0, max_iters=max(REFERENCE_BUDGET, spec.budget))
    plain = reference.stale or spec.gap_tol < 2.0 * significance_floor(reference.value)
    cut = None if plain else reference.value

    traces = []
    for policy in spec.policies():
        gamma, branch = policy.resolve(spec.kind, L, mu)
        config = PgmConfig(step=gamma, max_iters=spec.budget, stop_tol=1e-14, reference=cut)
        traces.append((policy, gamma, branch, run_pgm(problem, config, x0)))

    fhat = min(reference.value, min(float(t.F_vals.min()) for (_, _, _, t) in traces))

    result = ExperimentResult(
        spec=spec,
        data=data,
        L=L,
        mu=mu,
        fhat=fhat,
        fhat_stale=reference.stale,
    )
    for policy, gamma, branch, trace in traces:
        gaps = trace.F_vals - fhat
        hit = np.nonzero(gaps <= spec.gap_tol)[0]
        iters_to_tol = int(hit[0]) if hit.size else None
        factors = trace.contraction_factors(fhat)
        bound = None
        if spec.kind == "elastic_net" and mu is not None and mu < L:
            # the rate proved under the inequality the instance's modulus is
            # tagged with; left blank when mu >= L: the modulus saturates the
            # smoothness constant and certifies nothing meaningful there
            bound = rates.rate(rates.RateQuery("convex", problem.mu_inequality, L, mu, gamma)).rho
        result.runs.append(
            PolicyRun(
                policy=policy,
                gamma=gamma,
                branch=branch,
                trace=trace,
                iterations_to_tol=iters_to_tol,
                max_contraction=float(factors.max()) if factors.size else None,
                tail_geomean=tail_geometric_mean(factors),
                analytic_bound=bound,
            )
        )
    return result

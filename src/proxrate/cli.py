"""Command-line entry point.

Data goes to files (CSV or structured text); stdout carries only the
single-line results of scalar queries; diagnostics and errors go to
stderr as one machine-readable line `error:<category>: <message>`.
Exit codes: 0 success, 2 usage, 3 domain error, 4 verification failure,
5 I/O failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import certificate as cert_mod
from . import pepsearch, rates
from .errors import DomainError, VerificationError
from .experiments import ExperimentSpec, run_experiment
from .pgm import PgmConfig, estimate_fstar, run_pgm
from .problem import ProblemData, generate_instance
from .tableio import format_float, write_csv

ENV_OUTPUT_DIR = "PROXRATE_OUTPUT_DIR"


def _resolve_output(path):
    if path is None:
        return None
    base = os.environ.get(ENV_OUTPUT_DIR, "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="64-bit PRNG seed (any integer)")


def _add_query_flags(parser, need_gamma=True):
    parser.add_argument("--fn-class", choices=("convex", "nonconvex"), required=True, help="smooth part class")
    parser.add_argument("--ineq", choices=("pl", "rpl"), required=True, help="domination inequality flavor")
    parser.add_argument("--L", type=float, required=True, help="gradient Lipschitz constant, L > 0")
    parser.add_argument("--mu", type=float, required=True, help="domination modulus, 0 < mu <= L")
    if need_gamma:
        parser.add_argument("--gamma", type=float, help="step size in (0, 2/L)")


def _gamma_grid(args):
    """None for a --gamma point query; otherwise the --grid points from
    --gamma-min to --gamma-max, by default 0.01/L to 1.99/L. The range
    and --output flags belong to --grid, and a point query refuses them."""
    if (args.gamma is None) == (args.grid is None):
        raise DomainError("pass exactly one of --gamma or --grid")
    if args.gamma is not None:
        grid_only = {"--gamma-min": args.gamma_min, "--gamma-max": args.gamma_max, "--output": args.output}
        passed = [flag for flag, value in grid_only.items() if value is not None]
        if passed:
            raise DomainError(f"{', '.join(passed)} need --grid, not --gamma")
        return None
    if not (args.L > 0 and 2.0 / args.L < math.inf):
        raise DomainError(f"L must be positive with 2/L finite, got {args.L!r}")
    if args.grid < 1:
        raise DomainError(f"--grid needs at least 1 point, got {args.grid}")
    lo = args.gamma_min if args.gamma_min is not None else 0.01 / args.L
    hi = args.gamma_max if args.gamma_max is not None else 1.99 / args.L
    return np.linspace(lo, hi, args.grid)


def cmd_rate(args):
    grid = _gamma_grid(args)
    if grid is None:
        res = rates.rate(rates.RateQuery(args.fn_class, args.ineq, args.L, args.mu, args.gamma))
        print(f"{format_float(res.rho)} {res.branch}")
        return 0
    out = _resolve_output(args.output)
    if out is None:
        raise DomainError("--grid output needs --output")
    rows = rates.rate_curve(args.fn_class, args.ineq, args.L, args.mu, grid)
    rates.write_rate_curve_csv(out, rows)
    return 0


def cmd_optimal_step(args):
    step = rates.optimal_step(args.fn_class, args.ineq, args.L, args.mu)
    print(f"{format_float(step.gamma_star)} {format_float(step.rho_star)} {step.branch}")
    return 0


def cmd_certify(args):
    cases = (
        [c.case_id for c in cert_mod.certificate_catalog()]
        if args.case == "all"
        else [args.case]
    )

    lines = []
    for case_id in cases:
        cert = cert_mod.certificate_for(case_id)
        grid = cert_mod.interval_grid(cert, args.L, args.grid)
        s = cert_mod.sweep_verify(case_id, args.L, args.mu, grid)
        if args.exact:
            mid = float(grid[len(grid) // 2])
            chk = cert_mod.verify_certificate(cert, args.L, args.mu, mid, exact=True)
            if not chk.ok:
                raise VerificationError(f"{case_id} exact check failed: {chk.failures}")
        lo, hi, lo_closed, hi_closed = cert.interval
        interval = f"{'[' if lo_closed else '('}{lo / args.L:.12g}, {hi / args.L:.12g}{']' if hi_closed else ')'}"
        lines.append(
            f"case={s.case_id} interval={interval} points={s.n_points} "
            f"worst_identity_residual={s.worst_identity_residual:.3e} "
            f"min_multiplier={s.min_multiplier:.3e} "
            f"max_remainder_eigenvalue={s.max_remainder_eigenvalue:.3e} "
            f"check={cert.check_kind} status=pass"
        )
    out = _resolve_output(args.output)
    if out is not None:
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


def cmd_pep_search(args):
    grid = _gamma_grid(args)
    if grid is None:
        params = pepsearch.SearchParams(args.fn_class, args.ineq, args.L, args.mu, args.gamma)
        res = pepsearch.search_worst_case(params)
        print(
            f"{format_float(res.best_ratio)} {format_float(res.analytic_rate)} "
            f"{format_float(res.gap)} {res.restarts_used}"
        )
        return 0
    out = _resolve_output(args.output)
    if out is None:
        raise DomainError("grid search needs --output")
    rows = pepsearch.tightness_curve(args.fn_class, args.ineq, args.L, args.mu, grid)
    pepsearch.write_tightness_csv(out, rows)
    return 0


def _load_instance(args):
    if args.problem is not None:
        with open(args.problem) as fh:
            return ProblemData.from_json(fh.read())
    if args.kind is None:
        raise DomainError("pass --problem FILE or --kind with instance parameters")
    return generate_instance(args.kind, args.n, args.d, args.lam, args.seed, args.delta)


def cmd_solve(args):
    data = _load_instance(args)
    problem = data.problem()
    gamma = args.gamma if args.gamma is not None else 1.0 / problem.f.lipschitz
    config = PgmConfig(step=gamma, max_iters=args.max_iters, stop_tol=args.stop_tol)
    x0 = np.zeros(data.A.shape[1])
    trace = run_pgm(problem, config, x0)
    fstar = None
    if args.with_reference:
        fstar = estimate_fstar(problem, x0, max_iters=max(200_000, args.max_iters)).value
    out = _resolve_output(args.output)
    if out is not None:
        trace.to_csv(out, fstar=fstar)
    print(
        f"iterations={trace.iterations} F={format_float(trace.F_vals[-1])} "
        f"residual_norm={format_float(trace.residual_norms[-1])} stopped_on={trace.stopped_on}"
    )
    return 0


def cmd_experiment(args):
    outdir = _resolve_output(args.outdir)
    if outdir is None:
        raise DomainError("experiment needs --outdir")
    spec = ExperimentSpec(
        kind=args.kind,
        n=args.n,
        d=args.d,
        lam=args.lam,
        delta=args.delta,
        seed=args.seed,
        step_policies=args.policies.split(",") if args.policies else None,
        budget=args.budget,
        gap_tol=args.gap_tol,
    )
    result = run_experiment(spec)
    result.write_csvs(outdir)
    with open(os.path.join(outdir, "instance.json"), "w") as fh:
        fh.write(result.data.to_json())
    print(
        f"L={format_float(result.L)} "
        + (f"mu={format_float(result.mu)} " if result.mu is not None else "")
        + f"fhat={format_float(result.fhat)} runs={len(result.runs)}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxrate",
        description="Proximal gradient rates, certificates, worst-case search, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="closed-form worst-case rate (point or curve)")
    _add_query_flags(p)
    p.add_argument("--grid", type=int, help="emit a rate curve on this many gamma points")
    p.add_argument("--gamma-min", type=float, help="curve lower gamma, in (0, 2/L)")
    p.add_argument("--gamma-max", type=float, help="curve upper gamma, in (0, 2/L)")
    p.add_argument("--output", help="CSV path for --grid mode")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("optimal-step", help="rate-minimizing step size")
    _add_query_flags(p, need_gamma=False)
    p.set_defaults(fn=cmd_optimal_step)

    p = sub.add_parser("certify", help="verify proof certificates on gamma grids")
    p.add_argument("--case", default="all", help="certificate id (e.g. Thm3.2-case1) or 'all'")
    p.add_argument("--L", type=float, required=True, help="gradient Lipschitz constant, L > 0")
    p.add_argument("--mu", type=float, required=True, help="domination modulus, 0 < mu <= L")
    p.add_argument("--grid", type=int, default=200, help="points per case interval (>= 1)")
    p.add_argument("--exact", action="store_true", help="also spot-check in exact rational arithmetic")
    p.add_argument("--output", help="report path (defaults to stdout)")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("pep-search", help="exact one-step worst case of the proof's constraint set (point or curve)")
    _add_query_flags(p)
    p.add_argument("--grid", type=int, help="tightness curve on this many gamma points")
    p.add_argument("--gamma-min", type=float, help="curve lower gamma, in (0, 2/L)")
    p.add_argument("--gamma-max", type=float, help="curve upper gamma, in (0, 2/L)")
    p.add_argument("--output", help="CSV path (required for --grid)")
    p.set_defaults(fn=cmd_pep_search)

    p = sub.add_parser("solve", help="run the proximal gradient method on an instance")
    p.add_argument("--problem", help="instance JSON produced by this tool")
    p.add_argument("--kind", choices=("srlr", "lasso", "elastic_net"), help="generate an instance")
    p.add_argument("--n", type=int, default=200, help="rows, n >= 1")
    p.add_argument("--d", type=int, default=20, help="columns, d >= 1")
    p.add_argument("--lam", type=float, default=0.1, help="l1 weight, 0 < lam < inf")
    p.add_argument("--delta", type=float, help="ridge weight, 0 < delta < inf (elastic_net only)")
    p.add_argument("--gamma", type=float, help="step size in (0, 2/L); default 1/L")
    p.add_argument("--max-iters", type=int, default=100_000, help="iteration cap (>= 1)")
    p.add_argument("--stop-tol", type=float, default=1e-10, help="residual-norm stop tolerance (>= 0)")
    p.add_argument("--with-reference", action="store_true", help="add gap/contraction columns vs a reference run")
    p.add_argument("--output", help="trace CSV path")
    _add_seed(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("experiment", help="step-size comparison on a seeded instance")
    p.add_argument("--kind", choices=("srlr", "lasso", "elastic_net"), required=True)
    p.add_argument("--n", type=int, default=200, help="rows, n >= 1")
    p.add_argument("--d", type=int, default=20, help="columns, d >= 1")
    p.add_argument("--lam", type=float, default=0.1, help="l1 weight, 0 < lam < inf")
    p.add_argument("--delta", type=float, help="ridge weight, 0 < delta < inf (elastic_net only)")
    p.add_argument("--policies", help="comma list, e.g. '1/L,optimal,1.9/L'")
    p.add_argument("--budget", type=int, default=50_000, help="iteration cap per run (>= 1)")
    p.add_argument("--gap-tol", type=float, default=1e-8, help="target objective gap (> 0)")
    p.add_argument("--outdir", help="directory for trace and summary CSVs")
    _add_seed(p)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error:domain: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error:verification: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # fuzz safety: never a bare traceback
        print(f"error:internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Span and counter tracing of proxrate's layers, from outside the package.

`install_tracing(tracer)` replaces the public functions of each proxrate
module, and the names other modules import them under, with wrappers
that record one span per call: name, start, end, parent span and task
id. Spans stay in memory until `Tracer.write_spans` runs at the end.
Oracle callables are counted, not spanned: `ProblemData.problem` is
wrapped so the problem it returns evaluates its f and h through
counters, whose time is charged to the enclosing span as child time.
`uninstall` puts every original back.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

# span fields: name, start, end, parent index (-1 for none), task id,
# time spent in child spans and counted oracle calls, own index
NAME, START, END, PARENT, TASK, INNER, INDEX = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.task = None
        # set while a correctness check runs: only wrappers made with
        # in_check=True record then, so checks do not inflate layer figures
        self.checking = False
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name, after=None, in_check=False):
        """A wrapper of `fn` recording a span named `name`.

        `after(result, args, kwargs, seconds)` runs once the call returns
        and may return a replacement result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.checking and not in_check:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, -1 if parent is None else parent[INDEX], tracer.task, 0.0, len(tracer.spans)]
            tracer.spans.append(span)
            tracer._stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[INNER] += span[END] - span[START]
            if after is not None:
                replaced = after(result, args, kwargs, span[END] - span[START])
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def counted(self, fn, key):
        """A wrapper of an oracle callable that counts calls and time."""
        tracer = self

        def wrapper(*args):
            if tracer.checking:
                return fn(*args)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                tracer.counts[key] += 1
                tracer.sums["oracle_s"] += dt
                if tracer._stack:
                    tracer._stack[-1][INNER] += dt

        return wrapper

    def patch(self, owner, attr, name, after=None, in_check=False):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after, in_check))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def by_name(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            dur = s[END] - s[START]
            row = out[s[NAME]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - s[INNER]
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "task": s[TASK],
                            "self_s": s[END] - s[START] - s[INNER],
                        }
                    )
                    + "\n"
                )


def install_tracing(tracer: Tracer, px) -> None:
    """Wrap every layer of the proxrate package `px` (a namespace holding
    its modules as attributes: certificate, experiments, interp, pepsearch,
    pgm, problem, rates, tableio)."""
    counts, sums = tracer.counts, tracer.sums

    # rates: the closed forms, under their own and their importers' names
    for attr in ("rate_formula", "rate", "rate_curve", "optimal_step"):
        tracer.patch(px.rates, attr, "rates." + attr)
    tracer.patch(px.pepsearch, "rate_formula", "rates.rate_formula")

    # certificate: the shared constraint algebra and both verify modes
    tracer.patch(px.certificate, "build_constraint", "certificate.build_constraint")
    tracer.patch(px.pepsearch, "build_constraint", "certificate.build_constraint")

    def after_verify(check, args, kwargs, dt):
        mode = "exact" if kwargs.get("exact") else "float"
        counts[f"certificate.{mode}_points"] += len(check.gamma)
        sums[f"certificate.{mode}_s"] += dt

    tracer.patch(px.certificate, "verify_certificate", "certificate.verify_certificate", after_verify)
    tracer.patch(px.certificate, "sweep_verify", "certificate.sweep_verify")

    # pepsearch
    def after_search(result, args, kwargs, dt):
        counts["pepsearch.restarts"] += result.restarts_used
        counts["pepsearch.tight"] += result.gap <= 1e-6
        sums["pepsearch.max_gap"] = max(sums["pepsearch.max_gap"], result.gap)

    tracer.patch(px.pepsearch, "search_worst_case", "pepsearch.search_worst_case", after_search)

    # pgm
    def after_run(trace, args, kwargs, dt):
        counts["pgm.iterations"] += trace.iterations
        counts["pgm.budget_exhausted"] += trace.stopped_on == "max_iters"

    def after_fstar(est, args, kwargs, dt):
        counts["pgm.estimate_fstar.iterations"] += est.iterations

    for owner in (px.pgm, px.experiments):
        tracer.patch(owner, "run_pgm", "pgm.run_pgm", after_run)
        tracer.patch(owner, "estimate_fstar", "pgm.estimate_fstar", after_fstar)
    tracer.patch(px.pgm.Trace, "to_csv", "pgm.Trace.to_csv")

    # problem: instances, and counted oracles on every problem handed out
    for owner in (px.problem, px.experiments):
        tracer.patch(owner, "generate_instance", "problem.generate_instance")

    def after_problem(p, args, kwargs, dt):
        f = dataclasses.replace(
            p.f,
            value=tracer.counted(p.f.value, "problem.oracle_calls.f_value"),
            gradient=tracer.counted(p.f.gradient, "problem.oracle_calls.f_gradient"),
        )
        h = dataclasses.replace(
            p.h,
            value=tracer.counted(p.h.value, "problem.oracle_calls.h_value"),
            prox=tracer.counted(p.h.prox, "problem.oracle_calls.h_prox"),
        )
        return dataclasses.replace(p, f=f, h=h)

    tracer.patch(px.problem.ProblemData, "problem", "problem.ProblemData.problem", after_problem)

    # experiments
    def after_experiment(result, args, kwargs, dt):
        for r in result.runs:
            useful = r.iterations_to_tol if r.iterations_to_tol is not None else r.trace.iterations
            counts["pgm.useful_iterations"] += min(useful, r.trace.iterations)

    tracer.patch(px.experiments, "run_experiment", "experiments.run_experiment", after_experiment)
    tracer.patch(px.experiments.ExperimentResult, "write_csvs", "experiments.write_csvs")

    # tableio
    def after_write(_result, args, kwargs, dt):
        counts["tableio.bytes_written"] += os.path.getsize(args[0])

    tracer.patch(px.tableio, "write_csv", "tableio.write_csv", after_write)

    # interp (only the correctness check calls it)
    def after_validate(_result, args, kwargs, dt):
        counts["interp.points_checked"] += len(args[1].points)

    tracer.patch(px.interp, "validate_trace", "interp.validate_trace", after_validate, in_check=True)


ORACLE_KEYS = ("f_value", "f_gradient", "h_value", "h_prox")

# (metric name, unit) in report order; values come from `layer_metrics`
PER_LAYER = (
    ("pepsearch.search_s", "s"),
    ("pepsearch.searches", "count"),
    ("pepsearch.restarts", "count"),
    ("pepsearch.s_per_restart", "s"),
    ("pepsearch.tight_frac", "ratio"),
    ("pepsearch.max_gap", "ratio"),
    ("certificate.build_constraint.calls", "count"),
    ("certificate.build_constraint.s", "s"),
    ("certificate.float_points", "count"),
    ("certificate.float_us_per_point", "us"),
    ("certificate.exact_points", "count"),
    ("certificate.exact_ms_per_point", "ms"),
    ("rates.calls", "count"),
    ("rates.s", "s"),
    ("pgm.run_pgm.calls", "count"),
    ("pgm.run_pgm.self_s", "s"),
    ("pgm.iterations", "count"),
    ("pgm.us_per_iter", "us"),
    ("pgm.estimate_fstar.s", "s"),
    ("pgm.estimate_fstar.iterations", "count"),
    ("pgm.budget_exhausted_frac", "ratio"),
    ("pgm.useful_iter_frac", "ratio"),
    ("pgm.Trace.to_csv.self_s", "s"),
    ("problem.oracle_calls", "count"),
    *((f"problem.oracle_calls.{k}", "count") for k in ORACLE_KEYS),
    ("problem.oracle_s", "s"),
    ("problem.us_per_oracle_call", "us"),
    ("problem.instance_s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    ("tableio.write_csv.calls", "count"),
    ("tableio.write_s", "s"),
    ("tableio.bytes_written", "count"),
    ("interp.validate_trace.s", "s"),
    ("interp.points_checked", "count"),
    ("trace.overhead_s", "s"),
)


def _ratio(num, den):
    # a layer the workload never calls reports 0 rather than 0/0
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-pass layer metrics from everything `tracer` recorded over
    `passes` identical traced passes of a workload's task list."""
    spans = tracer.by_name()
    counts, sums = tracer.counts, tracer.sums

    def count(total):
        # identical passes give a whole count per pass; anything else shows
        return total // passes if total % passes == 0 else total / passes

    def calls(name):
        return spans[name][0] if name in spans else 0

    def incl(name):
        return spans[name][1] if name in spans else 0.0

    def self_s(name):
        return spans[name][2] if name in spans else 0.0

    rates_names = [n for n in spans if n.startswith("rates.")]
    oracle_calls = sum(counts[f"problem.oracle_calls.{k}"] for k in ORACLE_KEYS)
    iterations = counts["pgm.iterations"]
    searches = calls("pepsearch.search_worst_case")
    return {
        "pepsearch.search_s": incl("pepsearch.search_worst_case") / passes,
        "pepsearch.searches": count(searches),
        "pepsearch.restarts": count(counts["pepsearch.restarts"]),
        "pepsearch.s_per_restart": _ratio(incl("pepsearch.search_worst_case"), counts["pepsearch.restarts"]),
        "pepsearch.tight_frac": _ratio(counts["pepsearch.tight"], searches),
        "pepsearch.max_gap": sums["pepsearch.max_gap"],
        "certificate.build_constraint.calls": count(calls("certificate.build_constraint")),
        "certificate.build_constraint.s": self_s("certificate.build_constraint") / passes,
        "certificate.float_points": count(counts["certificate.float_points"]),
        "certificate.float_us_per_point": 1e6 * _ratio(sums["certificate.float_s"], counts["certificate.float_points"]),
        "certificate.exact_points": count(counts["certificate.exact_points"]),
        "certificate.exact_ms_per_point": 1e3 * _ratio(sums["certificate.exact_s"], counts["certificate.exact_points"]),
        "rates.calls": count(sum(calls(n) for n in rates_names)),
        "rates.s": sum(self_s(n) for n in rates_names) / passes,
        "pgm.run_pgm.calls": count(calls("pgm.run_pgm")),
        "pgm.run_pgm.self_s": self_s("pgm.run_pgm") / passes,
        "pgm.iterations": count(iterations),
        "pgm.us_per_iter": 1e6 * _ratio(incl("pgm.run_pgm"), iterations),
        "pgm.estimate_fstar.s": incl("pgm.estimate_fstar") / passes,
        "pgm.estimate_fstar.iterations": count(counts["pgm.estimate_fstar.iterations"]),
        "pgm.budget_exhausted_frac": _ratio(counts["pgm.budget_exhausted"], calls("pgm.run_pgm")),
        "pgm.useful_iter_frac": _ratio(counts["pgm.useful_iterations"], iterations),
        "pgm.Trace.to_csv.self_s": self_s("pgm.Trace.to_csv") / passes,
        "problem.oracle_calls": count(oracle_calls),
        **{f"problem.oracle_calls.{k}": count(counts[f"problem.oracle_calls.{k}"]) for k in ORACLE_KEYS},
        "problem.oracle_s": sums["oracle_s"] / passes,
        "problem.us_per_oracle_call": 1e6 * _ratio(sums["oracle_s"], oracle_calls),
        "problem.instance_s": (self_s("problem.generate_instance") + self_s("problem.ProblemData.problem")) / passes,
        "experiments.run_experiment.self_s": self_s("experiments.run_experiment") / passes,
        "tableio.write_csv.calls": count(calls("tableio.write_csv")),
        "tableio.write_s": incl("tableio.write_csv") / passes,
        "tableio.bytes_written": count(counts["tableio.bytes_written"]),
        "interp.validate_trace.s": incl("interp.validate_trace") / passes,
        "interp.points_checked": count(counts["interp.points_checked"]),
        "trace.overhead_s": overhead_s,
    }

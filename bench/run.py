"""proxrate benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload {search,experiment,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One process runs the workload's fixed task
list, one task after another, with BLAS pinned to one thread, and
repeats the list ("a pass") while another pass fits in S seconds. Every
task's output is checked outside the timed region. With --trace 0 the
last stdout line is a JSON object carrying the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced passes, which
alternate with untraced ones so the tracing overhead can be reported.
Full records (provenance, task list, failures, spans) go to .bench_out/.
"""
from __future__ import annotations

import os

# pin BLAS before numpy loads it: the sandbox this targets has 2 CPUs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("certificate", "experiments", "interp", "pepsearch", "pgm", "problem", "rates", "tableio")
SETUP_REPS = 9
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("task_p95_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_proxrate() -> SimpleNamespace:
    """A fresh import of proxrate from src/, modules as attributes."""
    for name in [m for m in sys.modules if m == "proxrate" or m.startswith("proxrate.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module("proxrate." + n) for n in LAYERS})


def set_up(name, seed, workdir, sizes):
    """Import proxrate and build the workload's inputs, SETUP_REPS times;
    returns the last workload and the median set-up time."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        px = import_proxrate()
        kwargs = dict(sizes)
        if name == "experiment":
            kwargs["outdir"] = workdir
        workload = WORKLOADS[name](px, seed, **kwargs)
        times.append(perf_counter() - t0)
    return workload, statistics.median(times)


def run_pass(workload, tag, tracer=None):
    """Run every task once; returns (task seconds, failures)."""
    times, failures = [], []
    for i, task in enumerate(workload.tasks):
        if tracer is not None:
            tracer.task = f"{tag}:{i}"
        t0 = perf_counter()
        try:
            out = workload.run(task)
            problems = None
        except Exception as exc:  # a task that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        times.append(perf_counter() - t0)
        if problems is None:
            if tracer is not None:
                tracer.checking = True
            try:
                problems = workload.check(task, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            finally:
                if tracer is not None:
                    tracer.checking = False
            del out
        if problems:
            failures.append({"pass": tag, "task": i, "problems": problems})
    return times, failures


def measure(workload, seconds, traced):
    """Passes until the next one would end after `seconds` (at least
    `workload.min_passes`, and one traced pass when traced)."""
    untraced_walls, traced_walls, task_times, failures = [], [], [], []
    tr = tracing.Tracer() if traced else None
    start = perf_counter()
    n = 0
    while True:
        t0 = perf_counter()
        times, fails = run_pass(workload, f"p{n}")
        untraced_walls.append(sum(times))
        task_times += times
        failures += fails
        if traced:
            tracing.install_tracing(tr, workload.px)
            try:
                times, fails = run_pass(workload, f"t{n}", tr)
            finally:
                tr.uninstall()
            traced_walls.append(sum(times))
            task_times += times
            failures += fails
        n += 1
        elapsed = perf_counter() - start
        if n >= workload.min_passes and elapsed + (perf_counter() - t0) > seconds:
            break
    return SimpleNamespace(
        untraced_walls=untraced_walls,
        traced_walls=traced_walls,
        task_times=task_times,
        failures=failures,
        tracer=tr,
    )


def openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, seconds, traced):
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "tasks": [t.describe() for t in workload.tasks],
    }


def fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def bench(name, seed, seconds, traced, out_dir=ROOT / ".bench_out", sizes=None):
    """Run one workload; returns (human-readable lines, result record)."""
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    workload, setup_s = set_up(name, seed, workdir, sizes or {})
    try:
        m = measure(workload, seconds, traced)
    finally:
        workload.close()
    attempted = len(m.task_times)
    failed = len(m.failures)
    times = sorted(m.task_times)
    p95 = statistics.quantiles(times, n=20, method="inclusive")[-1] if len(times) > 1 else times[0]
    untraced_wall = statistics.median(m.untraced_walls)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": untraced_wall,
        "task_p50_s": statistics.median(times),
        "task_p95_s": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {"fail_frac": {"value": failed / attempted, "unit": "ratio"}, **workload.extras()}
    lines = [
        f"workload={name} seed={seed} trace={int(traced)} passes={len(m.untraced_walls)}"
        f"{f'+{len(m.traced_walls)} traced' if traced else ''} tasks_per_pass={len(workload.tasks)}",
        f"setup_s {setup_s:.6g} s (median of {SETUP_REPS})",
        f"wall_s {untraced_wall:.6g} s (median of {len(m.untraced_walls)} untraced passes)",
        f"task_p50_s {end_to_end['task_p50_s']:.6g} s (n={attempted})",
        f"task_p95_s {p95:.6g} s (n={attempted}, {sum(t > p95 for t in times)} beyond)",
        f"peak_rss_mb {end_to_end['peak_rss_mb']:.6g} MB",
        f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted})",
    ]
    lines += [f"{k} {fmt(v['value'])} {v['unit']}" for k, v in extras.items() if k != "fail_frac"]
    if traced:
        overhead = statistics.median(m.traced_walls) - untraced_wall
        layer = tracing.layer_metrics(m.tracer, len(m.traced_walls), overhead)
        units = dict(tracing.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        lines += [f"{k} {fmt(v['value'])} {v['unit']}" for k, v in metrics.items()]
        m.tracer.write_spans(os.path.join(out_dir, f"{name}-seed{seed}-spans.jsonl"))
    else:
        metrics = {k: {"value": end_to_end[k], "unit": unit} for k, unit in END_TO_END}
    for f in m.failures[:10]:
        lines.append(f"FAILED pass={f['pass']} task={f['task']}: {'; '.join(f['problems'])}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        **result,
        "end_to_end": end_to_end,
        "extras": extras,
        "untraced_walls": m.untraced_walls,
        "traced_walls": m.traced_walls,
        "failures": m.failures,
        "provenance": provenance(workload, seed, seconds, traced),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proxrate" / "__init__.py").is_file():
        print(f"error: proxrate sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lines, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that planted bad outputs raise the failure count, that traced counts
repeat exactly, and that the command refuses to run without the sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))

TINY = {
    "search": {"gammas": (1.2,), "restarts": 4, "budget": 20},
    "experiment": {
        "experiments": (
            ("srlr", None, ("1.3/L",), 1),
            ("lasso", None, ("1/L",), 1),
            ("elastic_net", 100.0, ("optimal",), 1),
        ),
        "n": 30,
        "d": 5,
        "budget": 300,
    },
    "certify": {"draws": 1, "grid": 20},
}


def tiny_bench(name, tmp_path, traced=False):
    return run.bench(name, 0, 0.0, traced, out_dir=tmp_path, sizes=TINY[name])[1]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.tracing.PER_LAYER)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_with_unit(name, traced, tmp_path):
    result = tiny_bench(name, tmp_path, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _perturb_trace_point(result):
    points = result.runs[0].trace.points
    points[1] = points[1] + 1e-3


def _tamper_multiplier(workload):
    cm = workload.px.certificate
    cert = cm.certificate_for("Thm3.2-case1")
    (cname, label, formula), *rest = cert.multipliers
    bad = ((cname, label, lambda L, m, g: formula(L, m, g) * 1.001), *rest)
    cm._CATALOG[cert.case_id] = dataclasses.replace(cert, multipliers=bad)


def _inflate_searched_ratio(result):
    result.instance.f2 += 0.5


@pytest.mark.parametrize(
    "name, before, after",
    [
        ("experiment", None, _perturb_trace_point),
        ("certify", _tamper_multiplier, None),
        ("search", None, _inflate_searched_ratio),
    ],
)
def test_planted_bad_output_raises_fail_frac(name, before, after, monkeypatch, tmp_path):
    cls = workloads.WORKLOADS[name]
    original = cls.run

    def planted(self, task):
        if before is not None:
            before(self)
        out = original(self, task)
        if after is not None:
            after(out)
        return out

    monkeypatch.setattr(cls, "run", planted)
    result = tiny_bench(name, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_traced_counts_repeat(tmp_path):
    exact = [
        "pgm.iterations", "problem.oracle_calls", "tableio.bytes_written",
        "pgm.estimate_fstar.iterations", "pgm.run_pgm.calls",
    ]
    first = tiny_bench("experiment", tmp_path / "a", traced=True)["metrics"]
    second = tiny_bench("experiment", tmp_path / "b", traced=True)["metrics"]
    assert first["pgm.iterations"]["value"] > 0
    assert [first[k] for k in exact] == [second[k] for k in exact]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "search", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

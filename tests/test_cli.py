import json
import os
import subprocess
import sys

import numpy as np
import pytest

from proxrate.cli import main


PEP_SEARCH = ["pep-search", "--fn-class", "convex", "--ineq", "pl"]

# pytest's `pythonpath` setting does not reach child processes
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRate:
    def test_point_query(self, capsys):
        code, out, err = run_cli(
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--gamma", "1"],
            capsys,
        )
        assert code == 0 and err == ""
        value, branch = out.split()
        assert float(value) == pytest.approx(1.0 / 1.2, rel=1e-16)
        assert branch == "Thm3.2-case1"

    def test_gamma_domain_error(self, capsys):
        code, out, err = run_cli(
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--gamma", "3"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:domain:")
        assert "gamma out of (0, 2/L)" in err
        assert out == ""

    def test_curve_mode(self, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            [
                "rate", "--fn-class", "convex", "--ineq", "rpl", "--L", "1", "--mu", "0.1",
                "--grid", "5", "--gamma-min", "0.2", "--gamma-max", "1.8", "--output", str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 6

    def test_gamma_and_grid_conflict(self, capsys):
        code, _, err = run_cli(
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1",
             "--gamma", "1", "--grid", "5"],
            capsys,
        )
        assert code == 3 and "exactly one" in err


class TestOptimalStep:
    def test_prints_step_rate_branch(self, capsys):
        code, out, _ = run_cli(
            ["optimal-step", "--fn-class", "convex", "--ineq", "rpl", "--L", "1", "--mu", "0.25"],
            capsys,
        )
        assert code == 0
        gamma, rho, branch = out.split()
        assert float(gamma) == pytest.approx(4.0 / 3.0, rel=1e-16)
        assert branch == "Prop4.2-large-mu"

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(
            ["optimal-step", "--fn-class", "convex", "--ineq", "rpl", "--L", "1", "--mu", "2"],
            capsys,
        )
        assert code == 3 and "error:domain:" in err


class TestCertify:
    def test_all_cases_report(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code, _, _ = run_cli(
            ["certify", "--case", "all", "--L", "1", "--mu", "0.1", "--grid", "60",
             "--output", str(report)],
            capsys,
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 8
        assert all("status=pass" in ln for ln in lines)
        assert all("worst_identity_residual" in ln for ln in lines)

    @pytest.mark.parametrize("L", [1e-100, 1e-8, 1e-4, 1e8, 1e140, 1e160])
    def test_all_cases_pass_at_every_scale(self, L, capsys):
        # the checks run at (1, mu/L, L*gamma), so the scale of L cannot matter
        code, out, err = run_cli(
            ["certify", "--case", "all", "--L", repr(L), "--mu", repr(L / 10), "--grid", "20", "--exact"],
            capsys,
        )
        assert code == 0, err
        assert out.count("status=pass") == 8

    def test_unknown_case(self, capsys):
        code, _, err = run_cli(["certify", "--case", "ThmX", "--L", "1", "--mu", "0.1"], capsys)
        assert code == 3 and "unknown certificate case" in err


class TestSolveAndExperiment:
    def test_solve_writes_trace(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["solve", "--kind", "lasso", "--n", "40", "--d", "6", "--seed", "3",
             "--max-iters", "500", "--output", str(out_csv)],
            capsys,
        )
        assert code == 0
        assert "iterations=" in out and "stopped_on=" in out
        assert out_csv.read_text().startswith("iter,F,gap,residual_norm,contraction")

    def test_solve_reports_a_cycle_stop(self, capsys):
        # criterion 7's srlr instance at seed 0, run at 0.5/L to the roundoff floor
        from proxrate.problem import generate_instance

        gamma = 0.5 / generate_instance("srlr", 200, 20, 0.1, seed=0).problem().f.lipschitz
        code, out, err = run_cli(
            ["solve", "--kind", "srlr", "--seed", "0", "--gamma", repr(gamma),
             "--max-iters", "60000", "--stop-tol", "1e-14"],
            capsys,
        )
        assert code == 0 and err == ""
        assert out.endswith(" stopped_on=cycle\n")
        assert int(out.split()[0].removeprefix("iterations=")) < 60_000

    def test_solve_roundtrip_from_instance_file(self, tmp_path, capsys):
        from proxrate.problem import generate_instance

        inst = tmp_path / "inst.json"
        inst.write_text(generate_instance("lasso", 20, 4, 0.1, seed=5).to_json())
        code, out, _ = run_cli(["solve", "--problem", str(inst), "--max-iters", "200"], capsys)
        assert code == 0

    def test_solve_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(["solve", "--problem", "/nonexistent/x.json"], capsys)
        assert code == 5 and err.startswith("error:io:")

    def test_solve_bad_json_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["solve", "--problem", str(bad)], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "doc",
        [
            "[1, 2]",
            '{"kind": "lasso"}',
            '{"kind": "lasso", "n": 2, "d": 2, "lambda": 0.1, "delta": null, "seed": 0, "A": [1, 2, 3], "b": [1, 2]}',
            # reshape(-1, d) would infer the row count and run the instance
            '{"kind": "lasso", "n": -1, "d": 2, "lambda": 0.1, "delta": null, "seed": 0, "A": [1, 2, 3, 4], "b": [1, 2]}',
            '{"kind": "lasso", "n": 4, "d": -1, "lambda": 0.1, "delta": null, "seed": 0, "A": [1, 2, 3, 4], "b": [1, 2, 3, 4]}',
        ],
        ids=["list", "missing-fields", "A-not-n-by-d", "negative-n", "negative-d"],
    )
    def test_solve_non_instance_json_is_domain_error(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, _, err = run_cli(["solve", "--problem", str(bad)], capsys)
        assert code == 3 and err.startswith("error:domain: bad instance document:"), err

    @pytest.mark.parametrize(
        "kind, A, b, message",
        [
            ("lasso", [1.0, float("inf"), 3.0, 4.0], [1.0, 2.0], "A must be finite"),
            ("lasso", [1.0, 2.0, float("nan"), 4.0], [1.0, 2.0], "A must be finite"),
            ("lasso", [1.0, 2.0, 3.0, 4.0], [float("nan"), 2.0], "b must be finite"),
            ("lasso", [1e300, 2.0, 3.0, 4.0], [1.0, 2.0], "A^T A overflows"),
            ("srlr", [1e300, 2.0, 3.0, 4.0], [1.0, 2.0], "A^T A overflows"),
            ("elastic_net", [1e300, 2.0, 3.0, 4.0], [1.0, 2.0], "A^T A overflows"),
            ("lasso", [1e300, 1e300, 1e300, -1e300], [1.0, 2.0], "A^T A overflows"),
            # A^T A is finite, its largest eigenvalue is not
            ("lasso", [9e153, 9e153, 9e153, 9e153], [1.0, 2.0], "lambda_max(A^T A) overflows: inf"),
        ],
        ids=[
            "A-inf", "A-nan", "b-nan", "lasso-overflow", "srlr-overflow", "elastic-net-overflow", "inf-minus-inf",
            "lambda-max-overflow",
        ],
    )
    def test_bad_instance_data_is_one_stderr_line(self, kind, A, b, message, tmp_path):
        # a subprocess, so a numpy RuntimeWarning would reach stderr as it does for users
        doc = {"kind": kind, "n": 2, "d": 2, "lambda": 0.1, "delta": 0.1 if kind == "elastic_net" else None,
               "seed": 0, "A": A, "b": b}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "proxrate.cli", "solve", "--problem", str(bad)],
            env=SRC_ENV, capture_output=True, text=True,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == f"error:domain: {message}\n"

    @pytest.mark.parametrize(
        "argv, weight",
        [
            (["solve", "--kind", "lasso", "--n", "20", "--d", "4", "--lam", "inf"], "lambda"),
            (["solve", "--kind", "elastic_net", "--n", "20", "--d", "4", "--delta", "inf"], "delta"),
            (["experiment", "--kind", "elastic_net", "--n", "20", "--d", "4", "--delta", "inf", "--outdir", "OUT"],
             "delta"),
        ],
    )
    def test_infinite_weight_is_a_domain_error(self, argv, weight, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli([str(out) if a == "OUT" else a for a in argv], capsys)
        assert code == 3 and err.startswith("error:domain: ") and weight in err.splitlines()[0], err
        assert not out.exists()

    def test_experiment_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code, out, _ = run_cli(
            ["experiment", "--kind", "elastic_net", "--n", "30", "--d", "5", "--delta", "0.5",
             "--seed", "2", "--budget", "5000", "--outdir", str(outdir)],
            capsys,
        )
        assert code == 0
        assert (outdir / "summary.csv").exists()
        assert (outdir / "instance.json").exists()
        doc = json.loads((outdir / "instance.json").read_text())
        assert doc["kind"] == "elastic_net"

    def test_experiment_requires_outdir(self, capsys, monkeypatch):
        monkeypatch.delenv("PROXRATE_OUTPUT_DIR", raising=False)
        code, _, err = run_cli(["experiment", "--kind", "lasso"], capsys)
        assert code == 3

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PROXRATE_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["experiment", "--kind", "lasso", "--n", "20", "--d", "4", "--seed", "1",
             "--budget", "2000", "--outdir", "subdir"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "subdir" / "summary.csv").exists()


class TestPepSearchCommand:
    def test_point_output(self, capsys):
        code, out, _ = run_cli(
            ["pep-search", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1",
             "--gamma", "1"],
            capsys,
        )
        assert code == 0
        ratio, analytic, gap, restarts = out.split()
        assert float(ratio) <= float(analytic) + 1e-6

    def test_grid_needs_output(self, capsys):
        code, _, err = run_cli(
            ["pep-search", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1",
             "--grid", "3"],
            capsys,
        )
        assert code == 3


class TestDeterminismAndFuzz:
    def test_identical_argv_byte_identical_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["experiment", "--kind", "lasso", "--n", "25", "--d", "5", "--seed", "9",
                "--budget", "3000"]
        assert run_cli(argv + ["--outdir", str(a)], capsys)[0] == 0
        assert run_cli(argv + ["--outdir", str(b)], capsys)[0] == 0
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_flag_domain_fuzz_never_crashes(self, capsys):
        rng = np.random.default_rng(0)
        for _ in range(25):
            L = float(rng.choice([-1.0, 0.0, 1.0]))
            mu = float(rng.choice([-0.5, 0.0, 5.0]))
            gamma = float(rng.uniform(-3, 5))
            query = ["--fn-class", "convex", "--ineq", "pl", "--L", str(L), "--mu", str(mu)]
            for argv in (
                ["rate", *query, "--gamma", str(gamma)],
                ["pep-search", *query, "--gamma", str(gamma)],
                ["certify", "--L", str(L), "--mu", str(mu), "--grid", "5"],
            ):
                code, _, err = run_cli(argv, capsys)
                if code != 0:
                    assert code in (2, 3, 4, 5), (argv, err)
                    assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            [*PEP_SEARCH, "--L", "1", "--mu", "-0.1", "--gamma", "1"],
            [*PEP_SEARCH, "--L", "1", "--mu", "0", "--gamma", "1"],
            [*PEP_SEARCH, "--L", "0", "--mu", "0.1", "--gamma", "1"],
            [*PEP_SEARCH, "--L", "1", "--mu", "inf", "--gamma", "1"],
            [*PEP_SEARCH, "--L", "1e-310", "--mu", "1e-311", "--gamma", "1e300"],
            [*PEP_SEARCH, "--L", "1", "--mu", "0.1", "--grid", "-2", "--output", "OUT"],
            [*PEP_SEARCH, "--L", "1", "--mu", "0.1", "--gamma", "1", "--grid", "3", "--output", "OUT"],
            ["certify", "--L", "0", "--mu", "0.1"],
            ["certify", "--L", "1", "--mu", "0"],
            ["certify", "--L", "1", "--mu", "-0.1"],
            ["certify", "--L", "1", "--mu", "0.1", "--grid", "0"],
            ["certify", "--L", "1", "--mu", "0.1", "--grid", "0", "--exact"],
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--grid", "-2", "--output", "OUT"],
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--grid", "0", "--output", "OUT"],
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "0", "--mu", "0.1", "--grid", "5", "--output", "OUT"],
            ["experiment", "--kind", "lasso", "--n", "20", "--d", "4", "--gap-tol", "-1", "--outdir", "OUT"],
            ["experiment", "--kind", "lasso", "--policies", "foo", "--outdir", "OUT"],
            ["experiment", "--kind", "lasso", "--policies", "sqrt3", "--outdir", "OUT"],
            ["certify", "--L", "1", "--mu", "inf"],
            ["certify", "--L", "1e-310", "--mu", "1e-311", "--grid", "3"],
            ["certify", "--L", "1e-300", "--mu", "1e300", "--grid", "3"],
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1e-310", "--mu", "1e-311", "--grid", "3",
             "--output", "OUT"],
            ["optimal-step", "--fn-class", "nonconvex", "--ineq", "rpl", "--L", "1", "--mu", "3"],
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--gamma", "1", "--output", "OUT"],
            [*PEP_SEARCH, "--L", "1", "--mu", "0.1", "--gamma", "1", "--gamma-min", "0.5"],
            ["certify", "--case", "all", "--L", "1", "--mu", "2", "--grid", "5", "--exact"],
            [*PEP_SEARCH, "--L", "1", "--mu", "2", "--gamma", "0.5"],
        ],
    )
    def test_out_of_domain_input_is_a_domain_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run_cli([str(out) if a == "OUT" else a for a in argv], capsys)
        assert code == 3 and err.startswith("error:domain:"), (code, err)
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1e-310", "--mu", "1e-311", "--gamma", "1e300"],
            ["optimal-step", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "inf"],
            ["certify", "--L", "1", "--mu", "1e-310"],
            [*PEP_SEARCH, "--L", "1", "--mu", "1e-310", "--gamma", "0.5"],
            [*PEP_SEARCH, "--L", "1e300", "--mu", "1e-300", "--gamma", "1e-300"],
            ["solve", "--kind", "lasso", "--n", "20", "--d", "4", "--stop-tol", "nan", "--max-iters", "50"],
            ["experiment", "--kind", "lasso", "--n", "20", "--d", "4", "--policies", "1e300", "--outdir", "OUT"],
        ],
        ids=["rate", "optimal-step", "certify", "pep-search", "pep-search-underflow", "solve", "experiment"],
    )
    def test_refusal_contract_at_the_file_descriptors(self, argv, tmp_path):
        # a subprocess sees native writes to fd 1 and 2 (LAPACK's messages),
        # which capsys cannot
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "proxrate.cli", *(str(out) if a == "OUT" else a for a in argv)],
            env=SRC_ENV, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (3, ""), (proc.returncode, proc.stdout, proc.stderr)
        assert proc.stderr.startswith("error:domain:") and proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    def test_entrypoint_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "proxrate.cli", "rate", "--fn-class", "nonconvex",
             "--ineq", "rpl", "--L", "1", "--mu", "0.1", "--gamma", "1"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.split()[1] == "Thm4.1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--L", "1", "--mu", "0.1", "--threads", "2"],
            ["experiment", "--kind", "lasso", "--threads", "1"],
            ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--gamma", "1",
             "--seed", "1"],
            ["optimal-step", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--seed", "1"],
            ["certify", "--L", "1", "--mu", "0.1", "--seed", "1"],
            *(
                ["pep-search", "--fn-class", "convex", "--ineq", "pl", "--L", "1", "--mu", "0.1", "--gamma", "1",
                 flag, "6"]
                for flag in ("--restarts", "--budget", "--seed")
            ),
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "proxrate.cli", "no-such-command"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 2

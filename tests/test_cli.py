import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import traceback
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import bpdp.cli
import bpdp.verify
from bpdp import __version__
from bpdp.chain import PiResult
from bpdp.fitting import LAMBDA1_F, LAMBDA2_F

DATA = pathlib.Path(__file__).parent / "data" / "table3.csv"
# the timed phases of a pi record's outputs
PHASE_KEYS = ("prepare_seconds", "sweep_seconds", "hits_seconds")


def provenance(convention):
    """First line of a table file written under a convention."""
    return f"# bpdp {__version__} convention={convention}"


def run_cli(*args, env=None):
    """Run `bpdp.cli.main()` in this process on args, with env added to the
    environment; returns the exit status and the captured output as
    `python -m bpdp.cli` would.  An exception other than SystemExit is
    written to the captured stderr as a traceback, with exit status 1."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["bpdp", *args]), \
            mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            bpdp.cli.main()
            status = 0
        except SystemExit as exc:
            status = exc.code or 0
        except Exception:
            traceback.print_exc()
            status = 1
    return subprocess.CompletedProcess(args, status, out.getvalue(),
                                       err.getvalue())


def run_shell(*args):
    """Run `python -m bpdp.cli` on args in a subprocess."""
    return subprocess.run([sys.executable, "-m", "bpdp.cli", *args],
                          capture_output=True, text=True)


class TestPi:
    def test_json_record(self):
        r = run_shell("pi", "--log2-inv-p", "2")
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["command"] == "pi"
        assert rec["outputs"]["L"] == 12
        assert rec["outputs"]["p"] == 0.25
        assert "log_pi" in rec["outputs"]
        assert "wall_time_seconds" in rec and "tool_version" in rec

    def test_record_keys(self):
        rec = json.loads(run_cli("pi", "--log2-inv-p", "3").stdout)
        assert set(rec) == {"command", "parameters", "outputs",
                            "wall_time_seconds", "tool_version", "host"}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert rec["host"] == {"cpu_count": os.cpu_count(),
                               "python": platform.python_version(),
                               "numpy": np.__version__,
                               "blas": f"{blas['name']} {blas['version']}",
                               "machine": platform.machine()}
        assert set(rec["parameters"]) == {"p", "log2_inv_p", "threshold",
                                          "convention"}
        assert set(rec["outputs"]) == {
            "p", "q", "L", "convention", "log_hit_prob", "log_pi", "levels",
            "cells_swept", "level_bytes", "prepare_seconds",
            "sweep_seconds", "hits_seconds"}
        out = rec["outputs"]
        assert out["levels"] == out["L"] - 2 == 32
        # 5 slots of 5 Frobose rows of L + 2 * 36 + 4 doubles
        assert out["level_bytes"] == 5 * 5 * (34 + 76) * 8
        assert 0 < out["cells_swept"] <= (out["L"] - 1) * (out["L"] - 2) // 2
        phases = [out[key] for key in PHASE_KEYS]
        assert min(phases) >= 0.0
        assert sum(phases) <= rec["wall_time_seconds"]

    @pytest.mark.parametrize("args", [
        ("--log2-inv-p", "3"),
        ("--p", "0.3", "--threshold", "40", "--convention", "at-least")],
        ids=["k3", "p0.3-L40-at-least"])
    def test_outputs_are_the_result(self, monkeypatch, args):
        # PiResult's fields, threshold as L, without model and the wall
        # time, which is a top-level key
        real, results = bpdp.cli.compute_pi, []

        def spy(params, **kwargs):
            results.append(real(params, **kwargs))
            return results[-1]

        monkeypatch.setattr(bpdp.cli, "compute_pi", spy)
        rec = json.loads(run_cli("pi", *args).stdout)
        want = dataclasses.asdict(results[0])
        want["L"] = want.pop("threshold")
        del want["model"]
        assert rec["wall_time_seconds"] == want.pop("wall_time_seconds")
        assert rec["outputs"] == want

    def test_trivial_threshold(self):
        r = run_cli("pi", "--p", "0.9", "--threshold", "2")
        rec = json.loads(r.stdout)
        assert rec["outputs"]["log_pi"] == 0.0

    def test_deterministic_apart_from_wall_time(self):
        a = json.loads(run_cli("pi", "--log2-inv-p", "3").stdout)
        b = json.loads(run_cli("pi", "--log2-inv-p", "3").stdout)
        for rec in (a, b):
            rec.pop("wall_time_seconds")
            for key in PHASE_KEYS:
                rec["outputs"].pop(key)
        assert a == b

    def test_usage_error_exit_1(self):
        assert run_cli("pi").returncode == 1
        assert run_cli("pi", "--p", "1.5").returncode == 1
        assert run_cli("pi", "--p", "0.5", "--log2-inv-p", "2").returncode == 1

    def test_env_variable_default(self):
        rec = json.loads(run_cli("pi", "--log2-inv-p", "3",
                                 env={"BPDP_PI_CONVENTION": "at-least"}).stdout)
        assert rec["outputs"]["convention"] == "at-least"

    def test_flag_beats_env(self):
        rec = json.loads(run_cli("pi", "--log2-inv-p", "3",
                                 "--convention", "exact",
                                 env={"BPDP_PI_CONVENTION": "at-least"}).stdout)
        assert rec["outputs"]["convention"] == "exact"

    def test_memory_cap_exit_3(self):
        r = run_cli("pi", "--log2-inv-p", "6", "--memory-cap-bytes", "1000")
        assert r.returncode == 3
        assert "cap" in r.stderr

    def test_memory_cap_error_is_short(self):
        # the estimate is a 206-digit integer, printed to 3 digits
        r = run_cli("pi", "--p", "1e-200")
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 100


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def non_finite_pi(params, **kwargs):
    return PiResult(p=params.model.p, q=params.model.q,
                    threshold=params.threshold, convention=params.convention,
                    log_hit_prob=float("-inf"), log_pi=float("inf"),
                    wall_time_seconds=0.0)


class TestNonFiniteResults:
    """A hit probability that underflows to 0 gives log_pi = inf; it is
    reported as a failure, never printed as Infinity."""

    def test_pi_non_finite_is_error(self, monkeypatch):
        monkeypatch.setattr(bpdp.cli, "compute_pi", non_finite_pi)
        r = CliRunner().invoke(bpdp.cli.cli, ["pi", "--log2-inv-p", "3"])
        assert r.exit_code == 4
        assert r.stdout == ""
        assert "Infinity" not in r.output
        assert len(r.stderr.strip().splitlines()) == 1
        assert "not finite" in r.stderr

    def test_pi_overflowing_levels_are_a_failure(self):
        # at the subnormal p = 1e-310 the level base's 1/p leaves the
        # double range
        r = run_cli("pi", "--p", "1e-310", "--threshold", "4")
        assert r.returncode == 4
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert len(r.stderr.strip().splitlines()) == 1
        assert "p=1e-310" in r.stderr and "L=4" in r.stderr
        assert "underflowed" not in r.stderr

    def test_scan_reports_failed_rows(self, monkeypatch):
        real = bpdp.cli.compute_pi

        def flaky(params, **kwargs):
            if params.threshold == 34:         # k = 3
                return non_finite_pi(params)
            if params.threshold == 89:         # k = 4
                raise RuntimeError("no memory")
            return real(params, **kwargs)

        monkeypatch.setattr(bpdp.cli, "compute_pi", flaky)
        r = CliRunner().invoke(bpdp.cli.cli,
                               ["scan", "--log2-inv-p-range", "2..5"])
        assert r.exit_code == 4
        assert [line.split(",")[0] for line in r.stdout.splitlines()] == [
            "log2_inv_p", "2", "5"]
        err = r.stderr.strip().splitlines()
        assert err[0].startswith("# k=3 failed") and "not finite" in err[0]
        assert err[1] == "# k=4 failed: no memory"
        assert err[-1] == "# 2 of 4 rows failed"

    def test_scan_exit_status_from_shell(self):
        # a row that fails for real: at k = 60 the level storage estimate
        # exceeds the memory cap (k = 0, p = 1, is a usage error instead)
        r = run_shell("scan", "--log2-inv-p-range", "60..60")
        assert r.returncode == 4
        assert r.stderr.strip().splitlines()[-1] == "# 1 of 1 rows failed"

    def test_fit_undefined_coordinates_are_null(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("log2_inv_p,log_pi\n2,100\n3,200\n4,300\n5,400\n")
        r = run_cli("fit", "--input", str(table))
        assert r.returncode == 0, r.stderr
        coords = strict_json(r.stdout)["outputs"]["coordinates"]
        assert coords["second_order"]["y_log_residual"][0] is None

    def test_fit_near_the_largest_exponent_does_not_overflow(self, tmp_path):
        # log Pi = lambda1 / p - lambda2 / sqrt(p) at k = 1020..1023: the
        # regressions' squares and sums of 1/p and log Pi, and the
        # four-parameter design's powers of 1/p, stay in the double range;
        # the four-parameter fit then refuses lambda2, whose term is
        # 2^-510 of log Pi
        table = tmp_path / "t.csv"
        table.write_text("log2_inv_p,log_pi\n" + "".join(
            f"{k},{LAMBDA1_F * 2.0 ** k - LAMBDA2_F * 2.0 ** (k / 2)!r}\n"
            for k in range(1020, 1024)))
        r = run_cli("fit", "--input", str(table))
        assert r.returncode == 0, r.stderr
        outputs = strict_json(r.stdout)["outputs"]
        assert "overflow" not in r.stdout
        assert outputs["first_order_fixed_alpha"]["lambda1"] == pytest.approx(
            LAMBDA1_F, rel=1e-12)
        assert "lambda2 not identified" in outputs["four_param"]["error"]

    @pytest.mark.parametrize("rows, status, failed", [
        # 1 / p overflows from k = 1024 on, 2^k at k = 1024 in four_param
        ([(k, k - 1021) for k in range(1022, 1026)], 0,
         {"first_order_fixed_alpha", "second_order",
          "second_order_fixed_beta", "third_order", "four_param"}),
        # log Pi far below lambda1 / p: no positive third-order residual,
        # and no four-parameter fit within its residual bound
        ([(k, k - 1019) for k in range(1020, 1024)], 0,
         {"third_order", "four_param"}),
        # p >= 1
        ([(k, k + 4) for k in range(-3, 1)], 1, None),
        # log Pi < 0 has no log
        ([(k, k - 6) for k in range(2, 6)], 0,
         {"first_order", "third_order"}),
    ], ids=["k1022-1025", "k1020-1023", "p-at-least-1", "log-pi-negative"])
    def test_fit_failures_are_errors_in_the_record(self, tmp_path, rows,
                                                   status, failed):
        table = tmp_path / "t.csv"
        table.write_text("log2_inv_p,log_pi\n" + "".join(
            f"{k},{v}\n" for k, v in rows))
        r = run_cli("fit", "--input", str(table))
        if status:
            assert_one_line_error(r, "t.csv", "log2_inv_p must lie in 1..1074")
            return
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        outputs = strict_json(r.stdout)["outputs"]
        assert {name for name, out in outputs.items()
                if "error" in out} == failed


class TestScan:
    def test_streams_rows(self):
        r = run_cli("scan", "--log2-inv-p-range", "2..4")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "log2_inv_p,log_pi"
        assert len(lines) == 4
        assert [int(l.split(",")[0]) for l in lines[1:]] == [2, 3, 4]

    def test_empty_range_header_only(self):
        r = run_cli("scan", "--log2-inv-p-range", "5..4")
        assert r.stdout.strip() == "log2_inv_p,log_pi"

    def test_resume_skips_completed(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out))
        before = out.read_text()
        r = run_cli("scan", "--log2-inv-p-range", "2..4", "--output", str(out),
                    "--resume")
        assert r.returncode == 0
        after = out.read_text()
        assert after.startswith(before)
        assert len(after.strip().splitlines()) == 5

    def test_output_starts_with_provenance_line(self, tmp_path):
        out = tmp_path / "scan.csv"
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--convention",
                    "at-least", "--output", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == [provenance("at-least"), "log2_inv_p,log_pi"]
        assert len(lines) == 4

    def test_resume_refuses_other_convention(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("scan", "--log2-inv-p-range", "2..2", "--output", str(out))
        before = out.read_text()
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out),
                    "--resume", "--convention", "at-least")
        assert_one_line_error(r, "scan.csv", "convention=exact",
                              "convention=at-least")
        assert out.read_text() == before

    def test_resume_table_without_provenance_is_exact(self, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text(run_cli("scan", "--log2-inv-p-range", "2..2").stdout)
        before = out.read_text()
        assert not before.startswith("#")
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out),
                    "--resume", "--convention", "at-least")
        assert_one_line_error(r, "scan.csv", "convention=exact")
        assert out.read_text() == before
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out),
                    "--resume")
        assert r.returncode == 0
        assert out.read_text() == run_cli("scan", "--log2-inv-p-range",
                                          "2..3").stdout

    def test_resume_drops_cut_off_row(self, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text("log2_inv_p,log_pi\n2,3.4")
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out),
                    "--resume")
        assert r.returncode == 0
        fresh = run_cli("scan", "--log2-inv-p-range", "2..3").stdout
        assert out.read_text() == fresh

    def test_output_in_missing_directory_is_usage_error(self, tmp_path):
        path = str(tmp_path / "nodir" / "t.csv")
        for args in (("scan", "--log2-inv-p-range", "2..2", "--output", path),
                     ("scan", "--log2-inv-p-range", "2..2", "--resume",
                      "--output", path)):
            r = run_cli(*args)
            assert r.returncode == 1
            assert r.stdout == ""
            assert len(r.stderr.strip().splitlines()) == 1
            assert "Traceback" not in r.stderr

    def test_output_that_is_a_directory_is_one_line_error(self, tmp_path):
        (tmp_path / "keep.csv").write_text("x\n")
        for args in (("scan", "--log2-inv-p-range", "2..2", "--output"),
                     ("scan", "--log2-inv-p-range", "2..2", "--resume",
                      "--output")):
            r = run_cli(*args, str(tmp_path))
            assert r.stdout == ""
            assert_one_line_error(r, str(tmp_path))
            assert os.listdir(tmp_path) == ["keep.csv"]
            assert (tmp_path / "keep.csv").read_text() == "x\n"

    def test_fit_roundtrip_matches_in_process(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("scan", "--log2-inv-p-range", "2..6", "--output", str(out))
        rec = json.loads(run_cli("fit", "--input", str(out)).stdout)
        import csv
        from bpdp.fitting import PiDataset, fit_first_order
        rows = []
        with open(out, newline="") as fh:
            for line in csv.DictReader(l for l in fh if not l.startswith("#")):
                rows.append((int(line["log2_inv_p"]), float(line["log_pi"])))
        want = fit_first_order(PiDataset(tuple(rows)))
        assert rec["outputs"]["first_order"]["alpha"] == pytest.approx(
            want["alpha"], rel=1e-12)


def assert_one_line_error(r, *needles):
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1
    for needle in needles:
        assert needle in r.stderr


class TestTableInput:
    """`fit` and `scan --resume` read tables by column name, and a row
    that does not parse is a one-line error naming the file and line."""

    def test_fit_malformed_row_names_line(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("log2_inv_p,log_pi\n2,1.82\n3,abc\n4,12.4\n5,30.5\n")
        assert_one_line_error(run_cli("fit", "--input", str(table)),
                              "t.csv, line 3", "3,abc")

    def test_fit_dataset_error_is_one_line(self, tmp_path):
        table = tmp_path / "t.csv"
        text = DATA.read_text()
        table.write_text(text + text.splitlines()[1] + "\n")
        assert_one_line_error(run_cli("fit", "--input", str(table)),
                              "t.csv", "duplicate")

    def test_resume_refuses_malformed_row(self, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text("log2_inv_p,log_pi\n2,abc\n")
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out),
                    "--resume")
        assert_one_line_error(r, "scan.csv, line 2", "2,abc")
        assert out.read_text() == "log2_inv_p,log_pi\n2,abc\n"

    def test_resume_refuses_other_table(self, tmp_path):
        # the three-column layout an older `pi --csv` wrote
        out = tmp_path / "pi.csv"
        out.write_text(provenance("exact") + "\nlog2_inv_p,p,log_pi\n"
                       "2,0.25,0.85\n")
        before = out.read_text()
        for args in (("scan", "--log2-inv-p-range", "2..3", "--output",
                      str(out), "--resume"), ("fit", "--input", str(out))):
            assert_one_line_error(run_cli(*args), "pi.csv, line 2",
                                  "log2_inv_p,p,log_pi",
                                  "is not 'log2_inv_p,log_pi'")
            assert out.read_text() == before


class TestOtherCommands:
    def test_constants(self):
        rec = json.loads(run_cli("constants").stdout)
        assert rec["outputs"]["lambda2_f"] == pytest.approx(
            5.80490630427886, abs=1e-10)
        assert rec["outputs"]["lambda2_2n"] == pytest.approx(7.054547, abs=5e-6)

    def test_functions_monotone_columns(self):
        r = run_cli("functions", "--grid", "1e-6..60", "--points", "50")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "z,f,g,h,h2,h2_mod,alpha"
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        for col in (1, 2, 3, 4, 5):          # f, g, h, h2, h2_mod decrease
            vals = [row[col] for row in rows]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        alphas = [row[6] for row in rows]    # alpha increasing, capped at 2
        assert all(1.0 < a <= 2.0 for a in alphas)
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_fit_table3(self):
        rec = json.loads(run_cli("fit", "--input", str(DATA)).stdout)
        out = rec["outputs"]
        assert out["four_param"]["alpha"] == pytest.approx(0.99978, rel=1e-3)
        assert out["second_order"]["lambda2"] == pytest.approx(5.027234, abs=1e-4)
        assert "coordinates" in out

    def test_simulate_occupied(self):
        rec = json.loads(run_cli("simulate", "--event", "O", "--width", "2",
                                 "--height", "2", "--p", "0.5", "--n", "4000",
                                 "--seed", "1").stdout)
        out = rec["outputs"]
        assert abs(out["p_hat"] - out["expected"]) <= 4 * out["std_err"]
        assert rec["seed"] == 1

    def test_simulate_reproducible(self):
        args = ("simulate", "--event", "G|", "--width", "3", "--height", "4",
                "--p", "0.2", "--n", "2000", "--seed", "7")
        a = json.loads(run_cli(*args).stdout)
        b = json.loads(run_cli(*args).stdout)
        assert a["outputs"]["p_hat"] == b["outputs"]["p_hat"]

    def test_verify_all(self):
        # small stand-ins for the suites, which tests/test_acceptance.py runs
        with mock.patch.dict(bpdp.verify.SUITES, FAKE_SUITES, clear=True):
            r = run_cli("verify", "--suite", "all")
        assert r.returncode == 2
        assert r.stdout.splitlines() == [
            "[pass] first", "[pass] second  (2 of 2)", "[FAIL] third  (off)"]
        assert "verification failed" in r.stderr

    def test_verify_one_suite(self):
        with mock.patch.dict(bpdp.verify.SUITES, FAKE_SUITES, clear=True):
            r = run_cli("verify", "--suite", "stochasticity")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["[pass] first",
                                         "[pass] second  (2 of 2)"]
        assert r.stderr == ""

    def test_verify_stochasticity(self):
        r = run_cli("verify", "--suite", "stochasticity")
        assert r.returncode == 0
        assert "[pass]" in r.stdout

    @pytest.mark.parametrize("suite, checks", [
        ("constants", 4), ("traversability", 4), ("bridge", 1),
        ("variational", 4)])
    def test_verify_suite_on_its_own(self, suite, checks):
        r = run_cli("verify", "--suite", suite)
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == checks
        assert all(line.startswith("[pass] ") for line in lines)


# (name, passed, details) per check, under two of the real suite names
FAKE_SUITES = {
    "stochasticity": lambda: [("first", True, ""),
                              ("second", True, "2 of 2")],
    "oracle": lambda: [("third", False, "off")],
}


class TestBadInput:
    def test_out_of_range_options_are_usage_errors(self):
        simulate = ("simulate", "--event", "O", "--width", "2", "--height",
                    "2", "--p", "0.5", "--n", "10")
        for args, option in [
                (("--event", "nope"), "--event"), (("--p", "1.5"), "--p"),
                (("--n", "0"), "--n"), (("--width", "0"), "--width"),
                (("--event", "C"), "--event"), (("--event", "CF"), "--event"),
                (("--seed", "-1"), "--seed")]:
            r = run_cli(*simulate, *args)
            assert r.returncode == 1, args
            assert "Traceback" not in r.stderr
            assert f"Invalid value for '{option}'" in r.stderr
        for args, option in [
                (("--threshold", "1"), "--threshold"),
                (("--memory-cap-bytes", "0"), "--memory-cap-bytes"),
                (("--memory-cap-bytes", "-1"), "--memory-cap-bytes")]:
            r = run_cli("pi", "--p", "0.5", *args)
            assert r.returncode == 1, args
            assert "Traceback" not in r.stderr
            assert f"Invalid value for '{option}'" in r.stderr

    @pytest.mark.parametrize("args", [
        ("functions", "--points", "-1"),
        ("functions", "--points", "0"),
        ("functions", "--grid", "1e-6..inf"),
        ("scan", "--log2-inv-p-range", "0..2"),
        ("scan", "--log2-inv-p-range", "1075..1075"),
        ("pi", "--p", "0.8"),
        ("pi", "--p", "1e-310"),
        ("pi", "--log2-inv-p", "-5000"),
        ("scan", "--log2-inv-p-range", "2..2", "--resume"),
        ("functions", "--grid", "5e-324..1")])
    def test_inputs_past_the_domain_are_usage_errors(self, args):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert "Traceback" not in r.stderr
        assert len([line for line in r.stderr.splitlines()
                    if line.startswith("Error:")]) == 1
        assert r.stdout == ""


CONVENTIONS = ("exact", "at-least")


def fake_pi(params, **kwargs):
    """Instant stand-in for compute_pi whose log_pi names p and the
    convention, so a row shows which convention wrote it."""
    log_pi = 1.0 / params.model.p + CONVENTIONS.index(params.convention) / 4
    return PiResult(p=params.model.p, q=params.model.q,
                    threshold=params.threshold, convention=params.convention,
                    log_hit_prob=-log_pi, log_pi=log_pi,
                    wall_time_seconds=0.0)


EXPONENTS = st.integers(2, 6)
TABLE_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("scan", "resume")), EXPONENTS, EXPONENTS,
              st.sampled_from(CONVENTIONS)),
    st.tuples(st.just("cut"), st.integers(1, 40))), max_size=12)


class TestTableProperties:
    """Random sequences of `scan --output`, with and without --resume,
    and cut-off last lines on one file never leave a table that is
    corrupt or mixed."""

    @settings(max_examples=200, deadline=None)
    @given(TABLE_OPERATIONS)
    def test_table_stays_valid(self, operations):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(bpdp.cli, "compute_pi", fake_pi):
            path = os.path.join(tmp, "t.csv")
            for op in operations:
                before = read_bytes(path)
                if op[0] == "cut":
                    with open(path, "wb") as fh:
                        fh.write(before[:-op[1]])
                else:
                    args = ["scan", "--log2-inv-p-range", f"{op[1]}..{op[2]}",
                            "--convention", op[3], "--output", path]
                    if op[0] == "resume":
                        args.append("--resume")
                    r = runner.invoke(bpdp.cli.cli, args)
                    if r.exit_code == 0:
                        assert read_bytes(path).endswith(b"\n")
                    else:
                        assert r.exit_code == 1, r.output
                        assert len(r.stderr.strip().splitlines()) == 1
                        assert read_bytes(path) == before
                check_table(path)


def read_bytes(path):
    return pathlib.Path(path).read_bytes() if os.path.exists(path) else b""


def check_table(path):
    """The complete lines parse as one table of one convention with
    distinct exponents."""
    data = read_bytes(path)
    lines = data[:data.rfind(b"\n") + 1].decode().splitlines()
    _, _, rows = bpdp.cli._parse_table(path, lines)
    conventions = {line.rsplit("=", 1)[1] for line in lines
                   if line.startswith("# bpdp ")}
    assert len(conventions) <= 1
    exponents = [k for k, _ in rows]
    assert len(exponents) == len(set(exponents))
    if rows:
        shift = CONVENTIONS.index(conventions.pop()) / 4
        assert all(v == 2.0 ** k + shift for k, v in rows)


# grid ends z as `functions --grid` takes them, with lo < hi
GRID_ENDS = st.lists(st.floats(sys.float_info.min, 1e300), min_size=2,
                     max_size=2, unique=True).map(sorted)
# --p values, including the non-finite and the subnormal, and --log2-inv-p
# values; usually one of the two is given, sometimes both
P_VALUES = st.one_of(st.floats(), st.floats(0.0, 1.0),
                     st.sampled_from([5e-324, 2.2e-308, 1e-300]))
P_SOURCES = st.lists(st.one_of(
    P_VALUES.map(lambda p: ("--p", repr(p))),
    st.integers(-5, 1100).map(lambda k: ("--log2-inv-p", str(k)))),
    min_size=1, max_size=2)

# `simulate` arguments: p in (0, 1) with its subnormal and largest values,
# n around its lower bound, and seeds that are negative or past 2^64
SIMULATE_P = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       st.sampled_from([1e-320, 5e-324, 1 - 2 ** -53]))
SEEDS = st.one_of(st.integers(-3, 2 ** 70),
                  st.sampled_from([-1, 2 ** 64, 2 ** 64 + 1, 2 ** 200]))

# 4 to 8 rows of `fit` input: distinct exponents, some outside 1..1074,
# and finite log Pi of either sign, increasing with the exponent
FIT_ROWS = st.integers(4, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-5, 1100), min_size=n, max_size=n, unique=True),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n,
             max_size=n, unique=True))).map(
    lambda kv: list(zip(sorted(kv[0]), sorted(kv[1]))))


class TestArgumentProperties:
    """Random arguments of `functions`, `pi`, `fit` and `simulate` give a
    result or a short error, never a traceback or a warning."""

    @settings(max_examples=150, deadline=None)
    @given(FIT_ROWS)
    def test_fit_record_or_one_error(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w") as fh:
                fh.write("log2_inv_p,log_pi\n" + "".join(
                    f"{k},{v!r}\n" for k, v in rows))
            r = run_cli("fit", "--input", path)
        if r.returncode == 0:
            assert r.stderr == ""
            (line,) = r.stdout.splitlines()
            strict_json(line)
        else:
            assert_one_line_error(r, "t.csv")

    @settings(max_examples=80, deadline=None)
    @given(GRID_ENDS, st.integers(1, 4))
    def test_functions_cells_are_finite(self, ends, points):
        lo, hi = ends
        r = run_cli("functions", "--grid", f"{lo!r}..{hi!r}",
                    "--points", str(points))
        assert r.returncode == 0, r.stderr
        assert "Warning" not in r.stderr
        lines = r.stdout.splitlines()
        assert len(lines) == points + 1
        for line in lines[1:]:
            cells = [float(cell) for cell in line.split(",")]
            assert len(cells) == 7
            assert all(math.isfinite(cell) for cell in cells), line

    @settings(max_examples=150, deadline=None)
    @given(P_SOURCES, st.one_of(st.none(), st.integers(2, 40)),
           st.one_of(st.none(), st.sampled_from(CONVENTIONS)),
           st.integers(1, 100000))
    def test_pi_result_or_one_error(self, sources, threshold, convention,
                                    cap):
        args = ["pi", *(arg for source in sources for arg in source)]
        if convention is not None:
            args += ["--convention", convention]
        if threshold is None:
            # a long default threshold is refused, not computed
            args += ["--memory-cap-bytes", str(cap)]
        else:
            args += ["--threshold", str(threshold)]
        r = run_cli(*args)
        assert "Traceback" not in r.stderr
        if r.returncode == 0:
            (line,) = r.stdout.splitlines()
            assert math.isfinite(strict_json(line)["outputs"]["log_pi"])
        else:
            assert r.returncode in (1, 3, 4), r.stderr
            # click's `Error:` after a usage line, or the cap's `error:`
            assert len([line for line in r.stderr.splitlines()
                        if line.lower().startswith("error:")]) == 1, r.stderr

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(bpdp.cli.EVENTS)), st.integers(1, 4),
           st.integers(1, 4), SIMULATE_P, st.integers(-1, 50), SEEDS)
    def test_simulate_record_or_one_error(self, event, width, height, p, n,
                                          seed):
        # regions stay small: `simulate` enumerates every cell per sample
        r = run_cli("simulate", "--event", event, "--width", str(width),
                    "--height", str(height), "--p", repr(p), "--n", str(n),
                    "--seed", str(seed))
        assert "Traceback" not in r.stderr
        assert "Warning" not in r.stderr
        if r.returncode == 0:
            (line,) = r.stdout.splitlines()
            outputs = strict_json(line)["outputs"]
            assert 0.0 <= outputs["p_hat"] <= 1.0
            assert outputs["seed"] == seed and outputs["n"] == n
        else:
            assert r.returncode == 1 and (seed < 0 or n < 1), r.stderr
            assert len([line for line in r.stderr.splitlines()
                        if line.startswith("Error:")]) == 1, r.stderr
            assert r.stdout == ""

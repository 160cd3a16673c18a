import json
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import bpdp.cli
from bpdp.chain import PiResult

DATA = pathlib.Path(__file__).parent / "data" / "table3.csv"


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "bpdp.cli", *args],
                          capture_output=True, text=True, env=full_env)


class TestPi:
    def test_json_record(self):
        r = run_cli("pi", "--log2-inv-p", "2")
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["command"] == "pi"
        assert rec["outputs"]["L"] == 12
        assert rec["outputs"]["p"] == 0.25
        assert "log_pi" in rec["outputs"]
        assert "wall_time_seconds" in rec and "tool_version" in rec

    def test_trivial_threshold(self):
        r = run_cli("pi", "--p", "0.9", "--threshold", "2")
        rec = json.loads(r.stdout)
        assert rec["outputs"]["log_pi"] == 0.0

    def test_deterministic_apart_from_wall_time(self):
        a = json.loads(run_cli("pi", "--log2-inv-p", "3").stdout)
        b = json.loads(run_cli("pi", "--log2-inv-p", "3").stdout)
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
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

    def test_csv_append(self, tmp_path):
        out = tmp_path / "pi.csv"
        run_cli("pi", "--log2-inv-p", "2", "--csv", str(out))
        run_cli("pi", "--log2-inv-p", "3", "--csv", str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "log2_inv_p,p,log_pi"
        assert len(lines) == 3


    def test_csv_with_p_names_its_exponent(self, tmp_path):
        table = tmp_path / "pi.csv"
        for k in range(2, 6):
            r = run_cli("pi", "--p", repr(2.0 ** -k), "--csv", str(table))
            assert r.returncode == 0, r.stderr
        rows = table.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "3", "4", "5"]
        assert rows[0].startswith("2,0.25,")
        assert run_cli("fit", "--input", str(table)).returncode == 0

    def test_csv_with_other_p_is_refused(self, tmp_path):
        table = tmp_path / "pi.csv"
        r = run_cli("pi", "--p", "0.3", "--csv", str(table))
        assert_one_line_error(r, "--csv", "0.3")
        assert r.stdout == ""
        assert not table.exists()


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

    def test_pi_non_finite_is_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bpdp.cli, "compute_pi", non_finite_pi)
        table = tmp_path / "pi.csv"
        r = CliRunner().invoke(bpdp.cli.cli, ["pi", "--log2-inv-p", "3",
                                              "--csv", str(table)])
        assert r.exit_code == 4
        assert r.stdout == ""
        assert "Infinity" not in r.output
        assert len(r.stderr.strip().splitlines()) == 1
        assert "not finite" in r.stderr
        assert not table.exists()

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
        # a row that fails for real: k = 0 gives p = 1, outside (0, 1)
        r = run_cli("scan", "--log2-inv-p-range", "0..0")
        assert r.returncode == 4
        assert r.stderr.strip().splitlines()[-1] == "# 1 of 1 rows failed"

    def test_fit_undefined_coordinates_are_null(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("log2_inv_p,log_pi\n2,100\n3,200\n4,300\n5,400\n")
        r = run_cli("fit", "--input", str(table))
        assert r.returncode == 0, r.stderr
        coords = strict_json(r.stdout)["outputs"]["coordinates"]
        assert coords["second_order"]["y_log_residual"][0] is None


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
        assert len(after.strip().splitlines()) == 4

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
                     ("pi", "--log2-inv-p", "2", "--csv", path)):
            r = run_cli(*args)
            assert r.returncode == 1
            assert len(r.stderr.strip().splitlines()) == 1
            assert "Traceback" not in r.stderr

    def test_fit_roundtrip_matches_in_process(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("scan", "--log2-inv-p-range", "2..6", "--output", str(out))
        rec = json.loads(run_cli("fit", "--input", str(out)).stdout)
        import csv
        from bpdp.fitting import PiDataset, fit_first_order
        rows = []
        with open(out, newline="") as fh:
            for line in csv.DictReader(fh):
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

    def test_fit_reads_pi_csv_table(self, tmp_path):
        table = tmp_path / "pi.csv"
        for k in range(2, 6):
            assert run_cli("pi", "--log2-inv-p", str(k), "--csv",
                           str(table)).returncode == 0
        assert table.read_text().startswith("log2_inv_p,p,log_pi\n")
        scan = tmp_path / "scan.csv"
        run_cli("scan", "--log2-inv-p-range", "2..5", "--output", str(scan))
        r = run_cli("fit", "--input", str(table))
        assert r.returncode == 0, r.stderr
        want = json.loads(run_cli("fit", "--input", str(scan)).stdout)
        assert json.loads(r.stdout)["outputs"] == want["outputs"]

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
        out = tmp_path / "pi.csv"
        run_cli("pi", "--log2-inv-p", "2", "--csv", str(out))
        before = out.read_text()
        r = run_cli("scan", "--log2-inv-p-range", "2..3", "--output", str(out),
                    "--resume")
        assert_one_line_error(r, "pi.csv", "cannot resume")
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
        r = run_cli("verify", "--suite", "all")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 13
        assert all(line.startswith("[pass] ") for line in lines)
        assert "FAIL" not in r.stdout

    def test_verify_stochasticity(self):
        r = run_cli("verify", "--suite", "stochasticity")
        assert r.returncode == 0
        assert "[pass]" in r.stdout

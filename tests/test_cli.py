import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from ghzsep.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestThresholdCommand:
    def test_exact_criterion(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "3", "--j", "1"])
        assert result.exit_code == 0
        assert "3/7 (iff)" in result.output

    def test_lp_regime_reports_gap(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "6", "--k", "3"])
        assert result.exit_code == 0
        assert "sufficient: 9/41" in result.output
        assert "necessary: none" in result.output

    def test_full_separability(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "4", "--k", "4"])
        assert result.exit_code == 0
        assert "1/9 (iff)" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "3", "--j", "1", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["schema_version"] == 1
        assert payload["sufficient"] == "3/7"
        assert payload["kind"] == "iff"

    def test_invalid_range_exits_two(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "6", "--j", "3"])
        assert result.exit_code == 2
        assert "2j + 1" in result.output

    def test_requires_exactly_one_mode(self, runner):
        assert runner.invoke(main, ["threshold", "--n", "5"]).exit_code == 2
        assert runner.invoke(main, ["threshold", "--n", "5", "--j", "1", "--k", "2"]).exit_code == 2

    @pytest.mark.parametrize(
        "n,j", [(n, j) for n in range(3, 9) for j in range(1, (n - 1) // 2 + 1)]
    )
    def test_j_and_k_print_the_same_cell(self, runner, n, j):
        for fmt in ("human", "json", "csv"):
            by_j = runner.invoke(main, ["threshold", "--n", str(n), "--j", str(j), "--format", fmt])
            by_k = runner.invoke(main, ["threshold", "--n", str(n), "--k", str(n - j), "--format", fmt])
            assert by_j.exit_code == by_k.exit_code == 0
            assert by_j.output == by_k.output

    def test_lp_cell_above_the_cap_exits_two(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "31", "--k", "10"])
        assert result.exit_code == 2
        assert "n <= 30" in result.output

    def test_closed_form_cell_has_no_cap(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "60", "--k", "59", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "iff"
        assert payload["sufficient"] == "15/8358680908399640591"


class TestTableCommand:
    def test_golden_check_passes(self, runner):
        result = runner.invoke(main, ["table1", "--check"])
        assert result.exit_code == 0
        assert "golden check passed for 16 rows" in result.output

    def test_contains_reference_rows(self, runner):
        result = runner.invoke(main, ["table1", "--format", "csv"])
        assert result.exit_code == 0
        assert "7,3,35/2,35/163" in result.output
        assert "10,3,115,115/627" in result.output

    def test_extension_beyond_reference(self, runner):
        result = runner.invoke(main, ["table1", "--nmax", "13", "--format", "csv"])
        assert result.exit_code == 0
        assert any(line.startswith("13,3,") for line in result.output.splitlines())

    def test_byte_stable(self, runner):
        a = runner.invoke(main, ["table1", "--format", "json"]).output
        b = runner.invoke(main, ["table1", "--format", "json"]).output
        assert a == b

    def test_above_the_cap_exits_two(self, runner):
        result = runner.invoke(main, ["table1", "--nmax", "31"])
        assert result.exit_code == 2
        assert "--nmax <= 30" in result.output


class TestFigureCommand:
    def test_writes_csv(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(
            main, ["figure", "--nmin", "3", "--nmax", "6", "--j", "1", "--out", str(out)]
        )
        assert result.exit_code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "n,curve,p_exact,p_decimal"
        assert "3,j=1,3/7," in text
        assert "6,full,1/33," in text
        assert "6,bisep,31/63," in text


class TestLpCommand:
    def test_six_three(self, runner):
        result = runner.invoke(main, ["lp", "--n", "6", "--k", "3"])
        assert result.exit_code == 0
        assert "tau = 9" in result.output
        assert "2^3: 1/3" in result.output
        assert "1|2|3: 2/3" in result.output
        assert "certificate: valid" in result.output

    def test_full_separability_cell(self, runner):
        result = runner.invoke(main, ["lp", "--n", "8", "--k", "8", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["tau"] == "1"
        assert payload["p_s"] == "1/129"
        assert payload["certified"] is True

    def test_twelve_four_certified_value(self, runner):
        result = runner.invoke(main, ["lp", "--n", "12", "--k", "4", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["tau"] == "97"
        assert payload["p_s"] == "97/2145"

    def test_invalid_cell_exits_two(self, runner):
        assert runner.invoke(main, ["lp", "--n", "4", "--k", "9"]).exit_code == 2

    def test_thirty_eight_certified_at_cap(self, runner):
        result = runner.invoke(main, ["lp", "--n", "30", "--k", "8", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["certified"] is True
        assert payload["tau"] == "2495"

    def test_above_the_cap_exits_two(self, runner):
        result = runner.invoke(main, ["lp", "--n", "31", "--k", "8"])
        assert result.exit_code == 2
        assert "n <= 30" in result.output


class TestVerifyCommand:
    def test_wident_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "wident", "--limits", "L=6"])
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.output.strip().splitlines()]
        assert lines and all(rec["pass"] for rec in lines)

    def test_appendix_suite_small(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "appendix", "--limits", "n=20,l=10"])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] and summary["params"] == {"n_max": 20, "l_max": 10}

    def test_lemma1_suite_small(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "lemma1", "--limits", "n=5,samples=50", "--seed", "7"]
        )
        assert result.exit_code == 0

    def test_phase_oracle_suite_small(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "phase-oracle", "--limits", "n=5"])
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.output.strip().splitlines()]
        assert all(rec["pass"] for rec in lines)
        assert len(lines) == 13  # partitions with k >= 2 of n = 2..5

    def test_charfn_suite_small(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "charfn", "--limits", "n=3"])
        assert result.exit_code == 0

    def test_unknown_suite_exits_two(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "nope"]).exit_code == 2

    def test_bad_limits_exit_two(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "wident", "--limits", "L"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "suite, limits",
        [
            ("appendix", "n=3"),
            ("witness-max", "restarts=0"),
            ("lemma1", "n=3"),
            ("wident", "L=1"),
            ("phase-oracle", "n=1"),
            ("wident", "foo=1,L=2"),
            ("charfn", "n=9"),
        ],
    )
    def test_limits_validated_before_suite_runs(self, runner, suite, limits):
        result = runner.invoke(main, ["verify", "--suite", suite, "--limits", limits])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")


class TestModuleEntryPoint:
    def test_import_does_not_load_numpy(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import ghzsep, ghzsep.cli, sys; assert 'numpy' not in sys.modules"],
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0

    def test_python_dash_m(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "ghzsep", "threshold", "--n", "3", "--j", "1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "3/7 (iff)" in proc.stdout

    def test_format_env_variable(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["GHZSEP_FORMAT"] = "json"
        proc = subprocess.run(
            [sys.executable, "-m", "ghzsep", "threshold", "--n", "3", "--j", "1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["sufficient"] == "3/7"

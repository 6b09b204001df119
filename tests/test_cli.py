import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from types import ModuleType, SimpleNamespace

import pytest

from ghzsep import lpsolve, oracle, suites
from ghzsep.cli import _CLOSED_FORM_MAX_N, _COMMANDS, SUITE_NAMES, main


class _Tee(io.StringIO):
    """A captured stream that also copies what it is written into ``mixed``."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, text):
        self.mixed.write(text)
        return super().write(text)


def invoke(cli, args, prog_name="ghzsep"):
    """Run a command line in this process: its ``exit_code``, ``stdout``,
    ``output`` (stdout and stderr interleaved as written) and the
    ``exception`` that ended it, unless it exited 0."""
    mixed = io.StringIO()
    out = _Tee(mixed)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Tee(mixed)):
        try:
            cli.main(args=args, prog_name=prog_name)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), output=mixed.getvalue(),
                           exception=exception)


@pytest.fixture
def runner():
    return SimpleNamespace(invoke=invoke)


class TestThresholdCommand:
    def test_exact_criterion(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "3", "--j", "1"])
        assert result.exit_code == 0
        assert "3/7 (iff)" in result.output

    def test_lp_regime_reports_iff(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "6", "--k", "3"])
        assert result.exit_code == 0
        assert result.output == ("9/41 (iff)\n"
                                 "rule: mixed-partition linear program and its dual witness\n")

    def test_lp_cell_json_keeps_schema_one(self, runner):
        result = runner.invoke(main, ["threshold", "--n", "6", "--k", "3", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["kind"] == "iff"
        assert payload["sufficient"] == payload["necessary"] == "9/41"

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
        # --j J is --k n-J: j = 5 gives k = 1 and j = -1 gives k = 7
        for j in ("5", "-1"):
            result = runner.invoke(main, ["threshold", "--n", "6", "--j", j])
            assert result.exit_code == 2
            assert result.output.startswith("Usage:")
            assert "need 2 <= k <= n" in result.output

    def test_requires_exactly_one_mode(self, runner):
        assert runner.invoke(main, ["threshold", "--n", "5"]).exit_code == 2
        assert runner.invoke(main, ["threshold", "--n", "5", "--j", "1", "--k", "2"]).exit_code == 2

    @pytest.mark.parametrize("n,j", [(n, j) for n in range(3, 11) for j in range(n - 1)])
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

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    @pytest.mark.parametrize("offset", [1, 0, None], ids=["k=n-1", "k=n", "k=2"])
    def test_closed_form_cells_print_at_the_cap(self, runner, fmt, offset):
        n = _CLOSED_FORM_MAX_N
        k = 2 if offset is None else n - offset
        result = runner.invoke(main, ["threshold", "--n", str(n), "--k", str(k), "--format", fmt])
        assert result.exit_code == 0
        assert "iff" in result.output

    def test_rejected_certificate_exits_one(self, runner, monkeypatch):
        monkeypatch.setattr(lpsolve, "verify_solution", lambda prob, sol: False)
        result = runner.invoke(main, ["threshold", "--n", "6", "--k", "3"])
        assert result.exit_code == 1
        assert result.output == "Error: optimality certificate rejected for n=6, k=3\n"

    def test_above_the_closed_form_cap_exits_two(self, runner):
        # the rationals near n = 14,273 pass Python's int-to-string digit limit
        result = runner.invoke(main, ["threshold", "--n", "20000", "--k", "19999"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert f"n <= {_CLOSED_FORM_MAX_N}" in result.output


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

    def test_golden_mismatch_exits_one(self, runner, monkeypatch):
        monkeypatch.setitem(lpsolve.REFERENCE_TAU, (6, 3), Fraction(10))
        result = runner.invoke(main, ["table1", "--check"])
        assert result.exit_code == 1
        assert "golden mismatch at rows: [(6, 3)]" in result.output

    def test_rejected_certificate_exits_one_with_no_rows(self, runner, monkeypatch):
        monkeypatch.setattr(lpsolve, "verify_solution", lambda prob, sol: False)
        result = runner.invoke(main, ["table1", "--check"])
        assert result.exit_code == 1
        assert result.output == "Error: optimality certificate rejected for n=6, k=3\n"

    def test_above_the_cap_exits_two(self, runner):
        result = runner.invoke(main, ["table1", "--nmax", "31"])
        assert result.exit_code == 2
        assert "Invalid value for '--nmax'" in result.output
        assert "limited to n <= 30, got n=31" in result.output

    def test_far_above_the_cap_names_the_n_asked_for(self, runner, monkeypatch):
        monkeypatch.setattr(lpsolve, "solve", lambda prob: pytest.fail(f"solved n={prob.n}"))
        result = runner.invoke(main, ["table1", "--nmax", "40"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for '--nmax'" in result.output
        assert "limited to n <= 30, got n=40" in result.output

    def test_below_the_first_row_exits_two(self, runner):
        result = runner.invoke(main, ["table1", "--nmax", "5"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert "need --nmax >= 6, got 5" in result.output

    def test_above_the_cap_solves_nothing(self, runner, monkeypatch):
        def fail(prob):
            raise AssertionError(f"solved n={prob.n}, k={prob.k}")

        monkeypatch.setattr(lpsolve, "solve", fail)
        result = runner.invoke(main, ["table1", "--nmax", "31"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "limited to n <= 30" in result.output


class TestFigureCommand:
    def test_writes_csv(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(
            main, ["figure", "--nmin", "3", "--nmax", "6", "--j", "1", "--out", str(out)]
        )
        assert result.exit_code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "n,curve,p_exact,p_decimal"
        assert "3,j=1,3/7,0.428571428571\n" in text
        assert "6,full,1/33," in text
        assert "6,bisep,31/63," in text

    #: sha256 over the bytes of the default run, two --j curves to n = 300,
    #: the n = 10,000 cap row and an --out file, captured before figure
    #: printed through the shared emitter.
    DIGEST = "66be70c1f82a434462b63171b29b92283857e59d36c93c73f9029a26bf784e02"

    def test_output_pinned(self, runner, tmp_path):
        cap = str(_CLOSED_FORM_MAX_N)
        digest = hashlib.sha256()
        for args in ([], ["--nmin", "3", "--nmax", "300", "--j", "1", "--j", "7"],
                     ["--nmin", cap, "--nmax", cap]):
            result = runner.invoke(main, ["figure", *args])
            assert result.exit_code == 0
            digest.update(result.output.encode())
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["figure", "--nmax", "40", "--j", "2", "--out", str(out)])
        assert result.exit_code == 0 and result.output == ""
        digest.update(out.read_bytes())
        assert digest.hexdigest() == self.DIGEST

    def test_at_the_cap(self, runner):
        cap = str(_CLOSED_FORM_MAX_N)
        result = runner.invoke(main, ["figure", "--nmin", cap, "--nmax", cap])
        assert result.exit_code == 0
        assert [line.split(",")[1] for line in result.output.splitlines()[1:]] == [
            "j=1", "j=2", "j=3", "j=4", "j=5", "bisep", "full"
        ]

    @pytest.mark.parametrize("args", [["--nmin", "20000", "--nmax", "20000"], ["--j", "0"]])
    def test_bad_input_exits_two(self, runner, args):
        result = runner.invoke(main, ["figure", *args])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")

    def test_repeated_j_exits_two_and_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["figure", "--j", "1", "--j", "1", "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert "repeated j in [1, 1]" in result.output
        assert not out.exists()

    def test_out_in_a_missing_directory_exits_two(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = runner.invoke(main, ["figure", "--nmax", "5", "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert f"cannot write {out}: No such file or directory" in result.output
        assert not out.parent.exists()


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

    def test_csv_row(self, runner):
        result = runner.invoke(main, ["lp", "--n", "6", "--k", "3", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == "n,k,tau,p_s,certified\n6,3,9,9/41,True\n"

    def test_rejected_certificate_exits_one(self, runner, monkeypatch):
        monkeypatch.setattr(lpsolve, "verify_solution", lambda prob, sol: False)
        result = runner.invoke(main, ["lp", "--n", "6", "--k", "3"])
        assert result.exit_code == 1
        assert result.output == "Error: optimality certificate rejected for n=6, k=3\n"

    def test_invalid_cell_exits_two(self, runner):
        assert runner.invoke(main, ["lp", "--n", "4", "--k", "9"]).exit_code == 2

    def test_interrupt_is_aborted(self, runner, monkeypatch):
        # as click's standalone mode: a blank line and "Aborted!" on stderr, exit 1
        def interrupt(n, k):
            raise KeyboardInterrupt

        monkeypatch.setattr(lpsolve, "certified_solve", interrupt)
        result = runner.invoke(main, ["lp", "--n", "6", "--k", "3"])
        assert (result.exit_code, result.stdout, result.output) == (1, "", "\nAborted!\n")

    def test_thirty_eight_certified_at_cap(self, runner):
        result = runner.invoke(main, ["lp", "--n", "30", "--k", "8", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["certified"] is True
        assert payload["tau"] == "2495"

    def test_above_the_cap_exits_two(self, runner):
        result = runner.invoke(main, ["lp", "--n", "31", "--k", "8"])
        assert result.exit_code == 2
        assert "Invalid value for '--n' / '--k'" in result.output
        assert "limited to n <= 30, got n=31" in result.output


class TestVerifyCommand:
    def test_wident_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "wident", "--limits", "L=6"])
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.output.strip().splitlines()]
        assert lines and all(rec["pass"] for rec in lines)
        assert all(set(rec) == {"check", "params", "pass", "detail"} for rec in lines)

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

    def test_witness_max_suite_small(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "witness-max", "--limits", "restarts=4,samples=100"]
        )
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.output.strip().splitlines()]
        assert [rec["check"] for rec in lines] == ["witness-product-max"] * 7
        assert all(rec["pass"] for rec in lines)

    def test_witness_max_fails_a_bound_just_above_the_attained_value(self, runner, monkeypatch):
        # attainment is exact: a bound 1e-9 above n/(n-L) is not attained,
        # though it is within a float tolerance of the attaining state
        from ghzsep import witness

        monkeypatch.setattr(witness, "sep_max",
                            lambda n, L: Fraction(n, n - L) + Fraction(1, 10**9))
        result = runner.invoke(main, ["verify", "--suite", "witness-max", "--limits", "samples=100"])
        assert result.exit_code == 1
        lines = [json.loads(line) for line in result.output.strip().splitlines()]
        assert len(lines) == 7 and not any(rec["pass"] for rec in lines)

    def test_charfn_suite_small(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "charfn", "--limits", "n=3"])
        assert result.exit_code == 0

    def test_unknown_suite_exits_two(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "nope"]).exit_code == 2

    def test_bad_limits_exit_two(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "wident", "--limits", "L"])
        assert result.exit_code == 2

    def test_non_integer_limit_exits_two(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "lemma1", "--limits", "n=abc"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert "bad --limits value in 'n=abc'" in result.output

    def test_internal_fault_is_one_error_line(self, runner, monkeypatch):
        # drop one placement of the three qubits: the n = 2 records stream,
        # then the oracle's placement count fails
        real = oracle._placements

        def dropped(free, sizes):
            placements = real(free, sizes)
            if free == 0b111:
                next(placements)
            return placements

        monkeypatch.setattr(oracle, "_placements", dropped)
        result = runner.invoke(main, ["verify", "--suite", "phase-oracle", "--limits", "n=3"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        *records, last = result.output.splitlines()
        assert last == "Error: placement enumeration incomplete"
        assert [json.loads(line)["params"]["n"] for line in records] == [2]
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("suite", ["witness-max", "all"])
    def test_negative_seed_exits_two_before_any_suite(self, runner, suite):
        result = runner.invoke(main, ["verify", "--suite", suite, "--seed", "-1"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert "--seed >= 0" in result.output

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
            ("appendix", "n=501"),
            ("wident", "L=2,L=3"),
            ("wident", "=3"),
        ],
    )
    def test_limits_validated_before_suite_runs(self, runner, suite, limits):
        result = runner.invoke(main, ["verify", "--suite", suite, "--limits", limits])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")

    def test_wident_above_its_cap_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghzsep", "verify", "--suite", "wident", "--limits", "L=101"],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "suite wident needs 2 <= L <= 100, got L=101" in proc.stderr

    @pytest.mark.parametrize("suite, limits, span", [
        ("lemma1", "n=13", "4 <= n <= 12"),
        ("witness-max", "restarts=1025", "1 <= restarts <= 1024"),
    ])
    def test_formerly_unbounded_suite_above_its_cap_exits_two(self, suite, limits, span):
        # without a cap these suites' run time grows without bound
        proc = subprocess.run(
            [sys.executable, "-m", "ghzsep", "verify", "--suite", suite, "--limits", limits],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"suite {suite} needs {span}, got {limits}" in proc.stderr

    def test_suite_names_are_the_suites_table(self):
        # the option's choices are spelled out so that only verify imports suites
        assert SUITE_NAMES == tuple(sorted(suites.SUITES))

    def test_limits_with_all_suites_exits_two(self, runner):
        # --limits sets one suite's limits: under --suite all, n would mean
        # a different bound to each of the four suites that read it
        result = runner.invoke(main, ["verify", "--suite", "all", "--limits", "n=6"])
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert "--limits sets one suite's limits" in result.output
        assert '"check"' not in result.output


def _pinned_command_lines():
    """threshold over every (n, k) with n <= 10 and every valid (n, j) with
    n <= 9, lp over every n <= 9 and table1 --check to 12, in each format."""
    cells = [["threshold", "--n", str(n), "--k", str(k)] for n in range(2, 11) for k in range(2, n + 1)]
    cells += [["threshold", "--n", str(n), "--j", str(j)]
              for n in range(3, 10) for j in range(1, (n - 1) // 2 + 1)]
    cells += [["lp", "--n", str(n), "--k", str(k)] for n in range(2, 10) for k in range(2, n + 1)]
    cells.append(["table1", "--nmax", "12", "--check"])
    return [args + ["--format", fmt] for fmt in ("human", "json", "csv") for args in cells]


class TestOutputPinned:
    #: sha256 over each command line, its exit code and its output, captured
    #: when the linear-program cells of threshold became iff: only their 27
    #: lines changed.
    DIGEST = "bda020648f630c7a4f537c762d3f39ad466d0f597f526d3b52a61bf18f472c24"

    def test_every_command_byte_for_byte(self, runner):
        lines = _pinned_command_lines()
        assert len(lines) == 294
        digest = hashlib.sha256()
        for args in lines:
            result = runner.invoke(main, args)
            digest.update(f"{' '.join(args)}\n{result.exit_code}\n{result.output}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def _pinned_verify_lines():
    """The exact verify suites, each at small limits, at seeds 0, 3 and 7."""
    suites = [("appendix", "n=20,l=10"), ("wident", ""), ("phase-oracle", "n=6"),
              ("charfn", "n=5"), ("lemma1", "n=6,samples=200")]
    return [["verify", "--suite", suite, "--seed", str(seed)] + (["--limits", limits] if limits else [])
            for seed in (0, 3, 7) for suite, limits in suites]


class TestVerifyOutputPinned:
    #: sha256 over each verify command line, its exit code and its output,
    #: captured before lemma1 and charfn ran over one integer denominator.
    DIGEST = "48368e27b14d34404ba74a415f026d30cabe986bc3955a1ecdcec193ef759cdf"

    def test_exact_suites_byte_for_byte(self, runner):
        lines = _pinned_verify_lines()
        assert len(lines) == 15
        digest = hashlib.sha256()
        for args in lines:
            result = runner.invoke(main, args)
            digest.update(f"{' '.join(args)}\n{result.exit_code}\n{result.output}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def _src_env(**extra):
    env = dict(os.environ, **extra)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _usage_error(command, message):
    """stderr of a usage error under ``python -m ghzsep``: the usage line,
    the help hint, a blank line and the error."""
    prog = " ".join(["python -m ghzsep", command]).rstrip()
    usage = f"{prog} [OPTIONS]" + ("" if command else " COMMAND [ARGS]...")
    return f"Usage: {usage}\nTry '{prog} --help' for help.\n\nError: {message}\n"


#: command line -> stderr, each with exit 2 and empty stdout, as click wrote
#: them before the command line had its own parser.  ``curves`` is a directory.
USAGE_ERRORS = {
    "": None,  # the group's help text
    "nope": _usage_error("", "No such command 'nope'."),
    "lp --n 6 --k 3 --bogus": _usage_error("lp", "No such option '--bogus'."),
    "lp --n 6": _usage_error("lp", "Missing option '--k'."),
    "lp --n x --k 3": _usage_error("lp", "Invalid value for '--n': 'x' is not a valid integer."),
    "lp --n 6 --k 3 --format xml": _usage_error(
        "lp", "Invalid value for '--format': 'xml' is not one of 'human', 'json', 'csv'."),
    "lp --n 40 --k 3": _usage_error(
        "lp", "Invalid value for '--n' / '--k': the linear program is limited to n <= 30, got n=40"),
    "table1 --nmax 5": _usage_error("table1", "need --nmax >= 6, got 5"),
    "verify --suite lemma1 --limits n=abc": _usage_error("verify", "bad --limits value in 'n=abc'"),
    "verify --suite wident --limits L": _usage_error(
        "verify", "bad --limits entry 'L'; expected key=value"),
    "verify --suite wident --limits =3": _usage_error(
        "verify", "bad --limits entry '=3'; expected key=value"),
    "verify --suite wident --limits L=2,": _usage_error(
        "verify", "bad --limits entry ''; expected key=value"),
    "verify --suite wident --limits L=2,L=3": _usage_error("verify", "duplicate --limits key 'L'"),
    "verify --suite wident --limits foo=1": _usage_error(
        "verify", "unknown --limits key(s) foo; allowed: L"),
    "verify --suite wident --limits L=1": _usage_error(
        "verify", "suite wident needs 2 <= L <= 100, got L=1"),
    "verify --suite wident --limits L=x": _usage_error("verify", "bad --limits value in 'L=x'"),
    "verify --suite all --limits L=3": _usage_error(
        "verify", "--limits sets one suite's limits; --suite all runs each suite at its defaults"),
    "verify --suite wident --seed -1": _usage_error("verify", "need --seed >= 0, got -1"),
    "verify --suite nope": _usage_error(
        "verify", "Invalid value for '--suite': 'nope' is not one of 'appendix', 'charfn', "
                  "'lemma1', 'phase-oracle', 'wident', 'witness-max', 'all'."),
    "figure --out curves": _usage_error(
        "figure", "Invalid value for '--out': File 'curves' is a directory."),
    "lp --n": "Error: Option '--n' requires an argument.\n",
    "table1 --check=1": "Error: Option '--check' does not take a value.\n",
    "lp -x": _usage_error("lp", "No such option '-x'."),
    "-x": _usage_error("", "No such option '-x'."),
    "--bogus": _usage_error("", "No such option '--bogus'."),
    "lp --n 6 --k 3 extra": _usage_error("lp", "Got unexpected extra argument (extra)"),
    "lp --n 6 --k 3 a b": _usage_error("lp", "Got unexpected extra arguments (a b)"),
    "lp --nn 6 --k 3": _usage_error("lp", "No such option '--nn'. Did you mean '--n'?"),
    "verify --sute lemma1": _usage_error(
        "verify", "No such option '--sute'. (Did you mean one of: '--seed', '--suite'?)"),
    "lp -- --n 6": _usage_error("lp", "Missing option '--n'."),
    "-- --bogus": _usage_error("", "No such option '--bogus'."),
    "verify": _usage_error("verify", "Missing option '--suite'. Choose from:\n\tappendix,"
                                     "\n\tcharfn,\n\tlemma1,\n\tphase-oracle,\n\twident,"
                                     "\n\twitness-max,\n\tall"),
    "threshold --n 5": _usage_error("threshold", "provide exactly one of --j or --k"),
    "threshold --n 5 --j 1 --k 2": _usage_error("threshold", "provide exactly one of --j or --k"),
}


class TestUsageErrorsPinned:
    @pytest.mark.parametrize("command", list(USAGE_ERRORS), ids=lambda c: c or "no-arguments")
    def test_usage_error_byte_for_byte(self, command, tmp_path):
        (tmp_path / "curves").mkdir()
        proc = subprocess.run([sys.executable, "-m", "ghzsep", *command.split()],
                              capture_output=True, text=True, cwd=tmp_path, env=_src_env(),
                              timeout=60)
        stderr = USAGE_ERRORS[command] or HELP_TEXT[()].replace("ghzsep", "python -m ghzsep", 1)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", stderr)


class TestProgramName:
    """The usage line names the program as it was started: each ``-m``
    entry point passes its name, and the ``ghzsep`` script is the
    basename of ``sys.argv[0]``."""

    def test_module_cli(self):
        proc = subprocess.run([sys.executable, "-m", "ghzsep.cli", "lp"],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "Usage: python -m ghzsep.cli lp [OPTIONS]\n"
                   "Try 'python -m ghzsep.cli lp --help' for help.\n\n"
                   "Error: Missing option '--n'.\n")

    def test_script(self, monkeypatch, capsys):
        # as the installed script runs: its __main__ is the script, in no package
        monkeypatch.setattr(sys, "argv", ["/usr/local/bin/ghzsep"])
        monkeypatch.setitem(sys.modules, "__main__", ModuleType("__main__"))
        with pytest.raises(SystemExit) as exc:
            main(["lp"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "Usage: ghzsep lp [OPTIONS]\n"
                                           "Try 'ghzsep lp --help' for help.\n\n"
                                           "Error: Missing option '--n'.\n")


class TestLpSizeCap:
    """The LP's size cap is checked in lpsolve; each command that reaches it
    reports a usage error."""

    @pytest.mark.parametrize("command, option", [
        ("lp --n 31 --k 5", "'--n' / '--k'"),
        ("table1 --nmax 31", "'--nmax'"),
        ("threshold --n 31 --k 5", None),
    ])
    def test_exits_two_with_empty_stdout(self, command, option):
        proc = subprocess.run([sys.executable, "-m", "ghzsep", *command.split()],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("Usage:")
        assert "limited to n <= 30, got n=31" in proc.stderr
        if option:
            assert f"Invalid value for {option}" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    """A write that fails (here on a full device) is one error line and
    exit 1, not a traceback."""

    @pytest.mark.parametrize("command", [
        "threshold --n 6 --k 3",
        "lp --n 6 --k 3 --format json",
        "table1 --nmax 6 --format csv",
        "verify --suite charfn --limits n=2",
        "figure --nmin 3 --nmax 5",
        "figure --nmin 3 --nmax 5 --out /dev/full",
    ])
    def test_exits_one_with_one_line(self, command):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ghzsep", *command.split()],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=_src_env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Error: cannot write output: ")
        assert proc.stderr.count("\n") == 1


class TestClosedPipe:
    """A write into a pipe whose reader has gone ends the command quietly
    with exit 1: no ``Error:`` line, no traceback."""

    @pytest.mark.parametrize("command", [
        "threshold --n 6 --k 3",
        "lp --n 6 --k 3",
        "table1 --nmax 6",
        "verify --suite charfn --limits n=2",
        "figure --nmin 3 --nmax 5",
    ])
    def test_exits_one_with_empty_stderr(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ghzsep", *command.split()],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=_src_env(), timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestModuleEntryPoint:
    def test_import_does_not_load_numpy(self):
        script = """
import sys
import ghzsep
assert not [m for m in sys.modules if m.startswith("ghzsep.")]
from ghzsep import lpsolve  # not a public name: the submodule import
assert lpsolve.__name__ == "ghzsep.lpsolve"
import ghzsep.cli
assert "numpy" not in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", script], env=_src_env(), timeout=60)
        assert proc.returncode == 0

    def test_public_names_are_the_submodule_objects(self):
        import ghzsep

        assert len(ghzsep.__all__) == 35
        for name in ghzsep.__all__:
            obj = getattr(ghzsep, name)
            assert obj is getattr(sys.modules[obj.__module__], name)

    def test_unknown_name_raises_attribute_error(self):
        import ghzsep

        with pytest.raises(AttributeError, match="no_such_name"):
            ghzsep.no_such_name

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghzsep", "threshold", "--n", "3", "--j", "1"],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert "3/7 (iff)" in proc.stdout

    @pytest.mark.parametrize("command", ["lp --n 6 --k 3", "threshold --n 6 --k 3"])
    def test_format_environment_variable_is_ignored(self, command):
        """``--format`` alone chooses the output: an exported GHZSEP_FORMAT,
        valid or not, leaves the human output as it is."""
        env = _src_env()
        env.pop("GHZSEP_FORMAT", None)

        def run(**extra):
            return subprocess.run([sys.executable, "-m", "ghzsep", *command.split()],
                                  capture_output=True, text=True, env={**env, **extra}, timeout=60)

        human = run()
        assert human.returncode == 0
        for value in ("json", "bogus"):
            proc = run(GHZSEP_FORMAT=value)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, human.stdout, "")


# Runs the CLI as ``python -m ghzsep`` would and, at exit, writes the loaded
# ghzsep submodules, whether numpy was loaded, which of click, dataclasses
# and inspect were loaded and whether textwrap was as the last stderr line.
_REPORT_IMPORTS = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + json.dumps(
    [sorted(m for m in sys.modules if m.startswith("ghzsep.")), "numpy" in sys.modules,
     [m for m in ("click", "dataclasses", "inspect") if m in sys.modules],
     "textwrap" in sys.modules])))
runpy.run_module("ghzsep", run_name="__main__")
"""

_LP = ["cli", "lpsolve", "partitions", "record"]
_EXACT = ["cli", "exactmath", "record", "suites"]
_ORACLE = ["cli", "exactmath", "oracle", "partitions", "record", "suites", "symstate", "witness"]

#: command line -> (the ghzsep submodules it loads, whether it loads numpy)
IMPORT_SETS = {
    "--help": (["cli"], False),
    "lp --help": (["cli"], False),
    "lp --n 6 --k 3": (_LP, False),
    "table1 --nmax 6": (_LP, False),
    "threshold --n 5 --k 4": (["cli", "record", "thresholds"], False),
    "threshold --n 6 --k 3": (_LP + ["thresholds"], False),
    "figure --nmax 4": (["cli", "exactmath", "record", "thresholds"], False),
    "verify --suite wident --limits L=2": (_EXACT, False),
    "verify --suite appendix --limits n=4,l=2": (_EXACT, False),
    "verify --suite lemma1 --limits n=4,samples=1": (_EXACT, False),
    "verify --suite phase-oracle --limits n=2": (_ORACLE, False),
    "verify --suite charfn --limits n=2": (_ORACLE, False),
    "verify --suite witness-max --limits restarts=1,samples=1": (_ORACLE, True),
}


class TestCommandImports:
    """Each command loads only the modules it runs, and numpy only for the
    float witness probes.  No command loads click or dataclasses, and only
    numpy loads inspect.  Without numpy, only the help pages load
    textwrap."""

    @pytest.mark.parametrize("command", list(IMPORT_SETS))
    def test_import_set(self, command):
        modules, numpy = IMPORT_SETS[command]
        proc = subprocess.run(
            [sys.executable, "-c", _REPORT_IMPORTS, *command.split()],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, numpy_loaded, heavy, textwrap = json.loads(proc.stderr.splitlines()[-1])
        assert loaded == sorted(f"ghzsep.{m}" for m in modules)
        assert numpy_loaded is numpy
        assert heavy == (["inspect"] if numpy else [])
        assert numpy or textwrap is command.endswith("--help")


# Runs the CLI as ``python -m ghzsep`` would, with numpy unimportable.
_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
runpy.run_module("ghzsep", run_name="__main__")
"""


def _run_without_numpy(command):
    return subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *command.split()],
                          capture_output=True, text=True, env=_src_env(), timeout=60)


class TestWithoutNumpy:
    """numpy is an optional extra: only the float witness probes need it."""

    @pytest.mark.parametrize("suite", ["witness-max", "all"])
    def test_probe_suites_exit_two_before_any_suite(self, suite):
        proc = _run_without_numpy(f"verify --suite {suite}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("Error: suite witness-max needs numpy")
        assert "ghzsep[probes]" in proc.stderr

    @pytest.mark.parametrize("command, line", [
        ("lp --n 6 --k 3", "tau = 9"),
        ("threshold --n 6 --k 3", "9/41 (iff)"),
        ("verify --suite wident --limits L=3", '"pass": true'),
    ])
    def test_exact_commands_run(self, command, line):
        proc = _run_without_numpy(command)
        assert proc.returncode == 0, proc.stderr
        assert line in proc.stdout


_OPTIONS_FORMAT = """\
  --format [human|json|csv]  Output format (default: human).
  --help                     Show this message and exit.
"""

#: ``--help`` of the group and of each command, byte for byte.  Each
#: command's help text is its docstring, so a statement above the
#: docstring would blank it.
HELP_TEXT = {
    (): """\
Usage: ghzsep [OPTIONS] COMMAND [ARGS]...

  Exact separability thresholds of N-qubit GHZ states in white noise.

Options:
  --help  Show this message and exit.

Commands:
  figure     Write threshold curve data as CSV.
  lp         Solve the mixed-partition linear program for (n, k).
  table1     K-separability thresholds from the exact linear program (n...
  threshold  Print the separability bound(s) for (n, j) or (n, k).
  verify     Run a verification suite; stream JSON-line reports, exit 0...
""",
    ("threshold",): """\
Usage: ghzsep threshold [OPTIONS]

  Print the separability bound(s) for (n, j) or (n, k).

Options:
  --n INTEGER                Number of qubits.  [required]
  --j INTEGER                n-j separability index.
  --k INTEGER                Number of parties.
""" + _OPTIONS_FORMAT,
    ("table1",): """\
Usage: ghzsep table1 [OPTIONS]

  K-separability thresholds from the exact linear program (n >= 6).

Options:
  --nmax INTEGER             Largest qubit count.
  --check                    Compare against the golden values.
""" + _OPTIONS_FORMAT,
    ("figure",): """\
Usage: ghzsep figure [OPTIONS]

  Write threshold curve data as CSV.

Options:
  --nmin INTEGER
  --nmax INTEGER
  --j INTEGER
  --out FILE      Output CSV path (default: stdout).
  --help          Show this message and exit.
""",
    ("lp",): """\
Usage: ghzsep lp [OPTIONS]

  Solve the mixed-partition linear program for (n, k).

Options:
  --n INTEGER                [required]
  --k INTEGER                [required]
""" + _OPTIONS_FORMAT,
    ("verify",): """\
Usage: ghzsep verify [OPTIONS]

  Run a verification suite; stream JSON-line reports, exit 0 iff all pass.

Options:
  --suite [appendix|charfn|lemma1|phase-oracle|wident|witness-max|all]
                                  [required]
  --seed INTEGER
  --limits TEXT                   Comma-separated key=value limit overrides.
  --help                          Show this message and exit.
""",
}


class TestHelpText:
    @pytest.mark.parametrize("command", sorted(HELP_TEXT), ids=lambda c: " ".join(c) or "main")
    def test_help_pinned(self, runner, command):
        # 78 columns whatever the terminal's width
        result = runner.invoke(main, [*command, "--help"], prog_name="ghzsep")
        assert result.exit_code == 0
        assert result.output == HELP_TEXT[command]

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_command_docstring_is_one_sentence(self, name):
        # the commands table shortens the whole docstring, which shows its
        # first sentence only while it is one line and one sentence
        doc = _COMMANDS[name][0].__doc__
        assert "\n" not in doc and doc.endswith(".") and ". " not in doc

    def test_help_after_double_dash(self, runner):
        # click read a "--help" after "--" as the group's option
        result = runner.invoke(main, ["--", "--help"], prog_name="ghzsep")
        assert (result.exit_code, result.output) == (0, HELP_TEXT[()])

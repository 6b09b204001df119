"""Command-line interface: thresholds, the LP table, curve data, and the
verification suites.  Each command and suite imports the modules it runs
below its docstring (click's help text), so numpy loads only for witness-max.
The library returns exact values; this module alone turns them into text,
and ``_exit_codes`` alone maps the library's errors and failed writes to
exit codes.
"""

from __future__ import annotations

import json
import os
import random
import sys
from contextlib import contextmanager
from decimal import Context
from fractions import Fraction
from importlib.util import find_spec

import click

SCHEMA_VERSION = 1
_FORMATS = ("human", "json", "csv")

WITNESS_MAX_CASES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4))

#: Largest n whose closed-form rationals ``threshold`` and ``figure`` print:
#: near n = 14,273 their digits pass Python's int-to-string limit.
_CLOSED_FORM_MAX_N = 10_000

#: The decimal column printed beside an exact rational has 12 significant digits.
_DECIMAL_CONTEXT = Context(prec=12)


@contextmanager
def _exit_codes(param_hint=None):
    """Map the library's errors inside to exit codes: a ValueError (bad
    input) is a usage error that exits 2, naming ``param_hint`` when given;
    an ArithmeticError (a rejected certificate or an internal fault) and an
    OSError (a failed write) are one ``Error:`` line that exits 1, except a
    write into a pipe whose reader has gone, which exits 1 silently."""
    try:
        yield
    except ValueError as exc:
        if param_hint:
            raise click.BadParameter(str(exc), param_hint=param_hint)
        raise click.UsageError(str(exc))
    except ArithmeticError as exc:
        raise click.ClickException(str(exc))
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot fail again, and exit 1 without a message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:
        raise click.ClickException(f"cannot write output: {exc.strerror or exc}")


def _emit(fmt, human, payload, header, rows, file=None):
    """Print one result as human lines, a JSON object or CSV rows."""
    if fmt == "human":
        lines = human
    elif fmt == "json":
        lines = [json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True)]
    else:
        lines = [header, *(",".join(map(str, row)) for row in rows)]
    click.echo("\n".join(lines), file=file)


def _decimal(q):
    """A rational to 12 significant digits."""
    return str(_DECIMAL_CONTEXT.divide(q.numerator, q.denominator))


def _lp_payload(sol):
    """The JSON fields of one LP solution: exact tau, p_s and support weights."""
    from .partitions import format_partition

    return {"n": sol.n, "k": sol.k, "tau": str(sol.tau), "p_s": str(sol.p_s),
            "weights": {format_partition(p): str(w) for p, w in sol.support}}


format_option = click.option(
    "--format", "fmt", type=click.Choice(_FORMATS), default="human",
    help="Output format (default: human).",
)


@click.group()
def main():
    """Exact separability thresholds of N-qubit GHZ states in white noise."""


@main.command()
@click.option("--n", "n", type=int, required=True, help="Number of qubits.")
@click.option("--j", "j", type=int, default=None, help="n-j separability index.")
@click.option("--k", "k", type=int, default=None, help="Number of parties.")
@format_option
def threshold(n, j, k, fmt):
    """Print the separability bound(s) for (n, j) or (n, k)."""
    from . import thresholds

    if (j is None) == (k is None):
        raise click.UsageError("provide exactly one of --j or --k")
    if n > _CLOSED_FORM_MAX_N:
        raise click.UsageError(f"need n <= {_CLOSED_FORM_MAX_N}, got n={n}")
    if j is not None:
        k = n - j
    with _exit_codes():
        bound, rule = thresholds.threshold(n, k)
        # schema 1 keeps its sufficient and necessary fields: both are the bound
        text = str(bound)
        _emit(fmt, [f"{text} (iff)", f"rule: {rule}"],
              {"n": n, "k": k, "kind": "iff", "rule": rule, "sufficient": text,
               "sufficient_decimal": _decimal(bound), "necessary": text},
              "n,k,kind,sufficient,necessary", [(n, k, "iff", text, text)])


@main.command()
@click.option("--nmax", type=int, default=12, help="Largest qubit count.")
@click.option("--check", is_flag=True, help="Compare against the golden values.")
@format_option
def table1(nmax, check, fmt):
    """K-separability thresholds from the exact linear program (n >= 6)."""
    from . import lpsolve
    from .partitions import format_partition

    if nmax < 6:
        raise click.UsageError(f"need --nmax >= 6, got {nmax}")
    with _exit_codes("'--nmax'"):
        rows = lpsolve.table1(range(6, nmax + 1))
        human = ["n  k  partitions (tau*weight)            tau        p_s"]
        for sol in rows:
            supp = ", ".join(f"{format_partition(p)}:{w * sol.tau}" for p, w in sol.support)
            human.append(f"{sol.n:<3}{sol.k:<3}{supp:<36}{str(sol.tau):<11}{sol.p_s}")
        _emit(fmt, human, {"rows": [_lp_payload(sol) for sol in rows]}, "n,k,tau,p_s,support",
              [(sol.n, sol.k, sol.tau, sol.p_s, " ".join(format_partition(p) for p, _ in sol.support))
               for sol in rows])
    if check:
        golden = [sol for sol in rows if (sol.n, sol.k) in lpsolve.REFERENCE_TAU]
        # every row is certified, which ties p_s to tau
        bad = [(sol.n, sol.k) for sol in golden if sol.tau != lpsolve.REFERENCE_TAU[sol.n, sol.k]]
        if bad:
            click.echo(f"golden mismatch at rows: {bad}", err=True)
            sys.exit(1)
        click.echo(f"golden check passed for {len(golden)} rows", err=True)


@main.command()
@click.option("--nmin", type=int, default=3)
@click.option("--nmax", type=int, default=20)
@click.option("--j", "j_list", type=int, multiple=True, default=(1, 2, 3, 4, 5))
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default="-",
              help="Output CSV path (default: stdout).")
def figure(nmin, nmax, j_list, out):
    """Write threshold curve data as CSV."""
    from . import thresholds

    if nmax > _CLOSED_FORM_MAX_N:
        raise click.UsageError(f"need --nmax <= {_CLOSED_FORM_MAX_N}, got {nmax}")
    with _exit_codes():
        rows = thresholds.figure1_data(nmin, nmax, j_list)
        try:
            fh = click.open_file(out, "w")
        except OSError as exc:
            raise click.BadParameter(f"cannot write {out}: {exc.strerror}", param_hint="'--out'")
        # closing the file flushes it, so a full disk can fail there too
        with fh:
            _emit("csv", None, None, "n,curve,p_exact,p_decimal",
                  [(n, curve, p, _decimal(p)) for n, curve, p in rows], file=fh)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@format_option
def lp(n, k, fmt):
    """Solve the mixed-partition linear program for (n, k)."""
    from . import lpsolve
    from .partitions import format_partition

    with _exit_codes(["--n", "--k"]):
        sol = lpsolve.certified_solve(n, k)
        _emit(fmt,
              [f"tau = {sol.tau}", f"p_s = {sol.p_s} ({_decimal(sol.p_s)})",
               *(f"  {format_partition(p)}: {w}" for p, w in sol.support),
               f"binding rows: {list(sol.binding)}", "certificate: valid"],
              {**_lp_payload(sol), "binding": list(sol.binding), "certified": True},
              "n,k,tau,p_s,certified", [(n, k, sol.tau, sol.p_s, True)])


def _suite_limits(name, text):
    """One suite's limits: the ``key=value`` overrides in ``text`` on top of
    its defaults, validated.

    A malformed or repeated entry, a key the suite does not declare, or a
    value outside its range is a usage error raised before the suite runs.
    """
    overrides = {}
    for piece in text.split(",") if text else ():
        key, _, value = piece.partition("=")
        key = key.strip()
        if not key or not value:
            raise click.UsageError(f"bad --limits entry {piece!r}; expected key=value")
        if key in overrides:
            raise click.UsageError(f"duplicate --limits key {key!r}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise click.UsageError(f"bad --limits value in {piece!r}")
    declared = _SUITES[name][1]
    unknown = sorted(set(overrides) - set(declared))
    if unknown:
        raise click.UsageError(
            f"unknown --limits key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(declared))}"
        )
    values = {}
    for key, (default, lo, hi) in declared.items():
        value = overrides.get(key, default)
        if not lo <= value <= hi:
            raise click.UsageError(f"suite {name} needs {lo} <= {key} <= {hi}, got {key}={value}")
        values[key] = value
    return values


def _suite_wident(seed, limits):
    from .exactmath import verify_w_identities

    for L in range(2, limits["L"] + 1):
        yield from verify_w_identities(L)


def _suite_appendix(seed, limits):
    from .exactmath import CheckRecord, verify_appendix_inequality

    n_max, l_max = limits["n"], limits["l"]
    report = verify_appendix_inequality(n_max, l_max)
    yield from report.violations
    yield CheckRecord("padding-binomial-bound", {"n_max": n_max, "l_max": l_max},
                      report.passed,
                      f"checked={report.checked}, violations={len(report.violations)}")


def _suite_lemma1(seed, limits):
    from .exactmath import CheckRecord, random_unit_rationals, verify_lemma1_inequality

    samples = limits["samples"]
    rng = random.Random(seed)
    for n in range(4, limits["n"] + 1):
        ok = True
        ties = 0
        for _ in range(samples):
            z = random_unit_rationals(rng, n - 2)
            res = verify_lemma1_inequality(z, n)
            ok = ok and res.passed
            ties += res.tight
        zero = verify_lemma1_inequality((Fraction(0),) * (n - 2), n)
        yield CheckRecord("block-eigenvalue-bound", {"n": n, "samples": samples},
                          ok and zero.passed and zero.tight,
                          f"tight_cases={ties}, zero_input_tight={zero.tight}")


def _suite_phase_oracle(seed, limits):
    from . import oracle
    from .exactmath import CheckRecord
    from .partitions import enumerate_partitions, format_partition
    from .symstate import partition_average_state

    for n in range(2, limits["n"] + 1):
        for k in range(2, n + 1):
            for part in enumerate_partitions(n, k):
                same = oracle.phase_average_oracle(part) == partition_average_state(part)
                yield CheckRecord("phase-average-equality",
                                  {"n": n, "partition": format_partition(part)}, same)


def _suite_witness_max(seed, limits):
    from . import oracle
    from .exactmath import CheckRecord
    from .witness import sep_max

    restarts, samples = limits["restarts"], limits["samples"]
    for n, L in WITNESS_MAX_CASES:
        bound = float(sep_max(n, L))
        reached = oracle.maximize_over_product_states(n, L, restarts=restarts, seed=seed)
        sampled = oracle.max_sampled_product_value(n, L, samples=samples, seed=seed)
        ok = abs(reached - bound) <= 1e-6 and reached <= bound + 1e-9 and sampled <= bound + 1e-9
        yield CheckRecord("witness-product-max", {"n": n, "L": L}, ok,
                          f"bound={bound}, reached={reached:.12f}, sampled_max={sampled:.12f}")


def _suite_charfn(seed, limits):
    from . import oracle

    for n in range(2, limits["n"] + 1):
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            yield from oracle.characteristic_check(n, p)


#: Each suite's generator and limit keys: key -> (default, smallest, largest).
#: Every key is capped so that no suite runs for long inside its limits.  On a
#: shared 2-core Xeon each suite takes under 10 s at its caps: the appendix
#: sweep's Pascal table grows with (n + l)^2 entries, the wident sweep's time
#: steeply with L, lemma 1's like samples * n^3 and witness-max's linearly in
#: restarts and samples.
_SUITES = {
    "wident": (_suite_wident, {"L": (20, 2, 100)}),
    "appendix": (_suite_appendix, {"n": (100, 4, 500), "l": (100, 2, 500)}),
    "lemma1": (_suite_lemma1, {"n": (8, 4, 12), "samples": (10000, 1, 20000)}),
    "phase-oracle": (_suite_phase_oracle, {"n": (8, 2, 10)}),
    "witness-max": (_suite_witness_max, {"restarts": (64, 1, 1024), "samples": (10000, 1, 100000)}),
    "charfn": (_suite_charfn, {"n": (6, 2, 8)}),
}


@main.command()
@click.option("--suite", type=click.Choice(sorted(_SUITES) + ["all"]), required=True)
@click.option("--seed", type=int, default=42)
@click.option("--limits", default="", help="Comma-separated key=value limit overrides.")
def verify(suite, seed, limits):
    """Run a verification suite; stream JSON-line reports, exit 0 iff all pass."""
    if seed < 0:
        raise click.UsageError(f"need --seed >= 0, got {seed}")
    if suite == "all" and limits:
        raise click.UsageError(
            "--limits sets one suite's limits; --suite all runs each suite at its defaults")
    names = sorted(_SUITES) if suite == "all" else [suite]
    limits = {name: _suite_limits(name, limits) for name in names}
    if "witness-max" in names and find_spec("numpy") is None:
        error = click.ClickException("suite witness-max needs numpy, from the probes "
                                     "extra: pip install 'ghzsep[probes]'")
        error.exit_code = 2
        raise error
    all_ok = True
    with _exit_codes():
        for name in names:
            for record in _SUITES[name][0](seed, limits[name]):
                all_ok = all_ok and record.passed
                click.echo(json.dumps({"check": record.check, "params": record.params,
                                       "pass": record.passed, "detail": record.detail},
                                      sort_keys=True))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()

"""Command-line interface: thresholds, the LP table, curve data, and the
verification suites."""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import click

from . import lpsolve, thresholds
from .exactmath import (
    CheckRecord,
    random_unit_rationals,
    rat_decimal,
    rat_str,
    verify_appendix_inequality,
    verify_lemma1_inequality,
    verify_w_identities,
)
from .partitions import enumerate_partitions, format_partition
from .symstate import partition_average_state
from .witness import sep_max

SCHEMA_VERSION = 1
_FORMATS = ("human", "json", "csv")

WITNESS_MAX_CASES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4))


def _default_format() -> str:
    fmt = os.environ.get("GHZSEP_FORMAT", "human")
    return fmt if fmt in _FORMATS else "human"


def _emit_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    click.echo(json.dumps(payload, sort_keys=True))


format_option = click.option(
    "--format", "fmt", type=click.Choice(_FORMATS), default=None,
    help="Output format (default: human, or $GHZSEP_FORMAT).",
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
    fmt = fmt or _default_format()
    if (j is None) == (k is None):
        raise click.UsageError("provide exactly one of --j or --k")
    try:
        if j is not None:
            thresholds.nj_threshold(n, j)  # range check: --j needs n >= 2j + 1
            k = n - j
        verdict = thresholds.classify(n, k, 0)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    sufficient = verdict.sufficient_bound
    necessary = verdict.necessary_bound
    kind = "iff" if necessary is not None else "sufficient-only"
    rule = verdict.sufficient_rule
    if fmt == "human":
        if kind == "iff":
            click.echo(f"{rat_str(sufficient)} (iff)")
            click.echo(f"rule: {rule}")
        else:
            click.echo(f"sufficient: {rat_str(sufficient)}")
            click.echo("necessary: none given")
            click.echo(f"rule: {rule}")
    elif fmt == "json":
        _emit_json(
            {
                "n": n,
                "k": k,
                "kind": kind,
                "rule": rule,
                "sufficient": rat_str(sufficient),
                "sufficient_decimal": rat_decimal(sufficient),
                "necessary": rat_str(necessary) if necessary is not None else None,
            }
        )
    else:
        click.echo("n,k,kind,sufficient,necessary")
        nec = rat_str(necessary) if necessary is not None else ""
        click.echo(f"{n},{k},{kind},{rat_str(sufficient)},{nec}")


@main.command()
@click.option("--nmax", type=int, default=12, help="Largest qubit count.")
@click.option("--check", is_flag=True, help="Compare against the golden values.")
@format_option
def table1(nmax, check, fmt):
    """K-separability thresholds from the exact linear program (n >= 6)."""
    fmt = fmt or _default_format()
    if not 6 <= nmax <= lpsolve.MAX_N:
        raise click.UsageError(f"need 6 <= --nmax <= {lpsolve.MAX_N}, got {nmax}")
    rows = lpsolve.table1(range(6, nmax + 1))
    if fmt == "human":
        click.echo("n  k  partitions (tau*weight)            tau        p_s")
        for sol in rows:
            supp = ", ".join(
                f"{format_partition(p)}:{rat_str(w * sol.tau)}"
                for p, w in zip(sol.partitions, sol.weights)
                if w > 0
            )
            click.echo(
                f"{sol.n:<3}{sol.k:<3}{supp:<36}{rat_str(sol.tau):<11}{rat_str(sol.p_s)}"
            )
    elif fmt == "json":
        _emit_json({"rows": [sol.as_dict() for sol in rows]})
    else:
        click.echo("n,k,tau,p_s,support")
        for sol in rows:
            supp = " ".join(format_partition(p) for p in sol.support)
            click.echo(f"{sol.n},{sol.k},{rat_str(sol.tau)},{rat_str(sol.p_s)},{supp}")
    if check:
        bad = []
        for sol in rows:
            key = (sol.n, sol.k)
            if key not in lpsolve.REFERENCE_TAU:
                continue
            if sol.tau != lpsolve.REFERENCE_TAU[key] or sol.p_s != lpsolve.reference_threshold(*key):
                bad.append(key)
        if bad:
            click.echo(f"golden mismatch at rows: {bad}", err=True)
            sys.exit(1)
        click.echo(f"golden check passed for {sum(1 for s in rows if (s.n, s.k) in lpsolve.REFERENCE_TAU)} rows", err=True)


@main.command()
@click.option("--nmin", type=int, default=3)
@click.option("--nmax", type=int, default=20)
@click.option("--j", "j_list", type=int, multiple=True, default=(1, 2, 3, 4, 5))
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default="-",
              help="Output CSV path (default: stdout).")
def figure(nmin, nmax, j_list, out):
    """Write threshold curve data as CSV."""
    try:
        rows = thresholds.figure1_data(nmin, nmax, j_list)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    text = thresholds.rows_to_csv(rows)
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@format_option
def lp(n, k, fmt):
    """Solve the mixed-partition linear program for (n, k)."""
    fmt = fmt or _default_format()
    if not 2 <= k <= n <= lpsolve.MAX_N:
        raise click.UsageError(f"need 2 <= k <= n <= {lpsolve.MAX_N}, got n={n}, k={k}")
    prob = lpsolve.build_problem(n, k)
    sol = lpsolve.solve(prob)
    certified = lpsolve.verify_solution(prob, sol)
    if fmt == "human":
        click.echo(f"tau = {rat_str(sol.tau)}")
        click.echo(f"p_s = {rat_str(sol.p_s)} ({rat_decimal(sol.p_s)})")
        for p, w in zip(sol.partitions, sol.weights):
            if w > 0:
                click.echo(f"  {format_partition(p)}: {rat_str(w)}")
        click.echo(f"binding rows: {list(sol.binding)}")
        click.echo(f"certificate: {'valid' if certified else 'INVALID'}")
    elif fmt == "json":
        payload = sol.as_dict()
        payload["binding"] = list(sol.binding)
        payload["certified"] = certified
        _emit_json(payload)
    else:
        click.echo("n,k,tau,p_s,certified")
        click.echo(f"{n},{k},{rat_str(sol.tau)},{rat_str(sol.p_s)},{certified}")
    if not certified:
        sys.exit(1)


def _parse_limits(text):
    limits = {}
    if not text:
        return limits
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        if not value:
            raise click.UsageError(f"bad --limits entry {piece!r}; expected key=value")
        try:
            limits[key.strip()] = int(value)
        except ValueError:
            raise click.UsageError(f"bad --limits value in {piece!r}")
    return limits


#: Limit keys of each suite: key -> (default, smallest, largest or None).
_SUITE_LIMITS = {
    "wident": {"L": (20, 2, None)},
    "appendix": {"n": (100, 4, None), "l": (100, 2, None)},
    "lemma1": {"n": (8, 4, None), "samples": (10000, 1, None)},
    "phase-oracle": {"n": (8, 2, 10)},
    "witness-max": {"restarts": (64, 1, None), "samples": (10000, 1, None)},
    "charfn": {"n": (6, 2, 8)},
}


def _resolve_limits(names, limits):
    """Each named suite's limits: overrides on top of defaults, validated.

    A key no named suite declares, or a value outside a suite's range, is
    a usage error raised before any suite runs.
    """
    known = set().union(*(_SUITE_LIMITS[name] for name in names))
    unknown = sorted(set(limits) - known)
    if unknown:
        raise click.UsageError(
            f"unknown --limits key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(known))}"
        )
    resolved = {}
    for name in names:
        values = {}
        for key, (default, lo, hi) in _SUITE_LIMITS[name].items():
            value = limits.get(key, default)
            if value < lo or (hi is not None and value > hi):
                span = f"{key} >= {lo}" if hi is None else f"{lo} <= {key} <= {hi}"
                raise click.UsageError(f"suite {name} needs {span}, got {key}={value}")
            values[key] = value
        resolved[name] = values
    return resolved


def _suite_wident(seed, limits):
    for L in range(2, limits["L"] + 1):
        yield from verify_w_identities(L)


def _suite_appendix(seed, limits):
    n_max, l_max = limits["n"], limits["l"]
    report = verify_appendix_inequality(n_max, l_max)
    yield from report.violations
    yield CheckRecord("padding-binomial-bound", {"n_max": n_max, "l_max": l_max},
                      report.passed,
                      f"checked={report.checked}, violations={len(report.violations)}")


def _suite_lemma1(seed, limits):
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

    for n in range(2, limits["n"] + 1):
        for k in range(2, n + 1):
            for part in enumerate_partitions(n, k):
                same = oracle.phase_average_oracle(part) == partition_average_state(part)
                yield CheckRecord("phase-average-equality",
                                  {"n": n, "partition": format_partition(part)}, same)


def _suite_witness_max(seed, limits):
    from . import oracle

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
            yield from oracle.characteristic_check(n, p).records


_SUITES = {
    "wident": _suite_wident,
    "appendix": _suite_appendix,
    "lemma1": _suite_lemma1,
    "phase-oracle": _suite_phase_oracle,
    "witness-max": _suite_witness_max,
    "charfn": _suite_charfn,
}


@main.command()
@click.option("--suite", type=click.Choice(sorted(_SUITES) + ["all"]), required=True)
@click.option("--seed", type=int, default=42)
@click.option("--limits", default="", help="Comma-separated key=value limit overrides.")
def verify(suite, seed, limits):
    """Run a verification suite; stream JSON-line reports, exit 0 iff all pass."""
    names = sorted(_SUITES) if suite == "all" else [suite]
    limits = _resolve_limits(names, _parse_limits(limits))
    all_ok = True
    for name in names:
        for record in _SUITES[name](seed, limits[name]):
            all_ok = all_ok and record.passed
            click.echo(json.dumps(record.as_dict(), sort_keys=True))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ghzsep.

From the repository root:

    python3 bench/run.py --workload lp --seed 1 --seconds 55 --trace 0

Runs one workload for about ``--seconds`` seconds, checks every output
against ``bench/reference.json`` (captured at the seed commit) and prints,
as the last line of stdout, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured through fresh CLI processes and, for LP
cells beyond the CLI cap, library calls; with ``--trace 1`` they are the
per-layer ones,
from a traced in-process run (see ``bench/worker.py``).  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("lp", "verify")
SCALES = ("full", "smoke")
#: Largest qubit count of the lp workload's table and of its lp commands.
LP_TABLE_N = {"full": 20, "smoke": 8}
#: Library cells of the lp workload, all beyond the CLI cap of n <= 20
#: (163-282 columns), and the cell that warms up each library worker.
LP_CELLS = {"full": ((23, 6), (24, 6), (26, 6)), "smoke": ((12, 3), (13, 4))}
WARMUP_CELL = (12, 3)
SUITES = ("appendix", "charfn", "lemma1", "phase-oracle", "wident", "witness-max")
#: --limits per suite; missing means the suite's defaults.  The lemma-1
#: sample count is cut from 10000 so that a pass fits several times in a run.
SUITE_LIMITS = {
    "full": {"lemma1": "samples=1000"},
    "smoke": {"appendix": "n=10,l=5", "charfn": "n=3", "lemma1": "n=5,samples=20",
              "phase-oracle": "n=4", "wident": "L=6", "witness-max": "restarts=4,samples=100"},
}
#: The verify seed is the benchmark seed modulo this; reference outputs
#: exist for every verify seed below it.
SEED_POOL = 16

#: Fresh ``--help`` processes timed before the first pass and after each
#: pass, each allowed many times its usual 0.3 s so the run still ends in time.
SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 5.0
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 60.0
#: No operation starts after this many seconds; the run then reports.
HARD_LIMIT_S = 160.0

END_TO_END = {"wall_s": "s", "setup_s": "s"}
PER_LAYER = {
    "lpsolve.solve_s": "s", "lpsolve.pivots": "count", "lpsolve.solves": "count",
    "lpsolve.certify_s": "s", "lpsolve.certified_frac": "ratio",
    "lpsolve.build_s": "s", "lpsolve.columns": "count", "lpsolve.max_bits": "bits",
    "partitions.enumerate_s": "s", "partitions.enumerated": "count",
    "partitions.profile_s": "s", "partitions.profile_calls": "count",
    "symstate.partition_average_s": "s", "symstate.pad_s": "s",
    "exactmath.lemma1_s": "s", "exactmath.lemma1_samples": "count",
    "exactmath.lemma1_tight": "count",
    "exactmath.appendix_s": "s", "exactmath.appendix_checked": "count",
    "exactmath.wident_s": "s", "exactmath.wident_records": "count",
    "oracle.phase_average_s": "s", "oracle.phase_average_calls": "count",
    "oracle.permutations": "count",
    "oracle.characteristic_s": "s", "oracle.pauli_strings": "count",
    "oracle.product_max_s": "s", "oracle.product_sample_s": "s",
    "cli.import_s": "s", "cli.import_numpy_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def cli_op(argv, metric):
    return {"id": " ".join(argv), "kind": "cli", "argv": list(argv), "metric": metric}


def lib_op(n, k):
    return {"id": f"cell {n},{k}", "kind": "lib", "cell": [n, k], "metric": "cell_s"}


def workload_ops(workload: str, scale: str, seed: int) -> list:
    """The operations of one pass, in a seed-shuffled order."""
    if workload == "lp":
        n = LP_TABLE_N[scale]
        ops = [cli_op(["table1", "--nmax", str(n), "--check"], "table1_s")]
        ops += [cli_op(["lp", "--n", str(n), "--k", str(k), "--format", "json"], "lp_s")
                for k in range(3, n // 2 + 1)]
        ops += [lib_op(n, k) for n, k in LP_CELLS[scale]]
    elif workload == "verify":
        ops = []
        for suite in SUITES:
            argv = ["verify", "--suite", suite, "--seed", str(seed % SEED_POOL)]
            if suite in SUITE_LIMITS[scale]:
                argv += ["--limits", SUITE_LIMITS[scale][suite]]
            ops.append(cli_op(argv, suite.replace("-", "_") + "_s"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def cells_in(op: dict) -> int:
    """LP cells an operation solves."""
    if op["kind"] == "lib":
        return 1
    if op["argv"][0] == "table1":
        nmax = int(op["argv"][2])
        return sum(n // 2 - 2 for n in range(6, nmax + 1))
    return 1 if op["argv"][0] == "lp" else 0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GHZSEP_FORMAT"}
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli_process(argv, timeout: float) -> dict:
    """One CLI command in a fresh interpreter, timed from spawn to exit."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ghzsep", *argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"code": "timeout", "wall": time.perf_counter() - start}
    return {"code": proc.returncode, "wall": time.perf_counter() - start,
            "stdout": proc.stdout.decode("utf-8", "replace"),
            "stderr": proc.stderr.decode("utf-8", "replace")}


def run_worker(ops, warmup, seconds: float, trace: bool, hard_s: float, trace_file=None) -> list:
    """Passes of the in-process worker; [] if it died before reporting."""
    request = {"ops": ops, "warmup": warmup, "seconds": seconds, "trace": trace,
               "hard_s": hard_s, "op_timeout": OP_TIMEOUT_S,
               "trace_file": str(trace_file) if trace_file else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=child_env(),
            input=json.dumps(request).encode(), capture_output=True, timeout=hard_s + 15)
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout or b""
    else:
        stdout = proc.stdout
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    passes = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            passes.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a pass cut off mid-line by the timeout
    return passes


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check(op: dict, outcome: dict, reference: dict) -> str | None:
    """Why the outcome is wrong, or None when every check holds."""
    if outcome.get("code") != 0:
        return f"exit {outcome.get('code')}"
    ref = reference.get(op["id"])
    if ref is None:
        return "no reference output"
    if op["kind"] == "lib":
        if not outcome["certified"]:
            return "verify_solution rejected the solution"
        if not outcome["pad_matches"]:
            return "padded mixture threshold differs from the LP threshold"
        if outcome["tau"] != ref["tau"]:
            return f"tau {outcome['tau']} != {ref['tau']}"
        if outcome["sha256"] != ref["sha256"]:
            return "solution differs from reference"
        return None
    stdout = outcome["stdout"]
    command = op["argv"][0]
    try:
        if command == "lp" and json.loads(stdout).get("certified") is not True:
            return "lp not certified"
        if command == "verify":
            lines = stdout.splitlines()
            if not lines or not all(json.loads(line).get("pass") is True for line in lines):
                return "a verify record did not pass"
    except json.JSONDecodeError:
        return "output is not JSON"
    if sha256(stdout) != ref["sha256"]:
        return "stdout differs from reference"
    return None


def cross_check(ops, outcomes, reasons) -> dict:
    """lp: each top row of table1 ends in the tau and p_s that the lp
    command of its cell certified.  Only outcomes that passed their own
    checks take part.  Returns {table1 op index: reason}."""
    lp_rows = {}
    table = None
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if op["kind"] != "cli" or reasons[i]:
            continue
        if op["argv"][0] == "lp":
            sol = json.loads(out["stdout"])
            # the human table pads tau to 11 columns and glues p_s to it
            lp_rows[f"{sol['n']:<3}{sol['k']:<3}"] = f"{sol['tau']:<11}{sol['p_s']}"
        elif op["argv"][0] == "table1":
            table = i
    if table is None or not lp_rows:
        return {}
    rows = {line[:6]: line for line in outcomes[table]["stdout"].splitlines()}
    for head, tail in sorted(lp_rows.items()):
        if not rows.get(head, "").endswith(tail):
            return {table: f"row {head.split()} is {rows.get(head)!r}, lp certified {tail!r}"}
    return {}


def score(ops, passes, reference, failures: list) -> tuple:
    """(attempted, failed) over all passes; reasons go to ``failures``."""
    attempted = failed = 0
    for outcomes in passes:
        reasons = {i: check(op, out, reference) for i, (op, out) in enumerate(zip(ops, outcomes))}
        reasons.update(cross_check(ops, outcomes, reasons))
        attempted += len(ops)
        for i, reason in reasons.items():
            if reason:
                failed += 1
                failures.append(f"{ops[i]['id']}: {reason}")
    return attempted, failed


def quartiles(values) -> tuple:
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def upper_decile(values) -> float:
    """90th percentile by linear interpolation between the samples.

    On a shared two-core host a core flips between an uncontended and a
    contended speed, up to 1.7x apart, every second or so, and the share of
    uncontended time drifts from minute to minute.  A median mixes the two
    states in that drifting share; the upper decile sits in the contended
    state, whose speed holds steadier from run to run (see README.md)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def keep_going(elapsed: float, walls, seconds: float) -> bool:
    """Start another pass only if it should end before the run length
    plus half a pass."""
    return elapsed + 0.5 * statistics.median(walls) < seconds


def measure_setup() -> list:
    """Outcomes of fresh ``ghzsep --help`` processes."""
    return [run_cli_process(["--help"], SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)]


def measure_imports() -> tuple:
    """Cumulative import time of ghzsep.cli and of numpy, from
    ``python -X importtime`` in fresh processes (medians, seconds)."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ghzsep.cli"], cwd=ROOT,
            env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
            timeout=OP_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        cli_s.append(cumulative["ghzsep.cli"])
        numpy_s.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_s), statistics.median(numpy_s)


def run_pass(ops, deadline: float) -> dict:
    """One pass: the CLI commands one at a time as fresh processes, then the
    library cells together in one worker process, whose start-up is not
    timed.  The pass wall time is the sum of the operations' wall times."""
    outcomes = {}
    for i, op in enumerate(ops):
        if op["kind"] == "cli":
            remaining = deadline - time.perf_counter()
            outcomes[i] = (run_cli_process(op["argv"], min(OP_TIMEOUT_S, remaining))
                           if remaining > 0 else {"code": "timeout", "wall": 0.0})
    cells = [i for i, op in enumerate(ops) if op["kind"] == "lib"]
    if cells:
        worker = run_worker([ops[i] for i in cells], [lib_op(*WARMUP_CELL)], 0, False,
                            max(deadline - time.perf_counter(), 0.0))
        results = worker[0]["ops"] if worker else [{"code": "no result", "wall": 0.0}] * len(cells)
        outcomes.update(zip(cells, results))
    results = [outcomes[i] for i in range(len(ops))]
    return {"wall": sum(out["wall"] for out in results), "ops": results}


def run_passes(ops, seconds: float, deadline: float, setup: list) -> list:
    """Measured passes until the run length is used up, at least one.  The
    start-ups timed after each pass are appended to ``setup``, so that they
    sample the machine over the whole run."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, deadline))
        setup += measure_setup()
        now = time.perf_counter()
        if now >= deadline or not keep_going(now - start, [p["wall"] for p in passes], seconds):
            return passes


def report(name: str, values, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"  {name:<16} {med:12.6f} {unit:<6} q1={q1:.6f} q3={q3:.6f} n={len(values)}"


def end_to_end(workload, scale, seed, seconds, reference, started) -> dict:
    ops = workload_ops(workload, scale, seed)
    warmup = workload_ops(workload, "smoke", seed)
    deadline = started + HARD_LIMIT_S
    failures = []
    run_pass(warmup, deadline)  # untimed: fills the OS file cache and the bytecode cache
    setup = measure_setup()
    passes = run_passes(ops, seconds, deadline, setup)
    attempted, failed = score(ops, [p["ops"] for p in passes], reference, failures)
    help_op = cli_op(["--help"], "setup_s")
    setup_attempted, setup_failed = score([help_op], [[out] for out in setup], reference, failures)
    attempted += setup_attempted
    failed += setup_failed
    setup = [out["wall"] for out in setup]

    walls = [p["wall"] for p in passes]
    wall = sum(upper_decile([p["ops"][i]["wall"] for p in passes]) for i in range(len(ops)))
    lines = [f"workload {workload} scale {scale} seed {seed}: {len(passes)} passes, "
             f"{attempted} operations, {failed} failed",
             report("setup_s", setup, "s"),
             f"  {'wall_s':<16} {wall:12.6f} s      90th percentile of each operation, summed",
             report("pass_s", walls, "s")]
    by_metric = {}
    for p in passes:
        for op, out in zip(ops, p["ops"]):
            by_metric.setdefault(op["metric"], []).append(out["wall"])
    for metric, values in sorted(by_metric.items()):
        lines.append(report(metric.replace("lp_s", "lp_p50_s"), values, "s"))
    cells = sum(cells_in(op) for op in ops)
    if cells:
        lines.append(report("cells_per_s", [cells / p["wall"] for p in passes], "1/s"))
    lines.append(f"  failed_frac      {failed / attempted:.6f}")
    lines.extend(f"  FAILED {reason}" for reason in failures[:20])
    print("\n".join(lines))
    metrics = {"wall_s": wall, "setup_s": statistics.median(setup)}
    return result(attempted, failed, metrics, END_TO_END)


def per_layer(workload, scale, seed, seconds, reference, started) -> dict:
    ops = workload_ops(workload, scale, seed)
    warmup = workload_ops(workload, "smoke", seed)
    import_s, import_numpy_s = measure_imports()
    trace_file = OUT / f"trace-{workload}-{scale}-{seed}.jsonl"
    hard_s = started + HARD_LIMIT_S - time.perf_counter()
    passes = run_worker(ops, warmup, seconds, True, hard_s, trace_file)
    failures = []
    attempted, failed = score(ops, [p["ops"] for p in passes], reference, failures)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not traced or not plain:
        attempted, failed = attempted + len(ops), failed + len(ops)
        failures.append("the worker reported no traced pass")
        traced = traced or [{"wall": 0.0, "layers": {}, "counts": {}, "spans": 0, "functions": {}}]
        plain = plain or [{"wall": 0.0}]

    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        else:
            metrics[name] = traced[-1]["counts"].get(name, 0)
    counts = traced[-1]["counts"]
    calls = counts.get("lpsolve.certify_calls", 0)
    metrics["lpsolve.certified_frac"] = counts.get("lpsolve.certified", 0) / calls if calls else 0.0
    metrics["cli.import_s"] = import_s
    metrics["cli.import_numpy_s"] = import_numpy_s
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in plain))
    metrics["trace.spans"] = traced[-1]["spans"]

    lines = [f"workload {workload} scale {scale} seed {seed} traced: {len(plain)} untraced and "
             f"{len(traced)} traced passes, {attempted} operations, {failed} failed",
             f"  spans written to {trace_file.relative_to(ROOT)}",
             "  function self times of the last traced pass:"]
    for fn, row in traced[-1]["functions"].items():
        lines.append(f"    {fn:<44} {row['self_s']:10.6f} s  calls={row['calls']}")
    lines.extend(f"  FAILED {reason}" for reason in failures[:20])
    print("\n".join(lines))
    return result(attempted, failed, metrics, PER_LAYER)


def result(attempted, failed, metrics, units) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'smoke' runs every workload at minimal size")
    return parser.parse_args(argv)


def run(args, reference=None) -> dict:
    started = time.perf_counter()
    if not (SRC / "ghzsep" / "cli.py").is_file():
        raise SystemExit(f"error: no ghzsep sources under {SRC}")
    reference = load_reference() if reference is None else reference
    measure = per_layer if args.trace else end_to_end
    return measure(args.workload, args.scale, args.seed, args.seconds, reference, started)


def main(argv=None) -> int:
    outcome = run(parse_args(argv))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

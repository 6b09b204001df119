"""In-process executor for bench/run.py.

Reads one JSON request on stdin, imports ghzsep from the checkout's
``src/`` and runs passes over the requested operations: CLI commands go
through the click group inside this interpreter, library cells through the
public functions of ``ghzsep.lpsolve`` and ``ghzsep.symstate``.  Writes one
JSON line per pass on stdout.

With tracing on, passes alternate untraced and traced.  A traced pass
wraps every public function of the library modules and records one span
(name, start, end, parent) per call; its record carries the self time of
each layer metric, the call counters and a per-function summary.  The
spans of the last traced pass are written to the requested trace file.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import click  # noqa: E402

import ghzsep  # noqa: E402
from ghzsep import cli, lpsolve, symstate  # noqa: E402

LAYERS = ("partitions", "lpsolve", "symstate", "exactmath", "oracle", "witness", "thresholds")

#: Layer metric that receives a function's self time.  A function missing
#: here counts toward the metric of its caller, so helpers such as
#: ``binomial`` or the witness calls inside the dense oracle witness are
#: charged to the sweep or oracle that made them.
BUCKETS = {
    "lpsolve.build_problem": "lpsolve.build_s",
    "lpsolve.solve": "lpsolve.solve_s",
    "lpsolve.verify_solution": "lpsolve.certify_s",
    "partitions.enumerate_partitions": "partitions.enumerate_s",
    "partitions.profile": "partitions.profile_s",
    "symstate.partition_average_state": "symstate.partition_average_s",
    "symstate.pad_to_isotropic": "symstate.pad_s",
    "exactmath.random_unit_rationals": "exactmath.lemma1_s",
    "exactmath.verify_lemma1_inequality": "exactmath.lemma1_s",
    "exactmath.lemma1_quantities": "exactmath.lemma1_s",
    "exactmath.verify_appendix_inequality": "exactmath.appendix_s",
    "exactmath.verify_w_identities": "exactmath.wident_s",
    "oracle.phase_average_oracle": "oracle.phase_average_s",
    "oracle.characteristic_check": "oracle.characteristic_s",
    "oracle.maximize_over_product_states": "oracle.product_max_s",
    "oracle.max_sampled_product_value": "oracle.product_sample_s",
}
#: Metric of a top-level span: a CLI command's own work, or the
#: benchmark's glue around a library cell.
ROOT_BUCKETS = {"cli": "cli.self_s", "cell": "bench.self_s"}


def _max_bits(sol) -> int:
    values = (sol.t, *sol.weights, *sol.dual)
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


#: Counters observed from a call's arguments and result.  Permutation and
#: Pauli-string counts are computed from the qubit count, not measured.
COUNTERS = {
    "lpsolve.build_problem": lambda a, r: {"lpsolve.columns": len(r.columns)},
    "lpsolve.solve": lambda a, r: {"lpsolve.solves": 1, "lpsolve.pivots": len(r.pivots)},
    "lpsolve.verify_solution": lambda a, r: {"lpsolve.certify_calls": 1, "lpsolve.certified": int(r)},
    "partitions.enumerate_partitions": lambda a, r: {"partitions.enumerated": len(r)},
    "partitions.profile": lambda a, r: {"partitions.profile_calls": 1},
    "exactmath.verify_lemma1_inequality": lambda a, r: {
        "exactmath.lemma1_samples": 1, "exactmath.lemma1_tight": int(r.tight)},
    "exactmath.verify_appendix_inequality": lambda a, r: {"exactmath.appendix_checked": r.checked},
    "exactmath.verify_w_identities": lambda a, r: {"exactmath.wident_records": len(r)},
    "oracle.phase_average_oracle": lambda a, r: {
        "oracle.phase_average_calls": 1, "oracle.permutations": math.factorial(a[0].n)},
    "oracle.characteristic_check": lambda a, r: {"oracle.pauli_strings": 4 ** a[0]},
}
MAXIMA = {"lpsolve.solve": ("lpsolve.max_bits", lambda a, r: _max_bits(r))}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation overruns its timeout."""


def _on_alarm(signum, frame):
    raise OpTimeout


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.maxima = {}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts, maxima = self.counts, self.maxima
        count = COUNTERS.get(name)
        peak_key, peak = MAXIMA.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count:
                counts.update(count(args, result))
            if peak:
                maxima[peak_key] = max(maxima.get(peak_key, 0), peak(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        span = [name, 0.0, 0.0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def summary(self) -> dict:
        """Self time per layer metric and per function, plus counters."""
        n = len(self.spans)
        child = [0.0] * n
        bucket = [""] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                bucket[i] = BUCKETS.get(name, bucket[parent])
            else:
                module = name.split(".")[0]
                bucket[i] = BUCKETS.get(name) or ROOT_BUCKETS.get(module, module + ".other_s")
        layers = defaultdict(float)
        functions = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child[i]
            layers[bucket[i]] += own
            functions[name][0] += 1
            functions[name][1] += own
        return {
            "layers": dict(layers),
            "counts": {**self.counts, **self.maxima},
            "functions": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(functions.items())},
            "spans": n,
        }

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def install(tracer: Tracer) -> list:
    """Replace every public library function by its traced wrapper, in its
    own module and wherever another ghzsep module imported it by name.
    Returns what to restore."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ghzsep.{layer}")
        for attr, fn in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for name, module in list(sys.modules.items()):
        if name != "ghzsep" and not name.startswith("ghzsep."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, value in patched:
        setattr(module, attr, value)


def run_cli(argv) -> dict:
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=list(argv), prog_name="ghzsep", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            code = exc.exit_code
    return {"code": code, "stdout": out.getvalue()}


def run_cell(n: int, k: int) -> dict:
    """build -> solve -> certify -> pad one LP cell through the library."""
    prob = lpsolve.build_problem(n, k)
    sol = lpsolve.solve(prob)
    certified = lpsolve.verify_solution(prob, sol)
    pad = symstate.pad_to_isotropic(lpsolve.mixed_state(sol))
    shown = {
        "n": n, "k": k, "tau": str(sol.tau), "p_s": str(sol.p_s),
        "weights": [[list(p.parts), str(w)] for p, w in zip(sol.partitions, sol.weights) if w > 0],
        "binding": list(sol.binding),
    }
    return {
        "code": 0,
        "tau": str(sol.tau),
        "certified": certified,
        "pad_matches": pad.p_s == sol.p_s,
        "sha256": hashlib.sha256(json.dumps(shown, sort_keys=True).encode()).hexdigest(),
    }


def execute(op: dict, timeout: float, tracer: Tracer | None) -> dict:
    root_name = "cli." + op["argv"][0] if op["kind"] == "cli" else "cell"
    span = tracer.root(root_name) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with span:
            outcome = run_cli(op["argv"]) if op["kind"] == "cli" else run_cell(*op["cell"])
    except OpTimeout:
        outcome = {"code": "timeout"}
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        outcome = {"code": f"error: {exc!r}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    outcome["wall"] = time.perf_counter() - start
    return outcome


def run_pass(ops, traced: bool, hard_deadline: float, op_timeout: float):
    tracer = Tracer() if traced else None
    patched = install(tracer) if traced else []
    results = []
    try:
        start = time.perf_counter()
        for op in ops:
            remaining = hard_deadline - time.perf_counter()
            if remaining <= 0:
                results.append({"code": "timeout", "wall": 0.0})
            else:
                results.append(execute(op, min(op_timeout, remaining), tracer))
        wall = time.perf_counter() - start
    finally:
        uninstall(patched)
    record = {"traced": traced, "wall": wall, "ops": results}
    if tracer:
        record.update(tracer.summary())
    return record, tracer


def main() -> int:
    if not Path(ghzsep.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"ghzsep was imported from {ghzsep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    request = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    hard_deadline = start + request["hard_s"]
    for op in request["warmup"]:
        execute(op, request["op_timeout"], None)
    start = time.perf_counter()
    trace = request["trace"]
    walls = []
    last_tracer = None
    while True:
        traced = trace and len(walls) % 2 == 1
        record, tracer = run_pass(request["ops"], traced, hard_deadline, request["op_timeout"])
        last_tracer = tracer or last_tracer
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()
        walls.append(record["wall"])
        now = time.perf_counter()
        if now >= hard_deadline:
            break
        if trace and len(walls) % 2 == 1:
            continue  # finish the untraced/traced pair
        if now - start + 0.5 * statistics.median(walls) >= request["seconds"]:
            break
    if last_tracer and request.get("trace_file"):
        last_tracer.write(Path(request["trace_file"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

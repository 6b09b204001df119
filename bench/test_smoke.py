"""Smoke test of the benchmark itself: every workload at minimal size.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_expectation_counts_as_failure(workload):
    reference = run.load_reference()
    args = run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0",
                           "--trace", "0", "--scale", "smoke"])
    victim = run.workload_ops(workload, "smoke", 5)[0]["id"]
    wrong = dict(reference[victim], sha256="0" * 64)
    if "tau" in wrong:
        wrong["tau"] = "1/7"
    result = run.run(args, {**reference, victim: wrong})
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_table_row_must_match_lp_tau():
    ops = [op for op in run.workload_ops("lp", "smoke", 5) if op["kind"] == "cli"]
    outcomes = [run.run_cli_process(op["argv"], run.OP_TIMEOUT_S) for op in ops]
    reasons = {i: run.check(op, out, run.load_reference()) for i, (op, out) in enumerate(zip(ops, outcomes))}
    assert not any(reasons.values())
    assert run.cross_check(ops, outcomes, reasons) == {}
    lp = next(i for i, op in enumerate(ops) if op["argv"][0] == "lp")
    outcomes[lp]["stdout"] = outcomes[lp]["stdout"].replace('"tau": "', '"tau": "9')
    table = next(i for i, op in enumerate(ops) if op["argv"][0] == "table1")
    assert table in run.cross_check(ops, outcomes, reasons)

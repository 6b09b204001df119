#!/usr/bin/env python3
"""Write bench/reference.json: the expected output of every operation the
benchmark can run, at both scales and for every verify seed.

Run it from the repository root, only on the commit whose outputs are the
reference:

    python3 bench/capture_reference.py

CLI commands are recorded by the SHA-256 and length of their stdout;
library cells by tau and the SHA-256 of the solution they show.  Every
command must exit 0 and every cell must certify.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    ops = {"--help": run.cli_op(["--help"], "setup_s")}
    for workload in run.WORKLOADS:
        for scale in run.SCALES:
            for seed in range(run.SEED_POOL):
                ops.update((op["id"], op) for op in run.workload_ops(workload, scale, seed))
    reference = {}
    cells = [op for op in ops.values() if op["kind"] == "lib"]
    (cell_pass,) = run.run_worker(cells, [], 0, False, hard_s=3600)
    for op, out in zip(cells, cell_pass["ops"]):
        if out["code"] != 0 or not out["certified"] or not out["pad_matches"]:
            raise SystemExit(f"{op['id']}: {out}")
        reference[op["id"]] = {"tau": out["tau"], "sha256": out["sha256"]}
    for op_id, op in sorted(ops.items()):
        if op["kind"] != "cli":
            continue
        out = run.run_cli_process(op["argv"], timeout=600)
        if out["code"] != 0:
            raise SystemExit(f"{op_id}: exit {out['code']}\n{out.get('stderr', '')}")
        reference[op_id] = {"sha256": run.sha256(out["stdout"]), "bytes": len(out["stdout"])}
        print(f"{out['wall']:8.3f} s  {op_id}", file=sys.stderr)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

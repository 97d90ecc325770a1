#!/usr/bin/env python3
"""Regenerate golden.json from the code in this checkout's src/.

    python3 perfbench/capture_golden.py

Runs every op of every workload once at the default seed and stores what
ops.check compares against: the sha256 of each dataset op's output bytes
and the verdict record (exit code, verdict, timing-free engine reports)
of each verify and library op. Only run it on a commit whose outputs are
trusted; afterwards every benchmark run is checked against this file.
"""

from __future__ import annotations

import json

from ops import DEFAULT_SEED, WORKLOADS, run_op, workload_ops
from run import GOLDEN, WORK, load_package


def main() -> None:
    nihoperm, modules = load_package()
    WORK.mkdir(exist_ok=True)
    golden = {}
    for workload in WORKLOADS:
        for op in workload_ops(workload, DEFAULT_SEED):
            result = run_op(op, nihoperm, modules["cli"], WORK, {}, False)
            if result.error is not None:
                raise SystemExit(f"{op.name} failed:\n{result.error}")
            golden[op.name] = result.record
            print(f"{op.name}: {result.seconds:.3f} s")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

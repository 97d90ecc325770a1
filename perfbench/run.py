#!/usr/bin/env python3
"""nihoperm benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {sweep,verify,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. Each pass runs the workload's
op list once in this process (see ops.py).

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters), ``wall_ref`` and peak RSS. It runs one pass, then runs the
ops again in order, each while its fastest time so far still fits in
``--seconds``. A fixed pure-Python reference loop is timed before the first
op and after every op. ``wall_ref`` is the op list's time in units of that
loop: per op, the least over its samples of op seconds ÷ the mean of the
reference times just before and after it, summed over the ops. ``--trace 1``
alternates untraced and traced passes while another pair fits in
``--seconds`` (there is always one), and reports the per-layer metrics of
the first traced pass (layers.py) and the tracing overhead; its spans are
written to ``perfbench/_work/spans-<workload>.jsonl``.

Before the result, one ``{"meta": ...}`` line carries run facts and
per-op times. The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from ops import DEFAULT_SEED, DETAIL, WORKLOADS, needs_golden, run_op, workload_ops  # noqa: E402
from tracing import Tracer, wrapped  # noqa: E402

#: fresh interpreters timed for setup_s, after one untimed warm-up
SETUP_PROCESSES = 9

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import nihoperm
tower = nihoperm.make_tower(10)
assert tower.field.exp_log is not None
print(time.perf_counter() - t0)
"""

MODULES = ("field", "tower", "_kernels", "niho", "permcheck", "survey", "loweq", "cli")

#: iterations of the reference loop; about 0.15 s on the host the README names
REFERENCE_ITERS = 80_000


def load_package():
    """Import nihoperm from this checkout's src/; exit non-zero without it."""
    if not (SRC / "nihoperm" / "__init__.py").is_file():
        sys.exit(f"error: no nihoperm package under {SRC}")
    sys.path.insert(0, str(SRC))
    nihoperm = importlib.import_module("nihoperm")
    if Path(nihoperm.__file__).resolve().parent != SRC / "nihoperm":
        sys.exit(f"error: imported nihoperm from {nihoperm.__file__}, not {SRC}")
    modules = {"": nihoperm}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"nihoperm.{name}")
        except ModuleNotFoundError:
            pass  # reported as absent targets by the traced run
    return nihoperm, modules


def setup_seconds() -> float:
    """Median over fresh interpreters of import + make_tower(10) + tables."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(SETUP_PROCESSES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        if i:  # the first one only warms the bytecode and file caches
            times.append(float(out.stdout.strip()))
    return statistics.median(times)


def run_pass(ops, nihoperm, cli, golden, seed, tracer=None):
    gc.collect()
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        results.append(run_op(op, nihoperm, cli, WORK, golden, needs_golden(op, seed)))
    return results


def reference_seconds() -> float:
    """Time a fixed pure-Python loop of carry-less 16-bit multiplies. It
    shares no code with nihoperm, so it reads only the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, REFERENCE_ITERS):
        a, b, prod = i, (i * 2654435761) & 0xFFFF, 0
        while b:
            if b & 1:
                prod ^= a
            a <<= 1
            b >>= 1
        acc ^= prod
    return time.perf_counter() - t0


def sample_ops(ops, seconds, nihoperm, cli, golden, seed):
    """(results, ratios): every op once, then the ops again in order, each
    while its fastest time so far still fits before the deadline. ratios maps
    each op to its samples' seconds ÷ the mean reference time around them.

    Other tenants of the host slow every op by 10-100 % in phases of seconds
    to minutes. The reference loop runs beside each op and slows with it, so
    the ratio cancels most of that; the least ratio per op is the steadiest."""
    deadline = time.perf_counter() + seconds
    results, best, ratios = [], {}, {}
    refs = [reference_seconds()]

    def run(op):
        gc.collect()
        r = run_op(op, nihoperm, cli, WORK, golden, needs_golden(op, seed))
        refs.append(reference_seconds())
        results.append(r)
        best[op.name] = min(best.get(op.name, r.seconds), r.seconds)
        ratios.setdefault(op.name, []).append(r.seconds / ((refs[-2] + refs[-1]) / 2))

    for op in ops:
        run(op)
    ran = True
    while ran:
        ran = False
        for op in ops:
            if time.perf_counter() + best[op.name] + refs[-1] <= deadline:
                run(op)
                ran = True
    return results, ratios


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def run_facts() -> dict:
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in src_files:
        digest.update(f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": has_numba,
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def op_samples(results) -> dict[str, list[float]]:
    by_op: dict[str, list[float]] = {}
    for r in results:
        by_op.setdefault(r.op.name, []).append(r.seconds)
    return by_op


def detail(workload: str, by_op: dict[str, list[float]]) -> dict:
    """The workload's DETAIL figures, each with its sample count."""
    out = {}
    for name, (work, prefixes) in DETAIL[workload].items():
        names = [op for op in by_op if op.startswith(prefixes)]
        samples = [t for op in names for t in by_op[op]]
        if work is None:
            value = statistics.median(samples)
        else:
            value = work / sum(statistics.median(by_op[op]) for op in names)
        out[name] = {"value": value, "samples": len(samples)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nihoperm, modules = load_package()
    cli = modules["cli"]
    golden = json.loads(GOLDEN.read_text())
    WORK.mkdir(exist_ok=True)
    ops = workload_ops(args.workload, args.seed)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **run_facts()}

    if args.trace:
        start = time.perf_counter()
        plain, traced, spans, absent = [], [], [], []
        while True:
            t0 = time.perf_counter()
            plain.append(run_pass(ops, nihoperm, cli, golden, args.seed))
            tracer = Tracer()
            with wrapped(tracer, modules, layers.TARGETS) as absent:
                traced.append(run_pass(ops, nihoperm, cli, golden, args.seed, tracer))
            spans = spans or tracer.spans
            round_s = time.perf_counter() - t0
            if time.perf_counter() - start + round_s > args.seconds:
                break
        samples = [r for results in plain for r in results]
        every = samples + [r for results in traced for r in results]
    else:
        setup = setup_seconds()
        samples, ratios = sample_ops(ops, args.seconds, nihoperm, cli, golden, args.seed)
        every = samples

    failed = [r for r in every if r.error is not None]
    for r in failed:
        print(f"FAILED {r.op.name}: {r.error}", file=sys.stderr)
    by_op = op_samples(samples)
    meta.update(
        ops_per_pass=len(ops), fail_frac=len(failed) / len(every),
        detail=detail(args.workload, by_op),
        op_samples={op: len(v) for op, v in by_op.items()},
        op_min_s={op: min(v) for op, v in by_op.items()},
        op_median_s={op: statistics.median(v) for op, v in by_op.items()},
    )

    if args.trace:
        walls = [pass_wall(results) for results in plain]
        overhead = statistics.median(map(pass_wall, traced)) / statistics.median(walls) - 1
        metrics = {name: {"value": value, "unit": layers.METRICS[name]}
                   for name, value in layers.layer_metrics(spans, overhead).items()}
        meta["absent_targets"] = absent
        with open(WORK / f"spans-{args.workload}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    else:
        meta["wall_s"] = sum(min(v) for v in by_op.values())
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_ref": {"value": sum(min(v) for v in ratios.values()), "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failed, "attempted": len(every),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

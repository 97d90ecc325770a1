"""The three workloads as op lists, how one op runs, and how its output is
checked.

An op is one user-facing command, run in-process through
``nihoperm.cli.main([..., "--format", "json", "--out", path])``, or one call
through names in ``nihoperm.__all__``. No op passes ``--threads``.

Checks, per op kind:

* dataset ops (search, table1, open1/open2, lemmas) must exit 0 and write
  bytes whose sha256 equals the golden digest;
* verify ops must exit 0 on a permutation pair and 1 otherwise, both engine
  reports must agree with the verdict, and where a golden record exists the
  verdict, exit code and canonical counterexamples must equal it. Fixed ops
  always have one; seeded ops have one for the default seed only;
* the library op must return the golden verdict record.

A mismatch, an exception or an unexpected exit code fails the op.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0

#: m of the seeded verify pairs, and how many are drawn per workload seed
SEEDED_M = 10
SEEDED_PAIRS = 3

WORKLOADS = ("sweep", "verify", "certify")


@dataclass(frozen=True)
class Op:
    name: str  # unique within a workload; also the golden key
    kind: str  # "dataset", "verify" or "library"
    argv: tuple[str, ...] = ()  # CLI arguments before --format/--out
    call: Optional[Callable[[object], object]] = None  # library ops: nihoperm -> result
    seeded: bool = False


@dataclass
class OpResult:
    op: Op
    seconds: float
    error: Optional[str]  # None when every check passed
    record: object = None  # what the golden file stores for this op


def _cli(kind: str, *argv: str, seeded: bool = False) -> Op:
    return Op("_".join(a.lstrip("-") for a in argv), kind, tuple(argv), seeded=seeded)


def _unit_circle_m12(nihoperm):
    tower = nihoperm.make_tower(12)
    return nihoperm.unit_circle_check(tower, nihoperm.NihoPair(12, 2, -1))


def seeded_pairs(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    top = (1 << SEEDED_M) + 1
    pairs = []
    while len(pairs) < SEEDED_PAIRS:
        s, t = sorted((rng.randrange(top), rng.randrange(top)))
        if (s, t) not in pairs:
            pairs.append((s, t))
    return pairs


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload == "sweep":
        return [
            _cli("dataset", "search", "--m", "6"),
            _cli("dataset", "table1", "--m", "7"),
            _cli("dataset", "open1", "--m", "10"),
            _cli("dataset", "open1", "--m", "9"),
            _cli("dataset", "open2", "--m", "9"),
        ]
    if workload == "verify":
        seeded = [
            _cli("verify", "verify", "--m", str(SEEDED_M), "--pair", f"{s},{t}", seeded=True)
            for s, t in seeded_pairs(seed)
        ]
        return seeded + [
            _cli("verify", "verify", "--m", "10", "--pair", "2,-1"),
            _cli("verify", "verify", "--m", "10", "--pair", "3,-1"),
            _cli("verify", "verify", "--m", "11", "--pair", "3,5"),
            Op("unit_circle_check_m12_2_-1", "library", call=_unit_circle_m12),
        ]
    if workload == "certify":
        return [
            _cli("dataset", "lemmas", "--which", "eq4", "--m", "8"),
            _cli("dataset", "lemmas", "--which", "eq6", "--m", "8"),
            _cli("dataset", "lemmas", "--which", "eq8", "--m", "8"),
            _cli("dataset", "lemmas", "--which", "eq8", "--m", "7"),
            _cli("dataset", "lemmas", "--which", "lemma1", "--m", "10"),
            _cli("dataset", "lemmas", "--which", "lemma2", "--n", "12"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: per workload, the figures it was chosen to answer, computed from
#: per-op medians: name -> (work units, op-name prefixes). With work units
#: the figure is work / (sum of the matching ops' median seconds); without,
#: it is the median latency over every sample of the matching ops.
#: 2145 = unordered pairs at m=6; 2^m+1 = points per open scan at m;
#: 894 = sum of the "checked" fields of the four golden quartic reports;
#: (2^12-1)*2^12 = (a, b) cases of lemma2 at n=12.
DETAIL = {
    "sweep": {
        "search_pairs_per_s": (2145, ("search_m_6",)),
        "scan_pairs_per_s": (1025 + 2 * 513, ("open1_m_", "open2_m_")),
        "table1_s": (None, ("table1_m_7",)),
    },
    "verify": {
        "verify_m10_s": (None, ("verify_m_10_",)),
        "verify_m11_s": (None, ("verify_m_11_",)),
        "unit_circle_m12_s": (None, ("unit_circle_check_m12",)),
    },
    "certify": {
        "lemma_points_per_s": (894, ("lemmas_which_eq",)),
        "lemma2_cases_per_s": (((1 << 12) - 1) << 12, ("lemmas_which_lemma2_n_12",)),
    },
}


def verdict_record(exit_code: Optional[int], payload: dict) -> dict:
    """The timing-free part of a verify payload or a PermReport dict."""
    reports = payload.get("reports", [payload])
    return {
        "exit": exit_code,
        "is_permutation": payload["is_permutation"],
        "reports": [
            {k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports
        ],
    }


def check(op: Op, exit_code: Optional[int], output: object, golden: dict,
          golden_required: bool) -> tuple[Optional[str], object]:
    """(error or None, record) for one op's exit code and output. A missing
    golden record is an error only when ``golden_required``."""
    want = golden.get(op.name)
    if op.kind == "dataset":
        record = hashlib.sha256(output).hexdigest()
        if exit_code != 0:
            return f"exit code {exit_code}, expected 0", record
    else:
        payload = json.loads(output) if op.kind == "verify" else output
        record = verdict_record(exit_code, payload)
        verdicts = {r["is_permutation"] for r in record["reports"]}
        if verdicts != {record["is_permutation"]}:
            return f"engines disagree: {sorted(verdicts)}", record
        if op.kind == "verify" and exit_code != (0 if record["is_permutation"] else 1):
            return f"exit code {exit_code} does not match the verdict", record
    if want is None:
        return ("no golden record" if golden_required else None), record
    if record != want:
        return f"output differs from golden: {record!r} != {want!r}", record
    return None, record


def needs_golden(op: Op, seed: int) -> bool:
    return not op.seeded or seed == DEFAULT_SEED


def run_op(op: Op, nihoperm, cli, work_dir: Path, golden: dict,
           golden_required: bool) -> OpResult:
    """Run and time one op, then check it. ``cli.main`` is looked up per call
    so that a wrapper installed on it is seen."""
    try:
        if op.kind == "library":
            t0 = time.perf_counter()
            report = op.call(nihoperm)
            seconds = time.perf_counter() - t0
            exit_code, output = None, report.to_json_dict()
        else:
            out = work_dir / f"{op.name}.json"
            out.unlink(missing_ok=True)
            argv = [*op.argv, "--format", "json", "--out", str(out)]
            t0 = time.perf_counter()
            exit_code = cli.main(argv)
            seconds = time.perf_counter() - t0
            output = out.read_bytes()
        error, record = check(op, exit_code, output, golden, golden_required)
    except (Exception, SystemExit):  # an op that raises is a failed op
        return OpResult(op, 0.0, traceback.format_exc(limit=3))
    return OpResult(op, seconds, error, record)

"""Tests for the benchmark's own code (not for nihoperm).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from ops import Op, check, run_op  # noqa: E402
from tracing import Span, Target, Tracer, self_times, wrapped  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; c holds an
    # e [8, 12] that overruns its parent and is clipped to it.
    spans = [
        Span("a", "op", 0.0, 10.0),
        Span("b", "op", 1.0, 4.0, parent=0),
        Span("d", "op", 2.0, 3.0, parent=1),
        Span("c", "op", 5.0, 9.0, parent=0),
        Span("e", "op", 8.0, 12.0, parent=3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_self_time_merges_overlapping_children():
    spans = [
        Span("a", "op", 0.0, 10.0),
        Span("b", "op", 1.0, 5.0, parent=0),
        Span("c", "op", 3.0, 7.0, parent=0),
    ]
    assert self_times(spans)[0] == 4.0


def test_tracer_records_parent_and_recursion():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = "x"
    outer = tracer.open("f")
    inner = tracer.open("f")
    tracer.close(inner)
    tracer.close(outer)
    a, b = tracer.spans
    assert (a.parent, a.nested, b.parent, b.nested) == (-1, False, 0, True)
    assert (a.duration, b.duration, b.op) == (3.0, 1.0, "x")


def _fake_package():
    home = types.ModuleType("home")
    home.work = lambda n: list(range(n))
    caller = types.ModuleType("caller")
    caller.work = home.work  # as after "from .home import work"
    caller.run = lambda n: caller.work(n)
    return {"home": home, "caller": caller}


def test_wrapper_sees_rebound_names_and_restores_them():
    modules = _fake_package()
    original = modules["home"].work
    tracer = Tracer()
    target = Target("home", "work", lambda a, k, r: {"items": len(r)})
    with wrapped(tracer, modules, [target]) as absent:
        assert modules["caller"].run(3) == [0, 1, 2]
    assert absent == []
    assert [(s.name, s.counts) for s in tracer.spans] == [("home.work", {"items": 3})]
    assert modules["home"].work is original and modules["caller"].work is original


def test_missing_target_is_reported_absent():
    modules = _fake_package()
    targets = [Target("home", "gone"), Target("nomodule", "work"), Target("home", "work")]
    tracer = Tracer()
    with wrapped(tracer, modules, targets) as absent:
        modules["home"].work(1)
    assert absent == ["home.gone", "nomodule.work"]
    assert len(tracer.spans) == 1


def _fake_cli(payload: bytes, exit_code: int = 0):
    cli = types.ModuleType("cli")

    def main(argv):
        Path(argv[argv.index("--out") + 1]).write_bytes(payload)
        return exit_code

    cli.main = main
    return cli


DATASET = Op("search_m_2", "dataset", ("search", "--m", "2"))


def test_wrong_golden_digest_fails_the_op(tmp_path):
    good = hashlib.sha256(b"rows").hexdigest()
    ok = run_op(DATASET, None, _fake_cli(b"rows"), tmp_path, {DATASET.name: good}, True)
    assert ok.error is None and ok.record == good
    bad = run_op(DATASET, None, _fake_cli(b"rows"), tmp_path, {DATASET.name: "0" * 64}, True)
    assert bad.error is not None and "golden" in bad.error


def test_missing_golden_fails_only_when_required(tmp_path):
    cli = _fake_cli(b"rows")
    assert run_op(DATASET, None, cli, tmp_path, {}, True).error == "no golden record"
    assert run_op(DATASET, None, cli, tmp_path, {}, False).error is None


def test_exit_code_and_exceptions_fail_the_op(tmp_path):
    digest = {DATASET.name: hashlib.sha256(b"rows").hexdigest()}
    assert run_op(DATASET, None, _fake_cli(b"rows", 2), tmp_path, digest, True).error
    broken = types.ModuleType("cli")
    broken.main = lambda argv: 1 / 0
    result = run_op(DATASET, None, broken, tmp_path, digest, True)
    assert "ZeroDivisionError" in result.error


def _verify_payload(verdicts, is_pp):
    return json.dumps({
        "is_permutation": is_pp,
        "reports": [{"method": m, "is_permutation": v, "counterexample": None,
                     "elapsed_ms": 1.5} for m, v in verdicts],
    }).encode()


VERIFY = Op("verify_m_4_pair_1,2", "verify", ("verify", "--m", "4", "--pair", "1,2"))


@pytest.mark.parametrize("verdicts,is_pp,exit_code,ok", [
    ([("unit_circle", True), ("exhaustive", True)], True, 0, True),
    ([("unit_circle", False), ("exhaustive", False)], False, 1, True),
    ([("unit_circle", False), ("exhaustive", False)], False, 0, False),
    ([("unit_circle", True), ("exhaustive", False)], False, 1, False),
])
def test_verify_without_golden_checks_agreement_and_exit(verdicts, is_pp, exit_code, ok):
    payload = _verify_payload(verdicts, is_pp)
    error, record = check(VERIFY, exit_code, payload, {}, golden_required=False)
    assert (error is None) == ok
    assert "elapsed_ms" not in json.dumps(record)


def test_verify_golden_record_mismatch_fails():
    payload = _verify_payload([("unit_circle", True), ("exhaustive", True)], True)
    _, record = check(VERIFY, 0, payload, {}, golden_required=False)
    assert check(VERIFY, 0, payload, {VERIFY.name: record}, True)[0] is None
    stale = dict(record, exit=1)
    assert check(VERIFY, 0, payload, {VERIFY.name: stale}, True)[0] is not None


def test_layer_metrics_cover_the_declared_list():
    spans = [
        Span("cli.main", "op", 0.0, 2.0, counts={"out_bytes": 10}),
        Span("permcheck.is_permutation_exhaustive", "op", 0.5, 1.5, parent=0,
             counts={"n": 20, "evals": 100}),
        Span("permcheck.unit_circle_check", "op", 1.5, 1.75, parent=0,
             counts={"evals": 3, "domain": 12}),
    ]
    metrics = layers.layer_metrics(spans, overhead_frac=0.02)
    assert list(metrics) == list(layers.METRICS)
    assert metrics["cli.self_s"] == 0.75
    assert metrics["permcheck.exhaustive_evals_per_s.n20"] == 100.0
    assert metrics["permcheck.unit_circle_eval_frac"] == 0.25
    assert metrics["permcheck.exhaustive_calls.n22"] == 0


def test_benchmark_json_lists_the_reported_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


def test_sample_ops_runs_every_op_then_each_while_it_fits(tmp_path, monkeypatch):
    import ops as ops_module
    import run

    clock = types.SimpleNamespace(now=0.0)
    clock.perf_counter = lambda: clock.now
    for module in (run, ops_module):
        monkeypatch.setattr(module, "time", clock)
    monkeypatch.setattr(run, "WORK", tmp_path)

    def reference():
        clock.now += 0.0625
        return 0.0625

    monkeypatch.setattr(run, "reference_seconds", reference)
    cost = {"search": 0.125, "open1": 0.5}
    cli = types.ModuleType("cli")

    def main(argv):
        clock.now += cost[argv[0]]
        Path(argv[argv.index("--out") + 1]).write_bytes(b"rows")
        return 0

    cli.main = main
    short = Op("short", "dataset", ("search",))
    long_ = Op("long", "dataset", ("open1",))
    digest = hashlib.sha256(b"rows").hexdigest()
    results, ratios = run.sample_ops([short, long_], 1.1875, None, cli,
                                     {"short": digest, "long": digest}, seed=0)
    assert [r.op.name for r in results] == ["short", "long", "short", "short"]
    assert all(r.error is None for r in results) and clock.now == 1.1875
    assert ratios == {"short": [2.0, 2.0, 2.0], "long": [8.0]}

"""Which nihoperm functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every metric is a total over one pass of a workload's op list. Times are
inclusive seconds unless the name says ``self``; a span nested inside a
span of the same name is not counted twice.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracing import Span, Target, self_times


def _out_bytes(args, kwargs, result):
    argv = list(args[0])
    if "--out" not in argv:
        return {}
    path = argv[argv.index("--out") + 1]
    return {"out_bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _pow_vec(args, kwargs, result):
    x, e, n = args[0], int(args[1]), int(args[2])
    mults = bin(e).count("1") + e.bit_length() - 1 if e > 0 else 0
    return {"elems": x.size, "steps": x.size * mults * n}


def _mul_vec(args, kwargs, result):
    a, n = args[0], int(args[2])
    return {"elems": a.size, "steps": a.size * n}


TARGETS = [
    Target("field", "make_field"),
    Target("tower", "make_tower"),
    Target("tower", "cayley_is_bijection"),
    Target("_kernels", "exp_table", lambda a, k, r: {"table_bytes": 16 << int(a[0])}),
    Target("_kernels", "pow_vec", _pow_vec),
    Target("_kernels", "mul_vec", _mul_vec),
    Target("niho", "equivalent_pairs"),
    Target("niho", "known_pairs_table1"),
    Target("permcheck", "unit_circle_check",
           lambda a, k, r: {"evals": r.evaluations, "domain": a[0].unit_circle_order}),
    Target("permcheck", "is_permutation_exhaustive",
           lambda a, k, r: {"n": a[0].n, "evals": r.evaluations}),
    Target("survey", "search_pairs", lambda a, k, r: {"orbits": len(r)}),
    Target("survey", "canonical_orbit"),
    Target("survey", "known_cover_map"),
    Target("survey", "scan_open_problem_1"),
    Target("survey", "scan_open_problem_2"),
    Target("survey", "rows_to_json", lambda a, k, r: {"bytes": len(r)}),
    Target("survey", "rows_to_csv", lambda a, k, r: {"bytes": len(r)}),
    Target("loweq", "verify_lemma_quartics", lambda a, k, r: {"points": r.checked}),
    Target("loweq", "quartic_roots_brute"),
    Target("loweq", "quartic_no_root_lw"),
    Target("loweq", "cubic_roots_subfield"),
    Target("loweq", "lemma_quartic_coeffs"),
    Target("loweq", "quadratic_criterion_disagreements"),
    Target("cli", "main", _out_bytes),
]

#: exhaustive-engine metrics are split by field degree; these are the
#: degrees the workloads run (n=20 with tables, n=22 bit-serial).
EXHAUSTIVE_N = (20, 22)

#: per-layer metric name -> unit, in report order
METRICS: dict[str, str] = {
    "field.make_field_calls": "count",
    "field.make_field_s": "s",
    "field.table_bytes": "bytes",
    "tower.make_tower_calls": "count",
    "tower.cayley_is_bijection_s": "s",
    "kernels.exp_table_calls": "count",
    "kernels.exp_table_s": "s",
    "kernels.pow_vec_s": "s",
    "kernels.pow_vec_elems": "count",
    "kernels.mul_vec_s": "s",
    "kernels.mul_vec_elems": "count",
    "kernels.mul_steps": "count",
    "niho.equivalent_pairs_calls": "count",
    "niho.equivalent_pairs_s": "s",
    "niho.known_pairs_table1_s": "s",
    "permcheck.unit_circle_calls": "count",
    "permcheck.unit_circle_s": "s",
    "permcheck.unit_circle_evals": "count",
    "permcheck.unit_circle_eval_frac": "frac",
    **{
        f"permcheck.exhaustive_{what}.n{n}": unit
        for n in EXHAUSTIVE_N
        for what, unit in (("calls", "count"), ("s", "s"), ("evals", "count"),
                           ("evals_per_s", "1/s"))
    },
    "survey.search_pairs_s": "s",
    "survey.search_pairs_self_s": "s",
    "survey.canonical_orbit_calls": "count",
    "survey.canonical_orbit_s": "s",
    "survey.orbits": "count",
    "survey.known_cover_map_s": "s",
    "survey.scan_s": "s",
    "survey.scan_self_s": "s",
    "survey.emit_s": "s",
    "survey.emit_bytes": "bytes",
    "loweq.verify_lemma_quartics_s": "s",
    "loweq.lemma_self_s": "s",
    "loweq.points_checked": "count",
    "loweq.quartic_roots_brute_calls": "count",
    "loweq.quartic_roots_brute_s": "s",
    "loweq.quartic_no_root_lw_s": "s",
    "loweq.cubic_roots_subfield_s": "s",
    "loweq.lemma_quartic_coeffs_s": "s",
    "loweq.quadratic_criterion_s": "s",
    "cli.main_calls": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


class _Totals:
    """Per span name: call count, inclusive and self seconds, summed counts."""

    def __init__(self, spans: list[Span]):
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.self_secs = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.by_n = defaultdict(lambda: {"calls": 0, "s": 0.0, "evals": 0})
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] += 1
            self.self_secs[span.name] += own
            if not span.nested:
                self.secs[span.name] += span.duration
            for key, v in span.counts.items():
                self.counts[span.name][key] += v
            if span.name == "permcheck.is_permutation_exhaustive":
                n = span.counts["n"]
                self.by_n[n]["calls"] += 1
                self.by_n[n]["s"] += span.duration
                self.by_n[n]["evals"] += span.counts["evals"]


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every metric of :data:`METRICS` from one traced pass's spans."""
    t = _Totals(spans)
    uc = "permcheck.unit_circle_check"
    scans = ("survey.scan_open_problem_1", "survey.scan_open_problem_2")
    emits = ("survey.rows_to_json", "survey.rows_to_csv")
    out = {
        "field.make_field_calls": t.calls["field.make_field"],
        "field.make_field_s": t.secs["field.make_field"],
        "field.table_bytes": t.counts["_kernels.exp_table"]["table_bytes"],
        "tower.make_tower_calls": t.calls["tower.make_tower"],
        "tower.cayley_is_bijection_s": t.secs["tower.cayley_is_bijection"],
        "kernels.exp_table_calls": t.calls["_kernels.exp_table"],
        "kernels.exp_table_s": t.secs["_kernels.exp_table"],
        "kernels.pow_vec_s": t.secs["_kernels.pow_vec"],
        "kernels.pow_vec_elems": t.counts["_kernels.pow_vec"]["elems"],
        "kernels.mul_vec_s": t.secs["_kernels.mul_vec"],
        "kernels.mul_vec_elems": t.counts["_kernels.mul_vec"]["elems"],
        "kernels.mul_steps": (t.counts["_kernels.pow_vec"]["steps"]
                              + t.counts["_kernels.mul_vec"]["steps"]),
        "niho.equivalent_pairs_calls": t.calls["niho.equivalent_pairs"],
        "niho.equivalent_pairs_s": t.secs["niho.equivalent_pairs"],
        "niho.known_pairs_table1_s": t.secs["niho.known_pairs_table1"],
        "permcheck.unit_circle_calls": t.calls[uc],
        "permcheck.unit_circle_s": t.secs[uc],
        "permcheck.unit_circle_evals": t.counts[uc]["evals"],
        "permcheck.unit_circle_eval_frac": (
            t.counts[uc]["evals"] / t.counts[uc]["domain"] if t.counts[uc]["domain"] else 0.0
        ),
        "survey.search_pairs_s": t.secs["survey.search_pairs"],
        "survey.search_pairs_self_s": t.self_secs["survey.search_pairs"],
        "survey.canonical_orbit_calls": t.calls["survey.canonical_orbit"],
        "survey.canonical_orbit_s": t.secs["survey.canonical_orbit"],
        "survey.orbits": t.counts["survey.search_pairs"]["orbits"],
        "survey.known_cover_map_s": t.secs["survey.known_cover_map"],
        "survey.scan_s": sum(t.secs[s] for s in scans),
        "survey.scan_self_s": sum(t.self_secs[s] for s in scans),
        "survey.emit_s": sum(t.secs[s] for s in emits),
        "survey.emit_bytes": sum(t.counts[s]["bytes"] for s in emits),
        "loweq.verify_lemma_quartics_s": t.secs["loweq.verify_lemma_quartics"],
        "loweq.lemma_self_s": t.self_secs["loweq.verify_lemma_quartics"],
        "loweq.points_checked": t.counts["loweq.verify_lemma_quartics"]["points"],
        "loweq.quartic_roots_brute_calls": t.calls["loweq.quartic_roots_brute"],
        "loweq.quartic_roots_brute_s": t.secs["loweq.quartic_roots_brute"],
        "loweq.quartic_no_root_lw_s": t.secs["loweq.quartic_no_root_lw"],
        "loweq.cubic_roots_subfield_s": t.secs["loweq.cubic_roots_subfield"],
        "loweq.lemma_quartic_coeffs_s": t.secs["loweq.lemma_quartic_coeffs"],
        "loweq.quadratic_criterion_s": t.secs["loweq.quadratic_criterion_disagreements"],
        "cli.main_calls": t.calls["cli.main"],
        "cli.main_s": t.secs["cli.main"],
        "cli.self_s": t.self_secs["cli.main"],
        "cli.out_bytes": t.counts["cli.main"]["out_bytes"],
        "trace.overhead_frac": overhead_frac,
    }
    for n in EXHAUSTIVE_N:
        row = t.by_n[n]
        out[f"permcheck.exhaustive_calls.n{n}"] = row["calls"]
        out[f"permcheck.exhaustive_s.n{n}"] = row["s"]
        out[f"permcheck.exhaustive_evals.n{n}"] = row["evals"]
        out[f"permcheck.exhaustive_evals_per_s.n{n}"] = (
            row["evals"] / row["s"] if row["s"] else 0.0
        )
    return {name: out[name] for name in METRICS}

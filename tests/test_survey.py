"""Pair sweeps: orbits, classification, open-problem scans."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from nihoperm import field as gf
from nihoperm import niho
from nihoperm import permcheck as pc
from nihoperm import survey
from nihoperm import tower as tw
from nihoperm.errors import NihopermError
from nihoperm.niho import NihoPair

from oracles import canonical_orbit, sweep_rows, transforms


def test_orbit_of_origin_is_fixed():
    rep, orbit = canonical_orbit(3, NihoPair(3, 0, 0))
    assert rep == NihoPair(3, 0, 0)
    assert orbit == (NihoPair(3, 0, 0),)


def test_orbit_of_2_minus1_contains_third_fractions(tower4):
    m = 4
    _, orbit = canonical_orbit(m, NihoPair(m, 2, 1 << m))
    assert NihoPair(m, 1, niho.resolve_fraction(1, 3, m)) in orbit
    assert NihoPair(m, 1, niho.resolve_fraction(2, 3, m)) in orbit


def test_orbit_closure_under_transforms():
    # applying a transform to any member stays inside the orbit
    for m in (3, 4):
        for seed in (NihoPair(m, 2, -1), NihoPair(m, 3, 5), NihoPair(m, 1, 7)):
            _, orbit = canonical_orbit(m, seed)
            members = set(orbit)
            for p in orbit:
                for q in transforms(m, p):
                    assert q in members


@pytest.mark.parametrize("m", range(2, 8))
def test_orbit_labels_match_the_scalar_closure(m):
    # every pair: the array label names the scalar closure's representative,
    # and the sweep row of that label holds its sorted members
    s, t, label = survey.orbit_labels(m)
    assert (survey.pair_index(m, s, t) == np.arange(s.size)).all()
    rows = {r.pair: r for r in sweep_rows(survey.search_pairs(tw.make_tower(m)))}
    for i, (a, b) in enumerate(zip(s.tolist(), t.tolist())):
        rep, orbit = canonical_orbit(m, NihoPair(m, a, b))
        assert (s[label[i]], t[label[i]]) == (rep.s, rep.t)
        assert rows[rep].orbit == orbit
        assert (label == label[i]).sum() == len(orbit)


def test_flipped_orbit_member_trips_the_homogeneity_check(monkeypatch, tower4):
    _, _, label = survey.orbit_labels(4)
    member = np.flatnonzero(label != np.arange(label.size))[0]  # not its orbit's rep
    verdicts = survey.pair_verdicts

    def flipped(tower, s, t):
        pp = verdicts(tower, s, t)
        pp[member] = ~pp[member]
        return pp

    monkeypatch.setattr(survey, "pair_verdicts", flipped)
    with pytest.raises(AssertionError, match="not homogeneous"):
        survey.search_pairs(tower4)


def test_search_m2_finds_known_pair(tower2):
    rows = sweep_rows(survey.search_pairs(tower2))
    rep, orbit = canonical_orbit(2, NihoPair(2, 2, 4))
    row = next(r for r in rows if r.pair == rep)
    assert NihoPair(2, 2, 4) in orbit
    assert row.is_pp
    # at m=2 the orbits of (1,-1) and (2,-1) coincide, so either source tag
    # is a valid cover
    assert row.covered_by in ("2,-1", "k,-k [k=1]")
    assert not row.flagged_new


def test_search_m3_uncovered_condition_mismatch_row(tower3):
    # (1, -1/2) = (1, 4) at m=3: condition m % 3 != 0 fails, so the row is
    # not covered; the engine decides the verdict on its own
    rows = sweep_rows(survey.search_pairs(tower3))
    rep, _ = canonical_orbit(3, NihoPair(3, 1, 4))
    row = next(r for r in rows if r.pair == rep)
    assert row.covered_by is None
    assert row.is_pp is False  # frozen from both engines


def test_search_m4_covers_all_condition_ok_table_rows(tower4):
    rows = {r.pair: r for r in sweep_rows(survey.search_pairs(tower4))}
    for trow in niho.known_pairs_table1(4):
        if trow.pair is None or not trow.condition_ok:
            continue
        rep, _ = canonical_orbit(4, trow.pair)
        assert rows[rep].is_pp
        assert rows[rep].covered_by is not None


def test_search_rows_partition_the_sweep(tower3):
    rows = sweep_rows(survey.search_pairs(tower3))
    total = sum(len(r.orbit) for r in rows)
    assert total == 45  # C(10, 2) + 10 unordered pairs at m=3
    all_members = [p for r in rows for p in r.orbit]
    assert len(set(all_members)) == total


@pytest.mark.parametrize("m", [2, 3, 4])
def test_orbit_verdict_homogeneity(m):
    tower = tw.make_tower(m)
    for row in sweep_rows(survey.search_pairs(tower)):
        verdicts = {pc.unit_circle_check(tower, p).is_permutation for p in row.orbit}
        assert verdicts == {row.is_pp}


def test_flagged_new_semantics(tower3):
    for row in sweep_rows(survey.search_pairs(tower3)):
        if row.flagged_new:
            assert row.is_pp and row.covered_by is None and not row.degenerate
        if row.degenerate:
            assert not row.flagged_new


@pytest.mark.parametrize("m", [3, 4])
def test_coverage_soundness(m):
    # a covered_by tag always points at a table row whose condition holds
    tower = tw.make_tower(m)
    sources = {
        r.source: r for r in niho.known_pairs_table1(m) if r.condition_ok
    }
    for row in sweep_rows(survey.search_pairs(tower)):
        if row.covered_by is not None:
            assert row.covered_by in sources
            assert row.is_pp  # covered rows are known permutation pairs


def test_survey_agrees_with_exhaustive_engine_m2(tower2):
    # engine-independence: the unit-circle sweep and the full-field engine
    # find the same permutation pairs
    by_pair = {}
    for row in sweep_rows(survey.search_pairs(tower2)):
        for p in row.orbit:
            by_pair[p] = row.is_pp
    for s in range(5):
        for t in range(s, 5):
            pair = NihoPair(2, s, t)
            spec = niho.pair_to_trinomial(tower2, pair)
            brute = pc.is_permutation_exhaustive(tower2.field, spec).is_permutation
            assert by_pair[pair] == brute


def test_range_guard():
    cap = survey.SURVEY_MAX_M
    with pytest.raises(NihopermError, match=f"^pair survey capped at m={cap}, got m={cap + 1}$"):
        survey.search_pairs(tw.make_tower(cap + 1))


def test_line_scans_run_past_the_square_sweep_cap():
    # SURVEY_MAX_M bounds only search_pairs; (2,-1) and (0,0) always permute
    hits = survey.scan_open_problem_2(tw.make_tower(survey.SURVEY_MAX_M + 1))
    assert hits[:2] == [0, 1]


# ---------------------------------------------------------------------------
# open-problem scans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 9))
def test_line_scans_agree_with_verify_pairs(m):
    tower = tw.make_tower(m)
    for scan, pair_at in ((survey.scan_open_problem_1, lambda j: (j, 1 - j)),
                          (survey.scan_open_problem_2, lambda k: (2 * k, -k))):
        pairs = [NihoPair(m, *pair_at(j)) for j in range((1 << m) + 1)]
        assert scan(tower) == [j for j, p in enumerate(pairs)
                               if pc.unit_circle_check(tower, p).is_permutation]


def test_open1_m3_full_list(tower3):
    hits = survey.scan_open_problem_1(tower3)
    # independent recomputation with the exhaustive engine
    brute = []
    for s in range(9):
        pair = NihoPair(3, s, 1 - s)
        spec = niho.pair_to_trinomial(tower3, pair)
        if pc.is_permutation_exhaustive(tower3.field, spec).is_permutation:
            brute.append(s)
    assert hits == brute == [0, 1, 2, 5, 8]
    # s = 2 is the (1/5, 4/5) instance: 1/5 = 2 mod 9 and 1/5 + 4/5 = 1
    assert niho.resolve_fraction(1, 5, 3) == 2


def test_open1_even_m_contains_both_fraction_families(tower4):
    hits = survey.scan_open_problem_1(tower4)
    assert niho.resolve_fraction(-1, 3, 4) in hits  # -1/3 + 4/3 = 1
    assert niho.resolve_fraction(1, 5, 4) in hits   # 1/5 + 4/5 = 1


def test_open2_contains_k1_and_degenerate_k0():
    for m in (2, 3, 4):
        hits = survey.scan_open_problem_2(tw.make_tower(m))
        assert 0 in hits  # (0,0) collapses to the identity
        assert 1 in hits  # (2,-1) holds for every m


def test_open2_m4_matches_exhaustive(tower4):
    hits = survey.scan_open_problem_2(tower4)
    brute = []
    for k in range(17):
        spec = niho.pair_to_trinomial(tower4, NihoPair(4, 2 * k, -k))
        if pc.is_permutation_exhaustive(tower4.field, spec).is_permutation:
            brute.append(k)
    assert hits == brute


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_csv_emitter_shape(tower2):
    rows = survey.search_pairs(tower2)
    text = survey.rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "m,s,t,orbit_size,is_pp,covered_by,flagged_new,degenerate"
    assert len(lines) == len(rows) + 1


def test_emitters_deterministic_across_runs_and_moduli(tower3):
    base_csv = survey.rows_to_csv(survey.search_pairs(tower3))
    base_json = survey.rows_to_json(survey.search_pairs(tower3))
    # a rerun, then 0x49 (x^6+x^3+1) in place of the default 0x43
    for tower in (tower3, tw.make_tower(3, 0x49)):
        rows = survey.search_pairs(tower)
        assert survey.rows_to_csv(rows) == base_csv
        assert survey.rows_to_json(rows) == base_json


def _row_dicts(rows):
    return [
        {
            "m": r.m,
            "s": r.pair.s,
            "t": r.pair.t,
            "orbit": [[p.s, p.t] for p in r.orbit],
            "orbit_size": len(r.orbit),
            "is_pp": r.is_pp,
            "covered_by": r.covered_by,
            "flagged_new": r.flagged_new,
            "degenerate": r.degenerate,
        }
        for r in sweep_rows(rows)
    ]


def _csv_reference(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(survey.CSV_COLUMNS)
    for r in sweep_rows(rows):
        w.writerow([r.m, r.pair.s, r.pair.t, len(r.orbit), str(r.is_pp).lower(),
                    r.covered_by or "", str(r.flagged_new).lower(),
                    str(r.degenerate).lower()])
    return buf.getvalue()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_template_emitters_equal_the_library_encoders(m):
    rows = survey.search_pairs(tw.make_tower(m))
    assert survey.rows_to_json(rows) == json.dumps(_row_dicts(rows), indent=2)
    assert survey.rows_to_csv(rows) == _csv_reference(rows)


def test_template_emitters_escape_covered_by(tower4):
    rows = survey.search_pairs(tower4)
    odd = ('say "hi"', "back\\slash", "caf\u00e9 \u2211", "comma, and\nnewline", "tab\t")
    rows = dataclasses.replace(
        rows, sources=tuple(odd[i % len(odd)] for i in range(len(rows.sources)))
    )
    assert {r.covered_by for r in sweep_rows(rows)} >= set(odd)
    assert survey.rows_to_json(rows) == json.dumps(_row_dicts(rows), indent=2)
    assert survey.rows_to_csv(rows) == _csv_reference(rows)


@pytest.mark.parametrize("step", [1, 7, 1000])
def test_emitter_chunks_concatenate_to_the_whole(tower4, step):
    rows = survey.search_pairs(tower4)
    for emit in (survey.rows_to_json, survey.rows_to_csv):
        chunks = [emit(rows, lo, lo + step) for lo in range(0, len(rows), step)]
        assert "".join(chunks) == emit(rows)

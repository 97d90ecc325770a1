"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Time budgets are asserted after the correctness checks; a module
fixture prebuilds the field tables, so the budgets measure the
verification work itself.
"""

import re
import time
from contextlib import contextmanager
from math import gcd

import pytest

from nihoperm import cli
from nihoperm import field as gf
from nihoperm import loweq, niho, survey
from nihoperm import permcheck as pc
from nihoperm import tower as tw
from nihoperm.errors import NihopermError
from nihoperm.niho import NihoPair

from oracles import in_subfield, sweep_rows, unchecked_family


@contextmanager
def criterion(cid, desc, budget=None):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"{cid}: {elapsed:.2f}s exceeds {budget}s budget"
        print(f"ACCEPTANCE {cid} PASS: {desc} ({elapsed:.3f}s < {budget}s)")
    else:
        print(f"ACCEPTANCE {cid} PASS: {desc} ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def towers():
    built = {m: tw.make_tower(m) for m in range(1, 11)}
    for tower in built.values():
        tower.field.trace_mask
        tower.field.generator
    # touch both engines once so every code path is hot
    engines_agree(built[2], NihoPair(2, 2, 4))
    return built


def engines_agree(tower, pair):
    ex = pc.is_permutation_exhaustive(tower.field, niho.pair_to_trinomial(tower, pair))
    return ex.is_permutation == pc.unit_circle_check(tower, pair).is_permutation


def both_engines_pass(tower, pair):
    uc = pc.unit_circle_check(tower, pair)
    ex = pc.is_permutation_exhaustive(tower.field, niho.pair_to_trinomial(tower, pair))
    return uc.is_permutation and ex.is_permutation


def fraction_pair(m, s_frac, t_frac):
    return NihoPair(
        m,
        niho.resolve_fraction(*s_frac, m),
        niho.resolve_fraction(*t_frac, m),
    )


def test_criterion_1_pair_third_family(towers):
    with criterion("C1", "(-1/3, 4/3) verifies by both engines, m in {2,4,6,8}", 1.0):
        for m in (2, 4, 6, 8):
            pair = fraction_pair(m, (-1, 3), (4, 3))
            if m == 2:
                # 2^m+1 = 5: both fractions resolve to 3, the terms cancel
                spec = niho.pair_to_trinomial(towers[m], pair)
                assert spec.terms == ((1, 1),)
            assert both_engines_pass(towers[m], pair), m


def test_criterion_2_pair_three_minus_one(towers):
    with criterion("C2", "(3, -1) verifies PP, m in {2,4,6,8}", 1.0):
        for m in (2, 4, 6, 8):
            assert both_engines_pass(towers[m], NihoPair(m, 3, -1)), m


def test_criterion_3_pair_two_thirds_family(towers):
    with criterion("C3", "(-2/3, 5/3) verifies PP, m in {2,4,6,8}", 1.0):
        for m in (2, 4, 6, 8):
            pair = fraction_pair(m, (-2, 3), (5, 3))
            assert both_engines_pass(towers[m], pair), m


def test_criterion_4_pair_fifth_family(towers):
    with criterion("C4", "(1/5, 4/5) verifies PP for m <= 10 with gcd(5, 2^m+1)=1", 5.0):
        for m in range(1, 11):
            if gcd(5, (1 << m) + 1) == 1:
                assert m % 4 != 2
                pair = fraction_pair(m, (1, 5), (4, 5))
                assert pc.unit_circle_check(towers[m], pair).is_permutation, m
                if 2 * m <= 16:
                    spec = niho.pair_to_trinomial(towers[m], pair)
                    assert pc.is_permutation_exhaustive(
                        towers[m].field, spec
                    ).is_permutation, m
            else:
                assert m % 4 == 2
                mod = (1 << m) + 1
                with pytest.raises(NihopermError, match=rf"^gcd\(5, 2\^{m}\+1={mod}\) = 5 != 1$"):
                    niho.resolve_fraction(1, 5, m)


def test_criterion_5_table_reproduction(towers):
    with criterion("C5", "known-pair table: every condition-ok row and defined "
                         "equivalent verifies PP, m in {2..8}", 30.0):
        for m in range(2, 9):
            tower = towers[m]
            for row in niho.known_pairs_table1(m):
                if not row.condition_ok:
                    continue
                assert row.pair is not None, (m, row.source)
                assert pc.unit_circle_check(tower, row.pair).is_permutation, \
                    (m, row.source)
                for label, p in row.equivalents:
                    if p is not None:
                        assert pc.unit_circle_check(tower, p).is_permutation, \
                            (m, row.source, label)


#: two admissible instances per family, n <= 16, parameters satisfying the
#: stated hypotheses ("gen" is replaced by the canonical generator, "genP"
#: by its P-th power)
FAMILY_INSTANCES = {
    "F1": [(3, {"k": 2, "a": "gen"}), (6, {"k": 4, "a": "gen"})],
    "F2": [(3, {"k": 2, "v": 1}), (3, {"k": 2, "v": "gen21"})],
    "F3": [(2, {"r": 1, "a": 1, "b": 1, "c": 2}),
           (3, {"r": 1, "a": 1, "b": 2, "c": 2})],
    "F4": [(2, {"k": 1}), (4, {"k": 2})],
    "F5": [(3, {"a": "gen7"}), (4, {"a": 1})],
    "F6": [(2, {"k": 1}), (4, {"k": 3})],
    "F7": [(2, {"a": 1, "b": 1}), (3, {"a": 0x1F, "b": 2})],
    "F8": [(2, {}), (4, {})],
    "F9": [(3, {}), (5, {})],
}

#: hypothesis-violating instances with a simple condition and the failed
#: hypothesis they are refused with; each must fail verification (F1: norm
#: condition a^(2^(2k)+2^k+1) = 1; F2: v = 0)
FAMILY_VIOLATIONS = {
    "F1": (3, {"k": 2, "a": 1}, "F1 needs a^(2^(2k)+2^k+1) != 1"),
    "F2": (3, {"k": 2, "v": 0}, "F2 needs v != 0"),
}


def _resolve_params(ctx, params):
    out = {}
    for key, value in params.items():
        if isinstance(value, str) and value.startswith("gen"):
            e = int(value[3:] or "1")
            out[key] = gf.power(ctx, ctx.generator, e)
        else:
            out[key] = value
    return out


def test_criterion_6_published_families(towers):
    with criterion("C6", "families F1-F9: two admissible instances each are PP, "
                         "violating F1/F2 instances are not", 60.0):
        for fid, cases in FAMILY_INSTANCES.items():
            for m, raw in cases:
                tower = towers[m]
                # an instance whose hypotheses fail raises, naming the first
                spec = niho.family_trinomial(tower, fid, _resolve_params(tower.field, raw))
                assert tower.field.n <= 16
                rep = pc.is_permutation_exhaustive(tower.field, spec)
                assert rep.is_permutation, (fid, m, raw)
        for fid, (m, raw, reason) in FAMILY_VIOLATIONS.items():
            tower = towers[m]
            params = _resolve_params(tower.field, raw)
            with pytest.raises(NihopermError, match=f"^{re.escape(reason)}$"):
                niho.family_trinomial(tower, fid, params)
            spec = unchecked_family(tower, fid, params)
            rep = pc.is_permutation_exhaustive(tower.field, spec)
            assert not rep.is_permutation, (fid, m, raw)


def test_criterion_7_shifted_families(towers):
    with criterion("C7", "families C1-C4 verify PP for admissible m in {2,3,4}, "
                         "k in {1,2,3}", 30.0):
        checked = 0
        for fid in ("C1", "C2", "C3", "C4"):
            for m in (2, 3, 4):
                q = 1 << m
                if fid in ("C1", "C2", "C3") and m % 2 != 0:
                    continue
                if fid == "C4" and gcd(5, q + 1) != 1:
                    continue
                for k in (1, 2, 3):
                    if gcd(2 * k + 1, q - 1) != 1:
                        continue
                    tower = towers[m]
                    spec = niho.family_trinomial(tower, fid, {"k": k})
                    rep = pc.is_permutation_exhaustive(tower.field, spec)
                    assert rep.is_permutation, (fid, m, k)
                    checked += 1
        # admissibility leaves 3 instances per family at these (m, k) ranges
        assert checked == 12


def test_criterion_8_engine_equivalence(towers):
    with criterion("C8", "exhaustive and unit-circle engines agree on every "
                         "unordered pair, m in {2,3,4,5}", 60.0):
        count = 0
        for m in (2, 3, 4, 5):
            tower = towers[m]
            top = 1 << m
            for s in range(top + 1):
                for t in range(s, top + 1):
                    assert engines_agree(tower, NihoPair(m, s, t)), (m, s, t)
                    count += 1
        assert count == 15 + 45 + 153 + 561


def test_criterion_9_quadratic_criterion_oracle():
    with criterion("C9", "trace criterion matches brute-force root existence "
                         "for all (a != 0, b), n in {2,4,6,8,10,12}", 60.0):
        for n in (2, 4, 6, 8, 10, 12):
            assert loweq.quadratic_criterion_disagreements(gf.make_field(n)) == 0, n


def test_criterion_10_quartic_no_root_families(towers):
    with criterion("C10", "quartic families have no subfield roots and carry the "
                          "predicted certificates", 120.0):
        for which, ms in (("eq4", (2, 4, 6, 8)), ("eq6", (2, 4, 6, 8)),
                          ("eq8", (3, 4, 5, 8))):
            for m in ms:
                rep = loweq.verify_lemma_quartics(towers[m], which)
                assert rep.all_pass, (which, m, rep.failures)
                assert rep.certified, (which, m)
                skip = 2 if (which == "eq8" and m % 2 == 1) else 0
                assert rep.checked == (1 << m) - skip


def test_criterion_11_orbit_soundness(towers):
    with criterion("C11", "every orbit in the m <= 5 sweeps is verdict-homogeneous"):
        for m in (2, 3, 4, 5):
            tower = towers[m]
            for row in sweep_rows(survey.search_pairs(tower)):
                for member in row.orbit:
                    got = pc.unit_circle_check(tower, member).is_permutation
                    assert got == row.is_pp, (m, row.pair.label(), member.label())


def test_criterion_12_parametrization_bijection(towers):
    with criterion("C12", "subfield parametrization is a bijection onto U minus 1 "
                          "for three gammas at each m in {2..8}"):
        for m in range(2, 9):
            tower = towers[m]
            gammas = []
            for x in range(1 << tower.field.n):
                if not in_subfield(tower, x):
                    gammas.append(x)
                if len(gammas) == 3:
                    break
            assert len(set(gammas)) == 3
            for gamma in gammas:
                assert tw.cayley_is_bijection(tower, gamma), (m, hex(gamma))


def test_criterion_13_deterministic_outputs(tmp_path, towers, capsys):
    with criterion("C13", "table and sweep datasets are byte-identical across "
                          "repeated runs and across two irreducible moduli"):
        for fmt in ("json", "csv"):
            table_blobs, sweep_blobs = [], []
            for run in range(2):
                p1 = tmp_path / f"table-{fmt}-{run}"
                assert cli.main(["table1", "--all", "--format", fmt,
                                 "--out", str(p1)]) == 0
                table_blobs.append(p1.read_bytes())
            # 0x40f: a degree-10 irreducible other than the default 0x409
            for extra in ([], [], ["--modulus", "0x40f"]):
                p2 = tmp_path / f"sweep-{fmt}-{len(sweep_blobs)}"
                assert cli.main(["search", "--m", "5", "--format", fmt, *extra,
                                 "--out", str(p2)]) == 0
                sweep_blobs.append(p2.read_bytes())
            capsys.readouterr()
            assert table_blobs[0] == table_blobs[1]
            assert sweep_blobs[0] == sweep_blobs[1] == sweep_blobs[2]

"""Pairs, fractions, trinomial construction, families, known-pair table."""

import dataclasses
import random
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihoperm import field as gf
from nihoperm import loweq, niho
from nihoperm import permcheck as pc
from nihoperm import tower as tw
from nihoperm.errors import NihopermError
from nihoperm.niho import NihoPair, TrinomialSpec

from oracles import (div, evaluate, in_subfield, known_row_notes, subfield_trace, transforms,
                     unchecked_family)


# ---------------------------------------------------------------------------
# fractions mod 2^m+1
# ---------------------------------------------------------------------------

def test_one_half_closed_form():
    # 1/2 = 2^(m-1)+1 mod 2^m+1
    for m in (2, 3, 4, 6):
        assert niho.resolve_fraction(1, 2, m) == (1 << (m - 1)) + 1
    assert niho.resolve_fraction(1, 2, 4) == 9
    assert niho.resolve_fraction(3, 4, 4) == (1 << 2) + 1  # 3/4 = 2^(m-2)+1


def test_third_fractions_closed_forms_m4():
    # (-1/3, 4/3) = ((2^(m+1)+1)/3, (2^m+5)/3) at even m
    assert niho.resolve_fraction(-1, 3, 4) == 11 == (2 ** 5 + 1) // 3
    assert niho.resolve_fraction(4, 3, 4) == 7 == (2 ** 4 + 5) // 3


def test_resolve_small_case_via_extended_gcd():
    # mod 5: 3^(-1) = 2 by extended gcd, so 1/3 = 2
    assert pow(3, -1, 5) == 2
    assert niho.resolve_fraction(1, 3, 2) == 2


def test_non_invertible_denominator():
    with pytest.raises(NihopermError, match=r"^gcd\(5, 2\^2\+1=5\) = 5 != 1$"):
        niho.resolve_fraction(1, 5, 2)  # gcd(5, 5) = 5
    with pytest.raises(NihopermError, match=r"^gcd\(3, 2\^3\+1=9\) = 3 != 1$"):
        niho.resolve_fraction(1, 3, 3)  # gcd(3, 9) = 3
    with pytest.raises(NihopermError, match="^denominator is zero$"):
        niho.resolve_fraction(1, 0, 4)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 10))
def test_fraction_roundtrip(num, den, m):
    mod = (1 << m) + 1
    try:
        r = niho.resolve_fraction(num, den, m)
    except NihopermError:
        assert gcd(den % mod, mod) != 1 or den == 0
        return
    assert (r * den - num) % mod == 0


def test_parse_ratio():
    assert niho.parse_ratio("3", 4) == 3
    assert niho.parse_ratio("-1", 4) == 16
    assert niho.parse_ratio("-1/3", 4) == 11
    with pytest.raises(ValueError):
        niho.parse_ratio("x", 4)


@pytest.mark.parametrize("token", ["1/", "/3", "1/2/3", "", "x"])
def test_parse_ratio_rejects_malformed_tokens(token):
    with pytest.raises(NihopermError, match=f"^bad pair component {re.escape(repr(token))}$"):
        niho.parse_ratio(token, 4)


def test_parse_ratio_keeps_the_gcd_message():
    # the refusal of a non-invertible denominator is not a malformed token
    with pytest.raises(NihopermError, match=r"^gcd\(5, 2\^2\+1=5\) = 5 != 1$"):
        niho.parse_ratio("1/5", 2)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 8))
def test_pair_canonicalization(s, t, m):
    p = NihoPair(m, s, t)
    q = NihoPair(m, t, s)
    assert p == q
    assert 0 <= p.s <= p.t <= (1 << m)


def test_pair_parse():
    p = niho.parse_pair("-1/3,4/3", 4)
    assert (p.s, p.t) == (7, 11)


def test_exp3():
    assert niho.exp3(5) == 0
    assert niho.exp3(9) == 2
    assert niho.exp3(54) == 3
    with pytest.raises(ValueError):
        niho.exp3(0)


# ---------------------------------------------------------------------------
# trinomial construction
# ---------------------------------------------------------------------------

def _exponents(spec):
    return tuple(e for _, e in spec.terms)


def test_pair_to_trinomial_m2(tower2):
    spec = niho.pair_to_trinomial(tower2, NihoPair(2, 2, 4))
    assert _exponents(spec) == (1, 7, 13)  # 2*3+1 = 7, 4*3+1 = 13
    assert all(c == 1 for c, _ in spec.terms)


def test_pair_to_trinomial_m4(tower4):
    spec = niho.pair_to_trinomial(tower4, NihoPair(4, 11, 7))
    assert _exponents(spec) == (1, 106, 166)  # 7*15+1, 11*15+1


def test_equal_entries_cancel_to_identity(tower2):
    spec = niho.pair_to_trinomial(tower2, NihoPair(2, 1, 1))
    assert spec.terms == ((1, 1),)


def test_zero_entry_merges_with_leading_term(tower2):
    # s = 0 contributes x^(0+1) = x, which cancels the leading x
    spec = niho.pair_to_trinomial(tower2, NihoPair(2, 0, 2))
    assert spec.terms == ((1, 7),)


def test_trinomial_exponents_are_normalized(tower4):
    for s in range(0, 17, 3):
        for t in range(s, 17, 2):
            spec = niho.pair_to_trinomial(tower4, NihoPair(4, s, t))
            for e in _exponents(spec):
                assert e % 15 == 1  # 1 mod 2^m-1


def test_spec_canonicalization_and_eval(f16):
    spec = TrinomialSpec.make(f16, [(1, 3), (1, 3), (2, 5), (0, 7), (3, 20)])
    # duplicate exponents cancel, zero coefficients drop, 20 = 5 mod 15
    assert spec.terms == ((1, 5),)  # 2^5-term and 3*x^5 merged: 2^...
    # rebuild to double-check the merge arithmetic explicitly
    spec2 = TrinomialSpec.make(f16, [(2, 5), (3, 5)])
    assert spec2.terms == ((1, 5),)
    assert evaluate(spec2, 1) == 1


def test_exponent_multiple_of_group_order_stays_distinct_from_constant(f16):
    # x^15 is 1 on nonzero elements but 0 at 0; it must not fold onto x^0
    spec = TrinomialSpec.make(f16, [(1, 15)])
    assert spec.terms == ((1, 15),)
    assert evaluate(spec, 0) == 0
    assert evaluate(spec, 7) == 1
    const = TrinomialSpec.make(f16, [(1, 0)])
    assert evaluate(const, 0) == 1


def test_spec_json_roundtrip(tower2):
    spec = niho.pair_to_trinomial(tower2, NihoPair(2, 2, 4))
    data = spec.to_json_dict()
    assert data["modulus"] == "0x13"
    assert data["terms"] == [
        {"coef_hex": "0x1", "exp": 1},
        {"coef_hex": "0x1", "exp": 7},
        {"coef_hex": "0x1", "exp": 13},
    ]


def test_compose_power(f16):
    # p(x^2), built from p's terms: exponents doubled, reduced mod 15, sorted
    spec = TrinomialSpec.make(f16, [(1, 1), (1, 7), (1, 13)])
    comp = TrinomialSpec.make(f16, [(c, e * 2) for c, e in spec.terms])
    assert _exponents(comp) == (2, 11, 14)  # 14, 26 mod 15 = 11


# ---------------------------------------------------------------------------
# inverse-exponent transforms
# ---------------------------------------------------------------------------
# oracles.transforms is the reference that survey.orbit_labels and the
# table's equivalents are checked against; these pin it to worked values

def test_transforms_of_2_minus1_at_even_m():
    # (2,-1) transforms to (1, 2/3) and (1, 1/3) when 3 is invertible
    for m in (2, 4):
        pair = NihoPair(m, 2, -1)
        got = transforms(m, pair)
        expect = {
            NihoPair(m, 1, niho.resolve_fraction(2, 3, m)),
            NihoPair(m, 1, niho.resolve_fraction(1, 3, m)),
        }
        assert got == expect


def test_transforms_of_k_minus_k():
    m, k = 4, 2
    pair = NihoPair(m, k, -k)
    got = transforms(m, pair)
    expect = {
        NihoPair(m, niho.resolve_fraction(k, 2 * k - 1, m),
                 niho.resolve_fraction(2 * k, 2 * k - 1, m)),
        NihoPair(m, niho.resolve_fraction(k, 2 * k + 1, m),
                 niho.resolve_fraction(2 * k, 2 * k + 1, m)),
    }
    assert got == expect


def test_transforms_of_1_minus_half_m4():
    pair = NihoPair(4, 1, niho.resolve_fraction(-1, 2, 4))
    assert pair == NihoPair(4, 1, 8)  # -1/2 = 2^(m-1)
    got = transforms(4, pair)
    # 3/2 = 3*9 = 27 = 10 mod 17, and the other direction gives (1/4, 3/4)
    assert NihoPair(4, 1, 10) in got
    assert NihoPair(4, niho.resolve_fraction(1, 4, 4),
                    niho.resolve_fraction(3, 4, 4)) in got


def test_transform_failure_drops_pair():
    # at m=3 the transform of (2,-1) needs 1/3 mod 9, which does not exist
    got = transforms(3, NihoPair(3, 2, -1))
    assert len(got) < 2


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_f8_exponents_m4(tower4):
    spec = niho.family_trinomial(tower4, "F8", {})
    assert _exponents(spec) == (1, 16, 121)  # 2^(m-1)(2^m-1)+1 = 121


def _pair_one_minus_half(m):
    return NihoPair(m, 1, niho.resolve_fraction(-1, 2, m))


@pytest.mark.parametrize("m", [4, 5, 7, 8])
def test_f8_is_the_table_pair_one_minus_half(m):
    tower = tw.make_tower(m)
    f8 = niho.family_trinomial(tower, "F8", {})
    assert f8.terms == niho.pair_to_trinomial(tower, _pair_one_minus_half(m)).terms


def test_f8_verdicts_past_the_exhaustive_cap():
    # (1,-1/2) permutes exactly when 3 does not divide m (F8's condition),
    # checked on the unit circle at m = 11..16, i.e. n = 22..32
    for m in range(11, 17):
        tower = tw.make_tower(m)
        report = pc.unit_circle_check(tower, _pair_one_minus_half(m))
        assert report.is_permutation == (m % 3 != 0), m


def test_f8_condition_violation():
    t3 = tw.make_tower(3)
    with pytest.raises(NihopermError, match="^F8 needs m != 0 mod 3, got m=3$"):
        niho.family_trinomial(t3, "F8", {})


def test_f9_needs_odd_m(tower4):
    with pytest.raises(NihopermError, match="^F9 needs odd m, got m=4$"):
        niho.family_trinomial(tower4, "F9", {})


def test_f6_reduction_semantics(tower2):
    # k = 2^m+1 reduces to k = 0: everything collapses to x
    spec = niho.family_trinomial(tower2, "F6", {"k": 5})
    assert spec.terms == ((1, 1),)


def test_f2_zero_v_rejected_but_buildable(tower3):
    params = {"k": 2, "v": 0}
    with pytest.raises(NihopermError, match="^F2 needs v != 0$"):
        niho.family_trinomial(tower3, "F2", params)
    spec = unchecked_family(tower3, "F2", params)
    assert _exponents(spec) == (5, 17)  # the v-term vanished


def test_f1_condition_and_terms(tower3):
    g = tower3.field.generator
    with pytest.raises(NihopermError, match=r"^F1 needs a\^\(2\^\(2k\)\+2\^k\+1\) != 1$"):
        niho.family_trinomial(tower3, "F1", {"k": 2, "a": 1})
    spec = niho.family_trinomial(tower3, "F1", {"k": 2, "a": g})
    assert _exponents(spec) == (2, 5, 17)
    # coefficient of x^(2^k+1) is a^(2^k+1)
    assert dict((e, c) for c, e in spec.terms)[5] == gf.power(tower3.field, g, 5)


def test_f5_structure(tower4):
    a = gf.power(tower4.field, tower4.field.generator, 15)  # norm-1 element
    spec = niho.family_trinomial(tower4, "F5", {"a": a})
    assert _exponents(spec) == (1, 31, 241)
    with pytest.raises(NihopermError, match=r"^F5 needs a\^\(2\^m\+1\) = 1$"):
        niho.family_trinomial(tower4, "F5", {"a": 3})  # 3 = g is not on the unit circle


def test_f5_matches_conjectured_composition():
    # with a=1, the earlier conjectured shape g0 satisfies g0(x)^(2^m) = f5(x)
    for m in (2, 3, 4):
        tower = tw.make_tower(m)
        ctx = tower.field
        q = 1 << m
        f5 = niho.family_trinomial(tower, "F5", {"a": 1})
        g0 = TrinomialSpec.make(ctx, [(1, q), (1, 2 * (q - 1) + 1), (1, q * (q - 1) + 1)])
        for x in range(1 << ctx.n):
            assert gf.power(ctx, evaluate(g0, x), q) == evaluate(f5, x)


def test_c4_exponents_match_worked_example(tower3):
    # m=3, k=1: 5l = 1 mod 9 gives l=2; exponents {10, 24, 66 mod 63 = 3}
    assert niho.resolve_fraction(1, 5, 3) == 2
    spec = niho.family_trinomial(tower3, "C4", {"k": 1})
    assert _exponents(spec) == (3, 10, 24)


#: (family, m, params, first failed hypothesis, terms built whether or not
#: it holds, or the error building them raises): one admissible instance of
#: every family and one violating instance per stated hypothesis, with the
#: values the per-family if-ladders gave before the family table replaced them
FAMILY_PINS = [
    ('F1', 3, {'k': 2, 'a': 2}, '',
     ((2, 2), (32, 5), (1, 17))),
    ('F1', 4, {'k': 2, 'a': 2}, 'F1 needs n = 3k, got n=8, k=2',
     ((2, 2), (32, 5), (1, 17))),
    ('F1', 3, {'k': 2, 'a': 1}, 'F1 needs a^(2^(2k)+2^k+1) != 1',
     ((1, 2), (1, 5), (1, 17))),
    ('F2', 3, {'k': 2, 'v': 1}, '',
     ((1, 1), (1, 5), (1, 17))),
    ('F2', 2, {'k': 2, 'v': 1}, 'F2 needs n = 3k, got n=4, k=2',
     ((1, 1), (1, 2), (1, 5))),
    ('F2', 3, {'k': 2, 'v': 0}, 'F2 needs v != 0',
     ((1, 5), (1, 17))),
    ('F2', 3, {'k': 2, 'v': 2}, 'F2 needs v in GF(2^k)',
     ((2, 1), (1, 5), (1, 17))),
    ('F3', 2, {'r': 1, 'a': 1, 'b': 1, 'c': 2}, '',
     ((2, 1), (1, 6), (1, 11))),
    ('F3', 2, {'r': 5, 'a': 1, 'b': 1, 'c': 2}, 'F3 needs gcd(r, s)=1 with s=5',
     ((2, 5), (1, 10), (1, 15))),
    ('F3', 2, {'r': 1, 'a': 1, 'b': 1, 'c': 1}, 'F3 needs h(w^i) != 0 for i = 0, 1, 2',
     ((1, 1), (1, 6), (1, 11))),
    ('F3', 2, {'r': 1, 'a': 0, 'b': 1, 'c': 0},
     'F3 needs idx(h(1)/h(w)) = idx(h(w)/h(w^2)) != r mod 3',
     ((1, 6),)),
    ('F4', 2, {'k': 1}, '',
     ((1, 2), (1, 8), (1, 11))),
    ('F4', 2, {'k': -1}, 'F4 needs k >= 0',
     ((1, 1), (1, 7), (1, 13))),
    ('F4', 2, {'k': 0}, 'F4 needs gcd(2k+3, 2^m-1)=1, fails at k=0',
     ((1, 3), (1, 6), (1, 12))),
    ('F5', 4, {'a': 1}, '',
     ((1, 1), (1, 31), (1, 241))),
    ('F5', 4, {'a': 3}, 'F5 needs a^(2^m+1) = 1',
     ((1, 1), (3, 31), (26, 241))),
    ('F6', 2, {'k': 1}, '',
     ((1, 1), (1, 4), (1, 13))),
    ('F6', 2, {'k': 0}, 'F6 needs a positive k',
     ((1, 1),)),
    ('F6', 3, {'k': 1}, 'F6 at odd m needs v3(k) >= v3(2^m+1)',
     ((1, 1), (1, 8), (1, 57))),
    ('F7', 2, {'a': 1, 'b': 1}, '',
     ((1, 1), (1, 4), (1, 7))),
    ('F7', 2, {'a': 0, 'b': 1}, 'F7 needs ab != 0',
     ((1, 4), (1, 7))),
    ('F7', 2, {'a': 1, 'b': 6}, 'F7 (first branch) needs Tr_m(b^(-1-2^m)) = 0',
     ((1, 1), (6, 4), (1, 7))),
    ('F7', 2, {'a': 1, 'b': 2}, 'F7 (second branch) needs a*b^(-2) in GF(2^m)',
     ((1, 1), (2, 4), (1, 7))),
    ('F7', 2, {'a': 2, 'b': 8}, 'F7 (second branch) needs Tr_m(a*b^(-2)) = 0',
     ((2, 1), (8, 4), (1, 7))),
    ('F7', 2, {'a': 2, 'b': 5}, 'F7 (second branch) needs b^2 + a^2*b^(2^m-1) + a = 0',
     ((2, 1), (5, 4), (1, 7))),
    ('F8', 4, {}, '',
     ((1, 1), (1, 16), (1, 121))),
    ('F8', 3, {}, 'F8 needs m != 0 mod 3, got m=3',
     ((1, 1), (1, 8), (1, 29))),
    ('F9', 3, {}, '',
     ((1, 1), (1, 10), (1, 37))),
    ('F9', 4, {}, 'F9 needs odd m, got m=4',
     ((1, 1), (1, 18), (1, 137))),
    ('T3', 4, {}, '',
     ((1, 1), (1, 106), (1, 166))),
    ('T3', 3, {}, 'T3 needs even m, got m=3',
     'Non-invertible denominator'),
    ('T4', 4, {}, '',
     ((1, 1), (1, 46), (1, 241))),
    ('T4', 3, {}, 'T4 needs even m, got m=3',
     ((1, 1), (1, 22), (1, 57))),
    ('T5', 4, {}, '',
     ((1, 1), (1, 76), (1, 196))),
    ('T5', 3, {}, 'T5 needs even m, got m=3',
     'Non-invertible denominator'),
    ('T6', 3, {}, '',
     ((1, 1), (1, 15), (1, 57))),
    ('T6', 2, {}, 'T6 needs gcd(5, 2^m+1)=1, fails at m=2',
     'Non-invertible denominator'),
    ('C1', 4, {'k': 3}, '',
     ((1, 52), (1, 157), (1, 217))),
    ('C1', 4, {'k': 0}, 'C1 needs a positive k',
     ((1, 1), (1, 106), (1, 166))),
    ('C1', 4, {'k': 1}, 'C1 needs gcd(2k+1, 2^m-1)=1, fails at k=1',
     ((1, 18), (1, 123), (1, 183))),
    ('C1', 3, {'k': 1}, 'C1 needs even m, got m=3',
     'Non-invertible denominator'),
    ('C2', 4, {'k': 3}, '',
     ((1, 37), (1, 52), (1, 97))),
    ('C2', 3, {'k': 1}, 'C2 needs even m, got m=3',
     ((1, 3), (1, 10), (1, 31))),
    ('C3', 4, {'k': 3}, '',
     ((1, 52), (1, 127), (1, 247))),
    ('C3', 3, {'k': 1}, 'C3 needs even m, got m=3',
     'Non-invertible denominator'),
    ('C4', 3, {'k': 1}, '',
     ((1, 3), (1, 10), (1, 24))),
    ('C4', 6, {'k': 2}, 'C4 needs gcd(5, 2^m+1)=1, fails at m=6',
     'Non-invertible denominator'),
    ('C4', 3, {'k': -1}, 'C4 needs a positive k',
     ((1, 6), (1, 48), (1, 55))),
]


def test_family_pins_cover_every_family_both_ways():
    ids = {"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
           "T3", "T4", "T5", "T6", "C1", "C2", "C3", "C4"}
    assert {fid for fid, _, _, reason, _ in FAMILY_PINS if not reason} == ids
    assert {fid for fid, _, _, reason, _ in FAMILY_PINS if reason} == ids


@pytest.mark.parametrize("fid,m,params,reason,terms", FAMILY_PINS)
def test_family_terms_and_reasons_are_pinned(fid, m, params, reason, terms):
    tower = tw.make_tower(m)
    if reason:
        with pytest.raises(NihopermError, match=f"^{re.escape(reason)}$"):
            niho.family_trinomial(tower, fid, params)
    else:
        assert niho.family_trinomial(tower, fid, params).terms == terms
    if isinstance(terms, str):  # a denominator that does not resolve mod 2^m+1
        with pytest.raises(NihopermError, match=r"^gcd\(\d+, 2\^\d+\+1=\d+\) = \d+ != 1$"):
            unchecked_family(tower, fid, params)
    else:
        assert unchecked_family(tower, fid, params).terms == terms


@pytest.mark.parametrize("fid,params", [("F1", {"k": 2, "a": -2}), ("F1", {"k": 2, "a": 64}),
                                        ("F2", {"k": 2, "v": 1 << 70}),
                                        ("F3", {"r": 1, "a": 1, "b": 1, "c": -1}),
                                        ("F5", {"a": 64}), ("F7", {"a": 1, "b": -1})])
def test_family_field_elements_outside_the_field_are_rejected(fid, params, monkeypatch):
    # scalar multiplication never ends on a negative int, and a value past
    # 2^n indexes past the exhaustive engine's tables: both are refused
    # before any hypothesis runs
    tower = tw.make_tower(3)
    name, value = next((k, v) for k, v in params.items() if not 0 <= v < 64)
    message = f"family {fid} parameter {name}={value} is not an element of GF(2^6)"

    def no_hypotheses(*args):
        raise AssertionError("a hypothesis ran on a parameter outside the field")

    monkeypatch.setitem(niho._FAMILIES, fid,
                        dataclasses.replace(niho._FAMILIES[fid], fails=no_hypotheses))
    with pytest.raises(ValueError) as err:
        niho.family_trinomial(tower, fid, params)
    assert str(err.value) == message


def test_unknown_family_rejected(tower4):
    with pytest.raises(ValueError, match="^unknown family 'F10'$"):
        niho.family_trinomial(tower4, "F10", {})


def test_missing_family_params_rejected(tower4):
    with pytest.raises(ValueError, match="F7 is missing parameters b"):
        niho.family_trinomial(tower4, "F7", {"a": 1})
    # ids are read in any case; F8 takes no parameters
    assert niho.family_trinomial(tower4, "f8", {}) == niho.family_trinomial(tower4, "F8", {})


def test_unknown_family_params_rejected(tower4):
    with pytest.raises(NihopermError, match="^family F1 does not take parameters b$"):
        niho.family_trinomial(tower4, "F1", {"k": 2, "a": 2, "b": 7})
    with pytest.raises(NihopermError, match="^family F8 does not take parameters k$"):
        niho.family_trinomial(tower4, "f8", {"k": 1})


@pytest.mark.parametrize("fid,params,message", [
    ("F10", {"x": -1}, "unknown family 'F10'"),
    ("F7", {"b": -1, "x": 1}, "family F7 is missing parameters a"),
    ("F1", {"k": 2, "a": -2, "b": 7}, "family F1 does not take parameters b"),
    ("F1", {"k": 2, "a": -2}, "family F1 parameter a=-2 is not an element of GF(2^8)"),
    ("F1", {"k": 2, "a": 2}, "F1 needs n = 3k, got n=8, k=2"),
])
def test_family_refusals_come_in_order(tower4, fid, params, message):
    # each instance also fails every check after the one it is refused by:
    # id, missing and unread parameters, field range, then the hypotheses
    with pytest.raises(NihopermError, match=f"^{re.escape(message)}$"):
        niho.family_trinomial(tower4, fid, params)


# ---------------------------------------------------------------------------
# F3 and F7 against scalar references
# ---------------------------------------------------------------------------

def _f3_reference(tower, r, a, b, c):
    """F3's first failed hypothesis, each index read as a discrete log mod 3
    off the exp/log tables."""
    ctx = tower.field
    s = ctx.group_order // 3
    if gcd(r, s) != 1:
        return f"F3 needs gcd(r, s)=1 with s={s}"
    exp, log = ctx.exp_log
    h = [c ^ gf.mul(ctx, b, int(exp[s * i])) ^ gf.mul(ctx, a, int(exp[2 * s * i % ctx.group_order]))
         for i in range(3)]
    if 0 in h:
        return "F3 needs h(w^i) != 0 for i = 0, 1, 2"
    i1, i2 = ((log[h[i]] - log[h[i + 1]]) % 3 for i in (0, 1))
    if i1 != i2 or i1 == r % 3:
        return "F3 needs idx(h(1)/h(w)) = idx(h(w)/h(w^2)) != r mod 3"
    return ""


def _f7_reference(tower, a, b):
    """F7's first failed hypothesis, with subfield membership as a Frobenius
    fixed point and the subfield trace by repeated squaring."""
    ctx, q = tower.field, tower.subfield_order
    if a == 0 or b == 0:
        return "F7 needs ab != 0"
    if a == gf.power(ctx, b, 1 - q):
        if subfield_trace(tower, gf.power(ctx, b, -1 - q)):
            return "F7 (first branch) needs Tr_m(b^(-1-2^m)) = 0"
        return ""
    u = div(ctx, a, gf.square(ctx, b))
    if not in_subfield(tower, u):
        return "F7 (second branch) needs a*b^(-2) in GF(2^m)"
    if subfield_trace(tower, u):
        return "F7 (second branch) needs Tr_m(a*b^(-2)) = 0"
    if gf.square(ctx, b) ^ gf.mul(ctx, gf.square(ctx, a), gf.power(ctx, b, q - 1)) ^ a:
        return "F7 (second branch) needs b^2 + a^2*b^(2^m-1) + a = 0"
    return ""


def _f3_f7_sweep():
    """(family id, m, params): 150 seeded F3 instances at each m = 2..5,
    every F7 pair at m <= 3, and 300 seeded F7 pairs at each of m = 4 and
    5, a third on the first branch (a = b^(1-q)), a third with a*b^(-2) in
    the subfield and a third at random."""
    rng = random.Random(3)
    sweep = []
    for m in range(2, 6):
        size, s = 1 << 2 * m, ((1 << 2 * m) - 1) // 3
        for _ in range(150):
            a, b, c = (0 if rng.random() < 0.25 else rng.randrange(1, size) for _ in range(3))
            sweep.append(("F3", m, {"r": rng.randrange(-3 * s, 3 * s), "a": a, "b": b, "c": c}))
    for m in (1, 2, 3):
        sweep += [("F7", m, {"a": a, "b": b}) for a in range(1 << 2 * m) for b in range(1 << 2 * m)]
    for m in (4, 5):
        tower = tw.make_tower(m)
        ctx, q = tower.field, tower.subfield_order
        for i in range(300):
            b = rng.randrange(1, 1 << 2 * m)
            a = (gf.power(ctx, b, 1 - q) if i % 3 == 0
                 else gf.mul(ctx, rng.choice(tower.subfield[1:].tolist()), gf.square(ctx, b))
                 if i % 3 == 1 else rng.randrange(1 << 2 * m))
            sweep.append(("F7", m, {"a": a, "b": b}))
    return sweep


def test_f3_and_f7_refusals_match_scalar_references():
    references = {"F3": _f3_reference, "F7": _f7_reference}
    towers = {m: tw.make_tower(m) for m in range(1, 6)}
    seen = {"F3": set(), "F7": set()}
    for fid, m, params in _f3_f7_sweep():
        tower = towers[m]
        expected = references[fid](tower, *params.values())
        try:
            niho.family_trinomial(tower, fid, params)
            got = ""
        except NihopermError as exc:
            got = str(exc)
        assert got == expected, (fid, m, params)
        seen[fid].add(got.partition(" with s=")[0])
    # every refusal of both families is met, and so is success
    assert (len(seen["F3"]), len(seen["F7"])) == (4, 6)


def test_pair_families_resolve(tower4):
    spec_t3 = niho.family_trinomial(tower4, "T3", {})
    pair = NihoPair(4, 11, 7)
    assert spec_t3.terms == niho.pair_to_trinomial(tower4, pair).terms
    with pytest.raises(NihopermError, match="^T3 needs even m, got m=3$"):
        niho.family_trinomial(tw.make_tower(3), "T3", {})


# ---------------------------------------------------------------------------
# known-pair table
# ---------------------------------------------------------------------------

def test_table_m4_third_family_row(tower4):
    rows = {r.source: r for r in niho.known_pairs_table1(4)}
    row = rows["-1/3,4/3"]
    assert row.condition_ok
    assert row.pair == NihoPair(4, 11, 7)


def test_table_m3_even_m_rows_fail():
    rows = {r.source: r for r in niho.known_pairs_table1(3)}
    assert not rows["3,-1"].condition_ok
    assert rows["3,-1"].pair == NihoPair(3, 3, 8)
    # the fractional pair itself does not resolve at odd m
    assert rows["-1/3,4/3"].pair is None


def test_table_m5_fifth_fractions_recomputed():
    # 5^(-1) mod 33 = 20 (extended gcd oracle), so (1/5, 4/5) = (20, 14)
    assert pow(5, -1, 33) == 20
    assert (4 * 20) % 33 == 14
    rows = {r.source: r for r in niho.known_pairs_table1(5)}
    row = rows["1/5,4/5"]
    assert row.condition_ok
    assert row.pair == NihoPair(5, 20, 14)
    assert (row.pair.s, row.pair.t) == (14, 20)


def test_table_m6_undefined_equivalent():
    rows = {r.source: r for r in niho.known_pairs_table1(6)}
    row = rows["3,-1"]
    assert row.condition_ok  # m even
    labels = dict(row.equivalents)
    assert labels["3/5,4/5"] is None  # gcd(5, 65) = 5
    assert labels["1/3,4/3"] is not None


def test_table_k_family_conditions():
    # odd m: v3(k) >= v3(2^m+1) gates the row
    rows = [r for r in niho.known_pairs_table1(5) if r.source.startswith("k,-k")]
    assert len(rows) == 32
    by_k = {int(r.source.split("=")[1].rstrip("]")): r for r in rows}
    assert niho.exp3(33) == 1
    for k, row in by_k.items():
        assert row.condition_ok == (k % 3 == 0)
    # even m: every k is admissible
    assert all(r.condition_ok for r in niho.known_pairs_table1(4)
               if r.source.startswith("k,-k"))


@pytest.mark.parametrize("m", range(1, 8))
def test_k_minus_k_condition_agrees_across_callers(m):
    # the table row, the F6 hypothesis and the verify note read one predicate
    tower = tw.make_tower(m)
    rows = [r for r in niho.known_pairs_table1(m) if r.source.startswith("k,-k")]
    assert len(rows) == 1 << m
    for k, row in enumerate(rows, start=1):
        holds = niho.k_minus_k_holds(m, k)
        notes = niho.known_row_notes(NihoPair(m, k, -k))
        noted = any(note.startswith("matches row k,-k [") for note in notes)
        assert row.condition_ok == (not noted) == holds, k
        if holds:
            niho.family_trinomial(tower, "F6", {"k": k})
        else:
            with pytest.raises(NihopermError, match=r"^F6 at odd m needs v3\(k\) >= v3\(2\^m\+1\)$"):
                niho.family_trinomial(tower, "F6", {"k": k})
    assert any(not r.condition_ok for r in rows) == (m % 2 == 1)


def _assert_verdict(tower, fid, params, expected):
    """family_trinomial builds the instance if expected is (True, ""), and
    raises exactly the message of expected = (False, message) if not."""
    ok, message = expected
    if ok:
        niho.family_trinomial(tower, fid, params)
    else:
        with pytest.raises(NihopermError, match=f"^{re.escape(message)}$"):
            niho.family_trinomial(tower, fid, params)


@pytest.mark.parametrize("m", range(1, 9))
def test_pair_family_conditions_keep_their_messages(m):
    # T3-T6 read their known-pair rows; the messages are the ones the
    # families stated on their own
    tower = tw.make_tower(m)
    for fid in ("T3", "T4", "T5", "T6"):
        if fid != "T6":
            expected = (True, "") if m % 2 == 0 else (False, f"{fid} needs even m, got m={m}")
        elif gcd(5, (1 << m) + 1) == 1:
            expected = (True, "")
        else:
            expected = (False, f"T6 needs gcd(5, 2^m+1)=1, fails at m={m}")
        _assert_verdict(tower, fid, {}, expected)


@pytest.mark.parametrize("m", range(1, 9))
def test_shifted_family_and_lemma_preconditions_keep_their_messages(m):
    # C1-C4 and the eq4/eq6/eq8 lemma batches read the known-pair rows of
    # T3-T6; the messages are the ones they stated on their own
    tower = tw.make_tower(m)
    k = next(k for k in range(1, 1 << m) if gcd(2 * k + 1, (1 << m) - 1) == 1)
    even = (True, "") if m % 2 == 0 else (False, "{} needs even m, got m=%d" % m)
    five = ((True, "") if gcd(5, (1 << m) + 1) == 1
            else (False, "{} needs gcd(5, 2^m+1)=1, fails at m=%d" % m))
    for who, expected in (("C1", even), ("C2", even), ("C3", even), ("C4", five)):
        _assert_verdict(tower, who, {"k": k}, (expected[0], expected[1].format(who)))
    for who, expected in (("eq4", even), ("eq6", even), ("eq8", five)):
        if expected[0]:
            assert loweq.verify_lemma_quartics(tower, who).all_pass
        else:
            message = expected[1].format(who)
            with pytest.raises(NihopermError, match=f"^{re.escape(message)}$") as err:
                loweq.verify_lemma_quartics(tower, who)
            assert str(err.value) == message


def test_pair_families_name_their_table_rows():
    # F8 and T3-T6 are fixed rows of the table, and the eq4/eq6/eq8 lemma
    # batches underpin the rows of T4-T6
    assert niho.PAIR_FAMILIES == {"F8": "1,-1/2", "T3": "-1/3,4/3", "T4": "3,-1",
                                  "T5": "-2/3,5/3", "T6": "1/5,4/5"}
    assert loweq.QUARTIC_FAMILY_PAIRS == {"eq4": "3,-1", "eq6": "-2/3,5/3", "eq8": "1/5,4/5"}
    sources = [r.source for r in niho.known_pairs_table1(4)]
    assert all(label in sources for label in niho.PAIR_FAMILIES.values())


def _paper_exponents(fid, m, k=0):
    """The exponents the paper writes out for F8, T3-T6 (k = 0) and
    C1-C4 = x^((q+1)k) T3-T6."""
    q = 1 << m
    base = (q + 1) * k
    if fid == "F8":
        return [1, q, (q // 2) * (q - 1) + 1]
    if fid in ("T3", "C1"):
        return [base + 1, base + (2 * q * q - q + 2) // 3, base + (q * q + 4 * q - 2) // 3]
    if fid in ("T4", "C2"):
        return [base + 1, base + 3 * q - 2, base - q + 2]
    if fid in ("T5", "C3"):
        return [base + 1, base + 1 + (q - 1) ** 2 // 3, base + (2 * q * q + 5 * q - 4) // 3]
    ell = pow(5, -1, q + 1)  # T6, C4
    return [base + 1, base + 1 + ell * (q - 1), base + 1 + 4 * ell * (q - 1)]


@pytest.mark.parametrize("fid", ["F8", "T3", "T4", "T5", "T6", "C1", "C2", "C3", "C4"])
def test_table_built_families_match_the_paper_exponents(fid):
    # the families built from table rows (and C1-C4 from T3-T6) against the
    # exponents written out in closed form, at every admissible m in 2..12
    built = 0
    for m in range(2, 13):
        tower = tw.make_tower(m)
        for k in (range(1, 6) if fid[0] == "C" else [0]):
            try:
                spec = niho.family_trinomial(tower, fid, {"k": k} if fid[0] == "C" else {})
            except NihopermError:  # a failed hypothesis
                continue
            expected = TrinomialSpec.make(tower.field, [(1, e) for e in _paper_exponents(fid, m, k)])
            assert spec == expected, (m, k)
            built += 1
    assert built >= 3


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_unchecked_shifted_families_at_odd_m_have_no_pair(m):
    # -1/3 and -2/3 do not resolve mod 2^m+1 at odd m (3 divides it), so C1
    # and C3, like T3 and T5, have no member there even unchecked
    tower = tw.make_tower(m)
    for fid, params in (("T3", {}), ("T5", {}), ("C1", {"k": 1}), ("C3", {"k": 1})):
        mod = (1 << m) + 1
        with pytest.raises(NihopermError, match=rf"^gcd\(3, 2\^{m}\+1={mod}\) = 3 != 1$"):
            unchecked_family(tower, fid, params)


@pytest.mark.parametrize("m", [3, 6])
def test_f8_message_reads_its_table_row(m):
    tower = tw.make_tower(m)
    reason = f"F8 needs m != 0 mod 3, got m={m}"
    with pytest.raises(NihopermError, match=f"^{reason}$") as err:
        niho.family_trinomial(tower, "F8", {})
    assert str(err.value) == reason
    assert niho.known_row_failure("1,-1/2", m, "F8") == reason


def test_table_equivalents_match_transforms_when_defined():
    for m in (4, 5):
        for row in niho.known_pairs_table1(m):
            if row.pair is None:
                continue
            images = transforms(m, row.pair)
            for _, p in row.equivalents:
                if p is not None:
                    assert p in images


def test_table_row_count():
    for m in (2, 3, 4):
        rows = niho.known_pairs_table1(m)
        assert len(rows) == (1 << m) + 6


@pytest.mark.parametrize("m", range(1, 9))
def test_known_row_notes_match_the_full_table(m):
    # every pair of the table (fixed rows, (k,-k) rows and their
    # equivalents) gets the notes read off the full table at m
    rows = niho.known_pairs_table1(m)
    pairs = {p for row in rows for p in (row.pair, *(p for _, p in row.equivalents))} - {None}
    noted = 0
    for pair in sorted(pairs, key=lambda p: (p.s, p.t)):
        notes = niho.known_row_notes(pair)
        assert notes == known_row_notes(rows, pair), pair
        noted += bool(notes)
    # rows fail at odd m ((3,-1) and some (k,-k)) and at 3 | m ((1,-1/2));
    # the (1/5,4/5) row fails only where its pair is undefined
    assert (noted > 0) == (m % 2 == 1 or m % 3 == 0)

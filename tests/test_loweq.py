"""Low-degree equation machinery against brute-force oracles."""

import random
from itertools import combinations
from math import gcd

import pytest

from nihoperm import _kernels, cli
from nihoperm import field as gf
from nihoperm import loweq
from nihoperm import tower as tw
from nihoperm.errors import (
    NotInSubfield,
    PreconditionViolated,
    ZeroCoefficient,
    ZeroLinearCoefficient,
)
from nihoperm.loweq import LWVerdict, QuarticLW


def brute_quadratic_roots(ctx, a, b):
    return sorted(
        x for x in gf.elements(ctx)
        if gf.square(ctx, x) ^ gf.mul(ctx, a, x) ^ b == 0
    )


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def test_solvable_examples(f16):
    assert loweq.quadratic_solvable(f16, 1, 0)  # x^2+x has roots 0, 1


def test_solvable_false_in_f4():
    ctx = gf.make_field(2, 0b111)
    w = 0b10
    # oracle: x^2+x only takes the values {0, 1} on GF(4)
    values = {gf.square(ctx, x) ^ x for x in gf.elements(ctx)}
    assert values == {0, 1}
    assert not loweq.quadratic_solvable(ctx, 1, w)


def test_solvable_agrees_with_brute_force_f16(f16):
    checked = 0
    for a in range(1, 16):
        for b in range(16):
            assert loweq.quadratic_solvable(f16, a, b) == bool(
                brute_quadratic_roots(f16, a, b)
            )
            checked += 1
    assert checked == 240


def test_solvable_rejects_zero_a(f16):
    with pytest.raises(ZeroLinearCoefficient):
        loweq.quadratic_solvable(f16, 0, 1)


def test_quadratic_roots_exact_f16(f16):
    for a in range(16):
        for b in range(16):
            got = list(loweq.quadratic_roots(f16, a, b))
            assert got == brute_quadratic_roots(f16, a, b)
            if a == 0:
                assert len(got) == 1  # squaring is a bijection
            else:
                assert len(got) in (0, 2)  # separable


def test_quadratic_roots_basics(f16):
    assert loweq.quadratic_roots(f16, 1, 0) == (0, 1)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_artin_schreier_solver(n):
    ctx = gf.make_field(n)
    rng = random.Random(n)
    for _ in range(100):
        c = rng.randrange(1 << n)
        r = loweq.solve_artin_schreier(ctx, c)
        if gf.trace_abs(ctx, c) == 1:
            assert r is None
        else:
            assert gf.square(ctx, r) ^ r == c


# ---------------------------------------------------------------------------
# cubics over the subfield
# ---------------------------------------------------------------------------

def test_cubic_inseparable_case(tower2):
    # y^3 + y = y (y+1)^2 over GF(4): roots {0, 1}, length 2
    assert loweq.cubic_roots_subfield(tower2, 1, 0) == [0, 1]


def test_cubic_rejects_non_subfield_coeff(tower2):
    gamma = tw.canonical_gamma(tower2)
    with pytest.raises(NotInSubfield):
        loweq.cubic_roots_subfield(tower2, gamma, 0)


def test_cubic_resolvent_root_closed_form(tower4):
    # for the quartic family of pair (3,-1): with c = x + 1/x, the cubic
    # y^3 + a2*y + a1 has the subfield root c^2/(c^2+1)
    ctx = tower4.field
    for x in tw.unit_circle_iter(tower4):
        if x == 1:
            continue
        q = loweq.lemma_quartic_coeffs(tower4, "eq4", x)
        c = x ^ gf.inv(ctx, x)
        expected_root = gf.div(ctx, gf.square(ctx, c), gf.square(ctx, c) ^ 1)
        roots = loweq.cubic_roots_subfield(tower4, q.a2, q.a1)
        assert expected_root in roots


def test_cubic_random_counts_and_consistency():
    tower = tw.make_tower(6)  # subfield GF(2^6), so the oracle has 64 points
    ctx = tower.field
    rng = random.Random(17)
    subfield = list(tw.subfield_iter(tower))
    for _ in range(100):
        a2 = rng.choice(subfield)
        a1 = rng.choice(subfield)
        roots = loweq.cubic_roots_subfield(tower, a2, a1)
        brute = [
            y for y in subfield
            if gf.power(ctx, y, 3) ^ gf.mul(ctx, a2, y) ^ a1 == 0
        ]
        assert roots == sorted(brute)
        if a1 != 0:  # separable case
            assert len(roots) in (0, 1, 3)
        for r in roots:
            assert gf.power(ctx, r, 3) ^ gf.mul(ctx, a2, r) ^ a1 == 0


@pytest.mark.parametrize("m", [3, 6, 8, 11])
def test_root_scans_match_a_scalar_loop(m):
    # random subfield coefficients, a1 = 0 in every fourth trial and a
    # forced root z in every other one
    tower = tw.make_tower(m)
    ctx = tower.field
    subfield = list(tw.subfield_iter(tower))
    rng = random.Random(41 + m)

    def scalar_roots(coeffs):  # Horner over every z; coeffs[i] multiplies z^i
        roots = []
        for z in subfield:
            acc = 0
            for c in reversed(coeffs):
                acc = gf.mul(ctx, acc, z) ^ c
            if acc == 0:
                roots.append(z)
        return sorted(roots)

    found = set()
    for trial in range(12):
        a2, a1, a0, z = (rng.choice(subfield) for _ in range(4))
        if trial % 4 == 0:
            a1 = 0
        cubic_a1 = a1
        if trial % 2:  # make z a root of both
            z2 = gf.square(ctx, z)
            cubic_a1 = gf.mul(ctx, z2, z) ^ gf.mul(ctx, a2, z)
            a0 = gf.square(ctx, z2) ^ gf.mul(ctx, a2, z2) ^ gf.mul(ctx, a1, z)
        cubic = loweq.cubic_roots_subfield(tower, a2, cubic_a1)
        assert cubic == scalar_roots([cubic_a1, a2, 0, 1])
        quartic = loweq.quartic_roots_brute(tower, QuarticLW(a2=a2, a1=a1, a0=a0))
        assert quartic == scalar_roots([a0, a1, a2, 0, 1])
        if trial % 2:
            assert z in cubic and z in quartic
        found |= {bool(cubic), bool(quartic)}
    assert found == {True, False}  # both rooted and root-free polynomials


# ---------------------------------------------------------------------------
# quartic no-root certificate
# ---------------------------------------------------------------------------

def test_quartic_family_case1(tower4):
    for x in tw.unit_circle_iter(tower4):
        if x == 1:
            continue
        q = loweq.lemma_quartic_coeffs(tower4, "eq4", x)
        rep = loweq.quartic_no_root_lw(tower4, q)
        assert rep.verdict is LWVerdict.NO_ROOT_CASE1
        assert len(rep.resolvent_roots) == 1 and rep.w_traces == (1,)
        assert loweq.quartic_roots_brute(tower4, q) == []


def test_quartic_family_case2(tower4):
    # the family of pair (1/5,4/5) at m = 0 mod 4: three resolvent roots
    # with trace multiset {0,1,1}
    for x in tw.unit_circle_iter(tower4):
        if x == 1:
            continue
        q = loweq.lemma_quartic_coeffs(tower4, "eq8", x)
        rep = loweq.quartic_no_root_lw(tower4, q)
        assert rep.verdict is LWVerdict.NO_ROOT_CASE2
        assert sorted(rep.w_traces) == [0, 1, 1]
        assert loweq.quartic_roots_brute(tower4, q) == []


def _quartic_with_subfield_roots(tower):
    # expand (x+u1)(x+u2)(x+u3)(x+u4) for distinct nonzero subfield u_i
    # with u1+u2+u3+u4 = 0 (so the x^3 term vanishes) and a nonzero
    # linear coefficient
    ctx = tower.field
    nonzero = [u for u in tw.subfield_iter(tower) if u != 0]
    for us in combinations(nonzero, 4):
        if us[0] ^ us[1] ^ us[2] ^ us[3] != 0:
            continue
        e2 = e3 = 0
        e4 = 1
        for i, j in combinations(range(4), 2):
            e2 ^= gf.mul(ctx, us[i], us[j])
        for i, j, k in combinations(range(4), 3):
            e3 ^= gf.mul(ctx, gf.mul(ctx, us[i], us[j]), us[k])
        for u in us:
            e4 = gf.mul(ctx, e4, u)
        if e3 != 0:
            return QuarticLW(a2=e2, a1=e3, a0=e4), sorted(us)
    raise AssertionError("no witness quartic found")


def test_quartic_with_roots_is_silent():
    tower = tw.make_tower(3)
    q, roots = _quartic_with_subfield_roots(tower)
    assert loweq.quartic_roots_brute(tower, q) == roots
    rep = loweq.quartic_no_root_lw(tower, q)
    assert rep.verdict is LWVerdict.SILENT


@pytest.mark.parametrize("m", [3, 4, 8])
def test_certificate_never_contradicts_brute_force(m):
    # random subfield quartics: a no-root verdict must mean no roots
    tower = tw.make_tower(m)
    rng = random.Random(23 + m)
    subfield = list(tw.subfield_iter(tower))
    for _ in range(300):
        q = QuarticLW(
            a2=rng.choice(subfield),
            a1=rng.choice(subfield[1:]),
            a0=rng.choice(subfield[1:]),
        )
        rep = loweq.quartic_no_root_lw(tower, q)
        if rep.certifies_no_root:
            assert loweq.quartic_roots_brute(tower, q) == []
        for r in rep.resolvent_roots:
            ctx = tower.field
            assert gf.power(ctx, r, 3) ^ gf.mul(ctx, q.a2, r) ^ q.a1 == 0


def test_quartic_rejects_zero_coefficients(tower4):
    with pytest.raises(ZeroCoefficient):
        loweq.quartic_no_root_lw(tower4, QuarticLW(a2=1, a1=0, a0=1))
    with pytest.raises(ZeroCoefficient):
        loweq.quartic_no_root_lw(tower4, QuarticLW(a2=1, a1=1, a0=0))


# ---------------------------------------------------------------------------
# whole-circle verification of the three families
# ---------------------------------------------------------------------------

def test_verify_eq4_m4(tower4):
    rep = loweq.verify_lemma_quartics(tower4, "eq4")
    assert rep.all_pass and rep.certified
    assert rep.checked == 16  # all of U minus 1
    assert rep.failures == ()


def test_verify_eq6_m6():
    rep = loweq.verify_lemma_quartics(tw.make_tower(6), "eq6")
    assert rep.all_pass and rep.certified


def test_verify_eq8_m3(tower3):
    rep = loweq.verify_lemma_quartics(tower3, "eq8")
    assert rep.all_pass and rep.certified
    # 9 circle points, minus 1, minus the two roots of x^2+x+1 (m odd)
    assert rep.checked == 6


def test_verify_preconditions(tower3):
    with pytest.raises(PreconditionViolated):
        loweq.verify_lemma_quartics(tower3, "eq4")
    with pytest.raises(PreconditionViolated):
        loweq.verify_lemma_quartics(tw.make_tower(6), "eq8")  # gcd(5, 65) = 5


def test_report_json_schema(tower4):
    import json

    rep = loweq.verify_lemma_quartics(tower4, "eq4")
    data = json.loads(rep.to_json())
    assert data["lemma"] == "eq4"
    assert data["m"] == 4
    assert data["modulus"] == "0x11b"
    assert data["all_pass"] is True
    assert data["failures"] == []


def test_internal_coefficient_identities(tower4):
    # with c = x + 1/x: eq4 has (a2, a1) = (c^2/(c^4+1), c^4/(c^4+1)),
    # eq6 has (c^4+c^2, c^4), and Tr_m(1/c) = 1 in both cases
    ctx = tower4.field
    for x in tw.unit_circle_iter(tower4):
        if x == 1:
            continue
        c = x ^ gf.inv(ctx, x)
        c2 = gf.square(ctx, c)
        c4 = gf.square(ctx, c2)
        q4 = loweq.lemma_quartic_coeffs(tower4, "eq4", x)
        assert q4.a2 == gf.div(ctx, c2, c4 ^ 1)
        assert q4.a1 == gf.div(ctx, c4, c4 ^ 1)
        q6 = loweq.lemma_quartic_coeffs(tower4, "eq6", x)
        assert q6.a2 == c4 ^ c2
        assert q6.a1 == c4
        assert tw.subfield_trace(tower4, gf.inv(ctx, c)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_trace_criterion_sweep_has_no_disagreements(n):
    assert loweq.quadratic_criterion_disagreements(gf.make_field(n)) == 0


# ---------------------------------------------------------------------------
# the array kernels against scalar oracles
# ---------------------------------------------------------------------------

def _horner_roots(ctx, subfield, coeffs):  # coeffs[i] multiplies z^i
    roots = []
    for z in subfield:
        acc = 0
        for c in reversed(coeffs):
            acc = gf.mul(ctx, acc, z) ^ c
        if acc == 0:
            roots.append(z)
    return sorted(roots)


def _random_quartics(tower, rng, count):
    """(a2, a1, a0) with subfield coefficients: a2 = 0 in every third, a
    forced subfield root in every other one."""
    ctx = tower.field
    subfield = list(tw.subfield_iter(tower))
    for trial in range(count):
        a2, a1, a0, z = (rng.choice(subfield) for _ in range(4))
        if trial % 3 == 0:
            a2 = 0
        if trial % 2:
            z2 = gf.square(ctx, z)
            a0 = gf.square(ctx, z2) ^ gf.mul(ctx, a2, z2) ^ gf.mul(ctx, a1, z)
        yield a2, a1, a0


@pytest.mark.parametrize("m", [3, 5, 6])
def test_one_row_kernels_match_horner(m):
    tower = tw.make_tower(m)
    ctx = tower.field
    subfield = list(tw.subfield_iter(tower))
    rng = random.Random(101 + m)
    verdicts = set()
    for a2, a1, a0 in _random_quartics(tower, rng, 40):
        q = QuarticLW(a2=a2, a1=a1, a0=a0)
        quartic = _horner_roots(ctx, subfield, [a0, a1, a2, 0, 1])
        assert loweq.quartic_roots_brute(tower, q) == quartic
        cubic = _horner_roots(ctx, subfield, [a1, a2, 0, 1])
        assert loweq.cubic_roots_subfield(tower, a2, a1) == cubic
        if a0 == 0 or a1 == 0:
            continue
        rep = loweq.quartic_no_root_lw(tower, q)
        assert list(rep.resolvent_roots) == cubic
        scale = gf.div(ctx, a0, gf.square(ctx, a1))
        traces = [tw.subfield_trace(tower, gf.mul(ctx, scale, gf.square(ctx, r))) for r in cubic]
        assert list(rep.w_traces) == traces
        verdicts.add(rep.verdict)
    assert LWVerdict.SILENT in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("window", [1, 50, 200])
def test_root_scan_windows_cover_every_row(monkeypatch, window):
    # many polynomials in one call, in windows of 1 row, 3 rows (with a
    # short last window) and 12 rows at m = 4
    monkeypatch.setattr(loweq, "_WINDOW_ELEMS", window)
    tower = tw.make_tower(4)
    ctx = tower.field
    subfield = list(tw.subfield_iter(tower))
    rows = list(_random_quartics(tower, random.Random(7), 37))
    logs = [loweq._logs(tower, "c", [r[i] for r in rows]) for i in range(3)]
    got_rows, got_idx = loweq._zeros(tower, loweq._quartic_terms(*logs))
    found = {i: [] for i in range(len(rows))}
    for r, i in zip(got_rows.tolist(), got_idx.tolist()):
        found[r].append(tower.subfield[i])
    for i, (a2, a1, a0) in enumerate(rows):
        assert sorted(found[i]) == _horner_roots(ctx, subfield, [a0, a1, a2, 0, 1])
    rep = loweq.verify_lemma_quartics(tower, "eq4")
    assert rep.all_pass and rep.certified and rep.checked == 16


def _families_at(m):
    if m % 2 == 0:
        yield "eq4"
        yield "eq6"
    if gcd(5, (1 << m) + 1) == 1:
        yield "eq8"


@pytest.mark.parametrize("which, m", [(w, m) for m in range(3, 9) for w in _families_at(m)])
def test_family_coefficients_match_the_scalar_oracle(which, m):
    tower = tw.make_tower(m)
    ctx = tower.field
    ks, a2, a1, a0 = loweq.family_coefficients(tower, which)
    points = tower.unit_circle[1:].tolist()
    if which == "eq8":
        points = [x for x in points if gf.square(ctx, x) ^ x ^ 1 != 0]
    assert tower.unit_circle[ks].tolist() == points
    for x, c2, c1, c0 in zip(points, a2.tolist(), a1.tolist(), a0.tolist()):
        assert loweq.lemma_quartic_coeffs(tower, which, x) == QuarticLW(a2=c2, a1=c1, a0=c0)


def test_non_subfield_coefficients_raise(tower4):
    gamma = tw.canonical_gamma(tower4)
    with pytest.raises(NotInSubfield, match="a0="):
        loweq.quartic_roots_brute(tower4, QuarticLW(a2=1, a1=1, a0=gamma))
    with pytest.raises(NotInSubfield, match="a2="):
        loweq.quartic_no_root_lw(tower4, QuarticLW(a2=gamma, a1=1, a0=1))
    with pytest.raises(NotInSubfield, match="a1="):
        loweq.cubic_roots_subfield(tower4, 1, gamma)


@pytest.mark.parametrize("argv", [
    "--which eq4 --m 10", "--which eq8 --m 7", "--which lemma1 --m 10", "--which lemma2 --n 12",
])
def test_lemmas_build_no_exp_log_tables(monkeypatch, tmp_path, argv):
    def no_tables(*args):
        raise AssertionError("a lemmas check built the exp/log tables")

    monkeypatch.setattr(_kernels, "exp_table", no_tables)
    out = tmp_path / "out.json"
    assert cli.main(["lemmas", *argv.split(), "--format", "json", "--out", str(out)]) == 0

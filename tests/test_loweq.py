"""Low-degree equation machinery against brute-force oracles."""

import json
import random
import threading
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from nihoperm import _kernels, cli
from nihoperm import field as gf
from nihoperm import loweq
from nihoperm import tower as tw
from nihoperm.errors import NihopermError

from oracles import div, quadratic_disagreements, subfield_trace, trace


def brute_quadratic_roots(ctx, a, b):
    return sorted(
        x for x in range(1 << ctx.n)
        if gf.square(ctx, x) ^ gf.mul(ctx, a, x) ^ b == 0
    )


# ---------------------------------------------------------------------------
# scalar oracles: Horner evaluation and the family coefficients at one point
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


def lemma_quartic_coeffs(tower, which, x):
    """(a2, a1, a0) of a family's quartic at one unit-circle point x, by
    scalar field operations (the formulas of :func:`loweq.family_coefficients`)."""
    ctx = tower.field
    p = [gf.power(ctx, x, i) for i in range(9)]
    if which == "eq4":
        den = gf.inv(ctx, p[8] ^ p[4] ^ 1)
        return gf.mul(ctx, p[6] ^ p[2], den), gf.mul(ctx, p[8] ^ 1, den), 1
    if which == "eq6":
        den = gf.inv(ctx, p[4])
        return gf.mul(ctx, p[8] ^ p[6] ^ p[2] ^ 1, den), gf.mul(ctx, p[8] ^ 1, den), 1
    if which == "eq8":
        t = div(ctx, p[2] ^ 1, p[2] ^ x ^ 1)
        return 0, gf.power(ctx, t, 3), div(ctx, p[8] ^ p[6] ^ p[4] ^ p[2] ^ 1, p[8] ^ p[4] ^ 1)
    raise ValueError(f"unknown quartic family {which!r}")


def _family_quartics(tower, which):
    """The family's (a2, a1, a0) at every point of U \\ {1}."""
    return [lemma_quartic_coeffs(tower, which, x) for x in tower.unit_circle[1:].tolist()]


def _expected_case(tower, a2, a1, a0):
    """The certificate case of z^4 + a2*z^2 + a1*z + a0 from the Horner
    roots r of y^3 + a2*y + a1 and the scalar traces of a0*r^2/a1^2."""
    ctx = tower.field
    scale = div(ctx, a0, gf.square(ctx, a1))
    traces = sorted(
        subfield_trace(tower, gf.mul(ctx, scale, gf.square(ctx, r)))
        for r in _horner_roots(ctx, tower.subfield.tolist(), [a1, a2, 0, 1])
    )
    return {(1,): 1, (0, 1, 1): 2}.get(tuple(traces), 0)


def _zero_scan(tower, polys):
    """Sorted subfield roots of each polynomial sum p[i]*z^i in polys (lists
    of one length), from one :func:`loweq._zeros` call over all of them."""
    terms = [(loweq._logs(tower, f"a{i}", [p[i] for p in polys]), i)
             for i in range(len(polys[0]))]
    rows, idx = loweq._zeros(tower, terms)
    found = [[] for _ in polys]
    for r, i in zip(rows.tolist(), idx.tolist()):
        found[r].append(int(tower.subfield[i]))
    return [sorted(f) for f in found]


def _certify(tower, quartics):
    """loweq._no_root_cases over the (a2, a1, a0) rows, as lists."""
    rooted, cases = loweq._no_root_cases(tower, *zip(*quartics))
    return rooted.tolist(), cases.tolist()


def _random_quartics(tower, rng, count):
    """(a2, a1, a0) with subfield coefficients: a2 = 0 in every third, a
    forced subfield root in every other one."""
    ctx = tower.field
    subfield = tower.subfield.tolist()
    for trial in range(count):
        a2, a1, a0, z = (rng.choice(subfield) for _ in range(4))
        if trial % 3 == 0:
            a2 = 0
        if trial % 2:
            z2 = gf.square(ctx, z)
            a0 = gf.square(ctx, z2) ^ gf.mul(ctx, a2, z2) ^ gf.mul(ctx, a1, z)
        yield a2, a1, a0


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def test_solvable_false_in_f4():
    ctx = gf.make_field(2, 0b111)
    w = 0b10
    # oracle: x^2+x only takes the values {0, 1} on GF(4)
    values = {gf.square(ctx, x) ^ x for x in range(1 << ctx.n)}
    assert values == {0, 1}
    assert w not in values


def test_solvable_agrees_with_brute_force_f16(f16):
    # for a != 0, x^2 + ax + b has a root iff Tr(b/a^2) = 0
    checked = 0
    for a in range(1, 16):
        for b in range(16):
            criterion = trace(f16, div(f16, b, gf.square(f16, a))) == 0
            assert criterion == bool(brute_quadratic_roots(f16, a, b))
            checked += 1
    assert checked == 240


# ---------------------------------------------------------------------------
# cubics over the subfield
# ---------------------------------------------------------------------------

def test_cubic_inseparable_case(tower2):
    # y^3 + y = y (y+1)^2 over GF(4): roots {0, 1}, length 2
    assert _zero_scan(tower2, [[0, 1, 0, 1]]) == [[0, 1]]


def test_cubic_rejects_non_subfield_coeff(tower2):
    gamma = tw.CANONICAL_GAMMA
    with pytest.raises(NihopermError, match=f"^a2={hex(gamma)} is not in the index-2 subfield$"):
        loweq._no_root_cases(tower2, [gamma], [1], [1])


def test_cubic_resolvent_root_closed_form(tower4):
    # for the quartic family of pair (3,-1): with c = x + 1/x, the cubic
    # y^3 + a2*y + a1 has the subfield root c^2/(c^2+1)
    ctx = tower4.field
    quartics = _family_quartics(tower4, "eq4")
    scans = _zero_scan(tower4, [[a1, a2, 0, 1] for a2, a1, _ in quartics])
    for x, roots in zip(tower4.unit_circle[1:].tolist(), scans):
        c = x ^ gf.inv(ctx, x)
        assert div(ctx, gf.square(ctx, c), gf.square(ctx, c) ^ 1) in roots


def test_cubic_random_counts_and_consistency():
    tower = tw.make_tower(6)  # subfield GF(2^6), so the oracle has 64 points
    ctx = tower.field
    rng = random.Random(17)
    subfield = tower.subfield.tolist()
    cubics = [(rng.choice(subfield), rng.choice(subfield)) for _ in range(100)]
    scans = _zero_scan(tower, [[a1, a2, 0, 1] for a2, a1 in cubics])
    for (a2, a1), roots in zip(cubics, scans):
        brute = [
            y for y in subfield
            if gf.power(ctx, y, 3) ^ gf.mul(ctx, a2, y) ^ a1 == 0
        ]
        assert roots == sorted(brute)
        if a1 != 0:  # separable case
            assert len(roots) in (0, 1, 3)
    assert {len(r) for (_, a1), r in zip(cubics, scans) if a1} == {0, 1, 3}


@pytest.mark.parametrize("m", [3, 6, 8, 11])
def test_root_scans_match_a_scalar_loop(m):
    # random subfield coefficients, a1 = 0 in every fourth trial and a
    # forced root z in every other one
    tower = tw.make_tower(m)
    ctx = tower.field
    subfield = tower.subfield.tolist()
    rng = random.Random(41 + m)
    cubics, quartics, forced = [], [], []
    for trial in range(12):
        a2, a1, a0, z = (rng.choice(subfield) for _ in range(4))
        if trial % 4 == 0:
            a1 = 0
        cubic_a1 = a1
        if trial % 2:  # make z a root of both
            z2 = gf.square(ctx, z)
            cubic_a1 = gf.mul(ctx, z2, z) ^ gf.mul(ctx, a2, z)
            a0 = gf.square(ctx, z2) ^ gf.mul(ctx, a2, z2) ^ gf.mul(ctx, a1, z)
        cubics.append([cubic_a1, a2, 0, 1])
        quartics.append([a0, a1, a2, 0, 1])
        forced.append(z if trial % 2 else None)
    found = set()
    for cubic, quartic, c, q, z in zip(_zero_scan(tower, cubics), _zero_scan(tower, quartics),
                                       cubics, quartics, forced):
        assert cubic == _horner_roots(ctx, subfield, c)
        assert quartic == _horner_roots(ctx, subfield, q)
        if z is not None:
            assert z in cubic and z in quartic
        found |= {bool(cubic), bool(quartic)}
    assert found == {True, False}  # both rooted and root-free polynomials


# ---------------------------------------------------------------------------
# quartic no-root certificate
# ---------------------------------------------------------------------------

def test_quartic_family_case1(tower4):
    quartics = _family_quartics(tower4, "eq4")
    rooted, cases = _certify(tower4, quartics)
    assert rooted == [] and cases == [1] * 16
    subfield = tower4.subfield.tolist()
    for a2, a1, a0 in quartics:
        assert _expected_case(tower4, a2, a1, a0) == 1
        assert _horner_roots(tower4.field, subfield, [a0, a1, a2, 0, 1]) == []


def test_quartic_family_case2(tower4):
    # the family of pair (1/5,4/5) at m = 0 mod 4: three resolvent roots
    # with trace multiset {0,1,1}
    # (x^2+x+1 has no root on U at even m, so every point is checked)
    quartics = _family_quartics(tower4, "eq8")
    rooted, cases = _certify(tower4, quartics)
    assert rooted == [] and cases == [2] * 16
    subfield = tower4.subfield.tolist()
    for a2, a1, a0 in quartics:
        assert _expected_case(tower4, a2, a1, a0) == 2
        assert _horner_roots(tower4.field, subfield, [a0, a1, a2, 0, 1]) == []


def _quartic_with_subfield_roots(tower):
    # expand (x+u1)(x+u2)(x+u3)(x+u4) for distinct nonzero subfield u_i
    # with u1+u2+u3+u4 = 0 (so the x^3 term vanishes) and a nonzero
    # linear coefficient
    ctx = tower.field
    nonzero = [u for u in tower.subfield.tolist() if u != 0]
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
            return (e2, e3, e4), sorted(us)
    raise AssertionError("no witness quartic found")


def test_quartic_with_roots_is_silent():
    tower = tw.make_tower(3)
    (a2, a1, a0), roots = _quartic_with_subfield_roots(tower)
    assert _zero_scan(tower, [[a0, a1, a2, 0, 1]]) == [roots]
    assert _certify(tower, [(a2, a1, a0)]) == ([0], [0])


@pytest.mark.parametrize("m", [3, 4, 8])
def test_certificate_never_contradicts_brute_force(m):
    # random subfield quartics: a no-root case must mean no roots, and the
    # case must be the one the Horner roots of the resolvent give
    tower = tw.make_tower(m)
    rng = random.Random(23 + m)
    subfield = tower.subfield.tolist()
    quartics = [(rng.choice(subfield), rng.choice(subfield[1:]), rng.choice(subfield[1:]))
                for _ in range(300)]
    _, cases = _certify(tower, quartics)
    for (a2, a1, a0), case in zip(quartics, cases):
        assert case == _expected_case(tower, a2, a1, a0)
        if case:
            assert _horner_roots(tower.field, subfield, [a0, a1, a2, 0, 1]) == []
    assert 0 in cases and 1 in cases


def test_quartic_rejects_zero_coefficients(tower4):
    message = "^certificate requires a0 != 0 and a1 != 0$"
    with pytest.raises(NihopermError, match=message):
        loweq._no_root_cases(tower4, [1, 1], [1, 0], [1, 1])
    with pytest.raises(NihopermError, match=message):
        loweq._no_root_cases(tower4, [1, 1], [1, 1], [1, 0])


def test_certificate_cases_from_counts_and_trace_sums():
    # one root of trace 1 is case 1, three with traces {0,1,1} case 2;
    # the trace sum 3 of three resolvent roots is impossible (their traces
    # sum to Tr(a0*(r1+r2+r3)^2/a1^2) = 0) but must not certify either
    counts = np.array([1, 1, 3, 3, 3, 3, 0, 2])
    sums = np.array([1, 0, 2, 0, 1, 3, 0, 1])
    assert loweq._cases(counts, sums).tolist() == [1, 0, 2, 0, 0, 0, 0, 0]


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
    with pytest.raises(NihopermError, match="^eq4 needs even m, got m=3$"):
        loweq.verify_lemma_quartics(tower3, "eq4")
    with pytest.raises(NihopermError, match=r"^eq8 needs gcd\(5, 2\^m\+1\)=1, fails at m=6$"):
        loweq.verify_lemma_quartics(tw.make_tower(6), "eq8")  # gcd(5, 65) = 5


def test_report_json_schema(capsys):
    # the report's json form is the line lemmas --format json writes
    assert cli.main(["lemmas", "--which", "eq4", "--m", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lemma"] == "eq4"
    assert data["m"] == 4
    assert data["modulus"] == "0x11b"
    assert data["all_pass"] is True
    assert data["failures"] == []


def test_internal_coefficient_identities(tower4):
    # with c = x + 1/x: eq4 has (a2, a1) = (c^2/(c^4+1), c^4/(c^4+1)),
    # eq6 has (c^4+c^2, c^4), and Tr_m(1/c) = 1 in both cases
    ctx = tower4.field
    for x in tower4.unit_circle.tolist():
        if x == 1:
            continue
        c = x ^ gf.inv(ctx, x)
        c2 = gf.square(ctx, c)
        c4 = gf.square(ctx, c2)
        a2, a1, _ = lemma_quartic_coeffs(tower4, "eq4", x)
        assert a2 == div(ctx, c2, c4 ^ 1)
        assert a1 == div(ctx, c4, c4 ^ 1)
        a2, a1, _ = lemma_quartic_coeffs(tower4, "eq6", x)
        assert a2 == c4 ^ c2
        assert a1 == c4
        assert subfield_trace(tower4, gf.inv(ctx, c)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_trace_criterion_sweep_has_no_disagreements(n):
    assert loweq.quadratic_criterion_disagreements(gf.make_field(n)) == 0


def _with_trace_mask(ctx, mask):
    """A copy of ctx whose cached trace mask is replaced by mask."""
    wrong = gf.FieldCtx(ctx.n, ctx.modulus)
    vars(wrong)["trace_mask"] = mask
    return wrong


def _parity_trace(mask):
    return lambda y: (y & mask).bit_count() & 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_trace_criterion_count_is_exact_under_wrong_masks(n):
    # a wrong trace mask is still a linear functional, so the sweep must
    # count exactly the pairs the scalar oracle finds, not just "some"
    ctx = gf.make_field(n)
    other = random.Random(n).choice([m for m in range(1, 1 << n) if m != ctx.trace_mask])
    for mask in (0, ctx.trace_mask ^ 1, other):
        expected = quadratic_disagreements(ctx, _parity_trace(mask))
        assert expected > 0
        assert loweq.quadratic_criterion_disagreements(_with_trace_mask(ctx, mask)) == expected


def _one_share(monkeypatch, f, *args):
    """f(*args) with the blocks of every loop in one share."""
    with monkeypatch.context() as one_core:
        one_core.setattr(_kernels, "_core_count", lambda: 1)
        return f(*args)


@pytest.mark.parametrize("rows", [1, 4, 5, 64])
def test_trace_criterion_blocks_cover_every_a(monkeypatch, rows):
    # blocks of 1, 4 and 5 rows at n = 6 (the last of 4 and of 5 is short,
    # since neither divides 63) and one short block of 64 rows, in shares
    # for 1, 2, 3 and 7 cores: 63, 16 and 13 blocks make unequal shares for
    # some core count each, and one block makes one share
    monkeypatch.setattr(loweq, "_BLOCK_ELEMS", rows << 6)
    ctx = gf.make_field(6)
    mask = ctx.trace_mask ^ 0b100
    wrong = _with_trace_mask(ctx, mask)
    one_share = _one_share(monkeypatch, loweq.quadratic_criterion_disagreements, wrong)
    assert one_share == quadratic_disagreements(ctx, _parity_trace(mask)) > 0
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(_kernels, "_core_count", lambda: cores)
        assert loweq.quadratic_criterion_disagreements(ctx) == 0
        assert loweq.quadratic_criterion_disagreements(wrong) == one_share


def test_trace_criterion_under_another_modulus():
    # 0x11d is primitive (x itself generates), unlike the default 0x11b
    ctx = gf.make_field(8, 0x11D)
    assert ctx.modulus != gf.make_field(8).modulus and ctx.generator == 0b10
    assert loweq.quadratic_criterion_disagreements(ctx) == 0


# ---------------------------------------------------------------------------
# the array kernels against scalar oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 5, 6])
def test_one_row_kernels_match_horner(m):
    # many random quartics through the certificate path of `lemmas`: the
    # rooted rows, the cubic and quartic root scans and every case against
    # Horner evaluation and scalar traces
    tower = tw.make_tower(m)
    ctx = tower.field
    subfield = tower.subfield.tolist()
    quartics = list(_random_quartics(tower, random.Random(101 + m), 40))
    cubic_scans = _zero_scan(tower, [[a1, a2, 0, 1] for a2, a1, _ in quartics])
    quartic_scans = _zero_scan(tower, [[a0, a1, a2, 0, 1] for a2, a1, a0 in quartics])
    for (a2, a1, a0), cubic, quartic in zip(quartics, cubic_scans, quartic_scans):
        assert cubic == _horner_roots(ctx, subfield, [a1, a2, 0, 1])
        assert quartic == _horner_roots(ctx, subfield, [a0, a1, a2, 0, 1])
    certified = [q for q in quartics if q[1] and q[2]]
    rooted, cases = _certify(tower, certified)
    assert rooted == [row for row, (a2, a1, a0) in enumerate(certified)
                      if _horner_roots(ctx, subfield, [a0, a1, a2, 0, 1])]
    assert cases == [_expected_case(tower, *q) for q in certified]
    assert 0 in cases and len(set(cases)) > 1


@pytest.mark.parametrize("window", [1, 50, 200])
def test_root_scan_windows_cover_every_row(monkeypatch, window):
    # many polynomials in one call, in windows of 1 row, 3 rows and 13 rows
    # at m = 4 (37 rows: the last window of 3 and of 13 is short), in shares
    # for 1, 2, 3 and 7 cores: 37, 13 and 3 windows make unequal shares for
    # some core count each
    monkeypatch.setattr(loweq, "_WINDOW_ELEMS", window)
    tower = tw.make_tower(4)
    ctx = tower.field
    subfield = tower.subfield.tolist()
    polys = [[a0, a1, a2, 0, 1] for a2, a1, a0 in _random_quartics(tower, random.Random(7), 37)]
    terms = [(loweq._logs(tower, f"a{i}", [p[i] for p in polys]), i) for i in range(5)]
    one_share = [a.tolist() for a in _one_share(monkeypatch, loweq._zeros, tower, terms)]
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(_kernels, "_core_count", lambda: cores)
        for poly, roots in zip(polys, _zero_scan(tower, polys)):
            assert roots == _horner_roots(ctx, subfield, poly)
        assert [a.tolist() for a in loweq._zeros(tower, terms)] == one_share
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
        assert lemma_quartic_coeffs(tower, which, x) == (c2, c1, c0)


def test_non_subfield_coefficients_raise(tower4):
    gamma = tw.CANONICAL_GAMMA
    outside = f"={hex(gamma)} is not in the index-2 subfield$"
    with pytest.raises(NihopermError, match="^a0" + outside):
        loweq._no_root_cases(tower4, [1], [1], [gamma])
    with pytest.raises(NihopermError, match="^a2" + outside):
        loweq._no_root_cases(tower4, [gamma], [1], [1])
    with pytest.raises(NihopermError, match="^a1" + outside):
        loweq._no_root_cases(tower4, [1, 1], [1, gamma], [1, 1])


@pytest.mark.parametrize("argv", ["--which lemma2 --n 8", "--which eq4 --m 8"])
def test_one_block_lemmas_start_no_thread(monkeypatch, tmp_path, argv):
    # lemma2 at n = 8 is one block of a, and eq4 at m = 8 one window of each
    # root scan, so on any number of cores each loop runs on the caller
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-block loop started a thread")

    monkeypatch.setattr(_kernels, "_core_count", lambda: 2)
    monkeypatch.setattr(threading, "Thread", no_thread)
    out = tmp_path / "out.json"
    assert cli.main(["lemmas", *argv.split(), "--format", "json", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    "--which eq4 --m 10", "--which eq8 --m 7", "--which lemma1 --m 10", "--which lemma2 --n 12",
])
def test_lemmas_build_no_exp_log_tables(monkeypatch, tmp_path, argv):
    def no_tables(*args):
        raise AssertionError("a lemmas check built the exp/log tables")

    monkeypatch.setattr(_kernels, "exp_table", no_tables)
    out = tmp_path / "out.json"
    assert cli.main(["lemmas", *argv.split(), "--format", "json", "--out", str(out)]) == 0

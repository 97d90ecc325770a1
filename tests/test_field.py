"""GF(2^n) core arithmetic against independent oracles."""

import random

import pytest

from nihoperm import field as gf
from nihoperm.errors import NihopermError

from oracles import trace


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def poly_mul_plain(a: int, b: int) -> int:
    res = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            res ^= a << i
        i += 1
    return res


def poly_divides(d: int, p: int) -> bool:
    while p.bit_length() >= d.bit_length() and p:
        p ^= d << (p.bit_length() - d.bit_length())
    return p == 0


def irreducible_by_trial_division(p: int) -> bool:
    deg = p.bit_length() - 1
    if deg <= 0:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if d.bit_length() - 1 < 1:
            continue
        if poly_divides(d, p):
            return False
    return True


def brute_inverse(ctx, a: int) -> int:
    for y in range(1 << ctx.n):
        if gf.mul(ctx, a, y) == 1:
            return y
    raise AssertionError


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_default_modulus_is_first_irreducible_in_lex_order():
    # oracle: ascending integer scan with trial-division irreducibility
    for n in range(2, 11):
        first = next(
            p for p in range(1 << n, 1 << (n + 1))
            if irreducible_by_trial_division(p)
        )
        assert gf.make_field(n).modulus == first


def test_default_modulus_f16(f16):
    assert f16.modulus == 0b10011  # x^4 + x + 1
    assert f16.to_hex() == "0x13"


def test_f4_unique_quadratic():
    ctx = gf.make_field(2, 0b111)
    assert ctx.modulus == 0b111


def test_reducible_modulus_rejected():
    # x^4 + x^2 + 1 = (x^2+x+1)^2
    assert not irreducible_by_trial_division(0b10101)
    with pytest.raises(NihopermError, match=r"^modulus 0x15 factors over GF\(2\)$"):
        gf.make_field(4, 0b10101)


def test_quartic_cyclotomic_is_accepted():
    # x^4+x^3+x^2+x+1 is irreducible (2 has order 4 mod 5)
    assert irreducible_by_trial_division(0b11111)
    ctx = gf.make_field(4, 0b11111)
    assert ctx.modulus == 0b11111


def test_degree_mismatch():
    with pytest.raises(NihopermError, match="^modulus 0x7 has degree 2, expected 4$"):
        gf.make_field(4, 0b111)


def test_negative_modulus_rejected():
    # poly_degree(-0x13) is 4, so only the sign check stops -0x13 at n = 4
    assert gf.poly_degree(-0x13) == 4
    with pytest.raises(ValueError, match="modulus -0x13 is negative"):
        gf.make_field(4, -0x13)


def test_degree_bounds():
    with pytest.raises(ValueError):
        gf.make_field(1)
    with pytest.raises(ValueError):
        gf.make_field(33)


def test_hex_roundtrip(f16):
    # the modulus as --modulus takes it
    assert gf.make_field(4, int(f16.to_hex(), 16)).modulus == f16.modulus


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_omega_squared_in_f4():
    ctx = gf.make_field(2, 0b111)
    w = 0b10
    assert gf.mul(ctx, w, w) == w ^ 1  # omega^2 = omega + 1 forced by modulus


def test_inverse_of_x_in_f16(f16):
    assert brute_inverse(f16, 0b0010) == 0b1001
    assert gf.inv(f16, 0b0010) == 0b1001


def test_inverses_match_brute_force_everywhere(f16):
    for a in range(1, 16):
        assert gf.inv(f16, a) == brute_inverse(f16, a)


def test_inv_zero_raises(f16):
    with pytest.raises(NihopermError, match="^0 has no multiplicative inverse$"):
        gf.inv(f16, 0)


def test_pow_group_order(f256):
    for x in range(1, 1 << 8):
        assert gf.power(f256, x, f256.group_order) == 1


def test_pow_zero_base_conventions(f16):
    assert gf.power(f16, 0, 0) == 1
    assert gf.power(f16, 0, 5) == 0
    with pytest.raises(NihopermError, match="^0 cannot be raised to a negative power$"):
        gf.power(f16, 0, -1)


def test_pow_negative_exponent(f16):
    for x in range(1, 16):
        assert gf.power(f16, x, -1) == gf.inv(f16, x)
        assert gf.power(f16, x, -7) == gf.inv(f16, gf.power(f16, x, 7))


def test_pow_frobenius_fixed_field():
    # x^(2^n) = x for every element, exhaustively
    for n in (2, 3, 4, 8, 16):
        ctx = gf.make_field(n)
        for x in range(1 << ctx.n):
            assert gf.power(ctx, x, 1 << n) == x


@pytest.mark.parametrize("n", [4, 7, 8, 12])
def test_field_axioms_random(n):
    ctx = gf.make_field(n)
    rng = random.Random(12345 + n)
    size = 1 << n
    for _ in range(10_000):
        a = rng.randrange(size)
        b = rng.randrange(size)
        c = rng.randrange(size)
        assert a ^ a == 0  # additive self-inverse
        assert gf.mul(ctx, a, b) == gf.mul(ctx, b, a)
        assert gf.mul(ctx, gf.mul(ctx, a, b), c) == gf.mul(ctx, a, gf.mul(ctx, b, c))
        assert gf.mul(ctx, a, b ^ c) == gf.mul(ctx, a, b) ^ gf.mul(ctx, a, c)
        if a:
            assert gf.mul(ctx, a, gf.inv(ctx, a)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12, 16, 20])
def test_scalar_ops_match_exp_log_arithmetic(n):
    # index arithmetic on the discrete log: g^i * g^j = g^(i+j), and so on;
    # every operand pair at n <= 6, random pairs above
    ctx = gf.make_field(n)
    exp, log = (t.tolist() for t in ctx.exp_log)
    order = ctx.group_order
    if n <= 6:
        pairs = [(a, b) for a in range(1, 1 << n) for b in range(1, 1 << n)]
    else:
        rng = random.Random(n)
        pairs = [(rng.randrange(1, 1 << n), rng.randrange(1, 1 << n)) for _ in range(400)]
    for a, b in pairs:
        la, lb = log[a], log[b]
        assert gf.mul(ctx, a, b) == exp[(la + lb) % order]
        assert gf.mul(ctx, a, 0) == gf.mul(ctx, 0, b) == 0
        assert gf.inv(ctx, a) == exp[-la % order]
        for e in (b, b - (1 << n), b + 2 * order):  # reduced, negative, large
            assert gf.power(ctx, a, e) == exp[la * e % order]


# ---------------------------------------------------------------------------
# traces and Frobenius
# ---------------------------------------------------------------------------

def mask_trace(ctx, x):
    """Tr(x) as the package reads it: the parity of x & ctx.trace_mask."""
    return (x & ctx.trace_mask).bit_count() & 1


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
def test_trace_matches_naive_sum_exhaustively(n):
    ctx = gf.make_field(n)
    for x in range(1 << ctx.n):
        assert mask_trace(ctx, x) == trace(ctx, x)


def test_trace_of_zero_and_omega():
    ctx = gf.make_field(2, 0b111)
    assert mask_trace(ctx, 0) == 0
    assert mask_trace(ctx, 0b10) == 1  # omega + omega^2 = 1


def test_trace_frobenius_invariant(f256):
    rng = random.Random(5)
    for _ in range(200):
        x = rng.randrange(256)
        assert mask_trace(f256, gf.square(f256, x)) == mask_trace(f256, x)


def relative_trace(ctx, x: int, k: int) -> int:
    """Tr_{2^n/2^k}(x) = sum of x^(2^(k*i)) for i < n/k, by repeated squaring."""
    acc, t = 0, x
    for _ in range(ctx.n // k):
        acc ^= t
        for _ in range(k):
            t = gf.square(ctx, t)
    return acc


def test_trace_rel_identity_and_transitivity(f256):
    rng = random.Random(6)
    for _ in range(100):
        x = rng.randrange(256)
        assert relative_trace(f256, x, 8) == x
        for k in (1, 2, 4):
            y = relative_trace(f256, x, k)
            # fold the intermediate trace down to GF(2) by hand
            acc, t = 0, y
            for _ in range(k):
                acc ^= t
                t = gf.square(f256, t)
            assert acc == mask_trace(f256, x)


def test_trace_rel_lands_in_subfield(f16):
    for x in range(1 << f16.n):
        y = relative_trace(f16, x, 2)
        assert y == gf.power(f16, y, 4)  # fixed by x -> x^4, i.e. in GF(4)
        assert y == gf.power(f16, x, 4) ^ x  # definition: x + x^4


# ---------------------------------------------------------------------------
# generator and cube cosets
# ---------------------------------------------------------------------------

def brute_order(ctx, x):
    y = x
    k = 1
    while y != 1:
        y = gf.mul(ctx, y, x)
        k += 1
    return k


def test_canonical_generator_is_smallest_primitive(f16, f256):
    for ctx in (f16, f256):
        expected = next(
            g for g in range(2, 1 << ctx.n)
            if brute_order(ctx, g) == ctx.group_order
        )
        assert ctx.generator == expected


def test_generator_is_searched_once_per_field(monkeypatch):
    # every new context of a field reuses the first context's search
    gf.make_field(18).generator
    calls = []
    power = gf.power

    def counted(ctx, x, e):
        calls.append(x)
        return power(ctx, x, e)
    monkeypatch.setattr(gf, "power", counted)
    assert gf.make_field(18).generator == gf.make_field(18, gf.smallest_irreducible(18)).generator
    assert calls == []

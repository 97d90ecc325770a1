"""Arithmetic in GF(2^n) on bit-packed polynomial-basis elements.

Elements are plain Python ints: bit i is the coefficient of x^i, so 0 is
the zero element and 1 the multiplicative identity. The interpretation is
carried by an immutable :class:`FieldCtx` passed to every operation, never
by the elements themselves. Addition is XOR; multiplication is the
carry-less product of the two ints reduced by the context's irreducible
modulus, the one path every scalar operation takes at every n. Bulk
operations on arrays live in :mod:`._kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt

import numpy as np

from . import _kernels
from .errors import NihopermError

#: largest degree for which :attr:`FieldCtx.exp_log` builds its tables
#: (8 MiB per table).
TABLE_MAX = 20

#: largest degree accepted by make_field.
DEGREE_MAX = 32


# ---------------------------------------------------------------------------
# polynomials over GF(2), packed as ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def poly_degree(p: int) -> int:
    """Degree of a packed GF(2) polynomial (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def _poly_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _factorize(x: int) -> list[int]:
    """Distinct prime factors of x (trial division; fine for x < 2^64)."""
    primes = []
    for p in [2, 3]:
        if x % p == 0:
            primes.append(p)
            while x % p == 0:
                x //= p
    d = 5
    while d <= isqrt(x):
        for p in (d, d + 2):
            if x % p == 0:
                primes.append(p)
                while x % p == 0:
                    x //= p
        d += 6
    if x > 1:
        primes.append(x)
    return primes


def is_irreducible(p: int) -> bool:
    """Rabin irreducibility test for a packed GF(2) polynomial."""
    d = poly_degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not (p & 1):
        return False  # divisible by x
    # x^(2^d) == x mod p, and gcd(x^(2^(d/q)) - x, p) == 1 for prime q | d
    ctx = FieldCtx(d, p)
    t = 2
    powers = {}
    for i in range(1, d + 1):
        t = mul(ctx, t, t)
        powers[i] = t
    if powers[d] != 2:
        return False
    for q in _factorize(d):
        if _poly_gcd(powers[d // q] ^ 2, p) != 1:
            return False
    return True


@cache
def smallest_irreducible(n: int) -> int:
    """Smallest (as an integer bitmask) irreducible polynomial of degree n
    (memoized: every default field and tower asks for it)."""
    for p in range(1 << n, 1 << (n + 1)):
        if is_irreducible(p):
            return p
    raise AssertionError("unreachable: irreducibles exist in every degree")


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCtx:
    """Immutable description of GF(2^n).

    Attributes
    ----------
    n : extension degree over GF(2), 2 <= n <= 32.
    modulus : packed irreducible polynomial of degree exactly n.
    """

    n: int
    modulus: int

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def red(self) -> int:
        """Modulus with the leading x^n term stripped (reduction value)."""
        return self.modulus & self.mask

    @property
    def group_order(self) -> int:
        return (1 << self.n) - 1

    @property
    def generator(self) -> int:
        """Canonical generator: smallest bitmask of multiplicative order 2^n-1."""
        return _least_generator(self.n, self.modulus)

    @cached_property
    def exp_log(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(exp, log) tables over the canonical generator, or None if n > TABLE_MAX.

        exp[i] = g^i for 0 <= i < 2^n-1; log[exp[i]] = i, log[0] = -1. No
        field operation reads them: they are a discrete log to check the
        operations against.
        """
        if self.n > TABLE_MAX:
            return None
        exp = _kernels.exp_table(self.n, self.red, self.generator)
        log = np.empty(1 << self.n, dtype=np.int64)
        log[0] = -1
        log[exp] = np.arange(self.group_order, dtype=np.int64)
        return exp, log

    @cached_property
    def trace_mask(self) -> int:
        """Bitmask T with parity(x & T) = absolute trace of x (trace is GF(2)-linear)."""
        t = 0
        for i in range(self.n):
            if _trace_by_squaring(self, 1 << i):
                t |= 1 << i
        return t

    def to_hex(self) -> str:
        return hex(self.modulus)


@cache
def _least_generator(n: int, modulus: int) -> int:
    """The search behind :attr:`FieldCtx.generator`, once per (n, modulus)."""
    ctx = FieldCtx(n, modulus)
    order = ctx.group_order
    primes = _factorize(order)
    for g in range(2, 1 << n):
        if all(power(ctx, g, order // p) != 1 for p in primes):
            return g
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def _trace_by_squaring(ctx: FieldCtx, x: int) -> int:
    acc = 0
    y = x
    for _ in range(ctx.n):
        acc ^= y
        y = mul(ctx, y, y)
    assert acc in (0, 1)
    return acc


def make_field(n: int, modulus: int | None = None) -> FieldCtx:
    """Build a GF(2^n) context, 2 <= n <= 32.

    With ``modulus=None`` the lexicographically smallest irreducible
    polynomial of degree n is selected, so contexts are reproducible
    across runs. A supplied modulus must be nonnegative, have degree
    exactly n and be irreducible; else NihopermError names the failure.
    """
    if not 2 <= n <= DEGREE_MAX:
        raise NihopermError(f"extension degree must be in [2, {DEGREE_MAX}], got {n}")
    if modulus is None:
        modulus = smallest_irreducible(n)
    else:
        if modulus < 0:
            raise NihopermError(f"modulus {hex(modulus)} is negative")
        if poly_degree(modulus) != n:
            raise NihopermError(
                f"modulus {hex(modulus)} has degree {poly_degree(modulus)}, expected {n}"
            )
        if not is_irreducible(modulus):
            raise NihopermError(f"modulus {hex(modulus)} factors over GF(2)")
    return FieldCtx(n=n, modulus=modulus)


# ---------------------------------------------------------------------------
# element operations (pure functions of (ctx, inputs))
# ---------------------------------------------------------------------------

def mul(ctx: FieldCtx, a: int, b: int) -> int:
    """a*b: the carry-less product, a shifted by each set bit of b, then
    reduced by XORing in the modulus under its leading bit until the degree
    drops below n."""
    res = 0
    while b:
        low = b & -b
        res ^= a * low
        b ^= low
    n, mod = ctx.n, ctx.modulus
    top = res.bit_length()
    while top > n:
        res ^= mod << (top - 1 - n)
        top = res.bit_length()
    return res


def square(ctx: FieldCtx, a: int) -> int:
    return mul(ctx, a, a)


def inv(ctx: FieldCtx, a: int) -> int:
    """Multiplicative inverse; raises NihopermError on 0."""
    if a == 0:
        raise NihopermError("0 has no multiplicative inverse")
    return power(ctx, a, -1)


def power(ctx: FieldCtx, x: int, e: int) -> int:
    """x^e for any integer e.

    For nonzero x the exponent is reduced mod 2^n-1 (negative exponents go
    through the inverse). For x = 0: 0^0 = 1, 0^e = 0 for e > 0, and e < 0
    raises NihopermError. The x=0 rules keep polynomial evaluation total.
    Square-and-multiply over the bits of the reduced exponent.
    """
    if x == 0:
        if e == 0:
            return 1
        if e > 0:
            return 0
        raise NihopermError("0 cannot be raised to a negative power")
    e %= ctx.group_order
    res = 1
    while e:
        if e & 1:
            res = mul(ctx, res, x)
        e >>= 1
        if e:
            x = mul(ctx, x, x)
    return res

"""Roots and no-root certificates for degree <= 4 equations in char 2.

Covers, over GF(2^n) and its index-2 subfield:

* the trace criterion for x^2 + ax + b (solvable iff Tr(b/a^2) = 0) plus an
  explicit Artin-Schreier solver, so root sets are constructed, not searched;
* subfield roots of depressed cubics y^3 + a2*y + a1 and of quartics, by
  one array evaluation over the whole subfield;
* the resolvent-cubic no-root certificate for quartics
  h(z) = z^4 + a2*z^2 + a1*z + a0 with a0*a1 != 0: with r_i the subfield
  roots of y^3 + a2*y + a1 and w_i = a0*r_i^2/a1^2, h has no subfield root
  if either exactly one r_1 exists with Tr(w_1) = 1 ("case 1") or three
  exist with trace multiset {0, 1, 1} ("case 2");
* batch verification that the three quartic families attached to the pairs
  (3,-1), (-2/3,5/3) and (1/5,4/5) have no subfield roots for any
  unit-circle x != 1, both by brute evaluation and by certificate.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import _kernels
from . import field as gf
from . import tower as tw
from .errors import (
    NotInSubfield,
    PreconditionViolated,
    ZeroCoefficient,
    ZeroLinearCoefficient,
)
from .field import FieldCtx
from .tower import TowerCtx


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def quadratic_solvable(ctx: FieldCtx, a: int, b: int) -> bool:
    """True iff x^2 + ax + b has a root in GF(2^n); requires a != 0.

    The a = 0 case is a perfect square and always solvable; use
    :func:`quadratic_roots` for it.
    """
    if a == 0:
        raise ZeroLinearCoefficient("criterion needs a != 0")
    return gf.trace_abs(ctx, gf.div(ctx, b, gf.square(ctx, a))) == 0


def quadratic_criterion_disagreements(ctx: FieldCtx) -> int:
    """Count pairs (a != 0, b) where the trace criterion and brute-force
    root existence for x^2 + ax + b disagree. The expected value is 0.

    Vectorized over b for each a (the map x -> x^2 + ax is GF(2)-linear, so
    its full image doubles as the brute-force oracle). Requires the
    context's log tables, i.e. n <= TABLE_MAX.
    """
    tables = ctx.exp_log
    if tables is None:
        raise ValueError(f"sweep needs log tables (n <= {gf.TABLE_MAX})")
    exp, log = tables
    order = ctx.group_order
    size = 1 << ctx.n
    xs = np.arange(size, dtype=np.int64)
    lv = log[1:]
    sq = np.zeros(size, dtype=np.int64)
    sq[1:] = exp[(lv * 2) % order]
    tr = (np.bitwise_count(xs & ctx.trace_mask) & 1).astype(bool)
    disagreements = 0
    for a in range(1, size):
        la = int(log[a])
        ax = np.zeros(size, dtype=np.int64)
        ax[1:] = exp[(lv + la) % order]
        has_root = np.zeros(size, dtype=bool)
        has_root[sq ^ ax] = True
        # b / a^2 for every b, via log arithmetic
        shift = (order - (2 * la) % order) % order
        c = np.zeros(size, dtype=np.int64)
        c[1:] = exp[(lv + shift) % order]
        solvable = ~tr[c]
        disagreements += int(np.count_nonzero(solvable != has_root))
    return disagreements


def _trace_one_element(ctx: FieldCtx) -> int:
    for x in gf.elements(ctx):
        if gf.trace_abs(ctx, x) == 1:
            return x
    raise AssertionError("unreachable: trace is onto GF(2)")


def solve_artin_schreier(ctx: FieldCtx, c: int) -> int | None:
    """A root of r^2 + r = c, or None when Tr(c) = 1 (no root exists).

    Uses the closed form r = sum_i S_i * d^(2^i) with S_i the partial sums
    of the conjugates of c and d any fixed element of trace 1; the other
    root is r + 1.
    """
    if gf.trace_abs(ctx, c) != 0:
        return None
    d = _trace_one_element(ctx)
    r = 0
    s = 0  # S_i = c + c^2 + ... + c^(2^(i-1)), starting at S_0 = 0
    dp = d
    cp = c
    for _ in range(ctx.n):
        r ^= gf.mul(ctx, s, dp)
        s ^= cp
        cp = gf.square(ctx, cp)
        dp = gf.square(ctx, dp)
    assert gf.square(ctx, r) ^ r == c
    return r


def quadratic_roots(ctx: FieldCtx, a: int, b: int) -> tuple[int, ...]:
    """Exact root set of x^2 + ax + b in GF(2^n), sorted by bitmask.

    Size 1 when a = 0 (squaring is bijective), otherwise 0 or 2.
    """
    if a == 0:
        return (gf.sqrt(ctx, b),)
    c = gf.div(ctx, b, gf.square(ctx, a))
    r = solve_artin_schreier(ctx, c)
    if r is None:
        return ()
    x1 = gf.mul(ctx, a, r)
    return tuple(sorted((x1, x1 ^ a)))


# ---------------------------------------------------------------------------
# cubics and quartics over the subfield
# ---------------------------------------------------------------------------

def _require_subfield(tower: TowerCtx, name: str, v: int) -> None:
    if not tw.in_subfield(tower, v):
        raise NotInSubfield(f"{name}={hex(v)} is not in the index-2 subfield")


def _subfield_roots(tower: TowerCtx, terms) -> list[int]:
    """Subfield roots of sum c*z^e over the (c, e) in terms, sorted by bitmask.

    Evaluates at every z of ``tower.subfield`` at once: z = b^k gives
    z^e = b^(ek mod q-1), a gather from the same array, and z = 0 leaves
    only the constant term.
    """
    ctx = tower.field
    powers = tower.subfield[1:]
    k = np.arange(powers.size)
    value = np.zeros(tower.subfield_order, dtype=np.uint32)
    for c, e in terms:
        if e == 0:
            value[0] ^= c
        value[1:] ^= _kernels.mul_const(powers[e * k % powers.size], c, ctx.n, ctx.red)
    return sorted(tower.subfield[value == 0].tolist())


def cubic_roots_subfield(tower: TowerCtx, a2: int, a1: int) -> list[int]:
    """Subfield roots of y^3 + a2*y + a1, sorted by bitmask.

    Coefficients must lie in the subfield. Separable cubics have 0, 1 or 3
    roots; the inseparable case (a1 = 0, a2 != 0) yields 2.
    """
    _require_subfield(tower, "a2", a2)
    _require_subfield(tower, "a1", a1)
    return _subfield_roots(tower, [(1, 3), (a2, 1), (a1, 0)])


@dataclass(frozen=True)
class QuarticLW:
    """h(z) = z^4 + a2*z^2 + a1*z + a0 with subfield coefficients, a0*a1 != 0."""

    a2: int
    a1: int
    a0: int


class LWVerdict(enum.Enum):
    NO_ROOT_CASE1 = "no_root_case1"  # one resolvent root, Tr(w1) = 1
    NO_ROOT_CASE2 = "no_root_case2"  # three resolvent roots, traces {0,1,1}
    SILENT = "silent"  # the certificate does not apply


@dataclass(frozen=True)
class LWReport:
    verdict: LWVerdict
    resolvent_roots: tuple[int, ...]
    w_traces: tuple[int, ...]

    @property
    def certifies_no_root(self) -> bool:
        return self.verdict is not LWVerdict.SILENT


def quartic_roots_brute(tower: TowerCtx, q: QuarticLW) -> list[int]:
    """All subfield roots of h, by direct evaluation over the subfield."""
    return _subfield_roots(tower, [(1, 4), (q.a2, 2), (q.a1, 1), (q.a0, 0)])


def quartic_no_root_lw(tower: TowerCtx, q: QuarticLW) -> LWReport:
    """Resolvent-cubic no-root certificate for h (see module docstring).

    Returns the verdict together with the resolvent roots r_i and the
    traces of w_i = a0*r_i^2/a1^2 so callers can audit the certificate.
    SILENT carries no information: the criterion only ever certifies the
    two no-root patterns, never the presence of a root.
    """
    if q.a0 == 0 or q.a1 == 0:
        raise ZeroCoefficient("certificate requires a0 != 0 and a1 != 0")
    _require_subfield(tower, "a0", q.a0)
    _require_subfield(tower, "a1", q.a1)
    _require_subfield(tower, "a2", q.a2)
    ctx = tower.field
    roots = cubic_roots_subfield(tower, q.a2, q.a1)
    scale = gf.div(ctx, q.a0, gf.square(ctx, q.a1))
    traces = tuple(
        tw.subfield_trace(tower, gf.mul(ctx, scale, gf.square(ctx, r))) for r in roots
    )
    if len(roots) == 1 and traces[0] == 1:
        verdict = LWVerdict.NO_ROOT_CASE1
    elif len(roots) == 3 and sorted(traces) == [0, 1, 1]:
        verdict = LWVerdict.NO_ROOT_CASE2
    else:
        verdict = LWVerdict.SILENT
    return LWReport(verdict=verdict, resolvent_roots=tuple(roots), w_traces=traces)


# ---------------------------------------------------------------------------
# the three unit-circle quartic families
# ---------------------------------------------------------------------------

#: quartic family id -> the Niho pair whose verification it underpins
QUARTIC_FAMILY_PAIRS = {
    "eq4": "3,-1",
    "eq6": "-2/3,5/3",
    "eq8": "1/5,4/5",
}


def lemma_quartic_coeffs(tower: TowerCtx, which: str, x: int) -> QuarticLW:
    """Quartic coefficients at a unit-circle point x for family eq4/eq6/eq8.

    eq4: a2 = (x^6+x^2)/(x^8+x^4+1), a1 = (x^8+1)/(x^8+x^4+1), a0 = 1
    eq6: a2 = (x^8+x^6+x^2+1)/x^4,   a1 = (x^8+1)/x^4,         a0 = 1
    eq8: a2 = 0, a1 = ((x^2+1)/(x^2+x+1))^3,
         a0 = (x^8+x^6+x^4+x^2+1)/(x^8+x^4+1)

    All three land in the subfield because they are invariant under
    x -> 1/x, which is conjugation on the unit circle.
    """
    ctx = tower.field
    p = [gf.power(ctx, x, i) for i in range(9)]
    if which == "eq4":
        den = gf.inv(ctx, p[8] ^ p[4] ^ 1)
        return QuarticLW(
            a2=gf.mul(ctx, p[6] ^ p[2], den),
            a1=gf.mul(ctx, p[8] ^ 1, den),
            a0=1,
        )
    if which == "eq6":
        den = gf.inv(ctx, p[4])
        return QuarticLW(
            a2=gf.mul(ctx, p[8] ^ p[6] ^ p[2] ^ 1, den),
            a1=gf.mul(ctx, p[8] ^ 1, den),
            a0=1,
        )
    if which == "eq8":
        t = gf.div(ctx, p[2] ^ 1, p[2] ^ x ^ 1)
        return QuarticLW(
            a2=0,
            a1=gf.power(ctx, t, 3),
            a0=gf.div(ctx, p[8] ^ p[6] ^ p[4] ^ p[2] ^ 1, p[8] ^ p[4] ^ 1),
        )
    raise ValueError(f"unknown quartic family {which!r}")


@dataclass(frozen=True)
class QuarticFamilyReport:
    lemma: str
    m: int
    modulus: str
    all_pass: bool
    failures: tuple[str, ...]
    certified: bool
    checked: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "lemma": self.lemma,
                "m": self.m,
                "modulus": self.modulus,
                "all_pass": self.all_pass,
                "failures": list(self.failures),
                "certified": self.certified,
                "checked": self.checked,
            }
        )


def _expected_verdict(which: str, m: int) -> LWVerdict:
    if which in ("eq4", "eq6"):
        return LWVerdict.NO_ROOT_CASE1
    return LWVerdict.NO_ROOT_CASE1 if m % 2 == 1 else LWVerdict.NO_ROOT_CASE2


def verify_lemma_quartics(tower: TowerCtx, which: str) -> QuarticFamilyReport:
    """Check a quartic family's no-root claim over the whole unit circle.

    For every x in U \\ {1} (eq8 additionally skips the two points with
    x^2+x+1 = 0, which reduce to the trivial branch) the quartic is built
    from x, brute evaluation over the subfield confirms it has no root,
    and the certificate of :func:`quartic_no_root_lw` is required to fire
    with the verdict the family predicts (case 1 for eq4/eq6 and for eq8
    at odd m; case 2 for eq8 at m = 0 mod 4).

    Preconditions: m even for eq4/eq6; gcd(5, 2^m+1) = 1 for eq8.
    """
    which = which.lower()
    if which not in QUARTIC_FAMILY_PAIRS:
        raise ValueError(f"unknown quartic family {which!r}")
    m = tower.m
    if which in ("eq4", "eq6") and m % 2 != 0:
        raise PreconditionViolated(f"{which} needs even m, got m={m}")
    if which == "eq8" and gcd(5, (1 << m) + 1) != 1:
        raise PreconditionViolated(f"eq8 needs gcd(5, 2^m+1)=1, fails at m={m}")
    ctx = tower.field
    expected = _expected_verdict(which, m)
    failures = []
    certified = True
    checked = 0
    for x in tower.unit_circle[1:].tolist():
        if which == "eq8" and gf.square(ctx, x) ^ x ^ 1 == 0:
            continue
        q = lemma_quartic_coeffs(tower, which, x)
        if quartic_roots_brute(tower, q):
            failures.append(hex(x))
        if quartic_no_root_lw(tower, q).verdict is not expected:
            certified = False
        checked += 1
    return QuarticFamilyReport(
        lemma=which,
        m=m,
        modulus=ctx.to_hex(),
        all_pass=not failures,
        failures=tuple(failures),
        certified=certified,
        checked=checked,
    )

"""Niho pairs, their trinomials, and every named construction family.

A pair (s, t) of residues mod 2^m+1 defines the trinomial

    f(x) = x + x^(s(2^m-1)+1) + x^(t(2^m-1)+1)   over GF(2^(2m)).

Pairs are unordered (the polynomial is symmetric in s and t) and may be
entered as fractions a/b, meaning a * b^(-1) mod 2^m+1. Degenerate inputs
collapse instead of erroring: s = t cancels the two trailing terms down to
x, and s = 0 or t = 0 merges a term into the leading x.

Besides raw pairs the module materializes:

* the inverse-exponent transforms that map a permutation pair to further
  permutation pairs (closing these out gives the pair's orbit);
* the known-pair table with per-m conditions and equivalent pairs, each
  fixed row written once, as labels that are parsed at m, and the notes
  on a pair that matches a row whose condition fails
  (:func:`known_row_notes`);
* one table of the families F1-F9 (published shapes with their hypotheses),
  T3-T6 and C1-C4: F8 and T3-T6 are known-pair rows (:data:`PAIR_FAMILIES`),
  and C1-C4 are x^((2^m+1)k) times T3-T6. :func:`family_trinomial` checks
  an instance and builds its polynomial in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

from . import field as gf
from .errors import NihopermError
from .field import FieldCtx
from .tower import TowerCtx


def exp3(k: int) -> int:
    """3-adic valuation of a positive integer."""
    if k <= 0:
        raise NihopermError("3-adic valuation needs a positive integer")
    v = 0
    while k % 3 == 0:
        k //= 3
        v += 1
    return v


def k_minus_k_holds(m: int, k: int) -> bool:
    """The condition of the (k,-k) row of the known-pair table, also F6's:
    m even, or v3(k) >= v3(2^m+1)."""
    return m % 2 == 0 or exp3(k) >= exp3((1 << m) + 1)


def resolve_fraction(num: int, den: int, m: int) -> int:
    """num/den as a residue mod 2^m+1.

    Raises NihopermError when gcd(den, 2^m+1) != 1.
    """
    if den == 0:
        raise NihopermError("denominator is zero")
    mod = (1 << m) + 1
    d = den % mod
    if gcd(d, mod) != 1:
        raise NihopermError(f"gcd({den}, 2^{m}+1={mod}) = {gcd(d, mod)} != 1")
    return (num * pow(d, -1, mod)) % mod


def parse_ratio(token: str, m: int) -> int:
    """Parse an integer or fraction token ("3", "-1", "4/3") to a residue."""
    token = token.strip()
    a, slash, b = token.partition("/")
    try:
        num, den = int(a), int(b) if slash else 1
    except ValueError as exc:
        raise NihopermError(f"bad pair component {token!r}") from exc
    return resolve_fraction(num, den, m)


@dataclass(frozen=True)
class NihoPair:
    """Unordered pair of residues mod 2^m+1, stored reduced with s <= t."""

    m: int
    s: int
    t: int

    def __post_init__(self):
        mod = (1 << self.m) + 1
        s = self.s % mod
        t = self.t % mod
        if s > t:
            s, t = t, s
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    def label(self) -> str:
        return f"{self.s},{self.t}"

    def to_json_dict(self) -> dict:
        return {"m": self.m, "s": self.s, "t": self.t}


def parse_pair(text: str, m: int) -> NihoPair:
    """Parse "S,T" where each component is an integer or fraction."""
    parts = text.split(",")
    if len(parts) != 2:
        raise NihopermError(f"pair must be 'S,T', got {text!r}")
    return NihoPair(m, parse_ratio(parts[0], m), parse_ratio(parts[1], m))


# ---------------------------------------------------------------------------
# sparse trinomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrinomialSpec:
    """Canonical sparse polynomial over a field context.

    Terms are (coefficient, exponent) with nonzero coefficients and strictly
    increasing exponents. Positive exponents are reduced into [1, 2^n-1]
    (never folded onto the constant term, so evaluation at 0 is preserved);
    exponent 0 is a genuine constant term.
    """

    ctx: FieldCtx
    terms: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, ctx: FieldCtx, terms) -> "TrinomialSpec":
        order = ctx.group_order
        merged: dict[int, int] = {}
        for coef, e in terms:
            if coef == 0:
                continue
            if e != 0:
                e = (e - 1) % order + 1
            merged[e] = merged.get(e, 0) ^ coef
        canon = tuple(
            (c, e) for e, c in sorted(merged.items()) if c != 0
        )
        return cls(ctx=ctx, terms=canon)

    def value(self, x: int) -> int:
        """The polynomial at x, by scalar field operations."""
        acc = 0
        for coef, e in self.terms:
            acc ^= gf.mul(self.ctx, coef, gf.power(self.ctx, x, e))
        return acc

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.ctx.to_hex(),
            "terms": [{"coef_hex": hex(c), "exp": e} for c, e in self.terms],
        }


def pair_to_trinomial(tower: TowerCtx, pair: NihoPair) -> TrinomialSpec:
    """Expand a pair into x + x^(s(2^m-1)+1) + x^(t(2^m-1)+1), canonicalized."""
    q_minus = (1 << tower.m) - 1
    return TrinomialSpec.make(
        tower.field,
        [(1, 1), (1, pair.s * q_minus + 1), (1, pair.t * q_minus + 1)],
    )


# ---------------------------------------------------------------------------
# inverse-exponent transforms
# ---------------------------------------------------------------------------

def _transform(m: int, i: int, j: int) -> Optional[NihoPair]:
    # (i, j) -> (i/(2i-1), (i-j)/(2i-1)) when 2i-1 is invertible mod 2^m+1;
    # composing with the inverse of the exponent i(2^m-1)+1 preserves the
    # permutation property in both directions.
    mod = (1 << m) + 1
    den = (2 * i - 1) % mod
    if gcd(den, mod) != 1:
        return None
    dinv = pow(den, -1, mod)
    return NihoPair(m, (i * dinv) % mod, ((i - j) * dinv) % mod)


# ---------------------------------------------------------------------------
# the known-pair table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One materialized row of the known-pair table at a fixed m."""

    source: str
    condition: str
    condition_ok: bool
    pair: Optional[NihoPair]
    equivalents: tuple[tuple[str, Optional[NihoPair]], ...]


_FIXED_ROWS = (
    # (source, condition text, condition fn, what the condition asks of m in
    # the words of a failed hypothesis, equivalent labels); each pair is its
    # label parsed at m
    ("2,-1", "every positive m", lambda m: True, "", ("1,1/3", "1,2/3")),
    ("1,-1/2", "m not divisible by 3", lambda m: m % 3 != 0, "m != 0 mod 3, got",
     ("1,3/2", "1/4,3/4")),
    ("-1/3,4/3", "m even", lambda m: m % 2 == 0, "even m, got", ("1,1/5", "1,4/5")),
    ("3,-1", "m even", lambda m: m % 2 == 0, "even m, got", ("3/5,4/5", "1/3,4/3")),
    ("-2/3,5/3", "m even", lambda m: m % 2 == 0, "even m, got", ("1,2/7", "1,5/7")),
    ("1/5,4/5", "gcd(5, 2^m+1) = 1", lambda m: gcd(5, (1 << m) + 1) == 1,
     "gcd(5, 2^m+1)=1, fails at", ("1,-1/3", "1,4/3")),
)


def _try_pair(label: str, m: int) -> Optional[NihoPair]:
    """The pair of a table label at m; None if a denominator is not invertible."""
    try:
        return parse_pair(label, m)
    except NihopermError:
        return None


def known_row_failure(source: str, m: int, who: str) -> str:
    """"" if the condition of the known-pair row labelled ``source`` holds
    at m, else the failed hypothesis "<who> needs ... m=<m>"."""
    _, _, holds, needs, _ = next(row for row in _FIXED_ROWS if row[0] == source)
    return "" if holds(m) else f"{who} needs {needs} m={m}"


def known_row_notes(pair: NihoPair) -> list[str]:
    """A warning for each known-pair row that the pair matches and whose
    condition fails at its m: the (k,-k) row with the least k, then the
    fixed rows in table order."""
    m = pair.m
    kmk = pair.s != pair.t and (pair.s + pair.t) % ((1 << m) + 1) == 0
    rows = [f"k,-k [k={pair.s}] whose condition"] if kmk and not k_minus_k_holds(m, pair.s) else []
    rows += [f"{source} whose condition ({text})" for source, text, holds, _, _ in _FIXED_ROWS
             if not holds(m) and _try_pair(source, m) == pair]
    return [f"matches row {row} fails at m={m}; verdict comes from the engine" for row in rows]


def known_pairs_table1(m: int) -> list[Table1Row]:
    """Materialize every known-pair row at the given m.

    The (k,-k) family is expanded over k in [1, 2^m], after which residues
    repeat; its equivalents are the two transforms of (k,-k). Conditions
    are evaluated per row; fractional pairs and equivalents that do not
    resolve mod 2^m+1 are kept as None so callers can render them as
    undefined.
    """
    rows: list[Table1Row] = []
    kmk_cond = "m even, or m odd with v3(k) >= v3(2^m+1)"
    for k in range(1, (1 << m) + 1):
        rows.append(Table1Row(
            source=f"k,-k [k={k}]",
            condition=kmk_cond,
            condition_ok=k_minus_k_holds(m, k),
            pair=NihoPair(m, k, -k),
            equivalents=(
                (f"{k}/{2*k-1},{2*k}/{2*k-1}", _transform(m, k, -k)),
                (f"{k}/{2*k+1},{2*k}/{2*k+1}", _transform(m, -k, k)),
            ),
        ))
    for source, cond_text, cond_fn, _, equivalents in _FIXED_ROWS:
        rows.append(Table1Row(
            source=source,
            condition=cond_text,
            condition_ok=cond_fn(m),
            pair=_try_pair(source, m),
            equivalents=tuple((label, _try_pair(label, m)) for label in equivalents),
        ))
    return rows


# ---------------------------------------------------------------------------
# construction families
# ---------------------------------------------------------------------------

#: the known-pair row of each pair family, the fixed rows after (2,-1):
#: F8 = x + x^q + x^((q/2)(q-1)+1) is (1,-1/2), T3-T6 the paper's new pairs
PAIR_FAMILIES = dict(zip(("F8", "T3", "T4", "T5", "T6"), (row[0] for row in _FIXED_ROWS[1:])))

#: the family parameters that are elements of GF(2^n); the others are integers
_ELEMENT_PARAMS = ("a", "b", "c", "v")


@dataclass(frozen=True)
class _Family:
    """One construction family. ``fails(tower, *args)`` names its first
    failed hypothesis ("" when all hold) and ``terms(tower, *args)`` gives
    its (coefficient, exponent) terms; args are the values of ``params``."""

    params: tuple[str, ...]
    fails: Callable[..., str]
    terms: Callable[..., list[tuple[int, int]]]


def _f1_fails(tower: TowerCtx, k: int, a: int) -> str:
    if tower.field.n != 3 * k:
        return f"F1 needs n = 3k, got n={tower.field.n}, k={k}"
    if a == 0 or gf.power(tower.field, a, (1 << (2 * k)) + (1 << k) + 1) == 1:
        return "F1 needs a^(2^(2k)+2^k+1) != 1"
    return ""


def _f1_terms(tower: TowerCtx, k: int, a: int) -> list[tuple[int, int]]:
    a_pow = gf.power(tower.field, a, (1 << k) + 1)
    return [(1, (1 << (2 * k)) + 1), (a_pow, (1 << k) + 1), (a, 2)]


def _f2_fails(tower: TowerCtx, k: int, v: int) -> str:
    if tower.field.n != 3 * k:
        return f"F2 needs n = 3k, got n={tower.field.n}, k={k}"
    if v == 0:
        return "F2 needs v != 0"
    if gf.power(tower.field, v, 1 << k) != v:
        return "F2 needs v in GF(2^k)"
    return ""


def _f2_terms(tower: TowerCtx, k: int, v: int) -> list[tuple[int, int]]:
    return [(1, (1 << (2 * k)) + 1), (1, (1 << k) + 1), (v, 1)]


def _f3_fails(tower: TowerCtx, r: int, a: int, b: int, c: int) -> str:
    # n = 2m is even, so 3 divides 2^n-1
    ctx = tower.field
    s = ctx.group_order // 3
    if gcd(r, s) != 1:
        return f"F3 needs gcd(r, s)=1 with s={s}"
    w = gf.power(ctx, ctx.generator, s)
    h = [c ^ gf.mul(ctx, b, wi) ^ gf.mul(ctx, a, gf.square(ctx, wi))
         for wi in (1, w, gf.square(ctx, w))]
    if 0 in h:
        return "F3 needs h(w^i) != 0 for i = 0, 1, 2"
    # idx(y), the log of y mod 3, is read off y^s = w^idx(y) in mu_3 = <w>:
    # with c_i = h(w^i)^s the index conditions are c0*c2 = c1^2, c0 != c1*w^r
    c0, c1, c2 = (gf.power(ctx, hi, s) for hi in h)
    if gf.mul(ctx, c0, c2) != gf.square(ctx, c1) or c0 == gf.mul(ctx, c1, gf.power(ctx, w, r)):
        return "F3 needs idx(h(1)/h(w)) = idx(h(w)/h(w^2)) != r mod 3"
    return ""


def _f3_terms(tower: TowerCtx, r: int, a: int, b: int, c: int) -> list[tuple[int, int]]:
    s = tower.field.group_order // 3
    return [(a, 2 * s + r), (b, s + r), (c, r)]


def _f4_fails(tower: TowerCtx, k: int) -> str:
    if k < 0:
        return "F4 needs k >= 0"
    if gcd(2 * k + 3, (1 << tower.m) - 1) != 1:
        return f"F4 needs gcd(2k+3, 2^m-1)=1, fails at k={k}"
    return ""


def _f4_terms(tower: TowerCtx, k: int) -> list[tuple[int, int]]:
    q = 1 << tower.m
    base = k * (q + 1)
    return [(1, base + 3), (1, base + q + 2), (1, base + 3 * q)]


def _f5_fails(tower: TowerCtx, a: int) -> str:
    if a == 0 or gf.power(tower.field, a, (1 << tower.m) + 1) != 1:
        return "F5 needs a^(2^m+1) = 1"
    return ""


def _f5_terms(tower: TowerCtx, a: int) -> list[tuple[int, int]]:
    m, q = tower.m, 1 << tower.m
    a_root = gf.power(tower.field, a, 1 << (m - 1))
    return [(1, 1), (a, 2 * (q - 1) + 1), (a_root, q * (q - 1) + 1)]


def _f6_fails(tower: TowerCtx, k: int) -> str:
    if k < 1:
        return "F6 needs a positive k"
    if not k_minus_k_holds(tower.m, k):
        return "F6 at odd m needs v3(k) >= v3(2^m+1)"
    return ""


def _f6_terms(tower: TowerCtx, k: int) -> list[tuple[int, int]]:
    return list(pair_to_trinomial(tower, NihoPair(tower.m, k, -k)).terms)


def _f7_fails(tower: TowerCtx, a: int, b: int) -> str:
    ctx, q = tower.field, 1 << tower.m
    if a == 0 or b == 0:
        return "F7 needs ab != 0"
    first = a == gf.power(ctx, b, 1 - q)
    # the first branch's b^(-1-q) = 1/N(b) always lies in GF(2^m)*
    u = gf.power(ctx, b, -1 - q) if first else gf.mul(ctx, a, gf.power(ctx, b, -2))
    lg = int(tower.subfield_log([u])[0])
    if lg < 0:
        return "F7 (second branch) needs a*b^(-2) in GF(2^m)"
    if tower.subfield_trace_bits[lg]:
        return ("F7 (first branch) needs Tr_m(b^(-1-2^m)) = 0" if first
                else "F7 (second branch) needs Tr_m(a*b^(-2)) = 0")
    if first:
        return ""
    if gf.square(ctx, b) ^ gf.mul(ctx, gf.square(ctx, a), gf.power(ctx, b, q - 1)) ^ a != 0:
        return "F7 (second branch) needs b^2 + a^2*b^(2^m-1) + a = 0"
    return ""


def _f7_terms(tower: TowerCtx, a: int, b: int) -> list[tuple[int, int]]:
    q = 1 << tower.m
    return [(a, 1), (b, q), (1, 2 * (q - 1) + 1)]


def _f9_fails(tower: TowerCtx) -> str:
    return f"F9 needs odd m, got m={tower.m}" if tower.m % 2 == 0 else ""


def _f9_terms(tower: TowerCtx) -> list[tuple[int, int]]:
    q = 1 << tower.m
    return [(1, 1), (1, q + 2), (1, (q // 2) * (q + 1) + 1)]


def _row_family(fid: str, label: str, shifted: bool) -> _Family:
    """The family of the known-pair row ``label``: its pair's trinomial, or
    with ``shifted`` (C1-C4) that trinomial times x^((2^m+1)k). By the
    subgroup criterion the shift only changes r in x^r h(x^(2^m-1)), so the
    shifted family permutes iff the row does and gcd(2k+1, 2^m-1) = 1."""

    def fails(tower: TowerCtx, k: int = 0) -> str:
        if shifted and k < 1:
            return f"{fid} needs a positive k"
        if shifted and gcd(2 * k + 1, (1 << tower.m) - 1) != 1:
            return f"{fid} needs gcd(2k+1, 2^m-1)=1, fails at k={k}"
        return known_row_failure(label, tower.m, fid)

    def terms(tower: TowerCtx, k: int = 0) -> list[tuple[int, int]]:
        shift = ((1 << tower.m) + 1) * k
        pair = pair_to_trinomial(tower, parse_pair(label, tower.m))
        return [(c, e + shift) for c, e in pair.terms]

    return _Family(("k",) if shifted else (), fails, terms)


#: every construction family by id: F1-F9 with their stated hypotheses, F8
#: and T3-T6 from their known-pair rows, C1-C4 from the rows of T3-T6
_FAMILIES = {
    "F1": _Family(("k", "a"), _f1_fails, _f1_terms),
    "F2": _Family(("k", "v"), _f2_fails, _f2_terms),
    "F3": _Family(("r", "a", "b", "c"), _f3_fails, _f3_terms),
    "F4": _Family(("k",), _f4_fails, _f4_terms),
    "F5": _Family(("a",), _f5_fails, _f5_terms),
    "F6": _Family(("k",), _f6_fails, _f6_terms),
    "F7": _Family(("a", "b"), _f7_fails, _f7_terms),
    "F9": _Family((), _f9_fails, _f9_terms),
    **{fid: _row_family(fid, label, False) for fid, label in PAIR_FAMILIES.items()},
    **{cid: _row_family(cid, PAIR_FAMILIES[tid], True)
       for cid, tid in zip(("C1", "C2", "C3", "C4"), ("T3", "T4", "T5", "T6"))},
}


def family_trinomial(tower: TowerCtx, family_id: str, params: dict[str, int]) -> TrinomialSpec:
    """The sparse polynomial of the family ``family_id`` (any case) with
    ``params``, its parameter values by name.

    Raises NihopermError, in this order, for an unknown id, a missing
    parameter, one the family does not take, a field-element parameter
    outside [0, 2^n) and the first failed hypothesis. Hypotheses are never
    cached: every call recomputes them from the parameters.
    """
    fid = family_id.upper()
    if fid not in _FAMILIES:
        raise NihopermError(f"unknown family {family_id!r}")
    family = _FAMILIES[fid]
    missing = [k for k in family.params if k not in params]
    if missing:
        raise NihopermError(f"family {fid} is missing parameters {', '.join(missing)}")
    extra = [k for k in params if k not in family.params]
    if extra:
        raise NihopermError(f"family {fid} does not take parameters {', '.join(extra)}")
    args = [params[name] for name in family.params]
    n = tower.field.n
    for name, value in zip(family.params, args):
        if name in _ELEMENT_PARAMS and not 0 <= value < 1 << n:
            raise NihopermError(f"family {fid} parameter {name}={value} "
                                f"is not an element of GF(2^{n})")
    reason = family.fails(tower, *args)
    if reason:
        raise NihopermError(reason)
    return TrinomialSpec.make(tower.field, family.terms(tower, *args))

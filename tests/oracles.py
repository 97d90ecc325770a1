"""Reference implementations shared by several test files: the scalar
value of a sparse polynomial, the scalar orbit closure of a pair and a row
view of a sweep's columns."""

from dataclasses import dataclass
from math import gcd
from typing import Optional

from nihoperm import field as gf
from nihoperm.niho import NihoPair, TrinomialSpec


def evaluate(spec: TrinomialSpec, x: int) -> int:
    """spec(x) by the scalar field operations, term by term: the reference
    for the engines' array evaluation."""
    acc = 0
    for coef, e in spec.terms:
        acc ^= gf.mul(spec.ctx, coef, gf.power(spec.ctx, x, e))
    return acc


def transforms(m: int, pair: NihoPair) -> set[NihoPair]:
    """The 0, 1 or 2 pairs (i/(2i-1), (i-j)/(2i-1)) mod 2^m+1 for (i, j) =
    (s, t) and (t, s), where 2i-1 is invertible."""
    mod = (1 << m) + 1
    out = set()
    for i, j in ((pair.s, pair.t), (pair.t, pair.s)):
        if gcd(2 * i - 1, mod) == 1:
            d = pow(2 * i - 1, -1, mod)
            out.add(NihoPair(m, i * d, (i - j) * d))
    return out


def canonical_orbit(m: int, pair: NihoPair) -> tuple[NihoPair, tuple[NihoPair, ...]]:
    """(least member, members in (s, t) order) of the closure of pair under
    :func:`transforms`."""
    seen, frontier = {pair}, [pair]
    while frontier:
        new = {q for p in frontier for q in transforms(m, p)} - seen
        seen |= new
        frontier = list(new)
    orbit = tuple(sorted(seen, key=lambda p: (p.s, p.t)))
    return orbit[0], orbit


@dataclass(frozen=True)
class Row:
    """One orbit of a sweep."""

    m: int
    pair: NihoPair  # the orbit's representative
    orbit: tuple[NihoPair, ...]
    is_pp: bool
    covered_by: Optional[str]
    flagged_new: bool
    degenerate: bool


def sweep_rows(sweep) -> list[Row]:
    """The orbits of a :class:`survey.PairSweep` as rows, read from its columns."""
    rows = []
    for i in range(len(sweep)):
        lo, hi = sweep.offsets[i], sweep.offsets[i + 1]
        orbit = tuple(NihoPair(sweep.m, a, b) for a, b in
                      zip(sweep.member_s[lo:hi].tolist(), sweep.member_t[lo:hi].tolist()))
        code = int(sweep.source[i])
        rows.append(Row(
            m=sweep.m, pair=orbit[0], orbit=orbit, is_pp=bool(sweep.is_pp[i]),
            covered_by=sweep.sources[code] if code >= 0 else None,
            flagged_new=bool(sweep.flagged_new[i]), degenerate=bool(sweep.degenerate[i]),
        ))
    return rows

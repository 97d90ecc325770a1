"""Reference implementations shared by several test files: the scalar
value of a sparse polynomial, field division, the absolute trace by
repeated squaring, subfield membership as a Frobenius fixed point and the
subfield trace by repeated squaring, the quadratic trace-criterion count
pair by pair, the scalar orbit closure of a pair, a row view of a sweep's
columns, the verify notes read off the known-pair table and a family
instance built without its hypotheses."""

from dataclasses import dataclass
from math import gcd
from typing import Optional

from nihoperm import field as gf
from nihoperm import niho
from nihoperm import tower as tw
from nihoperm.niho import NihoPair, Table1Row, TrinomialSpec


def evaluate(spec: TrinomialSpec, x: int) -> int:
    """spec(x) by the scalar field operations, term by term: the reference
    for the engines' array evaluation."""
    acc = 0
    for coef, e in spec.terms:
        acc ^= gf.mul(spec.ctx, coef, gf.power(spec.ctx, x, e))
    return acc


def div(ctx, a: int, b: int) -> int:
    """a/b = a * b^(-1)."""
    return gf.mul(ctx, a, gf.inv(ctx, b))


def trace(ctx, x: int) -> int:
    """Tr(x) = x + x^2 + ... + x^(2^(n-1)), by repeated squaring."""
    acc = 0
    y = x
    for _ in range(ctx.n):
        acc ^= y
        y = gf.mul(ctx, y, y)
    return acc


def in_subfield(tower, x: int) -> bool:
    """x lies in GF(2^m) iff the Frobenius x -> x^(2^m) fixes it."""
    return tw.conjugate(tower, x) == x


def subfield_trace(tower, y: int) -> int:
    """Tr_m(y) = y + y^2 + ... + y^(2^(m-1)) of a subfield element, by
    repeated squaring."""
    assert in_subfield(tower, y), hex(y)
    acc = 0
    for _ in range(tower.m):
        acc ^= y
        y = gf.square(tower.field, y)
    assert acc in (0, 1)
    return acc


def quadratic_disagreements(ctx, trace_bit) -> int:
    """Pairs (a != 0, b != 0) where "x^2 + ax + b has a root" differs from
    trace_bit(b/a^2) == 0, pair by pair: the image of x -> x^2 + ax is a
    set built by gf.mul, and b/a^2 is b times div(1, a^2). trace_bit
    maps an element to 0 or 1; the count is 0 for the absolute trace."""
    size = 1 << ctx.n
    bad = 0
    for a in range(1, size):
        image = {gf.mul(ctx, x, x ^ a) for x in range(1, size)}  # x^2 + ax = x(x + a)
        c = div(ctx, 1, gf.mul(ctx, a, a))
        bad += sum(trace_bit(gf.mul(ctx, b, c)) == (b in image) for b in range(1, size))
    return bad


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


def known_row_notes(rows: list[Table1Row], pair: NihoPair) -> list[str]:
    """The notes of ``verify`` on pair, read off ``rows``, the full
    known-pair table at the pair's m: the first (k,-k) row whose pair it
    is, if that row's condition fails, then every fixed row whose pair it
    is and whose condition fails, in table order."""
    tail = f"fails at m={pair.m}; verdict comes from the engine"
    kmk = [r for r in rows if r.source.startswith("k,-k") and r.pair == pair]
    notes = [f"matches row {r.source} whose condition {tail}" for r in kmk[:1] if not r.condition_ok]
    return notes + [f"matches row {r.source} whose condition ({r.condition}) {tail}"
                    for r in rows if not r.source.startswith("k,-k")
                    and r.pair == pair and not r.condition_ok]


def unchecked_family(tower, fid: str, params: dict) -> TrinomialSpec:
    """The polynomial of a family instance whether or not its hypotheses
    hold, from the family table's terms function: how hypothesis-violating
    instances are built for falsification runs."""
    family = niho._FAMILIES[fid]
    return TrinomialSpec.make(tower.field, family.terms(tower, *(params[k] for k in family.params)))

"""Exhaustive (s, t) surveys: orbits, classification, open-problem scans.

search_pairs sweeps every unordered pair 0 <= s <= t <= 2^m, verifies each
on the unit circle, closes pairs into orbits under the inverse-exponent
transforms, and classifies each orbit against the known-pair table. A pair
is flagged new only relative to that table and its transform closure; no
attempt is made to encode the wider literature. Degenerate pairs (s = t or
a zero entry, where the trinomial collapses) are reported with a marker
rather than suppressed so orbit sizes add up to the sweep size.

The two open-problem scans sweep the lines s + t = 1 and (s, t) = (2k, -k).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

from .errors import RangeTooLarge
from .niho import NihoPair, equivalent_pairs, known_pairs_table1
from .permcheck import verify_pairs
from .tower import TowerCtx

#: bound of the square sweep (search_pairs), which costs 2^m line scans: at
#: m=10 it took 26 s and 0.8 GB in one process (README), and each step up in
#: m costs about four times more. The line scans are not capped here: they
#: run at every m a tower supports (m <= 16; open1 at m=16 took 7.5 s).
SURVEY_MAX_M = 10


@dataclass(frozen=True)
class SearchRow:
    """One orbit of the sweep: canonical representative plus members."""

    m: int
    pair: NihoPair  # canonical orbit representative
    orbit: tuple[NihoPair, ...]
    is_pp: bool
    covered_by: Optional[str]
    flagged_new: bool
    degenerate: bool


def canonical_orbit(m: int, pair: NihoPair) -> tuple[NihoPair, tuple[NihoPair, ...]]:
    """Close a pair under the transforms to a fixed point.

    Returns (lexicographically smallest member, sorted orbit). Termination
    is guaranteed: orbits live inside the finite square [0, 2^m]^2.
    """
    seen = {pair}
    frontier = [pair]
    while frontier:
        nxt = []
        for p in frontier:
            for q in equivalent_pairs(m, p):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    orbit = tuple(sorted(seen, key=lambda p: (p.s, p.t)))
    return orbit[0], orbit


def known_cover_map(m: int) -> dict[NihoPair, str]:
    """Orbit representative -> source tag, for table rows whose condition holds."""
    cover: dict[NihoPair, str] = {}
    for row in known_pairs_table1(m):
        if not row.condition_ok or row.pair is None:
            continue
        rep, _ = canonical_orbit(m, row.pair)
        cover.setdefault(rep, row.source)
    return cover


def search_pairs(tower: TowerCtx) -> list[SearchRow]:
    """Sweep all unordered pairs at this m and classify them by orbit.

    Every orbit member is verified independently; members of one orbit
    always share a verdict (this is the transform property made
    executable, and it is asserted here).
    """
    m = tower.m
    if m > SURVEY_MAX_M:
        raise RangeTooLarge(f"pair survey capped at m={SURVEY_MAX_M}, got m={m}")
    top = 1 << m
    pairs = [NihoPair(m, s, t) for s in range(top + 1) for t in range(s, top + 1)]
    verdicts = {r.pair: r.is_permutation for r in verify_pairs(tower, pairs)}
    cover = known_cover_map(m)
    rows: list[SearchRow] = []
    done: set[NihoPair] = set()
    for pair in pairs:
        if pair in done:
            continue
        rep, orbit = canonical_orbit(m, pair)
        done.update(orbit)
        member_verdicts = {verdicts[p] for p in orbit}
        assert len(member_verdicts) == 1, f"orbit of {rep.label()} is not homogeneous"
        is_pp = member_verdicts.pop()
        covered = cover.get(rep)
        degenerate = rep.degenerate
        rows.append(SearchRow(
            m=m,
            pair=rep,
            orbit=orbit,
            is_pp=is_pp,
            covered_by=covered,
            flagged_new=is_pp and covered is None and not degenerate,
            degenerate=degenerate,
        ))
    rows.sort(key=lambda r: (r.pair.s, r.pair.t))
    return rows


def _scan_line(tower: TowerCtx, pair_at) -> list[int]:
    """All j in [0, 2^m] for which pair_at(j) = (s, t) is a permutation pair."""
    m = tower.m
    pairs = [NihoPair(m, *pair_at(j)) for j in range((1 << m) + 1)]
    return [j for j, r in enumerate(verify_pairs(tower, pairs)) if r.is_permutation]


def scan_open_problem_1(tower: TowerCtx) -> list[int]:
    """All s in [0, 2^m] for which (s, 1-s) is a permutation pair."""
    return _scan_line(tower, lambda s: (s, 1 - s))


def scan_open_problem_2(tower: TowerCtx) -> list[int]:
    """All k in [0, 2^m] for which (2k, -k) is a permutation pair."""
    return _scan_line(tower, lambda k: (2 * k, -k))


# ---------------------------------------------------------------------------
# deterministic emitters (no timing fields, so reruns are byte-identical)
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["m", "s", "t", "orbit_size", "is_pp", "covered_by",
               "flagged_new", "degenerate"]


def rows_to_csv(rows: list[SearchRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([
            r.m, r.pair.s, r.pair.t, len(r.orbit),
            str(r.is_pp).lower(), r.covered_by or "",
            str(r.flagged_new).lower(), str(r.degenerate).lower(),
        ])
    return buf.getvalue()


def rows_to_json(rows: list[SearchRow]) -> str:
    return json.dumps(
        [
            {
                "m": r.m,
                "s": r.pair.s,
                "t": r.pair.t,
                "orbit": [[p.s, p.t] for p in r.orbit],
                "orbit_size": len(r.orbit),
                "is_pp": r.is_pp,
                "covered_by": r.covered_by,
                "flagged_new": r.flagged_new,
                "degenerate": r.degenerate,
            }
            for r in rows
        ],
        indent=2,
    )

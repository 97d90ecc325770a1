"""Exhaustive (s, t) surveys: orbits, classification, open-problem scans.

search_pairs sweeps every unordered pair 0 <= s <= t <= 2^m, verifies each
on the unit circle, closes pairs into orbits under the inverse-exponent
transforms, and classifies each orbit against the known-pair table. A pair
is flagged new only relative to that table and its transform closure; no
attempt is made to encode the wider literature. Degenerate pairs (s = t or
a zero entry, where the trinomial collapses) are reported with a marker
rather than suppressed so orbit sizes add up to the sweep size.

The sweep works on pair indices (:func:`pair_index`): the transforms are
integer maps on them and the orbits come from :func:`orbit_labels`, so no
per-pair object is built.

The two open-problem scans sweep the lines s + t = 1 and (s, t) = (2k, -k).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional

import numpy as np

from .errors import NihopermError
from .niho import known_pairs_table1
from .permcheck import pair_verdicts
from .tower import TowerCtx

#: bound of the square sweep (search_pairs), which verifies all
#: (2^m+1)(2^m+2)/2 pairs: m=11 fits a minute (README cost row `search --m 11`),
#: and each step up in m costs about four times more, so m=12 would not.
#: The line scans are not capped here: they run at every m a tower supports
#: (m <= 16; README cost rows `open1 --m 16` and `open2 --m 16`).
SURVEY_MAX_M = 11

#: orbits per chunk of an emitted search dataset
EMIT_ROWS = 1 << 13


def pair_index(m: int, s, t):
    """Row-major index of the pair s <= t in the triangle 0 <= s <= t <= 2^m
    (ints or integer arrays); index order is lexicographic (s, t) order."""
    width = (1 << m) + 1
    return s * width - s * (s - 1) // 2 + t - s


def orbit_labels(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, t, label) over every pair of the triangle, in index order.

    label[i] is the least index in the orbit of pair i, i.e. the index of
    its canonical representative. The transforms (i, j) -> (i/(2i-1),
    (i-j)/(2i-1)) with i = s and with i = t are integer maps mod 2^m+1 on
    one table of inverses of 2i-1. Each undoes itself (up to the order of
    the pair), so an orbit is a connected component of the graph with those
    two edges per pair (a self-loop where 2i-1 is not invertible). Labels
    take the least label of the neighbours, then jump to their own label's
    label, until a round changes nothing.
    """
    mod = (1 << m) + 1
    s = np.repeat(np.arange(mod, dtype=np.int32), mod - np.arange(mod))
    index = np.arange(s.size, dtype=np.int32)  # int32 holds every index for m <= 15
    t = index - pair_index(m, s, s) + s
    inv = np.array([pow(2 * i - 1, -1, mod) if gcd(2 * i - 1, mod) == 1 else 0
                    for i in range(mod)], dtype=np.int32)
    edges = []
    for i, j in ((s, t), (t, s)):
        d = inv[i]
        a, b = i * d % mod, (i - j) * d % mod
        edges.append(np.where(d > 0, pair_index(m, np.minimum(a, b), np.maximum(a, b)), index))
    label = index
    while True:
        new = np.minimum(label, np.minimum(label[edges[0]], label[edges[1]]))
        new = new[new]
        if np.array_equal(new, label):
            return s, t, label
        label = new


def known_cover_map(m: int, labels: np.ndarray) -> dict[int, str]:
    """Orbit label -> source tag of the first table row whose condition
    holds and whose pair lies in that orbit."""
    cover: dict[int, str] = {}
    for row in known_pairs_table1(m):
        if not row.condition_ok or row.pair is None:
            continue
        cover.setdefault(int(labels[pair_index(m, row.pair.s, row.pair.t)]), row.source)
    return cover


@dataclass(frozen=True, eq=False)
class PairSweep:
    """The orbits of a sweep as columns, in order of their representatives.

    Orbit i has members (member_s, member_t)[offsets[i]:offsets[i+1]] in
    (s, t) order, the first being its representative. source[i] indexes
    ``sources``, or is -1 where no known row covers the orbit.
    """

    m: int
    member_s: np.ndarray
    member_t: np.ndarray
    offsets: np.ndarray
    is_pp: np.ndarray
    source: np.ndarray
    sources: tuple[str, ...]

    @cached_property
    def s(self) -> np.ndarray:
        return self.member_s[self.offsets[:-1]]

    @cached_property
    def t(self) -> np.ndarray:
        return self.member_t[self.offsets[:-1]]

    @cached_property
    def degenerate(self) -> np.ndarray:
        return (self.s == self.t) | (self.s == 0)

    @cached_property
    def flagged_new(self) -> np.ndarray:
        return self.is_pp & (self.source < 0) & ~self.degenerate

    def __len__(self) -> int:
        return self.offsets.size - 1


def search_pairs(tower: TowerCtx) -> PairSweep:
    """Sweep all unordered pairs at this m and classify them by orbit.

    Every orbit member is verified independently; members of one orbit
    always share a verdict (this is the transform property made
    executable, and it is asserted here).
    """
    m = tower.m
    if m > SURVEY_MAX_M:
        raise NihopermError(f"pair survey capped at m={SURVEY_MAX_M}, got m={m}")
    s, t, label = orbit_labels(m)
    pp = pair_verdicts(tower, s, t)
    mixed = np.flatnonzero(pp != pp[label])
    assert mixed.size == 0, (
        f"orbit of {s[label[mixed[0]]]},{t[label[mixed[0]]]} is not homogeneous"
    )
    reps = np.flatnonzero(label == np.arange(label.size))
    members = np.argsort(label, kind="stable")  # grouped by orbit, in index order
    cover = known_cover_map(m, label)
    source = np.full(reps.size, -1, dtype=np.int64)
    source[np.searchsorted(reps, np.fromiter(cover, np.int64, len(cover)))] = np.arange(len(cover))
    return PairSweep(
        m=m,
        member_s=s[members],
        member_t=t[members],
        offsets=np.r_[0, np.cumsum(np.bincount(label)[reps])],
        is_pp=pp[reps],
        source=source,
        sources=tuple(cover.values()),
    )


def _scan_line(tower: TowerCtx, pair_at) -> list[int]:
    """All j in [0, 2^m] for which pair_at(j) = (s, t) is a permutation pair;
    pair_at takes the array of every j."""
    s, t = pair_at(np.arange(tower.unit_circle_order))
    return np.flatnonzero(pair_verdicts(tower, s, t)).tolist()


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

#: one row and one orbit member as json.dumps(..., indent=2) lays them out
_JSON_ROW = """  {
    "m": %d,
    "s": %d,
    "t": %d,
    "orbit": [
%s
    ],
    "orbit_size": %d,
    "is_pp": %s,
    "covered_by": %s,
    "flagged_new": %s,
    "degenerate": %s
  }"""
_JSON_MEMBER = "      [\n        %d,\n        %d\n      ]"
_CSV_ROW = "%d,%d,%d,%d,%s,%s,%s,%s\n"


def _bools(a: np.ndarray) -> list[str]:
    return np.where(a, "true", "false").tolist()


def _csv_cell(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _columns(rows: PairSweep, lo: int, hi: int, cover: list[str]) -> list[list]:
    """Per orbit lo..hi-1 of rows: s, t, orbit size, is_pp, covered_by (a cell
    of ``cover``, whose last entry stands for none), flagged_new, degenerate."""
    part = slice(lo, hi)
    return [
        rows.s[part].tolist(),
        rows.t[part].tolist(),
        np.diff(rows.offsets[lo : hi + 1]).tolist(),
        _bools(rows.is_pp[part]),
        [cover[c] for c in rows.source[part].tolist()],
        _bools(rows.flagged_new[part]),
        _bools(rows.degenerate[part]),
    ]


def rows_to_csv(rows: PairSweep, lo: int = 0, hi: Optional[int] = None) -> str:
    """The sweep as CSV, as :mod:`csv` writes it. With lo/hi, the text that
    orbits lo..hi-1 contribute (the header goes with lo = 0), so consecutive
    slices concatenate to the whole file."""
    hi = len(rows) if hi is None else min(hi, len(rows))
    cover = [_csv_cell(x) for x in rows.sources] + [""]
    head = ",".join(CSV_COLUMNS) + "\n" if lo == 0 else ""
    return head + "".join(
        _CSV_ROW % (rows.m, *row) for row in zip(*_columns(rows, lo, hi, cover))
    )


def rows_to_json(rows: PairSweep, lo: int = 0, hi: Optional[int] = None) -> str:
    """The sweep as ``json.dumps(row dicts, indent=2)`` writes it, one
    string template per row. With lo/hi, the text that orbits
    lo..hi-1 contribute, so consecutive slices concatenate to the whole document."""
    hi = len(rows) if hi is None else min(hi, len(rows))
    cover = [json.dumps(x) for x in rows.sources] + ["null"]
    first, last = rows.offsets[lo], rows.offsets[hi]
    members = list(map(_JSON_MEMBER.__mod__, zip(
        rows.member_s[first:last].tolist(), rows.member_t[first:last].tolist()
    )))
    bounds = (rows.offsets[lo : hi + 1] - first).tolist()
    orbits = [",\n".join(members[a:b]) for a, b in zip(bounds, bounds[1:])]
    s, t, *rest = _columns(rows, lo, hi, cover)
    body = ",\n".join(_JSON_ROW % (rows.m, *row) for row in zip(s, t, orbits, *rest))
    return ("[\n" if lo == 0 else ",\n") + body + ("\n]" if hi == len(rows) else "")

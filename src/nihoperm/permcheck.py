"""Two independent permutation-verification engines.

* exhaustive: evaluate the polynomial at all 2^n field elements and track
  images in an occupancy bitset, in windows that double up to a chunk.
  Each occupancy test takes at most one slice (:func:`_slice_len`), so
  the temporaries stay near the cache and memory stays bounded up to the
  n = 28 cap. Both walks split f into the strands of :func:`_strands`:
  with e0 the first exponent, D = gcd(2^n-1, e - e0 over the terms) and
  d = (2^n-1)/D, f(x) = x^e0 * H(x^D) with H on the order-d subgroup
  (Zieve 2009): one strand of all terms if d is at most the chunk (for
  every Niho trinomial x * h(x^(2^m-1)), d divides 2^m+1), else one strand
  per term. Both walks read one set of strand tables, built once per
  call (:func:`_image_tables`): the order-d subgroup as the powers of g^D,
  and per strand H at each of them, in cyclic order and in sorted order.
  The verdict walks the field in discrete-log order (:func:`_log_windows`)
  and stops at the first repeat. Its first window is g^(e0*k) times H in
  cyclic order, one geometric sequence and one product per strand of
  period d > 1 (a geometric sequence started at H's one entry where
  d = 1); after it, a slice maps each strand's block of its first images
  through one constant's byte tables. Only a failing verdict is followed
  by one walk in bitmask order (:func:`_bitmask_windows`, windows doubling
  up to a slice) to the first repeat y. It takes a strand's images as
  x^e0 times H at the index of x^D in the sorted subgroup, read from
  about 2d bucket starts keyed by the top bits of x^D and a few
  vectorized probe rounds (:func:`_bucket_find`). It keeps its first
  chunk of images, so y's earlier preimage, the canonical counterexample,
  is found without evaluating them again; only a preimage between that
  chunk and y's window takes a second walk. The reported pair is checked
  by scalar field operations before it is returned.

* unit_circle: for a Niho pair (s, t) the trinomial permutes GF(2^n) iff
  phi(x) = x * (1 + x^s + x^t)^(2^m-1) permutes the norm-1 subgroup U, so
  only 2^m+1 points are evaluated, for many pairs at once, as index
  arithmetic mod 2^m+1: with x = w^k, h^(2^m-1) = w^C where C depends
  only on the class of h in P^1(GF(2^m)) and is read from tables of size
  O(2^m). h = 0 at any point is an immediate failure (phi would map into
  0, which is not in U). The scan's first window holds at least
  _WINDOW_ELEMS >> 6 (pair, point) elements, so one pair takes U in one
  window up to m = 11. :func:`pair_verdicts` gives the verdicts of many
  pairs, :func:`unit_circle_check` the report of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from . import _kernels
from . import field as gf
from .errors import NihopermError
from .field import FieldCtx
from .niho import NihoPair, TrinomialSpec
from .tower import TowerCtx, conjugate

#: exhaustive verification bound: the occupancy bitset is 32 MiB at n = 28,
#: where a slice is the whole chunk, and a full pass there takes 8-9 s in a
#: fresh process (timings in the README).
EXHAUSTIVE_MAX_N = 28

#: elements per chunk of every exhaustive pass, 2^min(n, _CHUNK_BITS): the
#: longest window, the byte-plane block and the period rounding; the
#: occupancy test takes a window in slices of :func:`_slice_len`
_CHUNK_BITS = 20

#: uint64 words per slice of a bitset's popcount (512 KiB of the bitset)
_COUNT_WORDS = 1 << 16

#: exponents in the first window of the log-order verdict pass (rounded up
#: to a multiple of the period in :func:`_log_windows`); windows double from
#: there up to the chunk size
_VERDICT_FIRST_WINDOW = 1 << 10

#: the first window of the bitmask-order witness scan has 2^10 elements
_WITNESS_FIRST_BITS = 10

#: unit-circle scan: the least points per pair in the first window
#: (:func:`_first_failures`), (pair, point) elements per window, and
#: entries of the image table (pairs per block times 2^m+1, at most 8 MiB
#: of int32)
_FIRST_WINDOW = 16
_WINDOW_ELEMS = 1 << 18
_TABLE_ELEMS = 1 << 21


@dataclass(frozen=True)
class PermReport:
    """Verdict of one engine run.

    counterexample is a colliding pair (x, y), x < y in scan order with
    f(x) = f(y); zero_at is a unit-circle element at which 1 + x^s + x^t
    vanishes (unit-circle engine only). On success the evaluation count is
    the full domain size (2^n or 2^m+1). On failure the unit-circle engine
    counts the points it evaluated; the exhaustive engine reports the
    canonical bitmask-scan count described in
    :func:`is_permutation_exhaustive`.
    """

    is_permutation: bool
    method: str  # "exhaustive" or "unit_circle"
    counterexample: Optional[tuple[int, int]]
    zero_at: Optional[int]
    evaluations: int
    elapsed: float
    pair: Optional[NihoPair] = None

    def to_json_dict(self) -> dict:
        if self.zero_at is not None:
            cex = {"maps_to_zero": hex(self.zero_at)}
        elif self.counterexample is not None:
            cex = [hex(self.counterexample[0]), hex(self.counterexample[1])]
        else:
            cex = None
        return {
            "pair": self.pair.to_json_dict() if self.pair else None,
            "method": self.method,
            "is_permutation": self.is_permutation,
            "counterexample": cex,
            "evaluations": self.evaluations,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


# ---------------------------------------------------------------------------
# exhaustive engine
# ---------------------------------------------------------------------------

def _strands(ctx: FieldCtx, terms) -> tuple[int, list]:
    """(d, strands) of f, the sum of the terms (c, e), c*x^e: strands
    (e0, terms) whose sums add up to f, and the period d of every strand's
    s(g^k)/g^(e0*k).

    With N = 2^n-1, e0 the first exponent and d = N/gcd(N, e - e0 over the
    terms), f(x) = x^e0 * H(x^(N/d)) for an H on the subgroup of order d.
    If d is at most the chunk 2^min(n, _CHUNK_BITS), that is the one strand
    (e0, terms), as for every Niho trinomial (d divides 2^m+1). Otherwise
    each term is a strand (e, ((c, e),)) of its own, with period 1.
    """
    order = ctx.group_order
    e0 = terms[0][1] if terms else 0
    d = order // gcd(order, *(e - e0 for _, e in terms))
    if d <= 1 << min(ctx.n, _CHUNK_BITS):
        return d, [(e0, terms)]
    return 1, [(e, ((c, e),)) for c, e in terms]


def _image_tables(ctx: FieldCtx, terms):
    """(f(0), D, mu, starts, strands), the tables of both walks. f(0) is
    the coefficient of the constant term, which comes first, or 0. With d
    the period of the :func:`_strands` and D = (2^n-1)/d, each strand
    (e0, terms) is (e0, H, cyclic): its sum is g^(e0*k) * cyclic[k mod d]
    at x = g^k (:func:`_log_windows`), and x^e0 * H[i] at any x != 0, for
    the i with mu[i] = x^D (:func:`_images`).

    x^D lies in the subgroup of order d, and x^(e-e0) = (x^D)^((e-e0)/D).
    cyclic[k] is the sum of the c*(g^(D*k))^((e-e0)/D), each a gather from
    the :func:`_kernels.geometric` powers of g^D. mu is those powers sorted
    (int64, the dtype of the powers it is searched for) and then a sentinel
    above every field element, H is cyclic in mu's order, and starts is
    mu's :func:`_bucket_starts`. Where d = 1, mu = [1, sentinel] and
    H = cyclic = [the sum of the c].
    """
    n, red = ctx.n, ctx.red
    d, strands = _strands(ctx, terms)
    D = ctx.group_order // d
    powers = _kernels.geometric(gf.power(ctx, ctx.generator, D), d, n, red)
    j = np.argsort(powers)  # mu[i] = powers[j[i]] = g^(D*j[i])
    k = np.arange(d)
    tables = []
    for e0, strand in strands:
        cyclic = np.zeros(d, dtype=np.uint32)
        for c, e in strand:
            part = powers[k * ((e - e0) // D % d) % d]
            cyclic ^= part if c == 1 else _kernels.mul_const(part, c, n, red)
        tables.append((e0, cyclic[j], cyclic))
    mu = np.append(powers[j].astype(np.int64), 1 << 32)
    f0 = terms[0][0] if terms and terms[0][1] == 0 else 0
    return f0, D, mu, _bucket_starts(mu, n), tables


def _bucket_starts(mu: np.ndarray, n: int) -> np.ndarray:
    """int32 starts of 2^b buckets of the sorted mu (its last entry a
    sentinel above every n-bit value), where 2^b is the least power of two
    above mu's d other entries, at most 2^n: bucket v >> (n-b) holds the
    entries from starts[v >> (n-b)] below starts[(v >> (n-b)) + 1]."""
    bits = min(n, (mu.size - 1).bit_length())
    bounds = np.arange((1 << bits) + 1, dtype=np.int64) << (n - bits)
    return np.searchsorted(mu, bounds).astype(np.int32)


def _bucket_find(mu: np.ndarray, starts: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per entry of v, its index in the sorted mu if it is there (else an
    index whose entry differs), given mu's :func:`_bucket_starts`: from the
    start of v's bucket, one vectorized probe round per entry of the
    largest bucket but one steps past every entry below v. The sentinel
    stops every probe within mu."""
    bits = starts.size.bit_length() - 1  # starts has 2^bits + 1 entries
    i = starts[v >> (n - bits)]
    for _ in range(int(np.diff(starts).max()) - 1):
        i += mu[i] < v
    return i


def _images(ctx: FieldCtx, tables, start: int, stop: int) -> np.ndarray:
    """Images of the elements start..stop-1 (int64) under the polynomial of
    the :func:`_image_tables` tables: per strand, x^e0
    (:func:`_kernels.pow_vec`) times H at the index of x^D in mu, found by
    :func:`_bucket_find`, or times H[0] by one constant multiply where
    d = 1. x = 0 maps to f(0)."""
    n, red = ctx.n, ctx.red
    f0, D, mu, starts, strands = tables
    d = ctx.group_order // D
    xs = np.arange(start, stop, dtype=np.int64)
    if d > 1:
        power = _kernels.pow_vec(xs, D, n, red)
        i = _bucket_find(mu, starts, power, n)
        if not (mu[i] == power)[start == 0 :].all():  # 0^D = 0 is in no subgroup
            raise AssertionError(f"an x^{D} outside the subgroup of order {d}")
    images = None
    for e0, H, _ in strands:
        head = _kernels.pow_vec(xs, e0, n, red)
        if d > 1:
            part = _kernels.mul_vec(head, H[i], n, red)
        else:
            part = head if H[0] == 1 else _kernels.mul_const(head, int(H[0]), n, red)
        if images is None:
            images = part.astype(np.int64, copy=False)
        else:
            images ^= part
    if start == 0 and stop > 0:
        images[0] = f0
    return images


@dataclass
class _Bitset:
    """An occupancy bitset of the 2^n field elements: the value v is bit
    v & 31 of words[v >> 5], and count is the number of values it holds."""

    words: np.ndarray
    count: int = 0


def _bitset(ctx: FieldCtx) -> _Bitset:
    """An empty occupancy bitset of the 2^n field elements."""
    # an even number of words, for the uint64 view that _occupy popcounts
    return _Bitset(np.zeros(max((1 << ctx.n) >> 5, 2), dtype=np.uint32))


def _word_bit(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(word index, bit) of each of the values v in a bitset, the bit as a
    uint32 shift, which numpy computes faster than a 32-entry table gather."""
    return v >> 5, np.uint32(1) << (v & 31).astype(np.uint32, copy=False)


def _repeats(bits: _Bitset, v: np.ndarray) -> np.ndarray:
    """Mask of the entries of v equal to an earlier entry of v or already in
    the occupancy bitset, which is left as it is."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    repeat = np.zeros(v.size, dtype=bool)
    repeat[order[1:][sv[1:] == sv[:-1]]] = True  # non-first occurrences within v
    word, bit = _word_bit(v)
    return repeat | ((bits.words[word] & bit) != 0)


def _occupy(bits: _Bitset, v: np.ndarray) -> bool:
    """Add the values v to the occupancy bitset and return True, or return
    False, with the bitset unchanged, if any of them repeats an earlier one.

    Each value adds its bit to its word. Adding 2^b to a word raises its
    popcount by 1 if bit b is clear; otherwise the carry clears bit b and
    at least as many bits as it sets (bits carried out of the word's 32 are
    lost), so the popcount does not rise. Hence the bitset's popcount grows
    by exactly v.size iff no value repeats. On a repeat, subtracting the
    same bits restores every word, the arithmetic being mod 2^32.
    """
    word, bit = _word_bit(v)
    np.add.at(bits.words, word, bit)
    # in slices, so that the temporary stays small beside the bitset
    view = bits.words.view(np.uint64)
    count = sum(int(np.bitwise_count(view[i : i + _COUNT_WORDS]).sum())
                for i in range(0, view.size, _COUNT_WORDS))
    if count != bits.count + v.size:
        np.subtract.at(bits.words, word, bit)
        return False
    bits.count = count
    return True


def _slice_len(n: int) -> int:
    """Elements per slice of the exhaustive walks at degree n:
    max(2^16, 2^(n-7)), at most the chunk 2^min(n, _CHUNK_BITS).

    A slice is what one :func:`_occupy` call takes, so its temporaries stay
    near the cache. That call also popcounts the whole 2^n-bit bitset, so
    the slice grows with n: 2^(n-7) elements read 16 bitset bytes each. A
    flat 2^16 took the full n = 28 pass from 13.8 to 44.6 s.
    """
    return min(1 << min(n, _CHUNK_BITS), 1 << max(16, n - 7))


def _log_windows(ctx: FieldCtx, tables):
    """f(g^k) for k = 0..2^n-2 as uint32 slices, where f is the polynomial
    of the :func:`_image_tables` tables and g is the field's generator.

    The first window has _VERDICT_FIRST_WINDOW exponents and each later
    one is as long as everything before it, up to the chunk of
    L = 2^min(n, _CHUNK_BITS). The first window comes whole; a later one,
    starting at k0, comes in slices of :func:`_slice_len` exponents, each
    the sum over the strands of a constant times columns of the strand's
    block of byte planes, which the earlier windows fill as far as a later
    one reads it.

    A strand (e0, H, cyclic) with period d has s(g^(k0+j)) = g^(e0*k0) *
    s(g^j) whenever d divides k0. The first window and the chunk are
    rounded to multiples of d (up and down), so every window starts at one,
    and the constant's byte tables are built once per window and strand.
    With one strand, as for every Niho trinomial, a slice is one map of its
    block's columns; with one strand per term (d = 1), one map per term.
    The first window is g^(e0*k) times cyclic repeated to its length: one
    :func:`_kernels.geometric` and one :func:`_kernels.mul_vec` for a
    strand of period d > 1, and one geometric sequence started at cyclic[0]
    for a strand of period 1.
    """
    order, chunk = ctx.group_order, 1 << min(ctx.n, _CHUNK_BITS)
    _, D, _, _, strands = tables
    d = order // D
    first, chunk = -(-_VERDICT_FIRST_WINDOW // d) * d, chunk - chunk % d
    sizes, k0 = [], 0
    while k0 < order:
        sizes.append(min(k0 or first, chunk, order - k0))
        k0 += sizes[-1]
    length = max(sizes[1:], default=0)
    # one array per strand: one 3-D array would cross numpy's 4 MiB
    # huge-page threshold sooner
    blocks = [np.empty(((ctx.n + 7) // 8, length), dtype=np.uint8) for _ in strands]
    k0 = 0
    for size in sizes:
        # the byte tables of one constant per strand and later window,
        # g^(e0*k0) for the strand's e0
        consts = [_kernels.const_tables(gf.power(ctx, ctx.generator, e0 * k0), ctx.n, ctx.red)
                  if k0 else None for e0, *_ in strands]
        width = _slice_len(ctx.n) if k0 else size
        for a in range(0, size, width):
            yield _log_window(ctx, strands, blocks, consts, k0, a, min(width, size - a))
        k0 += size


def _log_window(ctx: FieldCtx, strands, blocks, consts, k0: int, a: int, size: int) -> np.ndarray:
    """The exponents k0+a .. k0+a+size-1 of :func:`_log_windows`: the
    constants' tables mapped over the blocks' columns from a in a later
    window (k0 > 0), the strands' cyclic tables times g^(e0*k) in the
    first; its temporaries die on return."""
    n, red, g = ctx.n, ctx.red, ctx.generator
    images = None
    k = k0 + a
    for block, table, (e0, _, cyclic) in zip(blocks, consts, strands):
        if k0:
            part = _kernels.map_planes(table, block[:, a : a + size])
        elif cyclic.size == 1:
            part = _kernels.geometric(gf.power(ctx, g, e0), size, n, red, int(cyclic[0]))
        else:  # the first window's size is a multiple of the period
            head = _kernels.geometric(gf.power(ctx, g, e0), size, n, red)
            part = _kernels.mul_vec(head, np.tile(cyclic, size // cyclic.size), n, red)
            part = part.astype(np.uint32)
        if k < block.shape[1]:
            block[:, k : k + size] = _kernels.byte_planes(part[: block.shape[1] - k], n)
        if images is None:
            images = part
        else:
            images ^= part
    return images


def _bitmask_windows(ctx: FieldCtx, tables, stop: int, start: int = 0):
    """(x0, images of x0, x0+1, ...) under the :func:`_image_tables` tables
    for the elements from start below stop, in windows that double from
    2^_WITNESS_FIRST_BITS up to a slice (:func:`_slice_len`)."""
    top = _slice_len(ctx.n)
    width = min(1 << _WITNESS_FIRST_BITS, top)
    while start < stop:
        end = min(start + width, stop)
        yield start, _images(ctx, tables, start, end)
        start, width = end, min(2 * width, top)


def _first_match(windows, target: int) -> Optional[int]:
    """The first element of the (x0, images) windows whose image is target."""
    for x0, images in windows:
        hit = np.flatnonzero(images == target)
        if hit.size:
            return x0 + int(hit[0])
    return None


def _witness(ctx: FieldCtx, tables) -> tuple[int, int]:
    """The canonical counterexample (x, y): y is the first element in
    bitmask order whose image repeats, x the least one with the same image.

    Every walk evaluates from the same :func:`_image_tables` tables.
    One :func:`_bitmask_windows` walk screens each window with
    :func:`_occupy` and keeps the images of its windows as uint32 while
    their total fits one chunk. In the failing window the repeat mask gives
    y. An earlier entry of that window with y's image is x: had its image
    been seen before the window, it would have been a repeat before y.
    Otherwise x lies before the window, and the window is dropped: x is the
    first match in the kept windows, or else in a walk from their end to
    the failing window, which runs only then, with nothing else held.
    """
    chunk = 1 << min(ctx.n, _CHUNK_BITS)
    bits, kept, held = _bitset(ctx), [], 0
    for start, images in _bitmask_windows(ctx, tables, 1 << ctx.n):
        if not _occupy(bits, images):
            break
        if held + images.size <= chunk:
            kept.append((start, images.astype(np.uint32)))
            held += images.size
    else:
        raise AssertionError("the log-order pass found a repeat that the bitmask scan did not")
    i = int(np.argmax(_repeats(bits, images)))
    y, target = start + i, int(images[i])
    partner = _first_match([(start, images[:i])], target)
    del bits, images  # the failing window
    if partner is None:
        partner = _first_match(kept, target)
    del kept  # nothing is held across the walk that follows
    if partner is None:
        partner = _first_match(_bitmask_windows(ctx, tables, start, held), target)
    return partner, y


def is_permutation_exhaustive(ctx: FieldCtx, poly: TrinomialSpec) -> PermReport:
    """Full-domain permutation check with occupancy bitset.

    The verdict takes the image of 0 from the constant term (0 if there is
    none), then walks x = g^k, where a term c*x^e is the geometric sequence
    c*(g^e)^k (:func:`_log_windows`), and stops at the first window holding
    a repeat. Only then does one walk in bitmask order (:func:`_witness`)
    find the first repeat y and the least x < y with f(x) = f(y).

    ``evaluations`` is the canonical bitmask-scan count: 2^n on success,
    and on failure the elements a scan in chunks of 2^min(n, 20) evaluates
    up to the chunk holding y, ((y >> c) + 1) * 2^c with c = min(n, 20).
    It is a fixed function of the polynomial, not a count of the work done.
    Raises NihopermError above n = EXHAUSTIVE_MAX_N or if poly is over
    another field.
    """
    if ctx.n > EXHAUSTIVE_MAX_N:
        raise NihopermError(f"exhaustive check capped at n={EXHAUSTIVE_MAX_N}, got n={ctx.n}")
    if poly.ctx != ctx:
        raise NihopermError(f"polynomial over {poly.ctx.to_hex()}, field {ctx.to_hex()}")
    t0 = time.perf_counter()
    tables = _image_tables(ctx, poly.terms)  # of both walks
    bits = _bitset(ctx)
    _occupy(bits, np.array([tables[0]], dtype=np.uint32))
    # the walk is not bound to a name, so its blocks die with the verdict
    if all(_occupy(bits, v) for v in _log_windows(ctx, tables)):
        return PermReport(
            is_permutation=True, method="exhaustive", counterexample=None,
            zero_at=None, evaluations=1 << ctx.n, elapsed=time.perf_counter() - t0,
        )
    del bits
    partner, y = _witness(ctx, tables)
    # the report rests on scalar field operations, not on the vector kernels alone
    if not (partner < y and poly.value(partner) == poly.value(y)):
        raise AssertionError(f"the witness ({partner:#x}, {y:#x}) is not a collision")
    c = min(ctx.n, 20)  # the counted scan's chunk bits, whatever _CHUNK_BITS is
    return PermReport(
        is_permutation=False, method="exhaustive",
        counterexample=(partner, y), zero_at=None,
        evaluations=((y >> c) + 1) << c, elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# unit-circle engine
# ---------------------------------------------------------------------------

def _trace_inverse(tower: TowerCtx) -> int:
    """1/(g + g^q) for the field's generator g and q = 2^m. g + g^q lies in
    GF(q)*, as g lies outside the subfield, so its inverse is b^(-log) with
    its log to the base b read from :attr:`TowerCtx.subfield_logs`; one
    scalar multiply checks it."""
    ctx, q = tower.field, tower.subfield_order
    trace = ctx.generator ^ conjugate(tower, ctx.generator)
    log = int(tower.subfield_logs[tower.subfield_code(trace)])
    inverse = int(tower.subfield[1 + -log % (q - 1)])
    assert gf.mul(ctx, inverse, trace) == 1, "g + g^q lies in GF(q)*"
    return inverse


def _circle_tables(tower: TowerCtx):
    """(coords, logs, classes): the tables that turn phi on U into index
    arithmetic mod q+1, with q = 2^m, on the points w^k, w = g^(q-1), of
    :attr:`TowerCtx.unit_circle`. For x = w^k, x^s = w^(ks mod q+1).

    * Every h is a + b*g with a, b in GF(q), since g lies outside the
      subfield: b = (h + h^q)/(g + g^q) and a = h + b*g. Both are
      GF(2)-linear in h, and so is the code of a subfield element
      (:meth:`TowerCtx.subfield_code`). coords[k] = code(a) | code(b) << m
      for h = w^k; by linearity h = 1 + x^s + x^t has
      coords[0] ^ coords[ks] ^ coords[kt], which is 0 iff h is. The bit
      images come as arrays: h^q from the Frobenius tables, then b and a
      by one constant multiply each, b's by :func:`_trace_inverse`.
    * logs is :attr:`TowerCtx.subfield_logs`: logs[code(y)] is the log of
      y to the base g^(q+1), a generator of GF(q)*; logs[0] is the
      sentinel 2q.
    * h^(q-1) = w^C depends only on the class a/b in P^1(GF(q)), and
      classes[logs[code a] - logs[code b] + 2q] = C. The class b = 0 has
      C = 0; the other q classes are those of 1+v for v = w^j in U minus 1,
      where (1+v)^(q-1) = v^(-1) gives C = q+1-j. The q-1 of them with
      a != 0 must have q-1 distinct ratios a/b, which one bool scatter
      checks.
    """
    ctx = tower.field
    n, m = ctx.n, tower.m
    q, g = 1 << m, ctx.generator
    points, code, logs = tower.unit_circle, tower.subfield_code, tower.subfield_logs
    inv_trace = _trace_inverse(tower)
    h = np.uint32(1) << np.arange(n, dtype=np.uint32)  # the basis bits x^i
    conj = _kernels.map_planes(_kernels._frobenius_tables(n, ctx.red, m),
                               _kernels.byte_planes(h, n))
    b = _kernels.mul_const(h ^ conj, inv_trace, n, ctx.red)
    a = h ^ _kernels.mul_const(b, g, n, ctx.red)
    images = code(a) | code(b) << m  # of h = x^i
    coords = _kernels.map_planes(_kernels.linear_tables(images, n),
                                 _kernels.byte_planes(points, n))
    ab = coords[0] ^ coords[1:]  # 1 + w^j for j = 1..q
    la, lb = logs[ab & (q - 1)], logs[ab >> m]
    power = q + 1 - np.arange(1, q + 1)  # (1 + w^j)^(q-1) = w^(q+1-j)
    nonzero = la < q - 1
    ratio = (la - lb)[nonzero] % (q - 1)
    seen = np.zeros(q - 1, dtype=bool)
    seen[ratio] = True
    assert ratio.size == q - 1 and seen.all() and (lb < q - 1).all(), "distinct ratios a/b"
    classes = np.zeros(4 * q + 1, dtype=np.int32)  # b = 0: indices 0..q-2
    classes[ratio + 2 * q] = classes[ratio + q + 1] = power[nonzero]
    classes[3 * q + 2 :] = power[~nonzero]  # a = 0: la is the sentinel
    # as intp, so that the gathers of _phi_window index with them uncast
    return coords.astype(np.intp), logs.astype(np.intp), classes.astype(np.intp)


def _mod(x: np.ndarray, size: int) -> np.ndarray:
    """x % size with floor semantics, in place: numpy divides by a scalar
    on a fast path that its remainder does not take."""
    x -= x // size * size
    return x


def _phi_window(tower, tables, s, t, ks):
    """(phi index, h == 0) on the points ks, one row per pair (s, t).

    s and t may be negative (open1 has t = 1-s); the products s*k stay
    int64, since they reach 2^32 at m = 16.
    """
    coords, logs, classes = tables
    q, size = tower.subfield_order, tower.unit_circle_order
    ab = coords[0] ^ coords[_mod(s[:, None] * ks, size)] ^ coords[_mod(t[:, None] * ks, size)]
    cls = classes[logs[ab & (q - 1)] - logs[ab >> tower.m] + 2 * q]
    return _mod(cls + ks, size), ab == 0


def _first_failures(tower, tables, s, t, first, stamp):
    """Per pair, (first failing k or -1, earlier colliding k or -1).

    Points are evaluated in windows, only for the pairs that have not
    failed yet; a window's width starts at _FIRST_WINDOW points, or at as
    many as make _WINDOW_ELEMS >> 6 (pair, point) elements if that is more,
    and doubles, but it holds at most _WINDOW_ELEMS elements. So one pair
    takes U in one window up to m = 11, and 256 pairs or more start at
    _FIRST_WINDOW points. The windows are contiguous and in order, so
    their widths move no failure. first[row, phi] holds stamp plus the
    least k seen with that image, so a point repeats an earlier one iff
    the minimum written at its image is not its own.
    first is an int32 buffer of at least s.size * (q+1) entries; whatever
    it holds must be at least stamp + q+1, so that it reads as unseen.
    """
    size = tower.unit_circle_order
    fail = np.full(s.size, -1, dtype=np.int64)
    partner = np.full(s.size, -1, dtype=np.int64)
    active = np.arange(s.size)
    k0, width = 0, max(_FIRST_WINDOW, -(-(_WINDOW_ELEMS >> 6) // max(1, s.size)))
    while active.size and k0 < size:
        width = min(width, max(1, _WINDOW_ELEMS // active.size))
        ks = np.arange(k0, min(k0 + width, size))
        phi, zero = _phi_window(tower, tables, s[active], t[active], ks)
        key = active[:, None] * size + phi
        # 1-D index and contiguous values of first's dtype: ufunc.at's fast loop
        np.minimum.at(first, key.ravel(), np.tile((ks + stamp).astype(np.int32), active.size))
        earlier = first[key] - stamp
        bad = zero | (earlier != ks)
        hit = bad.any(axis=1)
        rows = np.flatnonzero(hit)
        col = bad[rows].argmax(axis=1)
        fail[active[rows]] = ks[col]
        partner[active[rows]] = np.where(zero[rows, col], -1, earlier[rows, col])
        active = active[~hit]
        k0, width = k0 + width, 2 * width
    return fail, partner


def _block_failures(tower, tables, s, t):
    """:func:`_first_failures` of the pairs (s[i], t[i]), in blocks of at
    most _TABLE_ELEMS / (q+1) pairs."""
    size = tower.unit_circle_order
    block = max(1, min(_TABLE_ELEMS // size, _WINDOW_ELEMS // _FIRST_WINDOW))
    fail = np.empty(s.size, dtype=np.int64)
    partner = np.empty(s.size, dtype=np.int64)
    # one image table for every block, not reset between them: each block's
    # stamp is q+1 below the one before, so what earlier blocks wrote reads
    # as unseen; the first block, and any whose stamp would go negative,
    # fills the table instead
    first, stamp, top = np.empty(min(block, s.size) * size, dtype=np.int32), 0, 2**31 - 1
    for lo in range(0, s.size, block):
        if stamp < size:
            first.fill(top)
            stamp = top
        stamp -= size
        part = slice(lo, lo + block)
        fail[part], partner[part] = _first_failures(tower, tables, s[part], t[part], first, stamp)
    return fail, partner


def pair_verdicts(tower: TowerCtx, s, t) -> np.ndarray:
    """Permutation verdicts of the pairs (s[i], t[i]) at the tower's m, as
    a bool array: the ``is_permutation`` of :func:`unit_circle_check` for
    each. s and t are integer arrays of residues mod 2^m+1, in either order."""
    return _block_failures(tower, _circle_tables(tower), np.asarray(s), np.asarray(t))[0] < 0


def unit_circle_check(tower: TowerCtx, pair: NihoPair) -> PermReport:
    """Unit-circle report of one Niho pair at the tower's m.

    The trinomial of (s, t) permutes GF(2^(2m)) iff phi(x) = x(1+x^s+x^t)^(q-1)
    permutes U (Zieve 2009; Park-Lee 2001). With x = w^k, phi is index
    arithmetic mod q+1 (:func:`_circle_tables`, :func:`_first_failures`).

    The report is the one of a scan of U in :attr:`TowerCtx.unit_circle`
    order that stops at the first failing point: a vanishing 1 + x^s + x^t
    (``zero_at``) or a phi collision with the earlier colliding point.
    ``evaluations`` counts the points up to that one, or is q+1 on
    success. Raises NihopermError if the pair is not at the tower's m.
    """
    if pair.m != tower.m:
        raise NihopermError(f"pair at m={pair.m}, tower at m={tower.m}")
    t0 = time.perf_counter()
    fail, partner = _block_failures(tower, _circle_tables(tower),
                                    np.array([pair.s]), np.array([pair.t]))
    [k], [j] = fail.tolist(), partner.tolist()
    points = tower.unit_circle
    return PermReport(
        is_permutation=k < 0, method="unit_circle",
        counterexample=(int(points[j]), int(points[k])) if j >= 0 else None,
        zero_at=int(points[k]) if k >= 0 and j < 0 else None,
        evaluations=k + 1 if k >= 0 else tower.unit_circle_order,
        elapsed=time.perf_counter() - t0, pair=pair,
    )

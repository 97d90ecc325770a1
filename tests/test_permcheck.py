"""Engine behavior: exhaustive scan, subgroup checks, cross-validation."""

import collections
import functools
import json
import random
import re
from concurrent.futures import ThreadPoolExecutor
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihoperm import _kernels, cli
from nihoperm import field as gf
from nihoperm import niho
from nihoperm import permcheck as pc
from nihoperm import tower as tw
from nihoperm.errors import NihopermError
from nihoperm.niho import NihoPair, TrinomialSpec
from oracles import evaluate


def all_images(ctx, spec):
    """f(x) for every x in bitmask order, by index arithmetic on the discrete
    log: c*x^e = exp[(log c + e*log x) mod 2^n-1] for x != 0, and only the
    constant term reaches x = 0. Independent of the engine's kernels."""
    exp, log = ctx.exp_log
    images = np.zeros(1 << ctx.n, dtype=np.int64)
    for coef, e in spec.terms:
        if e == 0:
            images ^= coef
        else:
            images[1:] ^= exp[(log[coef] + e * log[1:]) % ctx.group_order]
    return images


def brute_is_permutation(ctx, spec):
    return np.unique(all_images(ctx, spec)).size == 1 << ctx.n


# ---------------------------------------------------------------------------
# exhaustive engine
# ---------------------------------------------------------------------------

def test_identity_and_square_are_permutations(f16):
    for terms in ([(1, 1)], [(1, 2)]):
        rep = pc.is_permutation_exhaustive(f16, TrinomialSpec.make(f16, terms))
        assert rep.is_permutation
        assert rep.evaluations == 16
        assert rep.counterexample is None


def test_known_pair_m2(tower2):
    # (s,t) = (2, 2^m) = (2,-1) holds for every m
    spec = niho.pair_to_trinomial(tower2, NihoPair(2, 2, 4))
    assert pc.is_permutation_exhaustive(tower2.field, spec).is_permutation


def test_cube_is_not_permutation_with_valid_counterexample(f16):
    spec = TrinomialSpec.make(f16, [(1, 3)])
    assert not brute_is_permutation(f16, spec)
    rep = pc.is_permutation_exhaustive(f16, spec)
    assert not rep.is_permutation
    x, y = rep.counterexample
    assert x < y
    assert evaluate(spec, x) == evaluate(spec, y)


def test_counterexample_is_canonical_first_repeat(f16):
    spec = TrinomialSpec.make(f16, [(1, 3)])
    images = [evaluate(spec, x) for x in range(1 << f16.n)]
    first_y = next(
        y for y in range(16) if images[y] in images[:y]
    )
    partner = images.index(images[first_y])
    rep = pc.is_permutation_exhaustive(f16, spec)
    assert rep.counterexample == (partner, first_y)


@pytest.mark.parametrize("chunk_bits", [2, 3, 20])
@pytest.mark.parametrize("threads", [1, 4])
def test_exhaustive_deterministic_across_chunking_and_threads(
    f16, monkeypatch, chunk_bits, threads
):
    # the engine runs in its caller's thread; `threads` callers share one
    # field context and must all get the same report
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    spec = TrinomialSpec.make(f16, [(1, 3)])
    good = niho.pair_to_trinomial(tw.TowerCtx(field=f16, m=2), NihoPair(2, 2, 4))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        bad_reps = list(pool.map(
            lambda _: pc.is_permutation_exhaustive(f16, spec), range(threads)
        ))
        good_reps = list(pool.map(
            lambda _: pc.is_permutation_exhaustive(f16, good), range(threads)
        ))
    for rep in bad_reps:
        assert rep.counterexample == (1, 6)
        assert rep.evaluations == 16
    assert all(rep.is_permutation for rep in good_reps)


def test_exhaustive_without_tables(f16, monkeypatch):
    # no field operation reads the exp/log tables: hiding them changes nothing
    ctx = gf.FieldCtx(n=4, modulus=f16.modulus)
    ctx.__dict__["exp_log"] = None
    for terms, expected in ([(1, 3)], False), ([(1, 2)], True):
        spec = TrinomialSpec.make(ctx, terms)
        rep = pc.is_permutation_exhaustive(ctx, spec)
        assert rep.is_permutation == expected


def test_exhaustive_coefficient_terms(f256):
    # a non-trivial coefficient polynomial: a*x^2 is a bijection for a != 0
    spec = TrinomialSpec.make(f256, [(7, 2)])
    assert pc.is_permutation_exhaustive(f256, spec).is_permutation


def reference_scan(ctx, spec):
    """Plain bitmask-order scan: (counterexample, evaluations) as the
    exhaustive engine must report them."""
    images = all_images(ctx, spec)
    later = np.ones(images.size, dtype=bool)
    later[np.unique(images, return_index=True)[1]] = False  # first occurrences
    if not later.any():
        return None, 1 << ctx.n
    y = int(np.flatnonzero(later)[0])
    c = min(ctx.n, 20)
    return (int(np.flatnonzero(images == images[y])[0]), y), ((y >> c) + 1) << c


@st.composite
def sparse_polys(draw):
    """Random sparse polynomials, n = 2..14, with permutations mixed in:
    c*x^d with gcd(d, 2^n-1) = 1 and linearized polynomials permute often."""
    n = draw(st.integers(2, 14))
    ctx = _field(n)
    order = ctx.group_order
    coef = st.integers(1, ctx.mask)
    kind = draw(st.sampled_from(["random", "monomial", "linearized"]))
    if kind == "random":
        terms = draw(st.lists(st.tuples(coef, st.integers(1, 3 * order)),
                              min_size=1, max_size=4))
    elif kind == "monomial":
        d = draw(st.integers(1, order).filter(lambda d: gcd(d, order) == 1))
        terms = [(draw(coef), d)]
    else:
        terms = [(draw(coef), 1 << i)
                 for i in draw(st.sets(st.integers(0, n - 1), min_size=1))]
    if draw(st.booleans()):
        terms.append((draw(coef), 0))  # constant term, reaches x = 0
    if draw(st.booleans()):
        terms.append((draw(coef), order))  # e = 2^n-1: 1 on nonzero x, 0 at 0
    return TrinomialSpec.make(ctx, terms)


@functools.lru_cache(maxsize=None)
def _field(n):
    return gf.make_field(n)


@settings(max_examples=80, deadline=None)
@given(sparse_polys())
def test_exhaustive_matches_brute_force(spec):
    rep = pc.is_permutation_exhaustive(spec.ctx, spec)
    assert rep.is_permutation == brute_is_permutation(spec.ctx, spec)
    cex, evaluations = reference_scan(spec.ctx, spec)
    assert rep.counterexample == cex
    assert rep.evaluations == evaluations


@pytest.mark.parametrize("chunk_bits", [2, 3, 5, 20])
@pytest.mark.parametrize("first", [1, 8, pc._VERDICT_FIRST_WINDOW])
def test_exhaustive_chunked_matches_reference_scan(monkeypatch, first, chunk_bits):
    # doubling verdict windows, log-order chunks and witness windows, with
    # first repeats past the first window; the permutations c*x^d + k run
    # every window and chunk
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", first)
    monkeypatch.setattr(pc, "_WITNESS_FIRST_BITS", 1)
    ctx = gf.make_field(7)
    rng = random.Random(chunk_bits)
    specs = [TrinomialSpec.make(ctx, [(rng.randrange(1, 128), rng.randrange(128))
                                      for _ in range(rng.randrange(1, 4))])
             for _ in range(30)]
    specs += [TrinomialSpec.make(ctx, [(rng.randrange(1, 128), rng.randrange(1, 128)),
                                       (rng.randrange(128), 0)])
              for _ in range(10)]
    for spec in specs:
        rep = pc.is_permutation_exhaustive(ctx, spec)
        assert rep.is_permutation == brute_is_permutation(ctx, spec)
        assert (rep.counterexample, rep.evaluations) == reference_scan(ctx, spec)


@pytest.mark.parametrize("chunk_bits", [2, 3, 20])
@pytest.mark.parametrize("first", [1, 8, pc._VERDICT_FIRST_WINDOW])
def test_verdict_pass_sees_every_exponent(monkeypatch, first, chunk_bits):
    # x^-1 + c*x^(2^n-1) maps x != 0 to x^-1 + c and 0 to 0, so its one
    # repeat is x = c^-1 = g^k against 0: a pass that skips exponent k
    # would call it a permutation
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", first)
    ctx = gf.make_field(5)
    order = ctx.group_order
    for k in range(order):
        y = gf.power(ctx, ctx.generator, k)
        spec = TrinomialSpec.make(ctx, [(1, order - 1), (gf.inv(ctx, y), order)])
        rep = pc.is_permutation_exhaustive(ctx, spec)
        assert (rep.is_permutation, rep.counterexample) == (False, (0, y)), k


def test_exhaustive_full_pass_above_table_max():
    # (2,-1) holds for every m: a full n = 22 pass, above TABLE_MAX
    tower = tw.make_tower(11)
    assert tower.field.n > gf.TABLE_MAX
    spec = niho.pair_to_trinomial(tower, NihoPair(11, 2, -1))
    rep = pc.is_permutation_exhaustive(tower.field, spec)
    assert rep.is_permutation
    assert rep.evaluations == 1 << 22


def test_verdict_pass_builds_no_tables():
    ctx = gf.make_field(16)
    rep = pc.is_permutation_exhaustive(ctx, TrinomialSpec.make(ctx, [(3, 2), (5, 0)]))
    assert rep.is_permutation
    assert "exp_log" not in ctx.__dict__  # the lazy exp/log tables were never built


def test_exhaustive_counterexample_above_table_max():
    tower = tw.make_tower(11)
    spec = niho.pair_to_trinomial(tower, NihoPair(11, 3, 5))
    rep = pc.is_permutation_exhaustive(tower.field, spec)
    assert not rep.is_permutation
    assert rep.counterexample == (0x28, 0x6B0)
    assert rep.evaluations == 1048576
    assert evaluate(spec, 0x28) == evaluate(spec, 0x6B0)


@pytest.mark.parametrize("n", [8, 22])
def test_images_range_matches_evaluate(n):
    # a constant term shifts every image alike, so reports alone cannot see
    # it dropped from the witness scan
    ctx = gf.make_field(n)
    order = ctx.group_order
    spec = TrinomialSpec.make(ctx, [(5, 0), (3, 1), (7, order), (1, 3 * order + 5), (9, order - 1)])
    for start, stop in ((0, 70), (200, 256)):
        got = pc._images(ctx, pc._image_tables(ctx, spec.terms), start, stop)
        assert got.tolist() == [evaluate(spec, x) for x in range(start, stop)]


def _check_images(ctx, spec, cut):
    """The witness images of every x, in one window from 0 and one from
    cut, against the scalar evaluation."""
    tables = pc._image_tables(ctx, spec.terms)
    got = [pc._images(ctx, tables, a, b) for a, b in ((0, cut), (cut, 1 << ctx.n))]
    assert np.concatenate(got).tolist() == [evaluate(spec, x) for x in range(1 << ctx.n)]


@pytest.mark.parametrize("chunk_bits", [2, 20])
@pytest.mark.parametrize("m", range(2, 7))
def test_witness_images_of_niho_pairs_match_evaluate(monkeypatch, m, chunk_bits):
    # one strand of period 2^m+1 (s = t and t = 0 fold terms together), or
    # per-term strands where the chunk of 4 elements is below the period
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    tower = tw.make_tower(m)
    rng = random.Random(m)
    q1 = (1 << m) + 1
    pairs = [(2, -1), (3, 3), (5, 0)] + [(rng.randrange(q1), rng.randrange(q1)) for _ in range(2)]
    for s, t in pairs:
        spec = niho.pair_to_trinomial(tower, NihoPair(m, s, t))
        exps = [e for _, e in spec.terms]
        period = tower.field.group_order // gcd(tower.field.group_order, *(e - exps[0] for e in exps))
        assert len(pc._strands(tower.field, spec.terms)[1]) == (
            1 if period <= 1 << min(2 * m, chunk_bits) else len(exps))
        _check_images(tower.field, spec, rng.randrange(1, 1 << 2 * m))


@pytest.mark.parametrize("chunk_bits", [2, 20])
def test_witness_images_with_constant_and_order_terms(monkeypatch, chunk_bits):
    # a constant term (e0 = 0, so x^e0 = 1 at x = 0 too), e = N (1 off 0,
    # 0 at 0), e = 2N folded onto N, a constant cancelled by x^N off 0, and
    # periods 1, 3 and 85 at n = 8
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    ctx = _field(8)
    order = ctx.group_order
    cases = [
        [(5, 0)], [(5, order)], [(5, 0), (5, 2 * order)], [(5, 0), (6, order)],
        [(5, 0), (3, order), (1, order // 3)], [(7, 3), (2, 3 + order // 3), (9, 3 + 2 * order)],
        [(4, 2), (1, 2 + 3), (6, order)], [(5, 0), (3, 1), (7, order), (9, order - 1)],
    ]
    for i, terms in enumerate(cases):
        _check_images(ctx, TrinomialSpec.make(ctx, terms), 1 + 37 * i % 255)


def test_witness_images_refuse_a_power_outside_the_subgroup(f256):
    # a table whose subgroup (of order 85) lacks one x^D, the least, one
    # inside or the greatest, with its buckets rebuilt: the search must not
    # take a neighbour, nor the sentinel
    f0, D, mu, _, [(e0, H, cyclic)] = pc._image_tables(
        f256, TrinomialSpec.make(f256, [(1, 1), (1, 4)]).terms)
    assert mu.size == 86
    for drop in (0, 40, 84):
        lacking = np.delete(mu, drop)
        tables = f0, D, lacking, pc._bucket_starts(lacking, 8), [(e0, np.delete(H, drop), cyclic)]
        with pytest.raises(AssertionError, match="outside the subgroup"):
            pc._images(f256, tables, 0, 256)


#: n -> (terms, chunk bits, period d, least size of the largest bucket):
#: subgroups whose buckets hold several entries (d = 15 at n = 8, 31 and 93
#: at n = 10, 15, 45 and the Niho period 65 at n = 12), one bucket per
#: element (d = 2^n-1, no probe round), and period 1 in one strand (a
#: monomial, and a constant plus x^N) and in one strand per term (d = 15
#: above a 4-element chunk)
_BUCKET_CASES = {
    8: [([(1, 1), (3, 1 + 17)], 20, 15, 4), ([(5, 0), (1, 1)], 20, 255, 1),
        ([(7, 5)], 20, 1, 1), ([(9, 0), (2, 255)], 20, 1, 1),
        ([(1, 1), (3, 1 + 17)], 2, 1, 1)],
    10: [([(6, 2), (1, 2 + 33), (1, 2 + 66)], 20, 31, 4), ([(1, 1), (3, 1 + 11)], 20, 93, 4)],
    12: [([(1, 1), (3, 1 + 273)], 20, 15, 8), ([(5, 0), (2, 91), (1, 182)], 20, 45, 9),
         ([(1, 1), (1, 2 * 63 + 1), (1, -1 * 63 + 1)], 20, 65, 3)],
}


@pytest.mark.parametrize("n", sorted(_BUCKET_CASES))
def test_bucketed_index_images_match_scalar_values(monkeypatch, n):
    # the witness images of every element, in two windows, against the
    # scalar TrinomialSpec.value, where the bucket lookup must probe past
    # entries of x^D's bucket below it, and where it is not used (d = 1)
    ctx = _field(n)
    rng = random.Random(n)
    for terms, chunk_bits, period, largest in _BUCKET_CASES[n]:
        monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
        spec = TrinomialSpec.make(ctx, terms)
        tables = pc._image_tables(ctx, spec.terms)
        f0, D, mu, starts, strands = tables
        assert ctx.group_order // D == period == mu.size - 1
        assert int(np.diff(starts).max()) >= largest
        assert starts.dtype == np.int32 and period < starts.size - 1 <= 2 * period
        cut = rng.randrange(1, 1 << n)
        got = [pc._images(ctx, tables, a, b) for a, b in ((0, cut), (cut, 1 << n))]
        assert np.concatenate(got).tolist() == [spec.value(x) for x in range(1 << n)], terms


def test_wrong_witness_images_trip_the_scalar_recheck(f16, monkeypatch):
    # x^3 fails at n = 4, but 0 and 2 do not collide: images that say they
    # do must not become the report
    monkeypatch.setattr(pc, "_images", lambda ctx, tables, start, stop: np.arange(start, stop) % 2)
    with pytest.raises(AssertionError, match=r"witness \(0x0, 0x2\) is not a collision"):
        pc.is_permutation_exhaustive(f16, TrinomialSpec.make(f16, [(1, 3)]))


#: (m, s, t) -> (counterexample, evaluations) of the exhaustive engine on
#: the Niho pair's trinomial, captured before the witness scan took its
#: images from the strands of f and pow_vec its powers from runs of ones:
#: the four failing pairs of the benchmark's verify workload, then failing
#: pairs drawn with random.Random(2026) at m = 8..12
_PINNED_WITNESSES = {
    (10, 788, 861): ((56, 1337), 1 << 20),
    (10, 82, 530): ((41, 1561), 1 << 20),
    (10, 829, 995): ((3837, 4081), 1 << 20),
    (11, 3, 5): ((40, 1712), 1 << 20),
    (8, 60, 163): ((272, 377), 1 << 16),
    (8, 52, 114): ((234, 388), 1 << 16),
    (8, 215, 251): ((247, 328), 1 << 16),
    (9, 245, 451): ((0, 9), 1 << 18),
    (9, 2, 82): ((0, 9), 1 << 18),
    (9, 113, 294): ((9, 577), 1 << 18),
    (10, 200, 920): ((25, 195), 1 << 20),
    (10, 23, 1004): ((52, 265), 1 << 20),
    (11, 861, 1287): ((1472, 3434), 1 << 20),
    (11, 1030, 1627): ((893, 1642), 1 << 20),
    (12, 2848, 2921): ((286, 1542), 1 << 20),
    (12, 625, 3083): ((6162, 7308), 1 << 20),
}


@pytest.mark.parametrize("m, s, t", sorted(_PINNED_WITNESSES))
def test_pinned_counterexamples(m, s, t):
    tower = tw.make_tower(m)
    spec = niho.pair_to_trinomial(tower, NihoPair(m, s, t))
    rep = pc.is_permutation_exhaustive(tower.field, spec)
    assert (rep.counterexample, rep.evaluations) == _PINNED_WITNESSES[m, s, t]
    x, y = rep.counterexample
    assert evaluate(spec, x) == evaluate(spec, y)


def test_late_repeat_partner_past_the_kept_chunk():
    # x^2 + c*x at n = 22 (kernel {0, c}), captured with the pairs above:
    # one strand per term, and a partner 2^20+5 past the witness's first
    # kept chunk (test_late_first_repeat_above_table_max pins partner 1)
    ctx = _field(22)
    c = (1 << 21) + (1 << 20) + 5
    rep = pc.is_permutation_exhaustive(ctx, TrinomialSpec.make(ctx, [(1, 2), (c, 1)]))
    assert (rep.counterexample, rep.evaluations) == (((1 << 20) + 5, 1 << 21), 3 << 20)


def _check_log_windows(ctx, terms):
    """The windows of pc._log_windows, on the pc._image_tables of the terms
    as the engine passes them, concatenate to the sum of the per-term
    geometric sequences c*(g^e)^k, k < 2^n-1. Their sizes follow the
    doubling schedule from pc._VERDICT_FIRST_WINDOW, with the first window
    and the chunk rounded to multiples of the period d of f(g^k)/g^(e0*k)
    when d <= the chunk, so that every later window then starts at a
    multiple of d."""
    order = ctx.group_order
    chunk = 1 << min(ctx.n, pc._CHUNK_BITS)
    first = pc._VERDICT_FIRST_WINDOW
    exps = [e for _, e in terms]
    d = next(d for d in range(1, order + 1)
             if all((e - exps[0]) * d % order == 0 for e in exps))
    if d <= chunk:
        first, chunk = -(-first // d) * d, chunk // d * d
    windows = list(pc._log_windows(ctx, pc._image_tables(ctx, terms)))
    expected = np.zeros(order, dtype=np.uint32)
    for c, e in terms:
        r = gf.power(ctx, ctx.generator, e)
        expected ^= _kernels.mul_const(_kernels.geometric(r, order, ctx.n, ctx.red),
                                       c, ctx.n, ctx.red)
    assert np.concatenate(windows).tolist() == expected.tolist()
    sizes = [w.size for w in windows]
    width = pc._slice_len(ctx.n)
    assert sizes[0] == min(first, chunk, order)
    assert all(size <= min(sum(sizes[:i]), chunk, width) for i, size in enumerate(sizes) if i)
    if d <= chunk and width >= chunk:  # every slice is a whole window
        assert all(sum(sizes[:i]) % d == 0 for i in range(1, len(sizes)))


@pytest.mark.parametrize("chunk_bits", [2, 3, 20])
@pytest.mark.parametrize("first", [1, 3, 8, "chunk"])
def test_log_windows_concatenate_to_geometric_sums(monkeypatch, first, chunk_bits):
    # 2^7-1 exponents of three terms (one with e = 0, so r = 1), and 2^8-1
    # of one term (d = 1); 2^n-1 is never a power of two, so the last window
    # is cut short. first = 3 makes a window run past the end of the block
    # it fills
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    chunk = 1 << min(7, chunk_bits)
    monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", chunk if first == "chunk" else first)
    _check_log_windows(_field(7), [(5, 3), (1, 0), (100, 77)])
    _check_log_windows(_field(8), [(1, 3)])


@pytest.mark.parametrize("chunk_bits", [2, 3, 5, 20])
@pytest.mark.parametrize("n", [8, 12])
def test_log_windows_collapse_by_the_period(monkeypatch, n, chunk_bits):
    # N = 2^n-1 is composite at n = 8 and 12, so the period d of
    # f(g^k)/g^(e0*k) runs through every divisor of N: 1, d dividing no
    # chunk, and d above the chunk. Exponents reach past N and include 0
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    ctx = _field(n)
    order = ctx.group_order
    rng = random.Random(n * 100 + chunk_bits)
    cases = [
        [],  # the zero polynomial
        [(7, 5)],  # a single term: d = 1
        [(1, 5), (3, 5 + order)],  # x^e and x^(e+N) agree off 0: d = 1
        [(2, 0), (9, order)],  # a constant and x^N: d = 1
        [(1, 1), (1, 2 * 15 + 1), (1, -1 * 15 + 1)] if n == 8 else
        [(1, 1), (1, 2 * 63 + 1), (1, -1 * 63 + 1)],  # Niho (2,-1): d = 2^m+1
    ]
    divisors = [q for q in range(1, order + 1) if order % q == 0]
    for q in divisors:  # the third term can shorten the gcd of the first two
        e0 = rng.randrange(3 * order)
        cases.append([(rng.randrange(1, 1 << n), e0),
                      (rng.randrange(1, 1 << n), e0 + q),
                      (rng.randrange(1, 1 << n), e0 + rng.choice(divisors) * rng.randrange(4))])
    for terms in cases:
        monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", rng.choice([1, 3, 8, 1 << 10]))
        _check_log_windows(ctx, terms)


@pytest.mark.parametrize("first", [8, pc._VERDICT_FIRST_WINDOW])
@pytest.mark.parametrize("n", [8, 12])
def test_log_windows_first_window_from_the_engine_tables(monkeypatch, n, first):
    # the first window as one geometric sequence times the strand's cyclic
    # table: a constant term first (e0 = 0), a first coefficient other than
    # 1, and periods that divide no power of two, so the first window is
    # rounded up past _VERDICT_FIRST_WINDOW
    monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", first)
    ctx = _field(n)
    order = ctx.group_order
    cases = {
        8: [[(1, 0), (1, 85)], [(6, 0), (1, 51), (9, 102)], [(9, 7), (1, 7 + 51)],
            [(3, 3), (1, 3 + 15), (7, 3 + 45)], [(1, 1), (1, 2 * 15 + 1), (1, -1 * 15 + 1)]],
        12: [[(1, 0), (1, 315)], [(5, 0), (2, 455), (1, 910)], [(9, 7), (1, 7 + 91)],
             [(3, 3), (1, 3 + 63)], [(1, 1), (1, 2 * 63 + 1), (1, -1 * 63 + 1)]],
    }[n]
    for terms in cases:
        d = order // pc._image_tables(ctx, terms)[1]
        assert d > 1 and 1024 % d
        _check_log_windows(ctx, terms)


def test_slice_len_grows_with_n_up_to_the_chunk():
    # 2^16 up to n = 23, then 2^(n-7) (16 bitset bytes per element), capped
    # at the 2^20 chunk; at n <= 16 the slice is the whole field
    assert [pc._slice_len(n) for n in (8, 16, 17, 20, 22, 23, 24, 26, 27, 28, 30)] == [
        1 << 8, 1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 17, 1 << 19,
        1 << 20, 1 << 20, 1 << 20]


@pytest.mark.parametrize("slice_bits", [1, 2, 4])
def test_sliced_walks_match_whole_windows(monkeypatch, slice_bits):
    # slices shorter than the windows, as at n >= 17: log-order windows cut
    # into slices still concatenate to the geometric sums, for one block
    # (the Niho (2,-1) at n = 8 has d = 17) and one per term, and both walks
    # still give the reference scan's report
    monkeypatch.setattr(pc, "_slice_len", lambda n: 1 << slice_bits)
    monkeypatch.setattr(pc, "_WITNESS_FIRST_BITS", 1)
    monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", 3)
    _check_log_windows(_field(7), [(5, 3), (1, 0), (100, 77)])
    monkeypatch.setattr(pc, "_VERDICT_FIRST_WINDOW", 8)
    _check_log_windows(_field(8), [(1, 1), (1, 2 * 15 + 1), (1, -1 * 15 + 1)])
    _check_log_windows(_field(8), [(1, 3)])
    ctx = _field(7)
    rng = random.Random(slice_bits)
    for _ in range(30):
        spec = TrinomialSpec.make(ctx, [(rng.randrange(1, 128), rng.randrange(128))
                                        for _ in range(rng.randrange(1, 4))])
        rep = pc.is_permutation_exhaustive(ctx, spec)
        assert rep.is_permutation == brute_is_permutation(ctx, spec)
        assert (rep.counterexample, rep.evaluations) == reference_scan(ctx, spec)


def _occupy_sizes(monkeypatch):
    """The sizes of the arrays that pc._occupy is given from now on."""
    sizes, occupy = [], pc._occupy

    def recorded(bits, v):
        sizes.append(v.size)
        return occupy(bits, v)

    monkeypatch.setattr(pc, "_occupy", recorded)
    return sizes


@pytest.mark.parametrize("n, late", [(20, False), (22, False), (22, True)])
def test_occupy_takes_at_most_a_slice(monkeypatch, n, late):
    # both walks hand the occupancy test at most 2^16 values at n = 20 and
    # 22, although their windows grow to 2^20-element chunks: on full
    # (2,-1) passes, and on the late repeat of x^2 + (2^21+1)x, whose report
    # keeps the canonical chunk count
    if late:
        ctx = gf.make_field(n)
        spec = TrinomialSpec.make(ctx, [(1, 2), ((1 << 21) + 1, 1)])
    else:
        tower = tw.make_tower(n // 2)
        ctx, spec = tower.field, niho.pair_to_trinomial(tower, NihoPair(n // 2, 2, -1))
    sizes = _occupy_sizes(monkeypatch)
    rep = pc.is_permutation_exhaustive(ctx, spec)
    assert max(sizes) <= pc._slice_len(n) == 1 << 16
    if late:
        assert rep.counterexample == (1, 1 << 21)
        assert rep.evaluations == 3 << 20
    else:
        assert rep.is_permutation and sum(sizes) == 1 << n


def test_verdict_collapses_to_one_multiply_per_window(monkeypatch):
    # the (2,-1) trinomial at n = 20 has period 2^10+1: the first window is
    # one geometric sequence times the strand's cyclic table (one product),
    # not one sequence per term; after it, each window builds the byte
    # tables of one constant (one strand), each of its slices is one map of
    # the one block through them, not one per term, and the windows past
    # 2^16 come in slices
    tower = tw.make_tower(10)
    spec = niho.pair_to_trinomial(tower, NihoPair(10, 2, -1))
    calls, events = [], []
    kernels = {name: getattr(_kernels, name)
               for name in ("const_tables", "map_planes", "geometric", "mul_vec")}
    log_window = pc._log_window

    def recorded(name, event):
        def call(*args):
            events.append(event)
            return kernels[name](*args)
        monkeypatch.setattr(_kernels, name, call)

    def window(ctx, strands, blocks, consts, k0, a, size):
        calls.append([k0, a, size])
        events.append("W" if k0 else "F")
        return log_window(ctx, strands, blocks, consts, k0, a, size)

    for name, event in zip(kernels, "TMGV"):
        recorded(name, event)
    monkeypatch.setattr(pc, "_log_window", window)
    assert pc.is_permutation_exhaustive(tower.field, spec).is_permutation
    assert calls[0][:2] == [0, 0] and calls[0][2] == 1025
    assert all(k0 % 1025 == 0 for k0, _, _ in calls[1:])
    assert all(size <= 1 << 16 for _, _, size in calls[1:])
    windows = {k0 for k0, *_ in calls}
    assert len(windows) > 10 and len(calls) > len(windows) + 10
    # the first window, up to the constant's tables of the first later one
    later = events.index("W") - 1
    first = "".join(events[events.index("F") : later])
    assert first.count("G") == first.count("V") == 1
    # from the first later window: per window one constant's tables, then
    # per slice one map
    later = "".join(events[later:])
    assert re.fullmatch(r"(T(WM)+)+", later) and later.count("T") == len(windows) - 1
    # slices tile each window from its start
    starts = [k0 + a for k0, a, _ in calls]
    assert starts == list(np.cumsum([0] + [size for _, _, size in calls[:-1]]))


def test_false_log_order_repeat_trips_the_consistency_assertion(f16, monkeypatch):
    # a log-order walk that reports a repeat on a permutation: the bitmask
    # walk finds none, and the engine must say so rather than report one
    monkeypatch.setattr(pc, "_log_windows", lambda *args: iter([np.zeros(2, dtype=np.uint32)]))
    with pytest.raises(AssertionError, match="bitmask scan did not"):
        pc.is_permutation_exhaustive(f16, TrinomialSpec.make(f16, [(1, 2)]))


def test_late_first_repeat_above_table_max():
    # x^2 + c*x is GF(2)-linear with kernel {0, c}: the first repeat is
    # y = 2^21 with partner y ^ c = 1, three 2^20-chunks into the scan
    ctx = gf.make_field(22)
    spec = TrinomialSpec.make(ctx, [(1, 2), ((1 << 21) + 1, 1)])
    rep = pc.is_permutation_exhaustive(ctx, spec)
    assert not rep.is_permutation
    assert rep.counterexample == (1, 1 << 21)
    assert rep.evaluations == 3 << 20


def _checked_occupy(ctx, bits, seen, v):
    """_occupy(bits, v), checked against the set of values seen so far;
    returns the set after the call."""
    words, count = bits.words.copy(), bits.count
    vals = v.tolist()
    fresh = len(set(vals)) == len(vals) and seen.isdisjoint(vals)
    assert pc._occupy(bits, v) == fresh
    if fresh:
        seen = seen | set(vals)
        assert bits.count == len(seen)
    else:  # the bitset is as it was before the call
        assert np.array_equal(bits.words, words) and bits.count == count
    # the bitset holds exactly the values seen, read through _repeats
    held = pc._repeats(bits, np.arange(1 << ctx.n, dtype=v.dtype))
    assert np.flatnonzero(held).tolist() == sorted(seen)
    return seen


@pytest.mark.parametrize("n", range(5, 13))
def test_occupy_matches_a_set_reference(n):
    ctx = gf.make_field(n)
    size = 1 << n
    rng = np.random.default_rng(n)
    bits, seen = pc._bitset(ctx), set()
    for i in range(60):
        dtype = (np.uint32, np.int64)[i % 2]  # the verdict's and the witness's
        if i % 3:  # distinct values, most of them unseen
            pool = np.setdiff1d(np.arange(size), sorted(seen))
            v = rng.permutation(pool)[: rng.integers(1, max(2, pool.size // 8))]
            if i % 3 == 2 and seen:  # ... and one already held
                v = np.r_[v, rng.choice(sorted(seen))]
        else:  # values drawn with replacement
            v = rng.integers(0, size, rng.integers(1, size // 4))
        seen = _checked_occupy(ctx, bits, seen, rng.permutation(v).astype(dtype))


#: windows with a repeat inside one word, as offsets into the word. In the
#: first two each value's bit is still set after the adds: 3 * 2^3 leaves
#: bit 3 set, and 3 * 2^31 wraps to 2^31 mod 2^32. In the others the carry
#: of 2^4 + 2^4 meets the add of 2^5
_CARRY_WINDOWS = [[3, 3, 3], [31, 31, 31], [4, 4, 5], [4, 5, 4]]


@pytest.mark.parametrize("n", [5, 8, 12])
@pytest.mark.parametrize("offsets", _CARRY_WINDOWS)
def test_occupy_sees_repeats_that_carry(n, offsets):
    ctx = gf.make_field(n)
    rng = np.random.default_rng(n)
    base = 32 * int(rng.integers(0, max(1, (1 << n) >> 5)))
    others = np.setdiff1d(np.arange(1 << n), np.arange(base, base + 32))
    bits = pc._bitset(ctx)
    # an earlier window elsewhere, then the carry window among fresh values
    seen = _checked_occupy(ctx, bits, set(), rng.permutation(others)[:40].astype(np.uint32))
    fresh = np.array(sorted(set(others.tolist()) - seen)[:20])
    window = rng.permutation(np.r_[np.array(offsets) + base, fresh]).astype(np.uint32)
    assert _checked_occupy(ctx, bits, seen, window) == seen
    # a value set by an earlier window repeats in a later one
    seen = _checked_occupy(ctx, bits, seen, np.array([base + 31], dtype=np.uint32))
    assert _checked_occupy(ctx, bits, seen, np.array([base + 30, base + 31], dtype=np.uint32)) == seen


def _witness_walks(monkeypatch, ctx, spec):
    """The engine's report on spec, checked against reference_scan, and the
    (stop, start) of each bitmask walk it made."""
    walks, windows = [], pc._bitmask_windows

    def recorded(ctx, terms, stop, start=0):
        walks.append((stop, start))
        return windows(ctx, terms, stop, start)

    monkeypatch.setattr(pc, "_bitmask_windows", recorded)
    rep = pc.is_permutation_exhaustive(ctx, spec)
    assert (rep.counterexample, rep.evaluations) == reference_scan(ctx, spec)
    return rep, walks


def test_witness_partner_in_a_kept_window(monkeypatch):
    # x^2 + c*x is GF(2)-linear with kernel {0, c}: y = 2^13 lies in the
    # window [7168, 15360), its partner 5 in the kept window [0, 1024)
    ctx = gf.make_field(16)
    spec = TrinomialSpec.make(ctx, [(1, 2), ((1 << 13) + 5, 1)])
    rep, walks = _witness_walks(monkeypatch, ctx, spec)
    assert rep.counterexample == (5, 1 << 13)
    assert walks == [(1 << 16, 0)]


def test_witness_partner_in_the_failing_window(monkeypatch):
    # y = 2^13 and its partner 7200 share the window [7168, 15360)
    ctx = gf.make_field(16)
    spec = TrinomialSpec.make(ctx, [(1, 2), ((1 << 13) ^ 7200, 1)])
    rep, walks = _witness_walks(monkeypatch, ctx, spec)
    assert rep.counterexample == (7200, 1 << 13)
    assert walks == [(1 << 16, 0)]


#: the window starts of the second walk over [held, 62), by chunk bits:
#: its windows again double from 2 up to the chunk
_SECOND_WALK_STARTS = {2: [2] + list(range(4, 62, 4)), 3: [6, 8] + list(range(12, 62, 8))}


@pytest.mark.parametrize("chunk_bits, held", [(2, 2), (3, 6)])
def test_witness_partner_past_the_kept_windows(monkeypatch, chunk_bits, held):
    # windows of 2, 4, 8 ... up to the chunk: only [0, held) fits one chunk,
    # so the partner 20 of y = 64 (failing window from 62) comes from a
    # second walk over [held, 62)
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(pc, "_WITNESS_FIRST_BITS", 1)
    ctx = gf.make_field(7)
    spec = TrinomialSpec.make(ctx, [(1, 2), (64 + 20, 1)])
    rep, walks = _witness_walks(monkeypatch, ctx, spec)
    assert rep.counterexample == (20, 64)
    assert walks == [(128, 0), (62, held)]
    starts = [x0 for x0, _ in pc._bitmask_windows(ctx, pc._image_tables(ctx, spec.terms), 62, held)]
    assert starts == _SECOND_WALK_STARTS[chunk_bits]
    rng = random.Random(chunk_bits)
    for _ in range(40):  # every position of y against the kept range
        c = rng.randrange(2, 128)
        _witness_walks(monkeypatch, ctx, TrinomialSpec.make(ctx, [(1, 2), (c, 1), (c, 0)]))


def test_witness_partner_is_zero_when_f0_repeats(monkeypatch):
    # x^2 + 2^12*x + 7 maps 0 and 2^12 to 7: the image of 0 is the scalar
    # f(0) in the verdict pass and the partner of y = 2^12 in the witness
    ctx = gf.make_field(16)
    spec = TrinomialSpec.make(ctx, [(1, 2), (1 << 12, 1), (7, 0)])
    assert evaluate(spec, 0) == evaluate(spec, 1 << 12) == 7
    rep, walks = _witness_walks(monkeypatch, ctx, spec)
    assert rep.counterexample == (0, 1 << 12)
    assert walks == [(1 << 16, 0)]


def test_permuting_pass_takes_no_element_wise_powers(monkeypatch):
    # the image of 0 is scalar and the log-order walk is geometric, so a
    # permutation never reaches pow_vec
    def no_pow_vec(*args):
        raise AssertionError("pow_vec called on a permuting pass")

    monkeypatch.setattr(_kernels, "pow_vec", no_pow_vec)
    tower = tw.make_tower(5)
    spec = niho.pair_to_trinomial(tower, NihoPair(5, 2, -1))
    assert pc.is_permutation_exhaustive(tower.field, spec).is_permutation


@pytest.mark.parametrize("argv, code", [
    ("--m 10 --pair 788,861", 1), ("--m 10 --pair 2,-1", 0), ("--m 11 --pair 3,5", 1),
])
def test_verify_builds_no_exp_log_tables(monkeypatch, tmp_path, argv, code):
    def no_tables(*args):
        raise AssertionError("verify built the exp/log tables")

    make_tower, towers = tw.make_tower, []

    def recording_make_tower(*args):
        towers.append(make_tower(*args))
        return towers[-1]

    monkeypatch.setattr(_kernels, "exp_table", no_tables)
    monkeypatch.setattr(tw, "make_tower", recording_make_tower)
    out = tmp_path / "out.json"
    assert cli.main(["verify", *argv.split(), "--format", "json", "--out", str(out)]) == code
    assert json.loads(out.read_text())["is_permutation"] == (code == 0)
    assert towers and all("exp_log" not in t.field.__dict__ for t in towers)


def test_field_too_large():
    ctx = gf.make_field(30)
    with pytest.raises(NihopermError, match="^exhaustive check capped at n=28, got n=30$"):
        pc.is_permutation_exhaustive(ctx, TrinomialSpec.make(ctx, [(1, 1)]))


def test_report_json_schema(tower2):
    rep = pc.unit_circle_check(tower2, NihoPair(2, 2, 4))
    data = rep.to_json_dict()
    assert data["method"] == "unit_circle"
    assert data["is_permutation"] is True
    assert data["evaluations"] == 5
    assert data["counterexample"] is None
    assert data["pair"] == {"m": 2, "s": 2, "t": 4}
    assert isinstance(data["elapsed_ms"], float)


# ---------------------------------------------------------------------------
# subgroup criterion
# ---------------------------------------------------------------------------
# for r >= 1, x^r h(x^s) permutes GF(2^n) iff gcd(r, s) = 1 and x^r h(x)^s
# permutes the d-th roots of unity, d*s = 2^n-1 (Zieve 2009; Park-Lee 2001):
# an oracle for the exhaustive engine

def subgroup_form(ctx, r, s_div, h):
    """x^r h(x^s) as a polynomial."""
    return TrinomialSpec.make(ctx, [(c, r + e * s_div) for c, e in h.terms])


def exhaustive_verdict(ctx, r, s_div, h):
    """The exhaustive engine's verdict on x^r h(x^s)."""
    return pc.is_permutation_exhaustive(ctx, subgroup_form(ctx, r, s_div, h)).is_permutation


def zieve_loop(ctx, r, s_div, h):
    """The subgroup criterion point by point, with the scalar field
    operations and a set of images."""
    if gcd(r, s_div) != 1:
        return False
    step = gf.power(ctx, ctx.generator, s_div)
    seen, x = set(), 1
    for _ in range(ctx.group_order // s_div):
        hx = evaluate(h, x)
        if hx == 0:
            return False
        y = gf.mul(ctx, gf.power(ctx, x, r), gf.power(ctx, hx, s_div))
        if y in seen:
            return False
        seen.add(y)
        x = gf.mul(ctx, x, step)
    return True


def zieve_tables(ctx, r, s_div, h):
    """The subgroup criterion by index arithmetic on the discrete log, as
    one array pass: x = g^(s*k), h(x) = XOR of exp[log c + e*s*k], and
    x^r h(x)^s = exp[r*s*k + s*log h(x)]."""
    exp, log = ctx.exp_log
    order = ctx.group_order
    if gcd(r, s_div) != 1:
        return False
    logx = s_div * np.arange(order // s_div, dtype=np.int64)
    hx = np.zeros(logx.size, dtype=np.int64)
    for c, e in h.terms:
        hx ^= exp[(log[c] + e * logx) % order]
    if not hx.all():
        return False
    y = exp[(r * logx + s_div * log[hx]) % order]
    return np.unique(y).size == y.size


def test_zieve_constant_h(f16):
    one = TrinomialSpec.make(f16, [(1, 0)])
    # x and x^2 permute; x^3 has gcd(r, s) = 3
    for r, verdict in ((1, True), (2, True), (3, False)):
        assert zieve_tables(f16, r, 3, one) == verdict
        assert exhaustive_verdict(f16, r, 3, one) == verdict


def test_zieve_matches_exhaustive_on_worked_factorization(f16):
    # x + x^7 + x^13 = x * h(x^3) with h(y) = 1 + y^2 + y^4
    h = TrinomialSpec.make(f16, [(1, 0), (1, 2), (1, 4)])
    f = TrinomialSpec.make(f16, [(1, 1), (1, 7), (1, 13)])
    assert subgroup_form(f16, 1, 3, h) == f
    assert pc.is_permutation_exhaustive(f16, f).is_permutation
    assert zieve_tables(f16, 1, 3, h)


def test_zieve_rejects_non_permutation(f16):
    one = TrinomialSpec.make(f16, [(1, 0)])
    # x^3: gcd(3, 5) = 1 but x^3 is constant 1 on the cube roots of unity
    assert not zieve_tables(f16, 3, 5, one)
    assert not exhaustive_verdict(f16, 3, 5, one)
    assert not brute_is_permutation(f16, TrinomialSpec.make(f16, [(1, 3)]))


@pytest.mark.parametrize("chunk_bits", [3, 20])
def test_zieve_matches_scalar_loop(monkeypatch, chunk_bits):
    # random (r, s, h) at n = 2..12, r >= 1 so that 0 maps to 0: h constant
    # or a monomial (often a permutation), random sparse, or y + c with c a
    # root of unity (a zero on the subgroup); r shares a factor with s in
    # about a fifth of cases
    monkeypatch.setattr(pc, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    verdicts = []
    for _ in range(150):
        ctx = _field(rng.randrange(2, 13))
        order = ctx.group_order
        s = rng.choice([d for d in range(1, order + 1) if order % d == 0])
        r = rng.randrange(1, order + 1)
        if s > 1 and rng.random() < 0.2:
            r = s * rng.randrange(1, order // s + 1)
        kind = rng.randrange(4)
        if kind == 0:
            terms = [(rng.randrange(1, order + 1), 0)]
        elif kind == 1:
            terms = [(rng.randrange(1, order + 1), rng.randrange(1, order + 1))]
        elif kind == 2:
            terms = [(rng.randrange(1, order + 1), rng.randrange(order + 1))
                     for _ in range(rng.randrange(1, 4))]
        else:
            root = gf.power(ctx, ctx.generator, s * rng.randrange(order // s))
            terms = [(1, 1), (root, 0)]
        h = TrinomialSpec.make(ctx, terms)
        verdict = exhaustive_verdict(ctx, r, s, h)
        assert verdict == zieve_loop(ctx, r, s, h), (ctx.n, r, s, h.terms)
        verdicts.append(verdict)
    assert 20 < sum(verdicts) < 130


def test_zieve_sorts_every_root_between_a_slice_and_the_chunk(monkeypatch):
    # n = 18, s = 3: f(g^k)/g^(r*k) has a period dividing d = 87381 for
    # f = x^r h(x^3), and d itself for h = y + c and 1 + y + y^2: a period
    # that fits the 2^18 chunk but not a 2^16 slice, so the verdict walk
    # rounds its first window up to d, takes it whole and slices the rest
    ctx = gf.make_field(18)
    d = ctx.group_order // 3
    width = pc._slice_len(18)
    assert width < d < 1 << 18
    windows, log_windows = [], pc._log_windows

    def recorded(*args):
        for xs in log_windows(*args):
            windows.append(xs.size)
            yield xs

    monkeypatch.setattr(pc, "_log_windows", recorded)
    z = gf.power(ctx, ctx.generator, 3)
    cases = [
        (1, [(1, 0)]), (2, [(5, 0)]), (1, [(7, 4)]),  # monomials: x^(r + 3e)
        (7, [(1, 0)]),  # x^7: 7 divides d
        (1, [(1, 1), (gf.power(ctx, z, 80000), 0)]),  # h vanishes at z^80000
        (1, [(1, 0), (1, 1), (1, 2)]), (5, [(3, 0), (1, 9)]),
    ]
    periods = [1, 1, 1, 1, d, d, d // 9]  # 3x^5 + x^32: 27 divides 2^18-1
    verdicts = []
    for (r, terms), period in zip(cases, periods):
        h = TrinomialSpec.make(ctx, terms)
        windows.clear()
        verdicts.append(exhaustive_verdict(ctx, r, 3, h))
        assert verdicts[-1] == zieve_tables(ctx, r, 3, h), (r, terms)
        assert windows[0] == -(-pc._VERDICT_FIRST_WINDOW // period) * period
        assert all(size <= width for size in windows[1:])
    assert verdicts[:3] == [True] * 3 and not any(verdicts[3:5])


def test_engines_refuse_a_polynomial_over_another_field():
    # make() reduced 300 mod 2^8-1 to 45, so over GF(2^10) the spec would
    # be x + x^45; a field of the same degree with another modulus is
    # another field too
    spec = TrinomialSpec.make(gf.make_field(8), [(1, 1), (1, 300)])
    assert spec.terms == ((1, 1), (1, 45))
    for ctx in (gf.make_field(10), gf.make_field(8, 0x11D)):
        refusal = rf"^polynomial over 0x11b, field {ctx.to_hex()}$"
        with pytest.raises(NihopermError, match=refusal):
            pc.is_permutation_exhaustive(ctx, spec)


# ---------------------------------------------------------------------------
# unit-circle engine
# ---------------------------------------------------------------------------

def test_new_pairs_on_unit_circle():
    cases = [
        (4, (11, 7)),    # (-1/3, 4/3) at m=4
        (4, (3, 16)),    # (3, -1) = (3, 2^m)
        (3, (2, 8)),     # (1/5, 4/5) at m=3: 5^(-1) mod 9 = 2
    ]
    for m, (s, t) in cases:
        tower = tw.make_tower(m)
        rep = pc.unit_circle_check(tower, NihoPair(m, s, t))
        assert rep.is_permutation
        assert rep.evaluations == (1 << m) + 1


def test_unit_circle_refuses_a_pair_at_another_m():
    # (0, 2) does not permute at m = 3, but does at m = 4
    assert not pc.unit_circle_check(_tower(3), NihoPair(3, 0, 2)).is_permutation
    with pytest.raises(NihopermError, match=r"^pair at m=3, tower at m=4$"):
        pc.unit_circle_check(_tower(4), NihoPair(3, 0, 2))


def test_unit_circle_zero_hit_reported(tower3):
    # found by scanning: h(x) = 1 + x + x^2 vanishes on U at m=3, first at
    # the fourth point of the canonical order
    rep = pc.unit_circle_check(tower3, NihoPair(3, 1, 2))
    assert not rep.is_permutation
    assert rep.zero_at == 0x3B and rep.counterexample is None
    assert rep.evaluations == 4
    assert rep == reference_unit_circle(tower3, NihoPair(3, 1, 2), rep.elapsed)
    ctx = tower3.field
    x = rep.zero_at
    assert 1 ^ gf.power(ctx, x, 1) ^ gf.power(ctx, x, 2) == 0
    data = rep.to_json_dict()
    assert data["counterexample"] == {"maps_to_zero": hex(x)}


def test_unit_circle_collision_counterexample():
    tower = tw.make_tower(3)
    # (1,4) = (1,-1/2) fails at m=3 (condition m % 3 != 0 is violated); the
    # fourth point collides with the second
    rep = pc.unit_circle_check(tower, NihoPair(3, 1, 4))
    assert not rep.is_permutation
    assert rep.counterexample == (0x6, 0x3B) and rep.zero_at is None
    assert rep.evaluations == 4
    assert rep == reference_unit_circle(tower, NihoPair(3, 1, 4), rep.elapsed)
    ctx = tower.field
    x, y = rep.counterexample

    def phi(u):
        h = 1 ^ gf.power(ctx, u, 1) ^ gf.power(ctx, u, 4)
        return gf.mul(ctx, u, gf.mul(ctx, tw.conjugate(tower, h), gf.inv(ctx, h)))

    assert x != y and phi(x) == phi(y)


def reference_unit_circle(tower, pair, elapsed=0.0):
    """Plain scalar scan of U in TowerCtx.unit_circle order: the report the
    unit-circle engine must give, with the given elapsed time."""
    ctx = tower.field
    seen = {}
    failure = None
    for count, x in enumerate(tower.unit_circle.tolist(), 1):
        h = 1 ^ gf.power(ctx, x, pair.s) ^ gf.power(ctx, x, pair.t)
        if h == 0:
            failure = (None, x, count)
            break
        phi = gf.mul(ctx, x, gf.mul(ctx, tw.conjugate(tower, h), gf.inv(ctx, h)))
        if phi in seen:
            failure = ((seen[phi], x), None, count)
            break
        seen[phi] = x
    cex, zero_at, evaluations = failure or (None, None, tower.unit_circle_order)
    return pc.PermReport(
        is_permutation=failure is None, method="unit_circle", counterexample=cex,
        zero_at=zero_at, evaluations=evaluations, elapsed=elapsed, pair=pair,
    )


@functools.lru_cache(maxsize=None)
def _tower(m):
    return tw.make_tower(m)


@st.composite
def niho_pairs(draw):
    m = draw(st.integers(1, 8))
    top = 1 << m
    return NihoPair(m, draw(st.integers(0, top)), draw(st.integers(0, top)))


def block_failures(tower, pairs):
    """pc._block_failures of the pairs in one call, as (fail, partner) ints."""
    s = np.array([p.s for p in pairs], dtype=np.int64)
    t = np.array([p.t for p in pairs], dtype=np.int64)
    fail, partner = pc._block_failures(tower, pc._circle_tables(tower), s, t)
    return list(zip(fail.tolist(), partner.tolist()))


def reference_failures(tower, pair):
    """(fail, partner) of :func:`reference_unit_circle`: the index in U of
    the first failing point and of the earlier point whose phi it repeats,
    -1 where there is none."""
    rep = reference_unit_circle(tower, pair)
    if rep.is_permutation:
        return -1, -1
    partner = tower.unit_circle.tolist().index(rep.counterexample[0]) if rep.counterexample else -1
    return rep.evaluations - 1, partner


@settings(max_examples=150, deadline=None)
@given(st.lists(niho_pairs(), min_size=1, max_size=6))
def test_verify_pairs_matches_reference_reports(pairs):
    # many pairs at one m in one call, and the report of each
    by_m = {}
    for pair in pairs:
        by_m.setdefault(pair.m, []).append(pair)
    for m, group in by_m.items():
        tower = _tower(m)
        assert block_failures(tower, group) == [reference_failures(tower, p) for p in group]
        for pair in group:
            rep = pc.unit_circle_check(tower, pair)
            assert rep == reference_unit_circle(tower, pair, rep.elapsed)
            assert type(rep.is_permutation) is bool


@pytest.mark.parametrize("table, window, first", [
    (1, 1, 1), (40, 7, 3), (700, 64, 2), (1 << 22, 50, 16),
])
def test_verify_pairs_independent_of_blocks_and_windows(monkeypatch, table, window, first):
    # one pair per block, blocks cut mid-sweep, one-point windows, windows
    # capped below their doubling width
    monkeypatch.setattr(pc, "_TABLE_ELEMS", table)
    monkeypatch.setattr(pc, "_WINDOW_ELEMS", window)
    monkeypatch.setattr(pc, "_FIRST_WINDOW", first)
    tower = _tower(5)
    pairs = [NihoPair(5, s, t) for s in range(33) for t in range(s, 33)]
    assert block_failures(tower, pairs) == [reference_failures(tower, p) for p in pairs]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_verify_pairs_matches_exhaustive_every_pair(m):
    tower = _tower(m)
    top = 1 << m
    pairs = [NihoPair(m, s, t) for s in range(top + 1) for t in range(s, top + 1)]
    verdicts = [fail < 0 for fail, _ in block_failures(tower, pairs)]
    assert pc.pair_verdicts(tower, [p.s for p in pairs], [p.t for p in pairs]).tolist() == verdicts
    for pair, verdict in zip(pairs, verdicts):
        spec = niho.pair_to_trinomial(tower, pair)
        assert verdict == pc.is_permutation_exhaustive(tower.field, spec).is_permutation


def test_verify_pairs_empty_and_other_moduli():
    assert block_failures(_tower(4), []) == []
    assert pc.pair_verdicts(_tower(4), [], []).tolist() == []
    # a non-default modulus changes the generator, hence U's order and the
    # counterexamples, but the reports still follow the reference scan
    tower = tw.make_tower(4, 0x1F5)
    for pair in (NihoPair(4, 11, 7), NihoPair(4, 1, 2), NihoPair(4, 1, 4)):
        rep = pc.unit_circle_check(tower, pair)
        assert rep == reference_unit_circle(tower, pair, rep.elapsed)


def scalar_coord(tower, h):
    """code(a) | code(b) << m for h = a + b*g with a, b in the subfield:
    b = (h + h^q)/(g + g^q) and a = h + b*g, in scalar field arithmetic."""
    ctx, g, code = tower.field, tower.field.generator, tower.subfield_code
    b = gf.mul(ctx, h ^ tw.conjugate(tower, h), gf.inv(ctx, g ^ tw.conjugate(tower, g)))
    return code(h ^ gf.mul(ctx, b, g)) | code(b) << tower.m


@pytest.mark.parametrize("m", range(1, 9))
def test_circle_tables_match_scalar_formula(m):
    # coords is the scalar split h = a + b*g at every point of U, and the
    # class of a/b gives the log to the base w of h^(q-1), for every h = 1+w^j
    # and for random nonzero h
    tower = _tower(m)
    ctx, q = tower.field, tower.subfield_order
    coords, logs, classes = pc._circle_tables(tower)
    points = tower.unit_circle
    assert coords.tolist() == [scalar_coord(tower, x) for x in points.tolist()]
    log_w = {x: k for k, x in enumerate(points.tolist())}
    rng = random.Random(m)
    hs = [1 ^ x for x in points[1:].tolist()] + [rng.randrange(1, 1 << 2 * m) for _ in range(64)]
    for h in hs:
        ab = scalar_coord(tower, h)
        cls = classes[logs[ab & (q - 1)] - logs[ab >> m] + 2 * q]
        assert cls == log_w[gf.power(ctx, h, q - 1)], h


@pytest.mark.parametrize("m", range(1, 17))
def test_trace_inverse_is_the_field_inverse(m):
    # 1/(g + g^q) read from the subfield log equals the scalar inverse
    tower = _tower(m)
    ctx, g = tower.field, tower.field.generator
    assert pc._trace_inverse(tower) == gf.inv(ctx, g ^ tw.conjugate(tower, g))


@pytest.mark.parametrize("m", [4, 7, 10])
def test_circle_tables_refuse_a_repeated_ratio(m):
    # a subfield log that gives two codes one log: the q-1 ratios a/b of
    # the points 1+w^j with a != 0 can no longer be distinct. The two codes
    # are not the one of g + g^q, so the inverse read before stays exact
    tower = tw.make_tower(m)  # a fresh tower: its cached logs are patched
    q, g = tower.subfield_order, tower.field.generator
    trace = tower.subfield_code(g ^ tw.conjugate(tower, g))
    logs = tower.subfield_logs.copy()
    x, y = [c for c in range(1, q) if c != trace][:2]
    logs[x] = logs[y]
    tower.__dict__["subfield_logs"] = logs
    with pytest.raises(AssertionError, match="distinct ratios"):
        pc._circle_tables(tower)


def test_verify_pairs_builds_no_tables():
    tower = tw.make_tower(8)
    assert pc.unit_circle_check(tower, NihoPair(8, 2, -1)).is_permutation
    assert "exp_log" not in tower.field.__dict__  # the lazy exp/log tables


def _predicted_pairs(m):
    """Pairs the paper proves are permutation pairs at m."""
    families = ["T3", "T4", "T5"] if m % 2 == 0 else []
    if gcd(5, (1 << m) + 1) == 1:
        families.append("T6")
    return [NihoPair(m, 2, -1)] + [niho.parse_pair(niho.PAIR_FAMILIES[f], m) for f in families]


@pytest.mark.parametrize("m", range(11, 17))
def test_paper_predicted_pairs_above_table_max(m):
    tower = tw.make_tower(m)
    pairs = _predicted_pairs(m)
    assert len(pairs) == 1 + 3 * (m % 2 == 0) + (m % 4 != 2)
    for pair in pairs:
        rep = pc.unit_circle_check(tower, pair)
        assert rep.is_permutation, pair
        assert rep.evaluations == (1 << m) + 1


#: (m, pair label) -> (counterexample or zero_at, evaluations) of
#: unit_circle_check, captured before its first window grew with the pairs
#: it holds: (3,5), (2,-1), (-1/7,8/7), the verify workload's pairs at
#: m = 10 taken at m = 12..16, and (1,2), whose h vanishes on U at odd m.
#: The scalar reference scan is too slow at these m
_PINNED_CIRCLE_REPORTS = {
    (12, "3,5"): ((11538042, 5205114), 32), (12, "2,-1"): (None, 4097),
    (12, "-1/7,8/7"): (None, 4097), (12, "788,861"): ((12969499, 9017022), 100),
    (12, "82,530"): ((882190, 16568338), 88), (12, "829,995"): ((16380195, 9319644), 112),
    (12, "3,-1"): (None, 4097), (12, "1,2"): (None, 4097),
    (13, "3,5"): ((25500596, 28121703), 142), (13, "2,-1"): (None, 8193),
    (13, "-1/7,8/7"): (None, 8193), (13, "788,861"): ((37629675, 8058351), 285),
    (13, "82,530"): ((48008629, 58344129), 60), (13, "829,995"): ((5479770, 20921921), 20),
    (13, "3,-1"): ((49728360, 13758935), 102), (13, "1,2"): (35108145, 2732),
    (14, "3,5"): ((237301885, 47041679), 342), (14, "2,-1"): (None, 16385),
    (14, "-1/7,8/7"): (None, 16385), (14, "788,861"): ((237163278, 169003180), 380),
    (14, "82,530"): ((32271020, 258631730), 83), (14, "829,995"): ((211483206, 97163111), 223),
    (14, "3,-1"): (None, 16385), (14, "1,2"): (None, 16385),
    (15, "3,5"): ((993885387, 678079367), 695), (15, "2,-1"): (None, 32769),
    (15, "-1/7,8/7"): (None, 32769), (15, "788,861"): ((870040825, 663967744), 217),
    (15, "82,530"): ((867187781, 306962605), 483), (15, "829,995"): ((2315535, 722591078), 115),
    (15, "3,-1"): ((212622593, 1065161439), 161), (15, "1,2"): (559537994, 10924),
    (16, "3,5"): ((1985438499, 454516869), 614), (16, "2,-1"): (None, 65537),
    (16, "-1/7,8/7"): (None, 65537), (16, "788,861"): ((621065305, 2987522988), 61),
    (16, "82,530"): ((1487579055, 2496719521), 84), (16, "829,995"): ((2227627071, 4087535038), 308),
    (16, "3,-1"): (None, 65537), (16, "1,2"): (None, 65537),
}


@pytest.mark.parametrize("m", range(12, 17))
def test_pinned_single_pair_unit_circle_reports(m):
    tower = _tower(m)
    for (pm, label), (failure, evaluations) in _PINNED_CIRCLE_REPORTS.items():
        if pm != m:
            continue
        rep = pc.unit_circle_check(tower, niho.parse_pair(label, m))
        got = rep.counterexample if rep.zero_at is None else rep.zero_at
        assert (got, rep.evaluations) == (failure, evaluations), label
        assert rep.is_permutation == (failure is None)


@pytest.mark.parametrize("m, pairs, width", [
    (11, 1, 2049), (12, 1, 4096), (9, 3, 1366), (9, 100, 41), (9, 256, 16), (9, 513, 16),
])
def test_first_unit_circle_window_holds_enough_elements(monkeypatch, m, pairs, width):
    # the first window holds at least _WINDOW_ELEMS >> 6 = 4096 (pair,
    # point) elements, or _FIRST_WINDOW points per pair if that is more: U
    # in one window for one pair up to m = 11, 16 points from 256 pairs
    widths, phi_window = [], pc._phi_window

    def recorded(tower, tables, s, t, ks):
        widths.append(ks.size)
        return phi_window(tower, tables, s, t, ks)

    monkeypatch.setattr(pc, "_phi_window", recorded)
    tower = _tower(m)
    size = tower.unit_circle_order
    s = np.full(pairs, 2)
    t = np.full(pairs, -1)  # (2,-1) permutes, so no pair leaves a window
    assert pc.pair_verdicts(tower, s, t).all()
    assert widths[0] == min(width, size)
    assert sum(widths) == size and widths[1:] == [
        min(width << i, size - sum(widths[:i])) for i in range(1, len(widths))]


def _scalar_phis(tower, pair, count):
    """phi at the first count points of U (None where h vanishes), in
    scalar field arithmetic."""
    ctx, out = tower.field, []
    for x in tower.unit_circle[:count].tolist():
        h = 1 ^ gf.power(ctx, x, pair.s) ^ gf.power(ctx, x, pair.t)
        out.append(None if h == 0 else
                   gf.mul(ctx, x, gf.mul(ctx, tw.conjugate(tower, h), gf.inv(ctx, h))))
    return out


#: pairs whose phi takes one value at three or more of the first 16 points
#: of U (found by a seeded random scan), so the first window of the repeat
#: test writes one image several times
_TRIPLE_REPEATS = {
    9: [(431, 481), (285, 286), (39, 310), (22, 309), (95, 504), (172, 428), (20, 41), (92, 94)],
    10: [(366, 693), (323, 739), (570, 602), (82, 378), (643, 922), (162, 422), (383, 1000), (19, 133)],
}


@pytest.mark.parametrize("m", [9, 10])
def test_verify_pairs_exact_at_sweep_shapes(m):
    # one call on about 40 pairs, as the sweeps make them: random pairs, the
    # paper's predicted pairs, a vanishing h, and repeats within one window
    tower = _tower(m)
    top = 1 << m
    rng = random.Random(900 + m)
    triples = [NihoPair(m, s, t) for s, t in _TRIPLE_REPEATS[m]]
    for pair in triples:
        counts = collections.Counter(_scalar_phis(tower, pair, pc._FIRST_WINDOW))
        counts.pop(None, None)
        assert max(counts.values()) >= 3, pair
    pairs = [NihoPair(m, rng.randrange(top + 1), rng.randrange(top + 1)) for _ in range(30)]
    pairs[5:5] = triples
    pairs += _predicted_pairs(m) + [NihoPair(m, 1, 2)]  # 1+x+x^2 vanishes on U iff m is odd
    assert len(pairs) >= 40
    got = block_failures(tower, pairs)
    assert got == [reference_failures(tower, p) for p in pairs]
    assert all(fail < 0 for fail, _ in got[-1 - len(_predicted_pairs(m)) : -1])
    fail, partner = got[-1]  # h vanishes at the failing point iff it has no partner
    assert (fail >= 0 and partner < 0) == (m % 2 == 1)


@pytest.mark.parametrize("line", [lambda j: (j, 1 - j), lambda j: (2 * j, -j)],
                         ids=["open1", "open2"])
def test_verdicts_match_reports_on_open_lines(line):
    # the unreduced, partly negative residues of the open1/open2 lines give
    # the verdicts of the reduced pairs' reports
    tower = _tower(9)
    s, t = line(np.arange(tower.unit_circle_order))
    got = block_failures(tower, [NihoPair(9, a, b) for a, b in zip(s.tolist(), t.tolist())])
    assert pc.pair_verdicts(tower, s, t).tolist() == [fail < 0 for fail, _ in got]


def test_phi_window_negative_residues_and_wide_products():
    # at m = 16, s*k reaches 2^32 and open1's t = 1-s is negative: the index
    # arithmetic must match Python's exact floor modulo. (h never vanishes on
    # U at even m: 1 + a and a in U make a a cube root of unity.)
    m = 16
    tower = _tower(m)
    ctx, q, size = tower.field, tower.subfield_order, tower.unit_circle_order
    points = tower.unit_circle.tolist()
    rng = random.Random(1616)
    pairs = [(s, 1 - s) for s in rng.sample(range(size), 16)]
    pairs += [(rng.randrange(1 << 15, size), rng.randrange(1 << 15, size)) for _ in range(16)]
    pairs += [(rng.randrange(-2 * size, 2 * size), rng.randrange(-2 * size, 2 * size))
              for _ in range(32)]
    assert any(t < 0 for _, t in pairs[32:]) and any(s < 0 for s, _ in pairs[32:])
    ks = np.array(sorted(rng.sample(range(size), 64)))
    s, t = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    phi, zero = pc._phi_window(tower, pc._circle_tables(tower), s, t, ks)
    assert phi.shape == zero.shape == (64, 64) and not zero.any()
    for row, (a, b) in enumerate(pairs):
        for col, k in enumerate(ks.tolist()):
            h = 1 ^ points[k * a % size] ^ points[k * b % size]
            value = gf.mul(ctx, points[k], gf.power(ctx, h, q - 1))
            assert points[phi[row, col]] == value, (a, b, k)


# ---------------------------------------------------------------------------
# engine agreement
# ---------------------------------------------------------------------------

def _engines_agree(tower, pair):
    ex = pc.is_permutation_exhaustive(tower.field, niho.pair_to_trinomial(tower, pair))
    return ex.is_permutation == pc.unit_circle_check(tower, pair).is_permutation


def test_cross_validation_full_sweep_m3(tower3):
    # all 81 ordered pairs collapse to these unordered ones; engines agree
    checked = 0
    for s in range(9):
        for t in range(9):
            assert _engines_agree(tower3, NihoPair(3, s, t))
            checked += 1
    assert checked == 81


def test_cross_validation_table_rows_m4(tower4):
    for row in niho.known_pairs_table1(4):
        if row.pair is not None and row.condition_ok:
            assert _engines_agree(tower4, row.pair)


def test_cross_validation_random_m6():
    tower = tw.make_tower(6)
    rng = random.Random(60)
    for _ in range(100):
        pair = NihoPair(6, rng.randrange(65), rng.randrange(65))
        assert _engines_agree(tower, pair)


def test_composition_with_coprime_power_stays_permutation(tower3):
    # if p permutes the field and gcd(e, 2^n-1) = 1 then p(x^e) permutes too
    p = niho.pair_to_trinomial(tower3, NihoPair(3, 2, 8))
    assert pc.is_permutation_exhaustive(tower3.field, p).is_permutation
    for e in (2, 5, 11):
        composed = TrinomialSpec.make(p.ctx, [(c, exp * e) for c, exp in p.terms])
        assert pc.is_permutation_exhaustive(tower3.field, composed).is_permutation

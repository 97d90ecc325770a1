"""Bulk kernels against the scalar field arithmetic, and the block shares."""

import sys
import threading

import numpy as np
import pytest

from nihoperm import _kernels
from nihoperm import field as gf


def _random_elems(n, size, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << n, size, dtype=np.uint64).astype(np.int64)


@pytest.mark.parametrize("n", [2, 8, 13, 22, 32])
def test_mul_const_matches_scalar_multiply(n):
    ctx = gf.make_field(n)
    v = _random_elems(n, 300, n)
    v[:2] = (0, ctx.mask)
    rng = np.random.default_rng(100 + n)
    for c in (0, 1, ctx.mask, int(rng.integers(2, 1 << n))):
        out = _kernels.mul_const(v, c, n, ctx.red)
        assert out.dtype == np.uint32
        assert out.tolist() == [gf.mul(ctx, int(x), c) for x in v]


WIDTHS = [2, 8, 13, 20, 22, 31, 32]


def _operands(n, size, seed):
    """0, 1 and the mask in every pairing, then random elements."""
    specials = [0, 1, (1 << n) - 1]
    first = np.repeat(specials, 3) if seed % 2 else np.tile(specials, 3)
    return np.concatenate([first, _random_elems(n, size, seed)])


@pytest.mark.parametrize("n", WIDTHS)
def test_mul_vec_matches_scalar_multiply(n):
    ctx = gf.make_field(n)
    a, b = _operands(n, 64, 2 * n), _operands(n, 64, 2 * n + 1)
    out = _kernels.mul_vec(a, b, n, ctx.red)
    assert out.dtype == np.int64
    assert out.tolist() == [gf.mul(ctx, int(x), int(y)) for x, y in zip(a, b)]


@pytest.mark.parametrize("n", WIDTHS)
def test_pow_vec_matches_scalar_power(n):
    ctx = gf.make_field(n)
    x = _operands(n, 24, 200 + n)
    order = ctx.group_order
    exponents = [0, 1, order, 3 * order + 5, 1 + (1 << n // 2) + (1 << n - 1)]
    exponents += [1 << i for i in range(n + 1)]
    for e in exponents:
        out = _kernels.pow_vec(x, e, n, ctx.red)
        assert out.dtype == np.int64
        assert out.tolist() == [gf.power(ctx, int(v), e) for v in x], e


@pytest.mark.parametrize("n", [2, 7, 20, 31, 32])
def test_pow_vec_runs_of_ones_match_scalar_power(n):
    # every run length L = 1..n, from bit 0 and from a later bit (past bit
    # n-L the run wraps mod 2^n-1), two runs of one length, and e = 0,
    # N-1, N
    ctx = gf.make_field(n)
    x = _operands(n, 24, 300 + n)
    order = ctx.group_order
    rng = np.random.default_rng(n)
    exponents = [0, order - 1, order]
    for length in range(1, n + 1):
        shift = int(rng.integers(1, n + 1))
        exponents += [(1 << length) - 1, ((1 << length) - 1) << shift,
                      ((1 << length) - 1) * (1 + (1 << length + 1))]
    for e in exponents:
        out = _kernels.pow_vec(x, e, n, ctx.red)
        assert out.dtype == np.int64
        assert out.tolist() == [gf.power(ctx, int(v), e) for v in x], e


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 10, 16, 31, 32])
def test_ones_power_takes_the_addition_chain(monkeypatch, m):
    # x^(2^m-1) by the bits of m: at most floor(log2 m) + popcount(m) - 1
    # products, where the bit-serial product would take m-1
    ctx = gf.make_field(max(m, 2))
    calls, mul_vec = [], _kernels.mul_vec

    def counted(*args):
        calls.append(args[0].size)
        return mul_vec(*args)

    monkeypatch.setattr(_kernels, "mul_vec", counted)
    x = _operands(ctx.n, 8, m)
    out = _kernels.pow_vec(x, (1 << m) - 1, ctx.n, ctx.red)
    assert len(calls) <= m.bit_length() - 1 + bin(m).count("1") - 1
    assert out.tolist() == [gf.power(ctx, int(v), (1 << m) - 1) for v in x]


def test_pow_vec_zero_conventions():
    x = np.array([0, 1, 3], dtype=np.int64)
    assert list(_kernels.pow_vec(x, 0, 4, 0b0011)) == [1, 1, 1]
    assert list(_kernels.pow_vec(x, 5, 4, 0b0011))[0] == 0


def test_exp_table_is_multiplicative_walk():
    for n in (2, 4, 8, 11, 16):
        ctx = gf.make_field(n)
        table = _kernels.exp_table(n, ctx.red, ctx.generator)
        assert table.dtype == np.int64
        walk = [1]
        for _ in range(ctx.group_order - 1):
            walk.append(gf.mul(ctx, walk[-1], ctx.generator))
        assert table.tolist() == walk, n
        assert len(set(walk)) == ctx.group_order  # hits every nonzero element once


@pytest.mark.parametrize("length", [1, 2, 5, 64, 1000])
def test_geometric_is_power_sequence(length):
    ctx = gf.make_field(22)
    r = 0x2F00D
    got = _kernels.geometric(r, length, ctx.n, ctx.red)
    assert got.tolist() == [gf.power(ctx, r, i) for i in range(length)]


@pytest.mark.parametrize("n", [2, 8, 13, 22, 32])
def test_geometric_matches_scalar_power(n):
    ctx = gf.make_field(n)
    rng = np.random.default_rng(300 + n)
    r_random, c_random = (int(x) for x in rng.integers(2, 1 << n, 2))
    for length in (1, 2, 3, 1000, 1025):
        for r in (0, 1, ctx.mask, r_random):
            powers = [gf.power(ctx, r, i) for i in range(length)]
            got = _kernels.geometric(r, length, n, ctx.red)
            assert got.dtype == np.uint32
            assert got.tolist() == powers, (length, r)
            got = _kernels.geometric(r, length, n, ctx.red, c_random)
            assert got.tolist() == [gf.mul(ctx, c_random, p) for p in powers], (length, r)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 1024, 1025])
def test_geometric_builds_one_table_per_round(monkeypatch, length):
    # one build per call, whatever the number of doubling rounds: only the
    # tables of r come from shifts, and each later round's tables are the
    # current ones mapped through themselves
    calls = []
    linear_tables = _kernels.linear_tables

    def counted(*args):
        calls.append(args)
        return linear_tables(*args)

    monkeypatch.setattr(_kernels, "linear_tables", counted)
    ctx = gf.make_field(20)
    _kernels.geometric(ctx.generator, length, ctx.n, ctx.red, 5)
    assert len(calls) == 1


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_byte_planes_rows_are_the_bytes(dtype):
    for n in range(2, 33):
        v = _random_elems(n, 60, 400 + n).reshape(3, 20).astype(dtype)
        v[0, :2] = (0, (1 << n) - 1)
        planes = _kernels.byte_planes(v, n)
        assert planes.dtype == np.uint8 and planes.flags.c_contiguous
        assert planes.shape == ((n + 7) // 8, 3, 20)
        for j, row in enumerate(planes):
            assert row.tolist() == ((v.astype(np.int64) >> 8 * j) & 255).tolist(), (n, j)


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
@pytest.mark.parametrize("total, step", [(0, 4), (1, 4), (10, 1), (50, 3), (64, 64)])
def test_in_shares_cuts_the_blocks_into_contiguous_shares(monkeypatch, total, step, cores):
    # one share per core but never more shares than blocks, sizes differing
    # by at most one block, in order and covering every block once, also
    # when the threads switch as often as the interpreter lets them
    monkeypatch.setattr(_kernels, "_core_count", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shares = _kernels.in_shares(list, total, step)
    finally:
        sys.setswitchinterval(interval)
    blocks = range(0, total, step)
    assert len(shares) == max(1, min(cores, len(blocks)))
    assert [start for share in shares for start in share] == list(blocks)
    assert max(map(len, shares)) - min(map(len, shares)) <= 1


def test_in_shares_raises_a_later_share_failure_after_joining(monkeypatch):
    # the last of three shares fails on its own thread: the caller gets its
    # exception once every share has ended, and no started thread outlives
    # the call
    monkeypatch.setattr(_kernels, "_core_count", lambda: 3)
    started, ended = [], []
    thread = threading.Thread

    def spy(*args, **kwargs):
        started.append(thread(*args, **kwargs))
        return started[-1]

    def share(blocks):
        if blocks[-1] == 8:
            raise ZeroDivisionError(f"share {blocks}")
        ended.append(list(blocks))
        return list(blocks)

    monkeypatch.setattr(threading, "Thread", spy)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=r"^share range\(6, 9\)$"):
        _kernels.in_shares(share, 9, 1)
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert sorted(ended) == [[0, 1, 2], [3, 4, 5]]
    assert threading.active_count() == before

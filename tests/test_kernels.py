"""Bulk kernels against the scalar field arithmetic."""

import numpy as np
import pytest

from nihoperm import _kernels
from nihoperm import field as gf


def _random_elems(n, size, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << n, size, dtype=np.uint64).astype(np.int64)


def test_mul_vec_matches_scalar_multiply(f256):
    a = _random_elems(8, 512, 4)
    b = _random_elems(8, 512, 5)
    out = _kernels.mul_vec(a, b, 8, f256.red)
    for i in range(a.size):
        assert out[i] == gf.mul(f256, int(a[i]), int(b[i]))


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
            walk.append(gf._mul_int(walk[-1], ctx.generator, n, ctx.red, ctx.mask))
        assert table.tolist() == walk, n
        assert len(set(walk)) == ctx.group_order  # hits every nonzero element once


@pytest.mark.parametrize("length", [1, 2, 5, 64, 1000])
def test_geometric_is_power_sequence(length):
    ctx = gf.make_field(22)
    r = 0x2F00D
    got = _kernels.geometric(r, length, ctx.n, ctx.red)
    assert got.tolist() == [gf.power(ctx, r, i) for i in range(length)]

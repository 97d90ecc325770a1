"""Bulk GF(2^n) kernels on numpy arrays of packed field elements.

Bit i of a value is the coefficient of x^i. Every kernel takes the field
as two ints: ``n`` (extension degree, at most 32) and ``red`` (the
modulus with its leading x^n term stripped, i.e. the value XORed in on
reduction).

* :func:`linear_tables` and :func:`map_planes` apply any GF(2)-linear map
  of n-bit values as the XOR of ceil(n/8) lookups in 256-entry byte tables
  built from the images of the n bits. :func:`mul_const` multiplies a
  vector by one field constant this way: v -> c*v is linear, and its bit
  images are the constant's n shifts c*x^i. Results are uint32.
* :func:`geometric` lists r^0..r^(L-1) by doubling on :func:`mul_const`;
  :func:`exp_table` is the full-period list for a generator.
* :func:`mul_vec` and :func:`pow_vec` multiply and power element-wise,
  bit-serially, on int64 arrays. Exponents passed to ``pow_vec`` must be
  >= 0; ``x**0`` is 1 for every x including 0.
"""

from __future__ import annotations

import numpy as np


def linear_tables(images, n: int) -> np.ndarray:
    """Byte tables of a GF(2)-linear map on n-bit values, given the image of
    each bit 1 << i: row j maps byte j of v to its share of the image of v.

    The result has shape (ceil(n/8), 256) and dtype uint32.
    """
    nbytes = (n + 7) // 8
    shifts = np.zeros(8 * nbytes, dtype=np.uint32)
    shifts[:n] = images
    tables = np.zeros((nbytes, 256), dtype=np.uint32)
    for k in range(8):
        # entries with bit k set are the entries below 2^k plus image(8j+k)
        tables[:, 1 << k : 2 << k] = tables[:, : 1 << k] ^ shifts[k::8, None]
    return tables


def const_tables(c: int, n: int, red: int) -> np.ndarray:
    """:func:`linear_tables` of v -> c*v, from the constant's n shifts c*x^i."""
    top = 1 << (n - 1)
    mask = (1 << n) - 1
    shifts = []
    for _ in range(n):
        shifts.append(c)
        c = ((c << 1) & mask) ^ (red if c & top else 0)
    return linear_tables(shifts, n)


def byte_planes(v: np.ndarray, n: int) -> np.ndarray:
    """The bytes of each element, as ceil(n/8) contiguous uint8 rows."""
    v = np.asarray(v, dtype=np.uint32)
    return np.stack([(v >> (8 * j)).astype(np.uint8) for j in range((n + 7) // 8)])


def map_planes(tables: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The linear map of ``tables`` applied to values given as their
    :func:`byte_planes` rows (uint32 result, shaped like one row)."""
    out = tables[0].take(planes[0])
    for table, plane in zip(tables[1:], planes[1:]):
        out ^= table.take(plane)
    return out


def mul_planes(planes: np.ndarray, c: int, n: int, red: int) -> np.ndarray:
    """c*v for every v given as its :func:`byte_planes` rows."""
    return map_planes(const_tables(c, n, red), planes)


def mul_const(v: np.ndarray, c: int, n: int, red: int) -> np.ndarray:
    """c*v element-wise for a field constant c (uint32 result)."""
    return mul_planes(byte_planes(v, n), c, n, red)


def geometric(r: int, length: int, n: int, red: int) -> np.ndarray:
    """r^0, r^1, ..., r^(length-1) as uint32, length >= 1.

    Doubling construction: once r^0..r^(k-1) are known, the next k entries
    are r^k * (r^0..r^(k-1)), one constant multiply per round.
    """
    out = np.empty(length, dtype=np.uint32)
    out[0] = 1
    filled = 1
    while filled < length:
        k = min(filled, length - filled)
        step = int(mul_const(out[filled - 1 : filled], r, n, red)[0])
        out[filled : filled + k] = mul_const(out[:k], step, n, red)
        filled += k
    return out


def exp_table(n: int, red: int, g: int) -> np.ndarray:
    """g^0..g^(2^n-2) as int64: the antilog table of a generator g."""
    return geometric(g, (1 << n) - 1, n, red).astype(np.int64)


def mul_vec(a: np.ndarray, b: np.ndarray, n: int, red: int) -> np.ndarray:
    a = a.astype(np.int64, copy=True)
    b = b.astype(np.int64, copy=True)
    res = np.zeros_like(a)
    mask = (1 << n) - 1
    top = 1 << (n - 1)
    for _ in range(n):
        res ^= np.where((b & 1) != 0, a, 0)
        b >>= 1
        carry = (a & top) != 0
        a = (a << 1) & mask
        a ^= np.where(carry, red, 0)
    return res


def pow_vec(x: np.ndarray, e: int, n: int, red: int) -> np.ndarray:
    res = np.ones_like(x, dtype=np.int64)
    base = x.astype(np.int64, copy=True)
    e = int(e)
    while e > 0:
        if e & 1:
            res = mul_vec(res, base, n, red)
        e >>= 1
        if e:
            base = mul_vec(base, base, n, red)
    return res

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
* :func:`geometric` lists start*r^0..start*r^(L-1) by doubling: each
  round maps the known head through the byte tables of one step r^k, and
  the tables of r^(2k) are those tables mapped through themselves.
  :func:`exp_table` is the full-period list for a generator.
* :func:`mul_vec` multiplies element-wise: a 4-bit comb carry-less product
  in int64, then the bits n..2n-2 are folded back by one more linear map.
* :func:`pow_vec` powers element-wise by the runs of ones of the
  exponent. Frobenius x -> x^(2^i) is GF(2)-linear, one byte-table map, so
  a run of L ones from bit i is (x^(2^L-1))^(2^i): one map after
  floor(log2 L) + popcount(L) - 1 :func:`mul_vec` calls for x^(2^L-1)
  (Itoh-Tsujii), and the runs are combined by one more call each.
  x^(2^10-1) takes 4 calls where a set bit at a time took 9. Exponents
  must be >= 0; ``x**0`` is 1 for every x including 0.
* :func:`in_shares` runs a loop's blocks ``range(0, total, step)`` as one
  contiguous share per core the process may run on, share 0 on the calling
  thread and each other share on a thread of its own, and returns the
  shares' results in share order. Share bodies that spend their time in
  large numpy calls run side by side, as those calls release the GIL.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache

import numpy as np

#: elements per block of :func:`mul_vec`: its 16 multiples of a take
#: 16 * 8 bytes per element, 1 MiB per block
_COMB_BLOCK = 1 << 13


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


def _shifts(c: int, count: int, n: int, red: int) -> list[int]:
    """c*x^0, c*x^1, ..., c*x^(count-1), reduced."""
    top, mask = 1 << (n - 1), (1 << n) - 1
    out = []
    for _ in range(count):
        out.append(c)
        c = ((c << 1) & mask) ^ (red if c & top else 0)
    return out


def const_tables(c: int, n: int, red: int) -> np.ndarray:
    """:func:`linear_tables` of v -> c*v, from the constant's n shifts c*x^i."""
    return linear_tables(_shifts(c, n, n, red), n)


def byte_planes(v: np.ndarray, n: int) -> np.ndarray:
    """The bytes of each element, as ceil(n/8) contiguous uint8 rows: row j
    is (v >> 8j) & 255, shaped like v. One strided copy of the low bytes of
    v's little-endian uint32 view."""
    nbytes = (n + 7) // 8
    v = np.asarray(v, dtype="<u4")
    low = v.reshape(-1, 1).view(np.uint8).T[:nbytes]
    return np.ascontiguousarray(low).reshape(nbytes, *v.shape)


def map_planes(tables: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The linear map of ``tables`` applied to values given as their
    :func:`byte_planes` rows (uint32 result, shaped like one row)."""
    out = tables[0].take(planes[0])
    for table, plane in zip(tables[1:], planes[1:]):
        out ^= table.take(plane)
    return out


def mul_const(v: np.ndarray, c: int, n: int, red: int) -> np.ndarray:
    """c*v element-wise for a field constant c (uint32 result)."""
    return map_planes(const_tables(c, n, red), byte_planes(v, n))


def geometric(r: int, length: int, n: int, red: int, start: int = 1) -> np.ndarray:
    """start*r^0, start*r^1, ..., start*r^(length-1) as uint32, length >= 1.

    Doubling construction: once the first k entries are known, the next k
    are r^k times them, one map through the byte tables of r^k. Only the
    tables of r come from :func:`const_tables`; each later round's tables
    are the current ones mapped through themselves, r^(2k)*v = r^k*(r^k*v).
    """
    out = np.empty(length, dtype=np.uint32)
    out[0] = start
    tables, filled = const_tables(r, n, red), 1
    while filled < length:
        k = min(filled, length - filled)
        out[filled : filled + k] = map_planes(tables, byte_planes(out[:k], n))
        filled += k
        if filled < length:
            tables = map_planes(tables, byte_planes(tables, n))
    return out


def exp_table(n: int, red: int, g: int) -> np.ndarray:
    """g^0..g^(2^n-2) as int64: the antilog table of a generator g."""
    return geometric(g, (1 << n) - 1, n, red).astype(np.int64)


@lru_cache(maxsize=None)
def _fold_tables(n: int, red: int) -> np.ndarray:
    """:func:`linear_tables` of the reduction of bits n..2n-2: bit i of its
    input stands for x^(n+i). Cached, so read-only."""
    tables = linear_tables(_shifts(1, 2 * n - 1, n, red)[n:], n - 1)
    tables.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _frobenius_tables(n: int, red: int, i: int) -> np.ndarray:
    """:func:`linear_tables` of x -> x^(2^i), i >= 1: bit j maps to
    (x^(2j))^(2^(i-1)). Cached, so read-only."""
    images = np.array(_shifts(1, 2 * n - 1, n, red)[::2], dtype=np.uint32)
    if i > 1:
        images = map_planes(_frobenius_tables(n, red, i - 1), byte_planes(images, n))
    tables = linear_tables(images, n)
    tables.flags.writeable = False
    return tables


def mul_vec(a: np.ndarray, b: np.ndarray, n: int, red: int) -> np.ndarray:
    """a*b element-wise on 1-D arrays (int64 result).

    4-bit comb: per block of _COMB_BLOCK elements, the 16 carry-less
    multiples k*a (k < 16, degree at most n+2) are tabulated, and the
    product is accumulated Horner-style over the nibbles of b from the top,
    one gather per nibble. The unreduced product has degree at most 2n-2:
    for n <= 32 its highest bit is bit 62, below the int64 sign bit. Bits
    n..2n-2 are then folded back by one byte-table linear map.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.empty(a.size, dtype=np.int64)
    fold = _fold_tables(n, red)
    top = 4 * ((n - 1) // 4)  # shift of b's highest nibble
    for lo in range(0, a.size, _COMB_BLOCK):
        aa, bb = a[lo : lo + _COMB_BLOCK], b[lo : lo + _COMB_BLOCK]
        size = aa.size
        multiples = np.empty((16, size), dtype=np.int64)
        multiples[0] = 0
        multiples[1] = aa
        for k in range(2, 16, 2):
            np.left_shift(multiples[k >> 1], 1, out=multiples[k])
            np.bitwise_xor(multiples[k], aa, out=multiples[k + 1])
        flat = multiples.ravel()
        column = np.arange(size, dtype=np.int64)
        acc = flat.take((bb >> top & 15) * size + column)
        for shift in range(top - 4, -1, -4):
            acc <<= 4
            acc ^= flat.take((bb >> shift & 15) * size + column)
        out[lo : lo + size] = (acc & ((1 << n) - 1)) ^ map_planes(
            fold, byte_planes(acc >> n, n - 1)
        )
    return out


def _frobenius(v: np.ndarray, i: int, n: int, red: int) -> np.ndarray:
    """v^(2^i) element-wise, one map of v's byte planes for 0 < i < n (v
    itself for i = 0)."""
    return map_planes(_frobenius_tables(n, red, i), byte_planes(v, n)) if i else v


def _ones_power(x: np.ndarray, length: int, n: int, red: int) -> np.ndarray:
    """x^(2^length-1) element-wise for length >= 1, over the bits of length
    from the top (Itoh-Tsujii): x^(2^(2h)-1) = (x^(2^h-1))^(2^h) * x^(2^h-1),
    and x^(2^(2h+1)-1) = (x^(2^(2h)-1))^2 * x. That is
    floor(log2 length) + popcount(length) - 1 :func:`mul_vec` calls."""
    res, h = x, 1
    for bit in bin(length)[3:]:
        res, h = mul_vec(_frobenius(res, h, n, red), res, n, red), 2 * h
        if bit == "1":
            res, h = mul_vec(_frobenius(res, 1, n, red), x, n, red), h + 1
    return res


def pow_vec(x: np.ndarray, e: int, n: int, red: int) -> np.ndarray:
    """x^e element-wise for e >= 0 (int64 result); x^0 = 1 and 0^e = 0 for
    e > 0.

    e > 0 is first reduced to (e-1) % (2^n-1) + 1, which keeps x^e for
    every x including 0. Then x^e is the product of the powers of the runs
    of ones of e: a run of L ones from bit i is (x^(2^L-1))^(2^i), one
    :func:`_ones_power` and one Frobenius map.
    """
    e = int(e)
    if e == 0:
        return np.ones(np.shape(x), dtype=np.int64)
    e = (e - 1) % ((1 << n) - 1) + 1
    x = np.asarray(x, dtype=np.int64)
    res, i = None, 0
    while e >> i:
        length = 0  # of the run of ones from bit i
        while e >> (i + length) & 1:
            length += 1
        if length:
            term = _frobenius(_ones_power(x, length, n, red), i, n, red)
            res = term if res is None else mul_vec(res, term, n, red)
        i += length + 1
    return np.array(res, dtype=np.int64) if res is x else np.asarray(res, dtype=np.int64)


def _core_count() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_shares(share, total: int, step: int) -> list:
    """[share(blocks) for each share], where the block starts
    ``range(0, total, step)`` are cut into one contiguous range per core
    (never more shares than blocks), in order.

    Share 0 runs on the calling thread and every other share on a daemon
    thread started for this call; all are joined before anything is
    returned or raised, and an exception of any share is raised here. With
    one share no thread is started. No share may write what another share
    reads; then results that the caller combines in share order do not
    depend on the core count. Buffers a share allocates for itself exist
    once per share, so their peak memory grows with the core count.
    """
    starts = range(0, total, step)
    count = max(1, min(_core_count(), len(starts)))
    parts = [starts[i * len(starts) // count : (i + 1) * len(starts) // count]
             for i in range(count)]
    results, errors = [None] * count, [None] * count

    def run(i):
        try:
            results[i] = share(parts[i])
        except BaseException as exc:  # re-raised on the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(1, count)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results

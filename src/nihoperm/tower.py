"""The quadratic extension GF(2^m) inside GF(2^(2m)).

Provides conjugation x -> x^(2^m), the norm-1 subgroup ("unit circle")
U = {x : x^(2^m+1) = 1} of order 2^m+1, and the rational parametrization
z -> (z+gamma)/(z+conj(gamma)) that maps the subfield bijectively onto
U minus 1.

Subfield elements are represented inside the big field. Membership, log
and trace come from one lookup in the tower's subfield log
(:meth:`TowerCtx.subfield_log`, a scalar as a one-element array) and its
trace bits (:attr:`TowerCtx.subfield_trace_bits`); only the parametrization
tests its gamma as a Frobenius fixed point, x^(2^m) = x. There is no
separate GF(2^m) context and no embedding maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from . import field as gf
from .errors import NihopermError
from .field import FieldCtx


@dataclass(frozen=True)
class TowerCtx:
    """GF(2^m) < GF(2^n) with n = 2m; immutable and freely shareable.

    The enumerations of U and of the subfield are built lazily and fixed by
    the canonical generator g, so reports and counterexamples are stable.
    """

    field: FieldCtx
    m: int

    @property
    def unit_circle_order(self) -> int:
        return (1 << self.m) + 1

    @property
    def subfield_order(self) -> int:
        return 1 << self.m

    def _powers(self, e: int, length: int, head: tuple = ()) -> np.ndarray:
        """head, then r^0..r^(length-1) with r = g^e, as a read-only uint32
        array: every caller shares it."""
        ctx = self.field
        r = gf.power(ctx, ctx.generator, e)
        out = np.concatenate([np.array(head, dtype=np.uint32),
                              _kernels.geometric(r, length, ctx.n, ctx.red)])
        out.flags.writeable = False
        return out

    @cached_property
    def unit_circle(self) -> np.ndarray:
        """U: w^0..w^q with w = g^(q-1), q = 2^m."""
        q = self.subfield_order
        return self._powers(q - 1, q + 1)

    @cached_property
    def subfield(self) -> np.ndarray:
        """GF(q): 0, then b^0..b^(q-2) with b = g^(q+1)."""
        q = self.subfield_order
        return self._powers(q + 1, q - 1, head=(0,))

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        """m bit positions on which the subfield projects injectively: the
        pivots of an echelon form of its basis 1, b, .., b^(m-1)."""
        pivots, rows = [], []
        for v in self.subfield[1 : self.m + 1].tolist():
            for row, bit in zip(rows, pivots):
                if v >> bit & 1:
                    v ^= row
            assert v, "the powers of a subfield generator below m are independent"
            pivots.append(v.bit_length() - 1)
            rows.append(v)
        return tuple(pivots)

    def subfield_code(self, y):
        """The bits of y (an int or an array) at the pivots, packed into m
        bits: GF(2)-linear in y and injective on the subfield."""
        return sum((y >> bit & 1) << i for i, bit in enumerate(self._pivots))

    @cached_property
    def subfield_logs(self) -> np.ndarray:
        """logs[code(y)] = log of y to the base b, for y in GF(q)*; logs[0]
        is the sentinel 2q. Read-only int32, indexed by :meth:`subfield_code`."""
        q = self.subfield_order
        logs = np.full(q, 2 * q, dtype=np.int32)
        logs[self.subfield_code(self.subfield[1:])] = np.arange(q - 1)
        assert (logs[1:] < q - 1).all(), "subfield codes are distinct"
        logs.flags.writeable = False
        return logs

    def subfield_log(self, y: np.ndarray) -> np.ndarray:
        """Per entry of y, its log to the base b if it lies in GF(q)*, else
        -1 (for 0 and for every element outside the subfield), as intp.

        The lookup doubles as the membership test: subfield[1 + log(y)] is
        y only when y is in the subfield.
        """
        y = np.asarray(y, dtype=np.uint32)
        lg = self.subfield_logs[self.subfield_code(y)].astype(np.intp)
        found = lg < self.subfield_order - 1
        found[found] = self.subfield[1:][lg[found]] == y[found]
        return np.where(found, lg, -1)

    @cached_property
    def subfield_trace_bits(self) -> np.ndarray:
        """Tr_m(b^k) = sum of b^(k*2^i), i < m, for k = 0..q-2, as uint8:
        m gathers from the subfield in log order."""
        powers = self.subfield[1:]
        k = np.arange(powers.size)
        bits = np.zeros_like(powers)
        for i in range(self.m):
            bits ^= powers[(k << i) % powers.size]
        assert bits.max() <= 1, "Tr_m maps the subfield onto GF(2)"
        bits = bits.astype(np.uint8)
        bits.flags.writeable = False
        return bits


#: gamma of the parametrization: x (bitmask 0b10), the least bitmask outside
#: the subfield under every modulus. The degree-2m modulus is the minimal
#: polynomial of x, so x lies in no proper subfield; 0 and 1 lie in all
CANONICAL_GAMMA = 2


def make_tower(m: int, modulus: int | None = None) -> TowerCtx:
    """Tower context for GF(2^(2m)) over GF(2^m), 1 <= m <= 16."""
    if not 1 <= m <= gf.DEGREE_MAX // 2:
        raise NihopermError(f"tower degree m must be in [1, {gf.DEGREE_MAX // 2}], got m={m}")
    ctx = gf.make_field(2 * m, modulus)
    return TowerCtx(field=ctx, m=m)


def conjugate(tower: TowerCtx, x: int) -> int:
    """x^(2^m), the subfield-fixing involution."""
    return gf.power(tower.field, x, tower.subfield_order)


def is_circle_minus_one(tower: TowerCtx, image: np.ndarray) -> bool:
    """True iff the array image lists every point of U \\ {1} exactly once."""
    points = np.unique(image)
    return points.size == len(image) and np.array_equal(points, np.sort(tower.unit_circle[1:]))


def cayley_image(tower: TowerCtx, gamma: int) -> np.ndarray:
    """(z+gamma)/(z+conj(gamma)) at every z of ``tower.subfield``, as one
    array: a bijection onto U \\ {1} (:func:`cayley_is_bijection`). Raises
    NihopermError when gamma lies in the subfield.

    (z+gamma)/(z+conj(gamma)) = (z+gamma)^2 / N(z+gamma), where the norm
    N(z+gamma) = (z+gamma)(z+conj(gamma)) lies in GF(q)* and is inverted by
    a gather on the subfield log.
    """
    conj = conjugate(tower, gamma)
    if conj == gamma:
        raise NihopermError(f"gamma={hex(gamma)} lies in the subfield")
    ctx = tower.field
    z = tower.subfield.astype(np.int64)
    shifted = z ^ gamma
    nrm = _kernels.mul_vec(shifted, z ^ conj, ctx.n, ctx.red)
    lg = tower.subfield_log(nrm)
    assert (lg >= 0).all(), "norms of non-subfield elements lie in GF(q)*"
    inv_nrm = tower.subfield[1:][-lg % (tower.subfield_order - 1)]
    square = _kernels.mul_vec(shifted, shifted, ctx.n, ctx.red)
    return _kernels.mul_vec(square, inv_nrm, ctx.n, ctx.red)


def cayley_is_bijection(tower: TowerCtx, gamma: int) -> bool:
    """True iff z -> (z+gamma)/(z+conj(gamma)) hits U \\ {1} exactly once each."""
    return is_circle_minus_one(tower, cayley_image(tower, gamma))

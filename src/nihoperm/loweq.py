"""Roots and no-root certificates for degree <= 4 equations in char 2.

Covers, over GF(2^n) and its index-2 subfield:

* the trace criterion for x^2 + ax + b (solvable iff Tr(b/a^2) = 0, a != 0),
  checked by a brute-force sweep over every (a, b);
* subfield roots of depressed cubics y^3 + a2*y + a1 and of quartics, for
  many polynomials at once: with z = b^k (b = g^(q+1)) every term is a
  gather from the subfield in log order;
* the resolvent-cubic no-root certificate for quartics
  h(z) = z^4 + a2*z^2 + a1*z + a0 with a0*a1 != 0, for many quartics at
  once (:func:`_no_root_cases`): with r_i the subfield
  roots of y^3 + a2*y + a1 and w_i = a0*r_i^2/a1^2, h has no subfield root
  if either exactly one r_1 exists with Tr(w_1) = 1 ("case 1") or three
  exist with trace multiset {0, 1, 1} ("case 2");
* batch verification that the three quartic families attached to the pairs
  (3,-1), (-2/3,5/3) and (1/5,4/5) have no subfield roots for any
  unit-circle x != 1, both by brute evaluation and by certificate, as
  whole-array passes over the unit circle.

Coefficients are handled by their subfield logs (:meth:`TowerCtx.subfield_log`).
The blocks of the quadratic sweep and the windows of the root scans go in
one contiguous share per core (:func:`_kernels.in_shares`), whose results
are combined in share order: every count and root list is the same on any
number of cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .errors import NihopermError
from .field import FieldCtx
from .niho import PAIR_FAMILIES, known_row_failure
from .tower import TowerCtx


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

#: (a, x) values per block of the quadratic brute force
_BLOCK_ELEMS = 1 << 16


def quadratic_criterion_disagreements(ctx: FieldCtx) -> int:
    """Count pairs (a != 0, b) where the trace criterion and brute-force
    root existence for x^2 + ax + b disagree. The expected value is 0.

    The brute force is the image of x -> x^2 + ax over every x, for every
    a. It walks a and x in log order over one list E = g^0..g^(N-1),
    N = 2^n - 1, doubled to E2 = E||E so that shifted exponents need no
    reduction: for a = g^la the image of x = g^i is E2[2i] ^ E2[la+i]. The
    a go in blocks of about _BLOCK_ELEMS (a, x) values; each block's image
    is scattered into one row per a of a table indexed by element b. The
    blocks go in one contiguous share per core, each with its own image
    table, and the shares' counts are summed.

    The criterion is read in element order too. With b = sum b_k X^k in the
    polynomial basis, Tr(b/a^2) = parity(b & D), where D is the trace-dual
    mask of a^-2: its bit k is Tr(X^k/a^2) = T[k log X - 2la (mod N)], with
    T the trace bits of E and log X the position of X = 0b10 in E. Writing
    b = hi*2^low + lo splits the parity into one of hi and one of lo, two row
    gathers from a parity table. x = 0 and b = 0 (always a root, always
    solvable) are left out, since they agree.
    """
    n, order = ctx.n, ctx.group_order
    size = 1 << n
    e2 = np.tile(_kernels.geometric(ctx.generator, order, n, ctx.red), 2)
    t3 = np.tile(np.bitwise_count(e2[:order] & ctx.trace_mask) & 1, 3)  # T three times
    log_basis = int(np.flatnonzero(e2[:order] == 0b10)[0])
    dual = np.zeros(order, dtype=np.uint32)
    for k in range(n):
        # T[k log X - 2la (mod N)] for la = 0..N-1: a slice of t3 stepping down by 2
        c = k * log_basis % order + 2 * order
        dual |= t3[c : c - 2 * order : -2].astype(np.uint32) << k
    low = (n + 1) // 2  # parity[d, v] = parity(d & v) for d, v < 2^low
    span = np.arange(1 << low)
    parity = (np.bitwise_count(span[:, None] & span) & 1).astype(bool)
    dual_lo, dual_hi = dual & ((1 << low) - 1), dual >> low

    rows = max(1, _BLOCK_ELEMS >> n)
    # E2[2i] with row r's offset r*2^n in the bits above n, so that one XOR
    # with the window of E2 gives flat indices into the table
    squares = e2[: 2 * order : 2] | (np.arange(rows, dtype=np.uint32) * size)[:, None]
    windows = sliding_window_view(e2, order)

    def share(blocks):
        values = np.empty((rows, order), dtype=np.intp)
        table = np.empty((rows, size >> low, 1 << low), dtype=bool)
        disagreements = 0
        for la in blocks:
            r = min(rows, order - la)
            image = table[:r]
            np.bitwise_xor(windows[la : la + r], squares[:r], out=values[:r])
            image.fill(False)
            image.reshape(-1)[values[:r]] = True
            # XOR in the criterion "b is unsolvable": what stays False is a disagreement
            image ^= parity.take(dual_lo[la : la + r], axis=0)[:, None, :]
            image ^= parity.take(dual_hi[la : la + r], axis=0)[:, : size >> low, None]
            disagreements += r * (size - 1) - int(np.count_nonzero(image.reshape(r, size)[:, 1:]))
        return disagreements

    return sum(_kernels.in_shares(share, order, rows))


# ---------------------------------------------------------------------------
# cubics and quartics over the subfield
# ---------------------------------------------------------------------------

#: (polynomial, z) elements per window of the subfield root scans
_WINDOW_ELEMS = 1 << 18


def _logs(tower: TowerCtx, name: str, values) -> np.ndarray:
    """Subfield logs of the coefficients in values (-1 for 0), as intp;
    a NihopermError names the first entry outside the subfield."""
    values = np.asarray(values, dtype=np.uint32)
    lg = tower.subfield_log(values)
    outside = np.flatnonzero((lg < 0) & (values != 0))
    if outside.size:
        v = int(values[outside[0]])
        raise NihopermError(f"{name}={hex(v)} is not in the index-2 subfield")
    return lg


def _zeros(tower: TowerCtx, terms) -> tuple[np.ndarray, np.ndarray]:
    """(row, index) of every subfield root of the polynomials sum c*z^e over
    the (c, e) in terms, one polynomial per row, e <= 4; index points into
    ``tower.subfield``.

    Each c is the array of the rows' coefficient logs, -1 for a zero
    coefficient. At z = b^k a term is b^(log c + ek), entry log c + ek of
    subfield[1:] tiled five times and followed by a run of zeros that the
    logs of zero coefficients point into. So the term's values at every z
    are one row of a strided window view of that table, picked by log c.
    A term that is zero in every row is left out, and the terms that are
    equal in every row are summed once, into one row that each window XORs
    into its first gather by broadcast. Rows go in windows of at most
    _WINDOW_ELEMS (row, z) elements, and the windows in one contiguous
    share per core; the shares' roots are joined in share order, which is
    the order of one share. z = 0 is a root exactly where the constant
    coefficient vanishes.
    """
    q1 = tower.subfield_order - 1
    rows = terms[0][0].size
    const = next((c for c, e in terms if e == 0), np.full(rows, -1))
    zero_rows = np.flatnonzero(const < 0)
    table = np.concatenate([np.tile(tower.subfield[1:], 5), np.zeros(4 * q1, dtype=np.uint32)])
    fixed = np.zeros(q1, dtype=np.uint32)  # the terms that are equal in every row
    varying = []
    for c, e in terms:
        if (c < 0).all():
            continue
        c = np.where(c < 0, 5 * q1, c)
        view = table[:, None] if e == 0 else sliding_window_view(table, e * (q1 - 1) + 1)[:, ::e]
        if (c == c[0]).all():
            fixed ^= view[c[0]]
        else:
            varying.append((c, view))  # view[c, k] = table[c + e*k]
    step = max(1, _WINDOW_ELEMS // q1)

    def share(windows):
        found_rows, found_idx = [], []
        for r0 in windows:
            value = None if varying else np.tile(fixed, (min(step, rows - r0), 1))
            for c, view in varying:
                part = view[c[r0 : r0 + step]]
                if value is None:  # fixed broadcast over the rows (and z, for e = 0)
                    value = part ^ fixed
                else:
                    value ^= part
            hits = np.flatnonzero(value == 0)  # much cheaper than a 2-D np.nonzero
            found_rows.append(hits // q1 + r0)
            found_idx.append(hits % q1 + 1)
        return found_rows, found_idx

    found_rows, found_idx = [zero_rows], [np.zeros(zero_rows.size, dtype=np.intp)]
    for share_rows, share_idx in _kernels.in_shares(share, rows, step):
        found_rows += share_rows
        found_idx += share_idx
    return np.concatenate(found_rows), np.concatenate(found_idx)


def _cases(count, trace_sum):
    """Certificate case per polynomial from its resolvent root count and
    trace sum: 1 for one root of trace 1, 2 for three roots with traces
    {0, 1, 1}, else 0."""
    return np.where((count == 1) & (trace_sum == 1), 1,
                    np.where((count == 3) & (trace_sum == 2), 2, 0))


def _no_root_cases(tower: TowerCtx, a2, a1, a0) -> tuple[np.ndarray, np.ndarray]:
    """(rooted, cases) for the quartics z^4 + a2*z^2 + a1*z + a0, one per
    entry of the coefficient arrays: the sorted rows that have a subfield
    root, by brute evaluation, and each row's certificate case (see the
    module docstring; 0 where it does not apply).

    The case comes from the subfield roots r = b^k of the resolvent cubic
    y^3 + a2*y + a1 and the traces of w = a0*r^2/a1^2. Coefficients must be
    nonzero in a0 and a1 and lie in the subfield, else NihopermError.
    """
    if not (np.all(a0) and np.all(a1)):
        raise NihopermError("certificate requires a0 != 0 and a1 != 0")
    l2, l1, l0 = (_logs(tower, name, v) for name, v in (("a2", a2), ("a1", a1), ("a0", a0)))
    one = np.zeros(l0.size, dtype=np.intp)  # log of 1
    rooted, _ = _zeros(tower, [(one, 4), (l2, 2), (l1, 1), (l0, 0)])
    rows, idx = _zeros(tower, [(one, 3), (l2, 1), (l1, 0)])
    # log w for r = subfield[idx] = b^(idx-1)
    lw = (l0[rows] + 2 * (idx - 1 - l1[rows])) % (tower.subfield_order - 1)
    traces = tower.subfield_trace_bits[lw]
    cases = _cases(np.bincount(rows, minlength=l0.size),
                   np.bincount(rows, weights=traces, minlength=l0.size))
    return np.unique(rooted), cases


# ---------------------------------------------------------------------------
# the three unit-circle quartic families
# ---------------------------------------------------------------------------

#: quartic family id -> the Niho pair whose verification it underpins
QUARTIC_FAMILY_PAIRS = {"eq4": PAIR_FAMILIES["T4"], "eq6": PAIR_FAMILIES["T5"],
                        "eq8": PAIR_FAMILIES["T6"]}


@dataclass(frozen=True)
class QuarticFamilyReport:
    lemma: str
    m: int
    modulus: str
    all_pass: bool
    failures: tuple[str, ...]
    certified: bool
    checked: int


def _quotient_log(tower: TowerCtx, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """log(num/den) per entry for subfield arrays (-1 where num is 0)."""
    ln, ld = _logs(tower, "numerator", num), _logs(tower, "denominator", den)
    if (ld < 0).any():
        raise NihopermError("a family coefficient has a zero denominator")
    return np.where(ln < 0, -1, (ln - ld) % (tower.subfield_order - 1))


def _from_logs(tower: TowerCtx, lg: np.ndarray) -> np.ndarray:
    return np.where(lg < 0, 0, tower.subfield[1:][lg])


def family_coefficients(tower: TowerCtx, which: str):
    """(ks, a2, a1, a0): the points x = unit_circle[ks] that a family's
    check visits, and the family's quartic coefficients at each, as arrays:

    eq4: a2 = (x^6+x^2)/(x^8+x^4+1), a1 = (x^8+1)/(x^8+x^4+1), a0 = 1
    eq6: a2 = (x^8+x^6+x^2+1)/x^4,   a1 = (x^8+1)/x^4,         a0 = 1
    eq8: a2 = 0, a1 = t^3 with t = (x^2+1)/(x^2+x+1),
         a0 = (x^8+x^6+x^4+x^2+1)/(x^8+x^4+1)

    All of them lie in the subfield because they are invariant under
    x -> 1/x, which is conjugation on the unit circle.
    ks runs over U \\ {1} in order; eq8 skips the points with x^2+x+1 = 0.
    Divided by x^4 (eq8's t by x), every numerator and denominator is a sum
    of the subfield elements x^i + x^-i = U[ik] + U[-ik], so each quotient
    is a difference of subfield logs.
    """
    size, circle = tower.unit_circle_order, tower.unit_circle
    q1 = tower.subfield_order - 1
    ks = np.arange(1, size)
    if which == "eq8":  # x^2+x+1 = 0 iff x + 1/x = 1
        ks = ks[circle[ks] ^ circle[size - ks] != 1]

    def sym(i):  # x^i + x^-i at every point
        return circle[i * ks % size] ^ circle[-i * ks % size]

    s1, s2, s4 = sym(1), sym(2), sym(4)
    ones = np.ones(ks.size, dtype=np.uint32)
    if which == "eq4":
        a2 = _from_logs(tower, _quotient_log(tower, s2, s4 ^ 1))
        return ks, a2, _from_logs(tower, _quotient_log(tower, s4, s4 ^ 1)), ones
    if which == "eq6":
        return ks, s4 ^ s2, s4, ones
    if which == "eq8":
        lt = _quotient_log(tower, s1, s1 ^ 1)
        a1 = _from_logs(tower, np.where(lt < 0, -1, 3 * lt % q1))
        a0 = _from_logs(tower, _quotient_log(tower, s4 ^ s2 ^ 1, s4 ^ 1))
        return ks, np.zeros_like(ones), a1, a0
    raise NihopermError(f"unknown quartic family {which!r}")


def verify_lemma_quartics(tower: TowerCtx, which: str) -> QuarticFamilyReport:
    """Check a quartic family's no-root claim over the whole unit circle.

    For every x in U \\ {1} (eq8 additionally skips the two points with
    x^2+x+1 = 0, which reduce to the trivial branch) the quartic is built
    from x, brute evaluation over the subfield confirms it has no root,
    and the certificate is required to fire with the case the family
    predicts (case 1 for eq4/eq6 and for eq8 at odd m; case 2 for eq8 at
    m = 0 mod 4). Every step is one array pass over all the points
    (:func:`family_coefficients`, :func:`_no_root_cases`).

    Preconditions: the condition of the family's known-pair row
    (:data:`QUARTIC_FAMILY_PAIRS`), m even for eq4/eq6 and gcd(5, 2^m+1) = 1
    for eq8.
    """
    which = which.lower()
    if which not in QUARTIC_FAMILY_PAIRS:
        raise NihopermError(f"unknown quartic family {which!r}")
    m = tower.m
    reason = known_row_failure(QUARTIC_FAMILY_PAIRS[which], m, which)
    if reason:
        raise NihopermError(reason)
    ks, a2, a1, a0 = family_coefficients(tower, which)
    rooted, cases = _no_root_cases(tower, a2, a1, a0)
    failures = tower.unit_circle[ks[rooted]].tolist()
    expected = 2 if which == "eq8" and m % 2 == 0 else 1
    return QuarticFamilyReport(
        lemma=which,
        m=m,
        modulus=tower.field.to_hex(),
        all_pass=not failures,
        failures=tuple(hex(x) for x in failures),
        certified=bool((cases == expected).all()),
        checked=int(ks.size),
    )

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
  exist with trace multiset {0, 1, 1} ("case 2"). It is given one r per
  quartic and checks it by substitution, never scanning for r;
* batch verification that the three quartic families attached to the pairs
  (3,-1), (-2/3,5/3) and (1/5,4/5) have no subfield roots for any
  unit-circle x != 1, both by brute evaluation and by certificate, as
  whole-array passes over the unit circle; r is each family's closed form
  in x + 1/x (:func:`family_coefficients`), whose cases equal those of all
  scanned resolvent roots at every point for m = 2..16.

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
    equal in every row are summed once, into one row. Rows go in windows of
    at most _WINDOW_ELEMS (row, z) elements, and the windows in one
    contiguous share per core, which fills one value and one bool buffer,
    allocated once, for each of its windows. The shares' roots are joined
    in share order, which is the order of one share. z = 0 is a root
    exactly where the constant coefficient vanishes.
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
        value = np.empty((min(step, rows), q1), dtype=np.uint32)
        is_zero = np.empty(value.shape, dtype=bool)
        found_rows, found_idx = [], []
        for r0 in windows:
            r = min(step, rows - r0)
            value[:r] = fixed
            for c, view in varying:
                value[:r] ^= view[c[r0 : r0 + r]]
            np.equal(value[:r], 0, out=is_zero[:r])
            hits = np.flatnonzero(is_zero[:r])  # much cheaper than a 2-D np.nonzero
            found_rows.append(hits // q1 + r0)
            found_idx.append(hits % q1 + 1)
        return found_rows, found_idx

    found_rows, found_idx = [zero_rows], [np.zeros(zero_rows.size, dtype=np.intp)]
    for share_rows, share_idx in _kernels.in_shares(share, rows, step):
        found_rows += share_rows
        found_idx += share_idx
    return np.concatenate(found_rows), np.concatenate(found_idx)


def _no_root_cases(tower: TowerCtx, l2, l1, l0, lr) -> tuple[np.ndarray, np.ndarray]:
    """(rooted, cases) for the quartics z^4 + a2*z^2 + a1*z + a0, one per
    row, given by the subfield logs of a2, a1 and a0 (-1 for 0) and of a
    candidate root r of the resolvent cubic y^3 + a2*y + a1: the sorted rows
    that have a subfield root, by brute evaluation, and each row's
    certificate case (see the module docstring; 0 where it does not fire).

    r is checked by substitution, not trusted: a row whose r is not a root
    (or is 0) gets case 0. Otherwise the case is 0 unless Tr(w) = 1 for
    w = a0*r^2/a1^2; then it is 1 if the quotient y^2 + r*y + r^2 + a2 has
    no subfield root, that is Tr(1 + a2/r^2) = 1, and 2 if it splits (the
    three roots' w sum to a0*(sum r)^2/a1^2 = 0, so their traces are
    {0, 1, 1}). a0 and a1 must be nonzero, else NihopermError.
    """
    if (l0 < 0).any() or (l1 < 0).any():
        raise NihopermError("certificate requires a0 != 0 and a1 != 0")
    one = np.zeros(l0.size, dtype=np.intp)  # log of 1
    rooted, _ = _zeros(tower, [(one, 4), (l2, 2), (l1, 1), (l0, 0)])
    q1 = tower.subfield_order - 1
    powers, trace = tower.subfield[1:], tower.subfield_trace_bits
    a2r = np.where(l2 < 0, 0, powers[(l2 + lr) % q1])
    is_root = (lr >= 0) & (powers[3 * lr % q1] ^ a2r == powers[l1])
    trace_w = trace[(l0 + 2 * (lr - l1)) % q1]
    no_split = (tower.m + np.where(l2 < 0, 0, trace[(l2 - 2 * lr) % q1])) % 2  # Tr(1 + a2/r^2)
    return np.unique(rooted), np.where(is_root & (trace_w == 1), 2 - no_split, 0)


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


def family_coefficients(tower: TowerCtx, which: str):
    """(ks, l2, l1, l0, lr): the points x = unit_circle[ks] that a family's
    check visits, and at each the subfield logs (-1 for 0) of its quartic's
    coefficients and of a root r of the resolvent cubic y^3 + a2*y + a1:

    eq4: a2 = (x^6+x^2)/(x^8+x^4+1), a1 = (x^8+1)/(x^8+x^4+1), a0 = 1
    eq6: a2 = (x^8+x^6+x^2+1)/x^4,   a1 = (x^8+1)/x^4,         a0 = 1
    eq8: a2 = 0, a1 = t^3 with t = (x^2+1)/(x^2+x+1),
         a0 = (x^8+x^6+x^4+x^2+1)/(x^8+x^4+1)

    Divided by x^4 (t by x) these are rational functions of u = x + 1/x,
    which lies in the subfield (conjugation on U is x -> 1/x) and is
    neither 0 (x != 1) nor 1 (x^2+x+1 != 0). With t = u/(u+1):

    eq4: a2 = t^2/(u+1)^2, a1 = t^4, r = t^2
    eq6: a2 = u^2*(u+1)^2, a1 = u^4, r = u^2
    eq8: a0 = (u^2+u+1)^2/(u+1)^4, r = t at odd m and t*omega at m = 0
         mod 4, with omega = b^((q-1)/3)

    ks runs over U \\ {1} in order; eq8 skips the points with x^2+x+1 = 0.
    """
    size, circle = tower.unit_circle_order, tower.unit_circle
    q1 = tower.subfield_order - 1
    ks = np.arange(1, size)
    u = circle[ks] ^ circle[size - ks]
    if which == "eq8":  # x^2+x+1 = 0 iff u = 1
        ks, u = ks[u != 1], u[u != 1]
    lu, lv = _logs(tower, "x+1/x", u), _logs(tower, "x+1/x+1", u ^ 1)
    assert (lu >= 0).all() and (lv >= 0).all(), "eq4/eq6 need even m, where u != 1 on U"
    lt, zero = lu - lv, np.zeros_like(lu)
    if which == "eq8":  # a2 = 0
        lp = _logs(tower, "u^2+u+1", tower.subfield[1:][2 * lu % q1] ^ u ^ 1)
        assert (lp >= 0).all(), "u is a primitive cube root of 1 on U only at m = 2 mod 4"
        omega = 0 if tower.m % 2 else q1 // 3
        return ks, zero - 1, 3 * lt % q1, (2 * lp - 4 * lv) % q1, (lt + omega) % q1
    logs = {"eq4": (2 * lt - 2 * lv, 4 * lt, zero, 2 * lt),
            "eq6": (2 * lu + 2 * lv, 4 * lu, zero, 2 * lu)}[which]
    return (ks, *(lg % q1 for lg in logs))


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
    ks, *logs = family_coefficients(tower, which)
    rooted, cases = _no_root_cases(tower, *logs)
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

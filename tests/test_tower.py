"""Quadratic tower structure: conjugation, unit circle, parametrization."""

import random
from functools import reduce

import numpy as np
import pytest

from nihoperm import field as gf
from nihoperm import tower as tw
from nihoperm.errors import NihopermError

from oracles import div, in_subfield, subfield_trace


def _on_circle(tower, x):
    """x^(2^m+1) = 1: membership of the unit circle U."""
    return gf.power(tower.field, x, tower.unit_circle_order) == 1


def _cayley_param(tower, gamma, z):
    """(z+gamma)/(z+conj(gamma)) at one subfield z: the scalar reference for
    tw.cayley_image."""
    return div(tower.field, z ^ gamma, z ^ tw.conjugate(tower, gamma))


def test_conjugate_fixes_subfield(tower4):
    for c in tower4.subfield.tolist():
        assert tw.conjugate(tower4, c) == c


def test_conjugate_is_involution(tower2):
    for x in range(1 << tower2.field.n):
        assert tw.conjugate(tower2, tw.conjugate(tower2, x)) == x


def test_norm_lands_in_subfield(tower2):
    for x in range(1 << tower2.field.n):
        assert in_subfield(tower2, gf.power(tower2.field, x, tower2.unit_circle_order))


def test_subfield_size(tower3):
    # x^(2^m) = x picks out exactly 2^m elements
    fixed = [x for x in range(1 << tower3.field.n) if in_subfield(tower3, x)]
    assert len(fixed) == 8
    assert sorted(tower3.subfield.tolist()) == sorted(fixed)


def test_unit_circle_membership_and_count(tower3):
    assert _on_circle(tower3, 1)
    assert not _on_circle(tower3, 0)
    members = [x for x in range(1 << tower3.field.n) if _on_circle(tower3, x)]
    assert len(members) == 9  # subgroup of order 2^m+1 in a cyclic group


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_unit_circle_iter_matches_brute_filter(m):
    tower = tw.make_tower(m)
    via_iter = tower.unit_circle.tolist()
    assert len(via_iter) == tower.unit_circle_order
    assert len(set(via_iter)) == tower.unit_circle_order
    brute = {x for x in range(1 << tower.field.n) if _on_circle(tower, x)}
    assert set(via_iter) == brute


def _walk(ctx, step, length):
    x, out = 1, []
    for _ in range(length):
        out.append(x)
        x = gf.mul(ctx, x, step)
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 11])
def test_enumeration_orders_are_the_generator_walks(m):
    # every report and counterexample depends on these orders, not just sets
    tower = tw.make_tower(m)
    ctx, q = tower.field, tower.subfield_order
    w = gf.power(ctx, ctx.generator, q - 1)
    b = gf.power(ctx, ctx.generator, q + 1)
    assert tower.unit_circle.tolist() == _walk(ctx, w, q + 1)
    assert list(tower.subfield.tolist()) == [0, *_walk(ctx, b, q - 1)]


def test_enumerations_build_no_exp_log_tables():
    tower = tw.make_tower(8)
    assert tower.unit_circle.dtype == tower.subfield.dtype == np.uint32
    assert (tower.unit_circle.size, tower.subfield.size) == (257, 256)
    assert not (tower.unit_circle.flags.writeable or tower.subfield.flags.writeable)
    assert "exp_log" not in tower.field.__dict__  # the lazy tables stay unbuilt


def test_unit_circle_product_is_one(tower2):
    # each element pairs with its inverse in the odd-order subgroup
    members = tower2.unit_circle.tolist()
    assert len(members) == 5
    prod = reduce(lambda a, b: gf.mul(tower2.field, a, b), members)
    assert prod == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_conjugation_is_inversion_on_unit_circle(m):
    tower = tw.make_tower(m)
    for x in tower.unit_circle.tolist():
        assert tw.conjugate(tower, x) == gf.inv(tower.field, x)


# ---------------------------------------------------------------------------
# rational parametrization of U \ {1}
# ---------------------------------------------------------------------------

def test_cayley_never_one_and_in_circle(tower4):
    gamma = tw.CANONICAL_GAMMA
    for z in tower4.subfield.tolist():
        u = _cayley_param(tower4, gamma, z)
        assert u != 1
        assert _on_circle(tower4, u)


def test_cayley_m2_enumeration(tower2):
    gamma = tw.CANONICAL_GAMMA
    values = [_cayley_param(tower2, gamma, z) for z in tower2.subfield.tolist()]
    assert len(values) == 4
    assert len(set(values)) == 4  # pairwise distinct
    circle = set(tower2.unit_circle.tolist())
    circle.discard(1)
    assert set(values) == circle


@pytest.mark.parametrize("m", [2, 3])
def test_cayley_bijection_every_gamma(m):
    tower = tw.make_tower(m)
    for gamma in range(1 << tower.field.n):
        if in_subfield(tower, gamma):
            continue
        assert tw.cayley_is_bijection(tower, gamma)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_cayley_bijection_sampled_gammas(m):
    tower = tw.make_tower(m)
    gammas = []
    for x in range(1 << tower.field.n):
        if not in_subfield(tower, x):
            gammas.append(x)
        if len(gammas) == 3:
            break
    for gamma in gammas:
        assert tw.cayley_is_bijection(tower, gamma)


def test_cayley_random_z_in_circle():
    tower = tw.make_tower(3)  # GF(64) over GF(8)
    gamma = tw.CANONICAL_GAMMA
    rng = random.Random(42)
    subfield = list(tower.subfield.tolist())
    for _ in range(50):
        z = rng.choice(subfield)
        assert _on_circle(tower, _cayley_param(tower, gamma, z))


def test_relative_trace_folds_to_the_absolute_trace(tower4):
    # x + x^(2^m), the trace of GF(2^(2m)) down to GF(2^m), lies in the
    # subfield, and its subfield trace is the absolute trace of x (0 when
    # x + x^(2^m) = 0, which has no log)
    ctx = tower4.field
    xs = range(1 << ctx.n)
    y = np.array([x ^ tw.conjugate(tower4, x) for x in xs])
    lg = tower4.subfield_log(y)
    assert ((lg >= 0) == (y != 0)).all()
    traces = np.where(lg >= 0, tower4.subfield_trace_bits[lg], 0)
    assert traces.tolist() == [(x & ctx.trace_mask).bit_count() & 1 for x in xs]


@pytest.mark.parametrize("m", [0, 17, -1])
def test_make_tower_rejects_m_out_of_range(m):
    with pytest.raises(ValueError, match=rf"m must be in \[1, 16\], got m={m}$"):
        tw.make_tower(m)


def test_make_tower_accepts_its_bounds():
    assert tw.make_tower(1).field.n == 2
    assert tw.make_tower(16).field.n == 32


def test_subfield_trace_values(tower4):
    # onto GF(2): both values occur, each on half of GF(2^m)*; and it is the
    # m-fold Frobenius sum. An element outside the subfield has no log, so
    # no trace bit is read for it
    bits = tower4.subfield_trace_bits
    for y, lg in zip(tower4.subfield[1:].tolist(), range(bits.size)):
        acc, s = 0, y
        for _ in range(tower4.m):
            acc ^= s
            s = gf.square(tower4.field, s)
        assert bits[lg] == acc
    assert bits.tolist().count(1) == tower4.subfield_order // 2
    assert tower4.subfield_log([tw.CANONICAL_GAMMA]).tolist() == [-1]


# ---------------------------------------------------------------------------
# array forms: subfield log, trace bits, the parametrization image
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_subfield_log_inverts_the_enumeration(m):
    tower = tw.make_tower(m)
    q = tower.subfield_order
    assert tower.subfield_log(tower.subfield[1:]).tolist() == list(range(q - 1))
    # 0 and every element outside the subfield read -1
    outside = [x for x in range(1 << min(2 * m, 10)) if not in_subfield(tower, x)]
    assert (tower.subfield_log(np.array([0] + outside)) == -1).all()


@pytest.mark.parametrize("m", [2, 3, 4, 7])
def test_subfield_trace_bits_match_the_scalar_trace(m):
    tower = tw.make_tower(m)
    bits = tower.subfield_trace_bits
    assert bits.tolist() == [subfield_trace(tower, y) for y in tower.subfield[1:].tolist()]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_cayley_image_matches_the_scalar_map(m):
    tower = tw.make_tower(m)
    gamma = tw.CANONICAL_GAMMA
    image = tw.cayley_image(tower, gamma).tolist()
    assert image == [_cayley_param(tower, gamma, z) for z in tower.subfield.tolist()]


def test_cayley_bijection_rejects_subfield_gamma(tower4):
    with pytest.raises(NihopermError, match="^gamma=0x1 lies in the subfield$"):
        tw.cayley_is_bijection(tower4, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_canonical_gamma_is_outside_the_subfield_under_every_modulus(m):
    # x has the degree-2m modulus as its minimal polynomial, so it lies in
    # no proper subfield, whichever irreducible modulus builds the field
    moduli = [p for p in range(1 << 2 * m, 1 << (2 * m + 1)) if gf.is_irreducible(p)]
    assert len(moduli) == (1, 3, 9, 30)[m - 1]  # (1/n) sum over d | n of mu(d) 2^(n/d)
    for modulus in moduli:
        tower = tw.make_tower(m, modulus)
        assert not in_subfield(tower, tw.CANONICAL_GAMMA), hex(modulus)
        assert tw.cayley_is_bijection(tower, tw.CANONICAL_GAMMA), hex(modulus)


def test_circle_minus_one_comparison(tower4):
    points = tower4.unit_circle[1:].copy()
    rng = np.random.default_rng(5)
    assert tw.is_circle_minus_one(tower4, rng.permutation(points))
    repeated = points.copy()
    repeated[3] = repeated[7]  # one point twice, one missing
    assert not tw.is_circle_minus_one(tower4, repeated)
    with_one = points.copy()
    with_one[0] = 1  # 1 instead of a point of U \ {1}
    assert not tw.is_circle_minus_one(tower4, with_one)
    assert not tw.is_circle_minus_one(tower4, points[1:])  # a point short
    assert not tw.is_circle_minus_one(tower4, np.append(points, points[0]))

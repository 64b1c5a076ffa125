"""The Gaussian rational layer is cross-checked against the rational
layer on real inputs, where the two must agree exactly, and its
realified spaces against a plain Q(i) elimination kept here as the
reference."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfan.classifying import _leading_minors, orbit_exponentials
from relfan.errors import MixedAmbient, NotNilpotent, SpecFormatError
from relfan.gaussian import (
    I,
    ONE,
    ZERO,
    GSpace,
    Gi,
    coerce,
    format_gi,
    gmat,
    gvec,
    realify_mat,
    unrealify_mat,
)
from relfan.qlinalg import Subspace, _scaled_int_rows, exp_nilpotent, linear_map, matmul

from conftest import fracs


def gi(a, b=0):
    return Gi(F(a), F(b))


def lift_vec(v):
    return tuple(coerce(x) for x in v)


# --- scalar arithmetic ---

def test_field_ops_hand_values():
    assert gi(1, 2) * gi(3, -1) == gi(5, 5)
    assert gi(1, 1) / gi(1, -1) == I
    assert gi(2, 3) - gi(2, 3) == ZERO
    assert -gi(1, -2) == gi(-1, 2)
    assert gi(1, 2).conjugate() == gi(1, -2)
    assert (gi(3, 4) * gi(3, 4).conjugate()) == gi(25)


def test_scalar_coercion():
    assert gi(1, 2) + 1 == gi(2, 2)
    assert 2 * gi(1, 1) == gi(2, 2)
    assert 1 - gi(0, 1) == gi(1, -1)
    assert F(1, 2) * gi(2, 4) == gi(1, 2)
    with pytest.raises(SpecFormatError):
        coerce("i")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gi(1) / ZERO


@given(fracs(), fracs(), fracs(), fracs())
def test_field_axiom_samples(a, b, c, d):
    x = Gi(a, b)
    y = Gi(c, d)
    assert x + y == y + x
    assert x * y == y * x
    if y:
        assert (x / y) * y == x


# --- formatting ---

def test_format_hand_values():
    assert format_gi(gi(F(1, 2), F(-3, 4))) == "1/2-3/4*i"
    assert format_gi(I) == "0+1*i"
    assert format_gi(gi(-2, 0)) == "-2+0*i"


@given(fracs(), fracs())
def test_format_parse_roundtrip(a, b):
    """The text form is lossless: both parts read back as rationals."""
    z = Gi(a, b)
    real, sign, imag = re.fullmatch(r"(-?[\d/]+)([+-])([\d/]+)\*i", format_gi(z)).groups()
    assert Gi(F(real), F(sign + imag)) == z


def test_gaussian_integer_predicate():
    assert gi(3, -2).is_gaussian_integer()
    assert not gi(F(1, 2), 0).is_gaussian_integer()


# --- linear algebra against the rational oracle ---

def rational_mats():
    return st.lists(
        st.lists(fracs(), min_size=3, max_size=3), min_size=2, max_size=4
    ).map(lambda rows: tuple(tuple(r) for r in rows))


# --- spaces ---

def test_space_membership_complex():
    line = GSpace(2, [(ONE, I)])
    assert line.contains((gi(0, 2), gi(-2)))
    assert not line.contains((ONE, -I))
    assert line.conjugate() == GSpace(2, [(ONE, -I)])


def test_space_intersection_complex():
    line = GSpace(2, [(ONE, I)])
    other = GSpace(2, [(ONE, -I)])
    assert line.intersect(other).dim == 0
    assert GSpace(2, [(ONE, I), (ONE, -I)]).dim == 2
    plane = GSpace(3, [(ONE, ZERO, ZERO), (ZERO, ONE, I)])
    assert plane.intersect(GSpace(3, [(ZERO, ONE, I)])).dim == 1


@given(rational_mats(), rational_mats())
def test_intersection_matches_rational_layer(a, b):
    sa = Subspace.span(a, 3)
    sb = Subspace.span(b, 3)
    ga = GSpace(3, gmat(a))
    gb = GSpace(3, gmat(b))
    assert ga.intersect(gb).dim == sa.intersect(sb).dim


def test_space_apply():
    op = gmat([[ZERO, ONE], [ZERO, ZERO]])
    assert GSpace(2, [(ZERO, ONE)]).apply(op) == GSpace(2, [(ONE, ZERO)])
    assert GSpace(2, [(ONE, ZERO)]).apply(op).dim == 0


# --- realification against a plain Q(i) elimination ---

def reference_rref(rows, n):
    """Gauss-Jordan over Q(i): the nonzero rows of the reduced form."""
    rows = [list(gvec(r)) for r in rows]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def reference_annihilator(rows, n):
    """Basis of {x : sum_j v_j x_j = 0 for every row v}."""
    red = reference_rref(rows, n)
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    out = []
    for f in (j for j in range(n) if j not in pivots):
        x = [ZERO] * n
        x[f] = ONE
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        out.append(tuple(x))
    return out


def reference_intersection(a, b, n):
    # U and V meet in the annihilator of ann(U) + ann(V)
    both = reference_annihilator(a, n) + reference_annihilator(b, n)
    return reference_rref(reference_annihilator(both, n), n)


SMALL = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@st.composite
def gaussian_rows(draw, n):
    """A few Q(i) vectors, some of them combinations of the others."""
    entry = st.builds(Gi, SMALL, SMALL)
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=3))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(entry), draw(entry)
        rows.append(tuple(s * x + t * y for x, y in zip(u, v)))
    return rows


@given(st.data())
def test_realified_space_matches_reference(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(gaussian_rows(n))
    b = data.draw(gaussian_rows(n))
    ga, gb = GSpace(n, a), GSpace(n, b)
    want = reference_rref(a, n)
    assert ga.basis == want
    assert ga.dim == len(want)
    assert ga.intersect(gb).basis == reference_intersection(a, b, n)
    assert ga.conjugate().basis == reference_rref([[x.conjugate() for x in v] for v in a], n)
    assert ga == GSpace(n, want)


def test_realify_mat_hand_value():
    a = gmat([[I, ONE], [ZERO, I]])
    square = unrealify_mat(matmul(realify_mat(a), realify_mat(a)))
    assert square == gmat([[gi(-1), gi(0, 2)], [ZERO, gi(-1)]])
    assert unrealify_mat(realify_mat(a)) == a


def _positive_definite(m) -> bool:
    """Sylvester's criterion on the realified form: a hermitian
    H = A + iB is positive definite iff [[A, -B], [B, A]] is."""
    return all(minor > 0 for minor in _leading_minors(_scaled_int_rows(realify_mat(m))[0]))


def test_positive_definite_hermitian_two_by_two():
    assert _positive_definite(gmat([[2, I], [-I, 1]]))
    assert not _positive_definite(gmat([[1, gi(0, 2)], [gi(0, -2), 1]]))
    assert not _positive_definite(gmat([[-1, ZERO], [ZERO, 1]]))
    assert _positive_definite(gmat([[gi(3)]]))


# --- exponentials ---

def test_exp_matches_rational_layer():
    n = ((F(0), F(2), F(0)), (F(0), F(0), F(2)), (F(0), F(0), F(0)))
    assert gmat(exp_nilpotent(n)) == gmat([[1, 2, 2], [0, 1, 2], [0, 0, 1]])
    # exp(i N) = 1 + i N - N^2 / 2 over Q(i)
    assert orbit_exponentials(n, (1,)) == [gmat([[1, gi(0, 2), -2], [0, 1, gi(0, 2)], [0, 0, 1]])]


def test_exp_imaginary_direction():
    n = ((F(0), F(3)), (F(0), F(0)))
    assert orbit_exponentials(n, (1,)) == [gmat([[ONE, gi(0, 3)], [ZERO, ONE]])]


def test_exp_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        orbit_exponentials(((F(1), F(0)), (F(0), F(1))), (1,))


# --- scalars keep their Fraction parts, spaces keep their cleared rows ------

def test_fraction_parts_are_kept_and_other_parts_parsed():
    half = F(1, 2)
    z = Gi(half, half)
    assert z.re is half and z.im is half
    assert Gi(3).re == F(3) and type(Gi(3).re) is F
    assert Gi("3/4", -2) == gi(F(3, 4), -2)
    with pytest.raises(ValueError):
        Gi("not a number")
    assert coerce(half).re is half


def cleared_matches_basis(space):
    """The seeded cleared rows of a realified space are its basis rows
    times one positive scale, at their pivots."""
    den, rows = space.real._cleared
    assert den > 0 and len(rows) == space.real.dim
    for (p, row), w in zip(rows, space.real.basis):
        dense = [F(0)] * space.real.ambient
        for j, x in row:
            dense[j] = F(x, den)
        assert tuple(dense) == w and w[p] == 1


@given(st.data())
def test_conjugate_flips_the_rref_rows(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(gaussian_rows(n))
    space = GSpace(n, a)
    conj = space.conjugate()
    assert conj == GSpace(n, [[x.conjugate() for x in v] for v in a])
    cleared_matches_basis(conj)
    assert conj.conjugate().real.basis == space.real.basis


@given(st.data())
def test_apply_matches_the_fraction_map(data):
    n = data.draw(st.integers(1, 3))
    space = GSpace(n, data.draw(gaussian_rows(n)))
    entry = st.builds(Gi, SMALL, SMALL)
    op = data.draw(st.tuples(*[st.tuples(*[entry] * n)] * n))
    moved = space.apply(op)
    want = Subspace.span(map(linear_map(realify_mat(op)), space.real.basis), 2 * n)
    assert moved.real == want
    cleared_matches_basis(moved)


def test_meet_with_the_whole_space_is_the_other_space():
    full, line = GSpace(2, [(ONE, ZERO), (ZERO, ONE)]), GSpace(2, [(ONE, I)])
    assert full.intersect(line).real is line.real and line.intersect(full).real is line.real
    with pytest.raises(MixedAmbient):
        full.intersect(GSpace(3, [(ONE, ZERO, ZERO)]))


@pytest.mark.parametrize("op", [gmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), gmat([[1]]), gmat([[1, 0]]), gmat([[1], [0]])])
def test_apply_refuses_an_operator_of_the_wrong_shape(op):
    with pytest.raises(MixedAmbient):
        GSpace(2, [(ONE, I)]).apply(op)

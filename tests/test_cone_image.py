"""Cone.image against double description on the images of the rays."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfan import cones
from relfan.cones import Cone
from relfan.errors import NotSharp
from relfan.qlinalg import linear_map, mat


def sharp_cones(n):
    # a positive first coordinate keeps every generated cone pointed
    gen = st.tuples(
        st.integers(1, 3), *[st.integers(-3, 3) for _ in range(n - 1)]
    ).map(lambda g: tuple(Fraction(x) for x in g))
    return st.lists(gen, min_size=1, max_size=5).map(lambda gens: Cone.from_generators(gens, n))


def int_maps(n, rows):
    return st.lists(
        st.tuples(*[st.integers(-2, 2) for _ in range(n)]), min_size=rows, max_size=rows
    ).map(mat)


def assert_same(got: Cone, want: Cone):
    assert got.rays == want.rays
    assert got.span == want.span
    assert got.facet_normals == want.facet_normals


@st.composite
def injective_cases(draw):
    n = draw(st.sampled_from((3, 4)))
    cone = draw(sharp_cones(n))
    # the identity rows make the map injective; the extra rows and the
    # shuffle keep its image off the coordinate axes
    rows = list(mat([[int(i == j) for j in range(n)] for i in range(n)]))
    rows += draw(int_maps(n, draw(st.integers(0, 2))))
    return cone, mat(draw(st.permutations(rows)))


@given(injective_cases())
def test_injective_image_matches_double_description(case):
    cone, m = case
    f = linear_map(m)
    cone.facet_normals  # the source's own dual description is not under test
    with mock.patch.object(cones, "rays_from_ineqs", wraps=cones.rays_from_ineqs) as dd:
        got = cone.image(f, len(m))
    assert not dd.called
    assert_same(got, Cone.from_generators([f(r) for r in cone.rays], len(m)))


@given(st.sampled_from((3, 4)).flatmap(
    lambda n: st.tuples(sharp_cones(n), st.integers(1, 4).flatmap(lambda k: int_maps(n, k)))
))
def test_any_image_matches_double_description(case):
    cone, m = case
    f = linear_map(m)
    images = [f(r) for r in cone.rays]
    try:
        want = Cone.from_generators(images, len(m))
    except NotSharp:
        with pytest.raises(NotSharp):
            cone.image(f, len(m))
        return
    assert_same(cone.image(f, len(m)), want)


def test_collapsing_map_falls_back():
    # projecting the cone over (1, 0), (1, 1) along the first axis
    cone = Cone.from_generators([(1, 0), (1, 1)], 2)
    got = cone.image(linear_map(mat([[0, 1]])), 1)
    assert got.rays == ((Fraction(1),),)
    assert Cone.zero(2).image(linear_map(mat([[1, 1]])), 1) == Cone.zero(1)

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfan.cones import Cone, check_fan, rays_from_ineqs
from relfan.errors import MixedAmbient, NotSharp
from relfan.qlinalg import dot, vec

F = Fraction


def C(*gens, ambient=None):
    ambient = ambient if ambient is not None else len(gens[0])
    return Cone.from_generators([vec(g) for g in gens], ambient)


# --- double description --------------------------------------------------------


def test_rays_from_ineqs_orthant():
    got = rays_from_ineqs([(1, 0), (0, 1)], 2)
    assert got == (vec((0, 1)), vec((1, 0)))


def test_rays_from_ineqs_cuts():
    # x >= 0, y >= 0, x <= y
    got = rays_from_ineqs([(1, 0), (0, 1), (-1, 1)], 2)
    assert got == (vec((0, 1)), vec((1, 1)))


def test_rays_from_ineqs_empty_interior():
    # x >= 0 and x <= 0 in the plane with y pinned
    got = rays_from_ineqs([(1, 0), (-1, 0), (0, 1)], 2)
    assert got == (vec((0, 1)),)


def test_rays_from_ineqs_requires_pointedness():
    with pytest.raises(NotSharp):
        rays_from_ineqs([(1, 0)], 2)


def test_rays_from_ineqs_three_dim_cross_cut():
    # octant cut by x + y >= z
    got = rays_from_ineqs([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert set(got) == {
        vec((1, 0, 0)),
        vec((0, 1, 0)),
        vec((1, 0, 1)),
        vec((0, 1, 1)),
    }


# --- cones ---------------------------------------------------------------------


def test_canonical_rays_drop_redundant_generators():
    a = C((1, 0), (0, 1), (1, 1), (2, 3))
    assert a.rays == (vec((0, 1)), vec((1, 0)))
    b = C((0, 2), (3, 0))
    assert a == b


def test_not_sharp_rejected():
    with pytest.raises(NotSharp):
        C((1, 0), (-1, 0))
    with pytest.raises(NotSharp):
        C((1, 1, 0), (-1, 0, 0), (0, -1, 0))


def test_zero_cone():
    z = Cone.zero(3)
    assert z.dim == 0 and z.contains((0, 0, 0)) and not z.contains((1, 0, 0))
    assert z.faces() == (z,)
    assert z.is_face_of(C((1, 0, 0), (0, 1, 0)))


def test_contains_lower_dimensional():
    c = C((1, 1, 0), (1, -1, 0))
    assert c.contains((2, 0, 0))
    assert not c.contains((0, 0, 1))
    assert not c.contains((-1, 0, 0))


def test_face_counts():
    flat = C((1, 0), (0, 1))
    assert len(flat.faces()) == 4
    simplicial = C((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(simplicial.faces()) == 8
    square = C((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    assert len(square.faces()) == 10
    assert len(square.facet_normals) == 4


def test_minimal_face_and_is_face_of():
    square = C((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    diagonal = C((1, 0, 1), (-1, 0, 1))
    assert diagonal.is_face_of(square) is False  # cuts through the interior
    boundary = square.minimal_face_containing((1, 1, 2))
    assert boundary == C((1, 0, 1), (0, 1, 1))  # edge between adjacent vertices
    ray = C((1, 0, 1))
    assert ray.is_face_of(square)
    assert square.is_face_of(square)
    inner = C((1, 1, 3))
    assert inner.is_face_of(square) is False


def test_intersections():
    a = C((1, 0), (1, 1))
    b = C((1, 1), (0, 1))
    assert a.intersect(b) == C((1, 1))
    c = C((1, 0), (0, 1))
    d = C((1, 1), (1, -1))
    got = c.intersect(d)
    assert got == C((1, 0), (1, 1))
    disjoint = C((-1, 1), (-1, -1))
    assert c.intersect(disjoint) == Cone.zero(2)


def test_intersection_across_spans():
    plane = C((1, 0, 0), (0, 1, 0))
    wedge = C((1, 0, 0), (0, 1, 1))
    assert plane.intersect(wedge) == C((1, 0, 0))


@st.composite
def plane_cones(draw):
    k = draw(st.integers(2, 4))
    gens = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=k,
            max_size=k,
        )
    )
    angles = [g for g in gens if g != (0, 0)]
    # keep the generators inside an open half plane so the cone is sharp
    half = [(x, y) for x, y in angles if y > 0 or (y == 0 and x > 0)]
    if not half:
        half = [(1, 0)]
    return Cone.from_generators([vec(g) for g in half], 2)


@given(plane_cones(), plane_cones())
def test_intersection_is_greatest_lower_bound(a, b):
    k = a.intersect(b)
    assert a.contains_cone(k) and b.contains_cone(k)
    for r in a.rays:
        if b.contains(r):
            assert k.contains(r)


@given(plane_cones())
def test_faces_of_plane_cones(c):
    fs = c.faces()
    assert len(fs) == {0: 1, 1: 2, 2: 4}[c.dim]
    for f in fs:
        assert f.is_face_of(c)


def test_facet_normals_support_the_cone():
    sq = C((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    for f in sq.facet_normals:
        assert all(dot(f, r) >= 0 for r in sq.rays)
        assert any(dot(f, r) == 0 for r in sq.rays)


# --- fans ----------------------------------------------------------------------


def fan_closure(cones) -> tuple:
    """The cones together with all of their faces, deduplicated, in window
    order: by dimension, then rays."""
    found = {f.rays: f for c in cones for f in c.faces()}
    return tuple(sorted(found.values(), key=lambda c: (c.dim, c.rays)))


def test_fan_closure_and_check():
    cells = [C((1, 0), (1, 1)), C((1, 1), (0, 1))]
    window = fan_closure(cells)
    assert len(window) == 6  # zero, three rays, two cells
    assert check_fan(window) == []


def test_check_fan_detects_missing_face():
    cells = [C((1, 0), (1, 1)), C((1, 1), (0, 1))]
    window = [c for c in fan_closure(cells) if c.dim != 1]
    bad = check_fan(window)
    assert any(v["kind"] == "missing-face" for v in bad)


def test_check_fan_detects_overlap():
    window = fan_closure([C((1, 0), (0, 1)), C((1, 1), (-1, 1))])
    bad = check_fan(window)
    assert any(v["kind"] == "bad-intersection" for v in bad)


def test_cube_vertex_cone_face_count():
    # cone over a 3-cube: 1 + 27 faces
    gens = [vec((x, y, z, 1)) for x, y, z in product((0, 1), repeat=3)]
    c = Cone.from_generators(gens, 4)
    assert c.dim == 4
    assert len(c.faces()) == 28
    assert len(c.facet_normals) == 6


def test_ambient_mismatch():
    with pytest.raises(MixedAmbient):
        C((1, 0)).intersect(C((1, 0, 0)))

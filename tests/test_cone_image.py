"""ChartGrid.lift_cone against double description on the lifted rays,
and the refusal of a chart whose columns are dependent."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfan import cones
from relfan.cones import Cone
from relfan.errors import PreconditionViolated
from relfan.fans import CellFan
from relfan.grid import ORIGIN, ChartGrid
from relfan.hodge import Frame
from relfan.qlinalg import ZERO, identity, linear_map, mat, primitive, rank, transpose


def sharp_cones(n):
    # a positive first coordinate keeps every generated cone pointed
    gen = st.tuples(
        st.integers(1, 3), *[st.integers(-3, 3) for _ in range(n - 1)]
    ).map(lambda g: tuple(Fraction(x) for x in g))
    return st.lists(gen, min_size=1, max_size=5).map(lambda gens: Cone.from_generators(gens, n))


def int_columns(n, ambient):
    return st.lists(
        st.tuples(*[st.integers(-2, 2) for _ in range(ambient)]), min_size=n, max_size=n
    ).map(mat)


def oracle(columns, cone: Cone) -> Cone:
    lift = linear_map(transpose(columns))
    return Cone.from_generators([lift(r) for r in cone.rays], len(columns[0]))


def assert_same(got: Cone, want: Cone):
    assert got.rays == want.rays
    assert got.span == want.span
    assert got.facet_normals == want.facet_normals


@st.composite
def injective_cases(draw):
    n = draw(st.sampled_from((3, 4)))
    cone = draw(sharp_cones(n))
    # the identity coordinates make the chart injective; the extra
    # coordinates and the shuffle keep its image off the coordinate axes
    rows = list(identity(n)) + list(zip(*draw(int_columns(n, draw(st.integers(0, 2))))))
    columns = tuple(zip(*draw(st.permutations(rows))))
    return cone, columns


@given(injective_cases())
def test_injective_image_matches_double_description(case):
    cone, columns = case
    grid = ChartGrid(columns, 1, len(columns[0]))
    with mock.patch.object(cones, "rays_from_ineqs", wraps=cones.rays_from_ineqs) as dd:
        got = grid.lift_cone(cone)
    assert not dd.called
    assert "span" not in got.__dict__ and "facet_normals" not in got.__dict__
    assert_same(got, oracle(columns, cone))


@st.composite
def fraction_charts(draw):
    """An injective chart whose columns have mixed denominators, so the
    integer columns are cleared over a common one."""
    n = draw(st.sampled_from((2, 3, 4)))
    extra = draw(st.integers(0, 3))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 5)))
    rows = [tuple(Fraction(int(i == j), draw(st.integers(1, 4))) for j in range(n)) for i in range(n)]
    rows += [tuple(draw(entry) for _ in range(n)) for _ in range(extra)]
    columns = tuple(zip(*draw(st.permutations(rows))))
    return ChartGrid(columns, draw(st.integers(1, 3)), len(rows)), columns


@given(fraction_charts(), st.data())
def test_integer_lift_matches_fraction_lift(chart, data):
    grid, columns = chart
    lift = linear_map(transpose(columns))
    point = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=grid.rank, max_size=grid.rank)))
    assert grid.ray(point) == primitive(lift((Fraction(grid.a),) + tuple(map(Fraction, point))))
    cone = data.draw(sharp_cones(grid.rank + 1))
    want = tuple(sorted(primitive(lift(r)) for r in cone.rays))
    got = grid.lift_cone(cone)
    assert got.rays == want
    assert all(x is ZERO for r in got.rays for x in r if not x)


@given(st.sampled_from((3, 4)).flatmap(
    lambda n: st.tuples(sharp_cones(n), st.integers(1, 4).flatmap(lambda k: int_columns(n, k)))
))
def test_any_image_matches_double_description(case):
    """Independent columns lift like double description; dependent ones
    are refused, since their lift is not injective."""
    cone, columns = case
    if rank(columns) < len(columns):
        with pytest.raises(PreconditionViolated):
            ChartGrid(columns, 1, len(columns[0]))
        return
    assert_same(ChartGrid(columns, 1, len(columns[0])).lift_cone(cone), oracle(columns, cone))


def test_collapsing_map_is_refused():
    """log(gamma) = 0 and a zero section: the level column vanishes.  With
    cube directions the columns are dependent and the chart is refused;
    alone, the zero level column is the collapsed rank 0 chart, whose
    window is the origin."""
    frame = Frame(
        rank=2,
        weight=-2,
        gram=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
        gamma=identity(2),
        hodge={(0, -2): 1, (-2, 0): 1},
    )
    fan = CellFan(frame)
    assert fan.cube_rank and fan.blocked
    with pytest.raises(PreconditionViolated):
        fan.grid()
    grid = ChartGrid([(ZERO,) * fan.ambient], 1, fan.ambient)
    assert grid.collapsed
    assert grid.window(2) == grid.vertex_window(2) == (ORIGIN,)
    assert grid.window_symbols(2) == ([], [])

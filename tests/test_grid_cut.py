"""ChartGrid.cut on one and two points against the generic cut, which
meets the cone over the points with every box of their window by
double description."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import ceil, floor
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relfan import grid as grid_module
from relfan.cones import Cone
from relfan.fans import CellFan, flatten
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gallery import kunneth_h3, standard_factors
from relfan.grid import ChartGrid, box
from relfan.qlinalg import primitive, zero_vec

FRAMES = {
    "elliptic": elliptic_frame,
    "jordan3": jordan3_frame,
    "triple": lambda: kunneth_h3(standard_factors()),
}


@lru_cache(maxsize=None)
def chart(name: str, a: int) -> ChartGrid:
    """The pencil chart of the fixture's zero coset with boxes of side
    1 / a; the cut reads only a and the chart rank."""
    fan = CellFan(FRAMES[name]())
    fr = fan.frame
    columns = [flatten(fr.pencil(1, zero_vec(fr.rank)))]
    columns += [flatten(fr.pencil(0, d)) for d in fan.cube_basis]
    return ChartGrid(columns, a, fan.ambient)


def generic_cut(grid: ChartGrid, points) -> list:
    """The cone over the points met with each box [n, n + 1] / a of the
    window of their floors and ceilings, full pieces only."""
    a, rank = grid.a, grid.rank
    small = Cone.from_generators(points, rank + 1)
    grids = [tuple(a * c for c in p[1:]) for p in points]
    lo = [floor(min(g[j] for g in grids)) for j in range(rank)]
    hi = [max(ceil(max(g[j] for g in grids)) - 1, l) for j, l in enumerate(lo)]
    out = []
    for n in product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        piece = small.intersect(box(n, a))
        if piece.dim == small.dim:
            out.append((n, piece))
    return out


def grid_value():
    # denominator 1 puts the coordinate on a wall of the grid
    return st.builds(F, st.integers(-5, 5), st.sampled_from((1, 1, 2, 3)))


@st.composite
def segments(draw):
    """A chart, and one or two level one points in grid units: free
    segments, points on walls and corners, segments inside a wall, and
    equal points.  On the rank 6 triple chart at most three coordinates
    move, by at most four grid units, to keep the generic window small."""
    name = draw(st.sampled_from(sorted(FRAMES)))
    grid = chart(name, draw(st.sampled_from((1, 2, 3))))
    g = [draw(grid_value()) for _ in range(grid.rank)]
    mode = draw(st.sampled_from(("free", "corner", "wall", "equal", "one")))
    if mode == "corner":
        g = [F(floor(x)) for x in g]
    moving = range(grid.rank) if grid.rank == 1 else draw(
        st.lists(st.integers(0, grid.rank - 1), max_size=3, unique=True))
    h = list(g)
    for j in moving:
        h[j] = g[j] + draw(st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2))))
    if mode == "wall":
        # both ends on one wall: the segment lies inside it
        j = draw(st.integers(0, grid.rank - 1))
        g[j] = h[j] = F(floor(g[j]))
    gp = (F(1),) + tuple(x / grid.a for x in g)
    hp = (F(1),) + tuple(x / grid.a for x in h)
    return grid, {"one": [gp], "equal": [gp, gp]}.get(mode, [gp, hp])


@given(segments())
@example((chart("elliptic", 1), [(F(1), F(0)), (F(1), F(5, 2))]))
@example((chart("jordan3", 2), [(F(1), F(1, 2)), (F(1), F(1, 2))]))
@example((chart("triple", 1), [(F(1),) + (F(0),) * 6, (F(1),) + (F(1),) * 6]))
@example((chart("triple", 3), [(F(1), F(1, 3)) + (F(0),) * 5, (F(1), F(-1)) + (F(0),) * 5]))
# ends of different denominators, neither of them the grid's a
@example((chart("elliptic", 2), [(F(1), F(1, 3)), (F(1), F(-7, 5))]))
@example((chart("jordan3", 3), [(F(1), F(5, 4)), (F(1), F(-1, 2))]))
@example((chart("triple", 2), [(F(1), F(1, 3), F(0), F(-2, 3)) + (F(0),) * 3,
                               (F(1), F(-3, 5), F(1, 5), F(0)) + (F(0),) * 3]))
def test_segment_cut_matches_generic_cut(case):
    grid, points = case
    with mock.patch.object(grid_module, "box", side_effect=AssertionError("box built")), \
            mock.patch.object(Cone, "intersect", side_effect=AssertionError("intersect run")):
        got = grid.cut(points)
    assert got == generic_cut(grid, points)
    assert [n for n, _ in got] == sorted(n for n, _ in got)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_diagonal_is_cut_at_every_corner(name):
    # the diagonal crosses every wall at once, at the grid's corners
    grid = chart(name, 2)
    rank = grid.rank

    def corner(k):
        return (F(1),) + (F(k, 2),) * rank

    got = grid.cut([corner(-2), corner(2)])
    assert got == [((k,) * rank, Cone(rank + 1, tuple(sorted((primitive(corner(k)), primitive(corner(k + 1)))))))
                   for k in range(-2, 2)]
    if rank == 1:
        assert got == generic_cut(grid, [corner(-2), corner(2)])

"""The box grid of a chart: its boxes, faces, cuts, windows and lifts.

A chart is a linear map from Q^(1 + k), (level t, coordinates c), into
an ambient space, given by its independent columns.  Its grid is the
set of boxes [n, n + 1] / a at level one for integral n, and the cones
over their faces.  This module is the one place that knows that grid.
box(n, a) writes the chart cone over a box down in closed form.  A face
is a GridFace symbol: its integer lower corner, which coordinates are
free, and a refinement scale s, which makes it a face of the finer grid
[n, n + 1] / (a s) of the same chart.  A vertex is kept at its coarsest
scale, so each cone has one symbol.  ChartGrid enumerates a window as
symbols, the faces of a cell fan or the grid points of a ray fan, cuts
chart cones along the boxes, and lifts them: the injective lift carries
extreme rays to extreme rays, and each lifted primitive ray is an
integer combination of the cleared columns and one gcd.

A segment, the cone over one or two level one points, is cut in
closed form: it crosses the walls of the grid at times written down
coordinate by coordinate, and each run of the segment between two
crossings lies in one box, so no box is built and no double
description runs.  A cone over three or more points keeps the product
path: it meets each box of its window by double description.

A window is decided in its chart, which the lift embeds with its face
lattices and meets, as for cube complexes (Ziegler, Lectures on
Polytopes, ch. 2): a symbol's faces are its sub-symbols, two symbols of
one scale meet in a common face, and two of different scales, such as
the scale 2 half cell that a corruption puts in, meet in the box that
interval arithmetic writes down, coordinate by coordinate.  No double
description runs.  Only a witness is lifted; the lifted window and
check_fan are the oracle in tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, lcm
from typing import NamedTuple

from .cones import Cone
from .errors import InvariantViolation, PreconditionViolated
from .qlinalg import (
    ONE,
    ZERO,
    Subspace,
    Vec,
    _row_ints,
    _scaled_int_rows,
    _sparse_rows,
    dot,
    primitive,
    rank,
    vscale,
)

class GridFace(NamedTuple):
    """A face of the grid of boxes [n, n + 1] / (a scale) at chart level
    one: its integer lower corner, which coordinates are free, and the
    refinement scale.  Build a vertex with _symbol, which keeps it at its
    coarsest scale.  ORIGIN, a face of every box, has no corner."""

    corner: tuple
    free: tuple
    scale: int = 1

    @property
    def dim(self) -> int:
        return 0 if self.corner is None else 1 + sum(self.free)

    def vertices(self) -> list:
        """The points of the scale's grid at the corners of the face."""
        if self.corner is None:
            return []
        steps = [(0, 1) if f else (0,) for f in self.free]
        return [tuple(c + s for c, s in zip(self.corner, bits)) for bits in product(*steps)]

    def faces(self) -> list:
        """Every face, the origin and the face itself included: each free
        coordinate is pinned low, pinned high, or left free."""
        if self.corner is None:
            return [ORIGIN]
        options = [
            ((c, False), (c + 1, False), (c, True)) if f else ((c, False),)
            for c, f in zip(self.corner, self.free)
        ]
        return [ORIGIN] + [_grid_face(choice, self.scale) for choice in product(*options)]

    def facets(self) -> list:
        """Each free coordinate pinned low or high; a vertex has ORIGIN."""
        if self.corner is None or not any(self.free):
            return [] if self.corner is None else [ORIGIN]
        pins = [(j, self.free[:j] + (False,) + self.free[j + 1:]) for j, f in enumerate(self.free) if f]
        # a scale 1 vertex is already at its coarsest scale
        make = GridFace if self.scale == 1 else _symbol
        return [make(self.corner[:j] + (self.corner[j] + up,) + self.corner[j + 1:], free, self.scale)
                for j, free in pins for up in (0, 1)]


ORIGIN = GridFace(None, ())


def _symbol(corner, free, scale: int) -> GridFace:
    """The one symbol of a face: a vertex v of the scale's grid is the
    vertex v / g at scale / g, for g the gcd of scale and v."""
    if scale > 1 and not any(free):
        g = gcd(scale, *corner)
        corner, scale = tuple(c // g for c in corner), scale // g
    return GridFace(corner, free, scale)


def _grid_face(choice, scale=1) -> GridFace:
    """The face from one (corner coordinate, free) pair per coordinate."""
    return _symbol(tuple(c for c, _ in choice), tuple(f for _, f in choice), scale)


def _box(face, level: int) -> list:
    """The face at level one as one closed interval per coordinate, in
    units of 1 / (a level) for a multiple level of its scale."""
    k = level // face.scale
    return [(c * k, (c + f) * k) for c, f in zip(face.corner, face.free)]


def _is_face_of_box(meet, box_) -> bool:
    """Whether a box inside box_ is a face of it: on each coordinate its
    interval is the whole interval of box_ or one endpoint of it."""
    return all(m == b or (m[0] == m[1] and m[0] in b) for m, b in zip(meet, box_))


def box(n, a: int) -> Cone:
    """The chart cone over the box [n, n + 1] / a at level one: its
    corners are the extreme rays and its 2 * len(n) walls the facets,
    so the canonical form is written down rather than computed."""
    k = len(n)
    rays = [
        primitive((Fraction(1),) + tuple(Fraction(n[j] + bit, a) for j, bit in enumerate(corner)))
        for corner in product((0, 1), repeat=k)
    ]
    normals = []
    for j in range(k):
        low = [Fraction(0)] * (k + 1)
        low[0], low[j + 1] = Fraction(-n[j]), Fraction(a)
        high = [Fraction(0)] * (k + 1)
        high[0], high[j + 1] = Fraction(n[j] + 1), Fraction(-a)
        normals += [primitive(tuple(low)), primitive(tuple(high))]
    # for k = 0 the cone is the level ray, whose facet normal is the level
    return Cone._known(k + 1, rays, Subspace.full(k + 1), normals or [(Fraction(1),)])


class ChartGrid:
    """The grid of boxes [n, n + 1] / a in one chart, and its lifts to
    operator space.  columns are the images of the level vector and of
    each cube direction.  Lifted vertex rays are kept per grid point and
    shared by every face that has them.  Dependent columns are refused,
    save the chart that log(gamma) = 0 makes: rank 0 with a zero level
    column, collapsed, which lifts every face to the origin."""

    def __init__(self, columns, a: int, ambient: int):
        self.a, self.ambient, self.rank = a, ambient, len(columns) - 1
        # the columns over one common denominator, which no ray sees
        self._columns = _sparse_rows(_scaled_int_rows(columns)[0])
        self.collapsed = self._columns == [[]]
        if not self.collapsed and rank(columns) < len(columns):
            raise PreconditionViolated("the chart's columns are dependent")
        self._rays = {}  # grid point -> lifted primitive ray

    def _lift_ray(self, coords) -> Vec:
        """primitive(lift(x)) for integer chart coordinates on the ray of
        x: the sum of c_j col_j over the cleared integer columns, over
        their nonzero entries only, and one gcd."""
        acc = {}
        for c, col in zip(coords, self._columns):
            if c:
                for i, x in col:
                    acc[i] = acc.get(i, 0) + c * x
        g = gcd(*acc.values())
        out = [ZERO] * self.ambient
        for i, x in acc.items():
            if x:
                out[i] = Fraction(x // g)
        return tuple(out)

    def ray(self, v, scale: int = 1) -> Vec:
        """The lifted primitive ray through the point v of the grid refined
        by scale.  The rays of the grid itself are kept."""
        if scale != 1:
            return self._lift_ray((self.a * scale,) + v)
        r = self._rays.get(v)
        if r is None:
            r = self._rays[v] = self._lift_ray((self.a,) + tuple(v))
        return r

    def window(self, bound: int) -> tuple:
        """The faces of the boxes with corners in [-bound, bound]^rank, the
        window of a cell fan, as (4 bound + 3)^rank + 1 GridFace symbols,
        ORIGIN first, in the window order (dim, rays) of their lifts.  The
        order is read off the sorted vertex rays, so no cone is built."""
        one = [(c, False) for c in range(-bound, bound + 2)] + [(c, True) for c in range(-bound, bound + 1)]
        faces = [ORIGIN] + [_grid_face(choice) for choice in product(one, repeat=self.rank)]
        return tuple(self._window_order(range(-bound, bound + 2), faces)[1])

    def vertex_window(self, bound: int) -> tuple:
        """ORIGIN and the grid points in [-bound, bound]^rank as vertex
        symbols, in window order: the window of the ray fan whose rays are
        the grid points at level one."""
        points = product(range(-bound, bound + 1), repeat=self.rank)
        faces = [ORIGIN] + [GridFace(v, (False,) * self.rank) for v in points]
        return tuple(self._window_order(range(-bound, bound + 1), faces)[1])

    def window_symbols(self, bound: int) -> tuple:
        """The rays and top cells of window(bound) as symbols, each run in
        window order: the grid points, sorted by lifted ray, and the lower
        corners of the boxes."""
        boxes = [GridFace(n, (True,) * self.rank) for n in product(range(-bound, bound + 1), repeat=self.rank)]
        points, boxes = self._window_order(range(-bound, bound + 2), boxes)
        return points, [f.corner for f in boxes]

    def _window_order(self, coords: range, faces) -> tuple:
        """The grid points with every coordinate in coords, sorted by
        lifted ray, and the faces sorted by dim, then by the sorted
        positions of their vertices among those points, which compare as
        the lifted rays do: the order (dim, rays) of the lifted faces.  It
        reads vertices as scale 1 grid points, which is valid because
        every window it sorts is scale 1.  A collapsed chart lifts every
        face to the origin, so it keeps ORIGIN alone, and no grid point."""
        if self.collapsed:
            return [], [f for f in faces if f == ORIGIN]
        points = sorted(product(coords, repeat=self.rank), key=self.ray)
        order = {v: i for i, v in enumerate(points)}
        return points, sorted(faces, key=lambda f: (f.dim, sorted(order[v] for v in f.vertices())))

    def lift_cone(self, cone: Cone) -> Cone:
        """The lift of a chart cone.  It carries extreme rays to extreme
        rays (Ziegler, Lectures on Polytopes, ch. 2), so the lifted
        primitive rays are the canonical form and span and facets stay
        lazy."""
        return Cone(self.ambient, tuple(sorted(map(self._lift_ray, _row_ints(cone.rays)))))

    def cut(self, points) -> list:
        """(box corner, chart piece) pairs, sorted by corner: the chart cone
        over the level one points cut along the boxes of the grid, full
        pieces only.  One or two points span a segment at level one, cut
        in closed form (_cut_segment); three or more, from subdivision of
        a cone of three or more generators or a misaligned cube's witness,
        meet each box of their window by double description."""
        if len(points) <= 2:
            return self._cut_segment(points[0], points[-1])
        a, rank = self.a, self.rank
        small = Cone.from_generators(points, rank + 1)
        # a cone inside one box floors to it at every relative interior
        # point, and lies in the box iff its level one generators do
        point = small.interior_point()
        host = tuple(floor(a * c / point[0]) for c in point[1:])
        grids = [tuple(a * c for c in p[1:]) for p in points]
        if all(n <= c <= n + 1 for g in grids for n, c in zip(host, g)):
            return [(host, small)]
        lo = [floor(min(g[j] for g in grids)) for j in range(rank)]
        hi = [max(ceil(max(g[j] for g in grids)) - 1, l)
              for j, l in enumerate(lo)]
        pieces = []
        for n in product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
            piece = small.intersect(box(n, a))
            if piece.dim == small.dim:
                pieces.append((n, piece))
        if not pieces:
            raise InvariantViolation("subdivision produced no full dimensional piece")
        return pieces

    def _cut_segment(self, p, q) -> list:
        """cut of the cone over level one points p and q.  The segment
        P(t) = p + t (q - p) crosses the integer walls of the grid at times
        written down coordinate by coordinate.  Between two crossings no
        coordinate of P(t) meets an integer, so the open interval floors
        to one box, read at its midpoint; at a crossing some coordinate
        passes an integer, so the next interval floors to another box.
        The closed interval [t0, t1] is then the segment's meet with its
        box, and the piece is the cone over P(t0) and P(t1) (Ziegler,
        Lectures on Polytopes, ch. 2).  Each crossing point is built once,
        and a midpoint is floored from the grid coordinates a P(t) alone."""
        a = self.a
        if p == q:
            return [(tuple(floor(a * c) for c in p[1:]), Cone(self.rank + 1, (primitive(p),)))]
        start = [a * x for x in p[1:]]
        steps = [a * y - g for y, g in zip(q[1:], start)]
        times = {ZERO, ONE}
        for g, d in zip(start, steps):
            if d:
                times.update((k - g) / d for k in range(ceil(min(g, g + d)), floor(max(g, g + d)) + 1))
        cuts = sorted(times)
        ends = [primitive(tuple(x + t * (y - x) for x, y in zip(p, q))) for t in cuts]
        pieces = [
            (tuple(floor(g + (t0 + t1) / 2 * d) for g, d in zip(start, steps)),
             Cone(self.rank + 1, tuple(sorted((r0, r1)))))
            for t0, t1, r0, r1 in zip(cuts, cuts[1:], ends, ends[1:])
        ]
        return sorted(pieces, key=lambda piece: piece[0])

    def cone(self, face: GridFace) -> Cone:
        """The lifted face: its rays are the lifted corners, and span and
        facets stay lazy."""
        return Cone(self.ambient, tuple(sorted(self.ray(v, face.scale) for v in face.vertices())))

    def chart_cone(self, face: GridFace) -> Cone:
        """The face's cone in the chart, over the level one points of its
        corners."""
        level = self.a * face.scale
        return Cone(self.rank + 1, tuple(sorted(primitive((level,) + v) for v in face.vertices())))

    def first_lifted_facet(self, face: GridFace, facets) -> GridFace:
        """Of some facets of a face, the first in the Cone.facets order of
        the lifted face.  That order sorts the canonical lifted facet
        normals, which are zero off the pivots P of the lifted span, so it
        sorts their entries on P.  There a normal is the primitive
        functional that vanishes on the facet's lifted rays and is positive
        on the cone: it is read off the rays' entries on P, and only the
        pivots need the lifted span."""
        if len(facets) == 1:
            return facets[0]
        rays = self.chart_cone(face).rays
        lifted = dict(zip(rays, map(self._lift_ray, _row_ints(rays))))
        pivots = Subspace.span(lifted.values(), self.ambient)._pivots()
        on_p = {r: tuple(x[p] for p in pivots) for r, x in lifted.items()}
        total = tuple(map(sum, zip(*on_p.values())))

        def normal(facet):
            (h,) = Subspace.kernel([on_p[r] for r in self.chart_cone(facet).rays]).basis
            return primitive(h if dot(h, total) > 0 else vscale(-ONE, h))

        return min(facets, key=normal)


def window_face_table(window) -> list:
    """For each window entry, the sorted positions of the entries whose
    lifts are faces of its lift.  Each cone has one symbol, so the faces
    of an entry are its 3^free sub-faces and the origin, looked up by
    symbol."""
    where = {}
    for i, e in enumerate(window):
        where.setdefault(e, []).append(i)
    return [sorted(j for sub in e.faces() for j in where.get(sub, ())) for e in window]


def first_fan_violation(window, grid):
    """check_fan of the lifted window, its first record, or None when the
    window is a fan.

    A symbol misses a face exactly when a facet symbol is absent.  Two
    symbols of one scale are faces of one grid and meet in a common face,
    so only pairs of different scales are tested, on the grid refined by
    the lcm of their scales: their meet is the intersection of their
    boxes, coordinate by coordinate, and the origin when that is empty.
    The witness alone is lifted: a missing face as the first missing
    facet in the lifted Cone.facets order, a bad pair as left, right and
    meet."""
    window = list(window)
    present = set(window)
    for e in window:
        missing = [f for f in e.facets() if f not in present]
        if missing:
            face = grid.first_lifted_facet(e, missing)
            return {"kind": "missing-face", "cone": grid.cone(e), "face": grid.cone(face)}
    scales = [e.scale for e in window]
    common = max(set(scales), key=scales.count, default=1)
    loose = [i for i, s in enumerate(scales) if s != common]
    pairs = sorted({(min(i, j), max(i, j)) for i in loose for j in range(len(window)) if scales[j] != scales[i]})
    for x, y in ((window[i], window[j]) for i, j in pairs):
        if ORIGIN in (x, y):
            continue
        level = lcm(x.scale, y.scale)
        bx, by = _box(x, level), _box(y, level)
        meet = [(max(l1, l2), min(h1, h2)) for (l1, h1), (l2, h2) in zip(bx, by)]
        if all(lo <= hi for lo, hi in meet) and not (_is_face_of_box(meet, bx) and _is_face_of_box(meet, by)):
            corners = product(*[{lo, hi} for lo, hi in meet])
            meet_cone = Cone(grid.ambient, tuple(sorted(grid.ray(p, level) for p in corners)))
            return {"kind": "bad-intersection", "left": grid.cone(x), "right": grid.cone(y), "meet": meet_cone}
    return None

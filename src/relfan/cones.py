"""Sharp polyhedral cones over Q, with exact dual descriptions.

A Cone is determined by its canonical generator set: primitive integral
extreme rays, lexicographically sorted.  Construction reduces arbitrary
generators to that form, which makes cone equality a tuple comparison.

Support inequalities are computed by incremental double description in
the coordinates of the cone's linear span, so the ambient dimension
(flattened operator space upstream) never inflates the polyhedral work.
Everything here raises NotSharp rather than ever representing a cone
containing a line.

A Cone built from its extreme rays alone keeps span and facets lazy;
pencil cones are lifted that way from their chart (grid.py).  Cones
with a dual description known in closed form are built with
Cone._known, which seeds the cached span and facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MixedAmbient, NotSharp
from .qlinalg import (
    ZERO,
    Subspace,
    dot,
    inverse,
    is_zero_vec,
    mat,
    matmul,
    primitive,
    rank,
    rref,
    transpose,
    vadd,
    vec,
    vscale,
    zero_vec,
)


def rays_from_ineqs(rows, dim: int) -> tuple:
    """Extreme rays of {x in Q^dim : r . x >= 0 for every row}.

    The rows must span the dual space (equivalently, the solution cone
    is pointed); otherwise NotSharp is raised.  Incremental double
    description with the algebraic adjacency test.
    """
    if dim == 0:
        return ()
    cleaned = [p for p in dict.fromkeys(primitive(vec(r)) for r in rows) if not is_zero_vec(p)]
    # the pivot columns of the transpose are the rows independent of
    # the rows before them
    start = [cleaned[j] for j in rref(transpose(cleaned))[1]]
    if len(start) < dim:
        raise NotSharp("inequality system does not cut out a pointed cone")
    inv = inverse(mat(start))
    rays = [primitive(col) for col in zip(*inv)]
    active = list(start)
    rest = [r for r in cleaned if r not in set(start)]

    def adjacent(p, m):
        common = [row for row in active if dot(row, p) == 0 and dot(row, m) == 0]
        return rank(mat(common)) == dim - 2

    for r in rest:
        vals = [(ray, dot(r, ray)) for ray in rays]
        pos = [ray for ray, v in vals if v > 0]
        neg = [ray for ray, v in vals if v < 0]
        nil = [ray for ray, v in vals if v == 0]
        if neg:
            fresh = []
            for p in pos:
                for m in neg:
                    if not adjacent(p, m):
                        continue
                    w = vadd(vscale(dot(r, p), m), vscale(-dot(r, m), p))
                    w = primitive(w)
                    if not is_zero_vec(w):
                        fresh.append(w)
            rays = list(dict.fromkeys(pos + nil + fresh))
        active.append(r)
    return tuple(sorted(set(rays)))


def _lift_functional(f, pivots, ambient):
    out = [ZERO] * ambient
    for val, p in zip(f, pivots):
        out[p] = val
    return primitive(tuple(out))


@dataclass(frozen=True)
class Cone:
    """Sharp polyhedral cone, canonical rays.  Build via from_generators,
    or directly from canonical rays when they are known."""

    ambient: int
    rays: tuple

    @classmethod
    def from_generators(cls, generators, ambient: int) -> "Cone":
        generators = [vec(g) for g in generators]
        if any(len(g) != ambient for g in generators):
            raise MixedAmbient("cone generator has the wrong length")
        prim = [p for p in dict.fromkeys(map(primitive, generators)) if not is_zero_vec(p)]
        if not prim:
            return cls(ambient, ())
        span = Subspace.span(prim, ambient)
        pivots = span._pivots()
        d = span.dim
        coords = [tuple(g[p] for p in pivots) for g in prim]
        normals = rays_from_ineqs(coords, d)
        if rank(mat(normals)) < d:
            raise NotSharp("generators span a line inside the cone")
        extreme = []
        for g, gc in zip(prim, coords):
            act = [f for f in normals if dot(f, gc) == 0]
            if rank(mat(act)) == d - 1:
                extreme.append(g)
        # reuse the dual description computed during canonicalization
        lifted = [_lift_functional(f, pivots, ambient) for f in normals]
        return cls._known(ambient, extreme, span, lifted)

    @classmethod
    def _known(cls, ambient: int, rays, span: Subspace, facet_normals) -> "Cone":
        """The cone over known extreme rays (primitive, any order) whose
        span and canonical facet normals are known too: the cached
        properties are seeded instead of recomputed."""
        out = cls(ambient, tuple(sorted(rays)))
        out.__dict__["span"] = span
        out.__dict__["facet_normals"] = tuple(sorted(facet_normals))
        return out

    @classmethod
    def zero(cls, ambient: int) -> "Cone":
        return cls(ambient, ())

    @cached_property
    def span(self) -> Subspace:
        return Subspace.span(self.rays, self.ambient)

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def facet_normals(self) -> tuple:
        """Ambient functionals, nonnegative on the cone, each cutting a
        facet inside the cone's span.  Canonical (primitive, sorted)."""
        if not self.rays:
            return ()
        pivots = self.span._pivots()
        coords = [tuple(r[p] for p in pivots) for r in self.rays]
        normals = rays_from_ineqs(coords, self.span.dim)
        return tuple(sorted(_lift_functional(f, pivots, self.ambient) for f in normals))

    def contains(self, v) -> bool:
        v = vec(v)
        if len(v) != self.ambient:
            raise MixedAmbient("contains: vector length != ambient")
        if not self.span.contains(v):
            return False
        return all(dot(f, v) >= 0 for f in self.facet_normals)

    def contains_cone(self, other: "Cone") -> bool:
        if self.ambient != other.ambient:
            raise MixedAmbient("contains_cone: ambient mismatch")
        return all(self.contains(r) for r in other.rays)

    def interior_point(self):
        if not self.rays:
            return zero_vec(self.ambient)
        return tuple(sum(column) for column in zip(*self.rays))

    def facets(self) -> tuple:
        out = []
        for f in self.facet_normals:
            sub = tuple(r for r in self.rays if dot(f, r) == 0)
            out.append(Cone(self.ambient, sub))
        return tuple(out)

    def faces(self) -> tuple:
        """Every face, the cone itself and the origin included."""
        found = {}
        stack = [self]
        while stack:
            c = stack.pop()
            if c.rays in found:
                continue
            found[c.rays] = c
            stack.extend(c.facets())
        return tuple(sorted(found.values(), key=lambda c: (c.dim, c.rays)))

    def minimal_face_containing(self, v) -> "Cone":
        """Smallest face containing a member point."""
        if not self.contains(v):
            raise MixedAmbient("minimal_face_containing: point outside the cone")
        act = [f for f in self.facet_normals if dot(f, v) == 0]
        sub = tuple(
            r for r in self.rays if all(dot(f, r) == 0 for f in act)
        )
        return Cone(self.ambient, sub)

    def is_face_of(self, other: "Cone") -> bool:
        if self.ambient != other.ambient:
            raise MixedAmbient("is_face_of: ambient mismatch")
        if not other.contains_cone(self):
            return False
        if self.dim == 0:
            return True
        return other.minimal_face_containing(self.interior_point()) == self

    def intersect(self, other: "Cone") -> "Cone":
        if self.ambient != other.ambient:
            raise MixedAmbient("intersect: ambient mismatch")
        if self.contains_cone(other):
            return other
        if other.contains_cone(self):
            return self
        common = self.span.intersect(other.span)
        if common.dim == 0:
            return Cone.zero(self.ambient)
        basis = common.basis
        rows = matmul(self.facet_normals + other.facet_normals, transpose(basis))
        # both cones are sharp, so the meet is pointed and the combined
        # inequality rows have full rank on the common span
        local = rays_from_ineqs(rows, common.dim)
        return Cone.from_generators(matmul(local, basis), self.ambient)


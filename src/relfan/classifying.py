"""Period points and the classifying space predicates.

A period point is a decreasing filtration of the complexified ambient
space of a frame.  The weight filtration of the frame cuts every such
point into two graded pieces, the inner one polarized by the frame
pairing and the quotient line polarized trivially, and all predicates
are computed piecewise: membership in the flag variety is a type
invariant, isotropy selects the compact dual, and positivity of the
induced hermitian forms selects the open domain inside it.

Q(i)-subspaces are realified ``GSpace`` values, so all elimination runs
in ``qlinalg``; positivity is Sylvester's criterion, by ``qlinalg.det``,
on the realified hermitian form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    GriffithsViolated,
    InvariantViolation,
    MixedAmbient,
    NotInCompactDual,
    NotNilpotent,
    PreconditionViolated,
)
from .fans import unflatten
from .gaussian import (
    ONE,
    GSpace,
    Gi,
    gmat,
    gvec,
    i_power,
    realify_mat,
    unrealify_mat,
)
from .hodge import Frame, check_in_g
from .qlinalg import (
    NilpotentPowers,
    Subspace,
    det,
    identity,
    mat,
)


def hodge_numbers(frame: Frame) -> dict:
    """Hodge multiplicities of the graded pieces, keyed by weight."""
    inner = {}
    for p, q, m in frame.hodge:
        inner[(p, q)] = m
    return {0: {(0, 0): 1}, frame.weight: inner}


@dataclass(eq=False)
class PeriodPoint:
    """A filtration of the complexified ambient space of a frame.

    ``jumps`` maps a level to spanning vectors; the space at level p is
    spanned by everything declared at levels >= p.  Construction checks
    the flag condition: on each graded piece of the weight filtration
    the graded dimensions must match the hodge multiplicities.
    """

    frame: Frame
    jumps: dict

    _graded: tuple = field(init=False, repr=False)

    def __post_init__(self):
        fr = self.frame
        levels = sorted(self.jumps, reverse=True)
        if not levels:
            raise PreconditionViolated("a period point needs at least one level")
        acc = []
        out = []
        for p in levels:
            for v in self.jumps[p]:
                v = gvec(v)
                if len(v) != fr.dim:
                    raise MixedAmbient("spanning vector of the wrong length")
                acc.append(v)
            out.append((p, GSpace(fr.dim, acc)))
        self.jumps = tuple(out)
        self._graded = self._split_graded()
        self._check_flag()

    # --- filtration access ---

    @property
    def jump_indices(self) -> tuple:
        return tuple(p for p, _ in self.jumps)

    def at(self, p: int) -> GSpace:
        """Value of the filtration at level p, constant between jumps."""
        return _level(self.jumps, p, self.frame.dim)

    def apply(self, op) -> "PeriodPoint":
        """Transport along an invertible operator, revalidating the flag.
        The moved spaces, still nested, are the new levels as they stand."""
        out = PeriodPoint.__new__(PeriodPoint)
        out.frame, out.jumps = self.frame, tuple((p, s.apply(op)) for p, s in self.jumps)
        out._graded = out._split_graded()
        out._check_flag()
        return out

    # --- graded pieces ---

    def _split_graded(self):
        fr = self.frame
        r = fr.rank
        inner_full = _inner_full(fr.dim, r)
        inner, quot = {}, {}
        for p, space in self.jumps:
            cut = space.intersect(inner_full)
            # cut is zero at e: its realified rref rows, cut short, stay rref
            inner[p] = GSpace._of(Subspace(2 * r, tuple(row[: 2 * r] for row in cut.real.basis)))
            # the quotient line: rank-nullity of the last coordinate map
            quot[p] = _LINE if space.dim > cut.dim else _NO_LINE
        return (
            (0, ((ONE,),), quot),
            (fr.weight, gmat(fr.gram), inner),
        )

    def graded(self, k: int, p: int) -> GSpace:
        """The level p piece of the filtration induced on gr(k)."""
        for weight, _, table in self._graded:
            if weight == k:
                ambient = 1 if k == 0 else self.frame.rank
                return _level(sorted(table.items(), reverse=True), p, ambient)
        raise PreconditionViolated(f"no graded piece in weight {k}")

    def _check_flag(self):
        numbers = hodge_numbers(self.frame)
        for k, _, table in self._graded:
            types = numbers[k]
            levels = sorted({p for p, _ in types} | set(table))
            for p in range(levels[0] - 1, levels[-1] + 2):
                want = sum(m for (pp, _), m in types.items() if pp >= p)
                got = self.graded(k, p).dim
                if got != want:
                    raise PreconditionViolated(
                        f"graded dimension at level {p} in weight {k} is "
                        f"{got}, the type data needs {want}"
                    )


_LINE, _NO_LINE = GSpace(1, [(ONE,)]), GSpace(1)


@lru_cache(maxsize=16)
def _inner_full(dim: int, rank: int) -> GSpace:
    """Q(i)^rank inside Q(i)^dim, built once per shape."""
    return GSpace(dim, identity(dim)[:rank])


def _level(spaces, p: int, ambient: int) -> GSpace:
    """Value at level p of a filtration given as (level, space) pairs in
    decreasing level order: the space of the lowest level >= p."""
    found = GSpace(ambient)
    for q, space in spaces:
        if q < p:
            break
        found = space
    return found


def extend_inner_filtration(frame: Frame, jumps: dict) -> PeriodPoint:
    """Period point from a filtration of the inner space alone.

    The quotient line has type (0, 0), so it joins every level p <= 0
    and the inner data is padded by a trailing zero coordinate.
    """
    full = {}
    for p, vectors in jumps.items():
        rows = []
        for v in vectors:
            v = gvec(v)
            if len(v) != frame.rank:
                raise MixedAmbient("inner vector of the wrong length")
            rows.append(v + (Gi(),))
        if p <= 0:
            rows.append(gvec(frame.e_vector))
        full[p] = rows
    if all(p > 0 for p in full):
        full[0] = [gvec(frame.e_vector)]
    return PeriodPoint(frame, full)


# --- predicates ---

def _pairing(gram, x, y) -> Gi:
    acc = Gi()
    for s, xs in enumerate(x):
        if not xs:
            continue
        for t, g in enumerate(gram[s]):
            if g:
                acc = acc + xs * g * y[t]
    return acc


def in_compact_dual(pt: PeriodPoint) -> bool:
    """Bilinear isotropy: levels p and q pair to zero once p + q > k."""
    for k, gram, table in pt._graded:
        levels = [p for p in table if table[p].dim]
        for p in levels:
            for q in levels:
                if p + q <= k:
                    continue
                for x in table[p].basis:
                    for y in table[q].basis:
                        if _pairing(gram, x, y):
                            return False
    return True


def hermitian_gram(pt: PeriodPoint, k: int, p: int):
    """Gram matrix of the hermitian form on the (p, k - p) intersection,
    or None when that intersection has the wrong dimension.

    Computed in the reduced basis of the intersection, so individual
    entries rescale with the pivots; the signature does not.
    """
    numbers = hodge_numbers(pt.frame)[k]
    q = k - p
    want = numbers.get((p, q), 0)
    piece = pt.graded(k, p).intersect(pt.graded(k, q).conjugate())
    if piece.dim != want:
        return None
    gram = next(g for kk, g, _ in pt._graded if kk == k)
    sign = i_power(p - q)
    rows = []
    for x in piece.basis:
        rows.append(
            tuple(sign * _pairing(gram, x, tuple(c.conjugate() for c in y)) for y in piece.basis)
        )
    m = tuple(rows)
    for a in range(len(m)):
        for b in range(len(m)):
            if m[a][b].conjugate() != m[b][a]:
                raise InvariantViolation("induced form is not hermitian")
    return m


def _positive_definite(m) -> bool:
    """Sylvester's criterion on the realified form: a hermitian
    H = A + iB is positive definite iff [[A, -B], [B, A]] is."""
    form = realify_mat(m)
    return all(det(tuple(row[:t] for row in form[:t])) > 0 for t in range(1, len(form) + 1))


def in_D(pt: PeriodPoint) -> bool:
    """Membership in the open domain.  Raises NotInCompactDual when the
    point fails isotropy, so False always means a positivity failure."""
    if not in_compact_dual(pt):
        raise NotInCompactDual("point pairs nontrivially above the weight")
    for k, types in hodge_numbers(pt.frame).items():
        for (p, q), m in types.items():
            if m == 0:
                continue
            gram = hermitian_gram(pt, k, p)
            if gram is None or not _positive_definite(gram):
                return False
    return True


def small_griffiths(pt: PeriodPoint, n_mat) -> bool:
    """Infinitesimal transversality: the operator moves each level into
    the next one down."""
    check_in_g(pt.frame, n_mat)
    op = mat(n_mat)
    return all(pt.at(p - 1).contains_space(space.apply(op)) for p, space in pt.jumps)


def nilpotent_orbit_test(pt: PeriodPoint, cone, y_samples=(1, 4, 16, 64, 256)) -> bool:
    """Sampled orbit membership along a cone of directions.

    Each generator must satisfy transversality (GriffithsViolated when
    one does not).  The zero cone reduces to plain membership.  This
    samples the diagonal of the parameter space at the given heights; a
    True is evidence, not a proof.
    """
    if any(y <= 0 for y in y_samples):
        raise PreconditionViolated("orbit heights must be positive")
    fr = pt.frame
    gens = [unflatten(r, fr.dim) for r in cone.rays]
    for n in gens:
        if not small_griffiths(pt, n):
            raise GriffithsViolated("cone generator is not transversal at the point")
    if not gens:
        return in_D(pt)
    total = tuple(tuple(sum(col) for col in zip(*rows)) for rows in zip(*gens))
    try:
        moves = orbit_exponentials(total, y_samples)
    except NotNilpotent as exc:
        raise GriffithsViolated("cone directions do not sum to a nilpotent operator") from exc
    return all(in_D(pt.apply(u)) for u in moves)


def orbit_exponentials(n_mat, y_samples) -> list:
    """exp(i y N) for each height y, on the powers of the realified iN,
    formed once, read back to Q(i)."""
    powers = NilpotentPowers(realify_mat(gmat([[Gi(0, x) for x in row] for row in n_mat])))
    return [unrealify_mat(powers.exp(y)) for y in y_samples]

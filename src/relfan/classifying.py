"""Period points and the classifying space predicates.

A period point is a decreasing filtration of the complexified ambient
space of a frame.  The weight filtration of the frame cuts every such
point into two graded pieces, the inner one polarized by the frame
pairing and the quotient line polarized trivially, and all predicates
are computed piecewise: membership in the flag variety is a type
invariant, isotropy selects the compact dual, and positivity of the
induced hermitian forms selects the open domain inside it.

Q(i)-subspaces are realified ``GSpace`` values, and the predicates read
their cleared integer rows X.  Each graded piece has one integer form K
per twist, the real part of x^T G y or of i^(p-q) x^T G conj(y) in
realified coordinates, built once per frame.  Two i-stable levels are
isotropic iff X K Y^T = 0.  On a (p, q) piece S = X K X^T is symmetric
iff the form is hermitian, and positivity is Sylvester's criterion on
S, whose leading minors are the pivots of one fraction-free (Bareiss)
pass; clearing scales each by a positive square.  A point is built as
it is moved: integer rows span each level (the realified vectors with i
times each, or the rows times integer columns of exp(iyN), read off the
integer series of iN), and each level is eliminated once, e pair first,
for the quotient bit and the reduced inner cut; levels form when read.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import (
    GriffithsViolated,
    InvariantViolation,
    MixedAmbient,
    NotInCompactDual,
    NotNilpotent,
    PreconditionViolated,
)
from .fans import unflatten
from .gaussian import GSpace, Gi, _realified_rows, gvec
from .hodge import Frame, _membership, _operator_rows
from .qlinalg import (
    ZERO,
    NilpotentPowers,
    Subspace,
    _int_product,
    _rref_ints,
    _scaled_int_rows,
    _sparse_rows,
    identity,
    mat,
)


def hodge_numbers(frame: Frame) -> dict:
    """Hodge multiplicities of the graded pieces, keyed by weight."""
    return {0: {(0, 0): 1}, frame.weight: {(p, q): m for p, q, m in frame.hodge}}


class PeriodPoint:
    """A filtration of the complexified ambient space of a frame.

    ``jumps`` maps a level to spanning vectors; the space at level p is
    spanned by everything declared at levels >= p.  As in ``_moved``,
    integer rows spanning each level are cut by ``_split_graded`` and
    ``_check_flag`` matches the graded dimensions of each graded piece
    to the hodge multiplicities; the levels (``jumps``) form when read.
    """

    def __init__(self, frame: Frame, jumps: dict):
        levels = sorted(jumps, reverse=True)
        if not levels:
            raise PreconditionViolated("a period point needs at least one level")
        rows, out = [], []
        for p in levels:
            rows = rows + _realified_rows(jumps[p], frame.dim)
            out.append((p, rows))
        self.frame = frame
        self._graded, self._spanning = self._split_graded(out)
        self._check_flag()

    @cached_property
    def jumps(self) -> tuple:
        """(level, space) pairs, high to low, formed on first read."""
        n = 2 * self.frame.dim
        return tuple((p, GSpace._of(Subspace._of_int_rows(list(ws), n))) for p, ws in self._spanning)

    # --- filtration access ---

    @property
    def jump_indices(self) -> tuple:
        return tuple(p for p, _ in self._spanning)

    def at(self, p: int) -> GSpace:
        """Value of the filtration at level p, constant between jumps."""
        return _level(self.jumps, p, self.frame.dim)

    def _moved(self, columns) -> "PeriodPoint":
        """The point moved by an operator given by its realified integer
        columns (transposed rows, up to a positive scale): each level's
        spanning rows times the columns, cut, then the flag check."""
        n = 2 * self.frame.dim
        out = PeriodPoint.__new__(PeriodPoint)
        out.frame = self.frame
        out._graded, out._spanning = out._split_graded(
            [(p, _int_product(_sparse_rows(ws), columns, n)) for p, ws in self._spanning])
        out._check_flag()
        return out

    # --- graded pieces ---

    def _split_graded(self, levels) -> tuple:
        """(weight -> (gram, levels), each level's reduced spanning rows):
        each level of a new or a moved point, given by integer rows spanning
        it, is eliminated once with the e pair first.  It pivots there iff
        the level reaches the quotient line, and its other rows, already
        reduced, are the cut; the levels themselves form when read."""
        fr, n = self.frame, 2 * self.frame.rank
        inner, quot, spanning = [], [], []
        for p, rows in levels:
            rows = [w[n:] + w[:n] for w in rows]
            pivots = _rref_ints(rows)
            top = sum(c < 2 for c in pivots)  # the rows at the e pair
            cut = Subspace._of_reduced([w[2:] for w in rows[top:]], [c - 2 for c in pivots[top:]], n)
            inner.append((p, GSpace._of(cut)))
            quot.append((p, _LINE if top else _zero(1)))
            spanning.append((p, [w[2:] + w[:2] for w in rows[: len(pivots)]]))
        return {0: (_UNIT, tuple(quot)), fr.weight: (fr.gram, tuple(inner))}, spanning

    def graded(self, k: int, p: int) -> GSpace:
        """The level p piece of the filtration induced on gr(k)."""
        if k not in self._graded:
            raise PreconditionViolated(f"no graded piece in weight {k}")
        gram, table = self._graded[k]
        return _level(table, p, len(gram))

    def _check_flag(self):
        for k, types in hodge_numbers(self.frame).items():
            gram, table = self._graded[k]
            levels = sorted({p for p, _ in types} | {p for p, _ in table})
            for p in range(levels[0] - 1, levels[-1] + 2):
                want = sum(m for (pp, _), m in types.items() if pp >= p)
                got = _level(table, p, len(gram)).dim
                if got != want:
                    raise PreconditionViolated(
                        f"graded dimension at level {p} in weight {k} is {got}, the type data needs {want}")


_UNIT = identity(1)
_LINE = GSpace(1, _UNIT)


@lru_cache(maxsize=16)
def _zero(ambient: int) -> GSpace:
    """The zero space of Q(i)^ambient, shared."""
    return GSpace._of(Subspace.zero(2 * ambient))


def _level(spaces, p: int, ambient: int) -> GSpace:
    """Value at level p of a filtration given as (level, space) pairs in
    decreasing level order: the space of the lowest level >= p."""
    found = _zero(ambient)
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


# --- forms on cleared rows ---

# the realified block of one gram entry, as (row, column, sign) offsets:
# Re(x y) for the bilinear form (None), Re(i^t x conj(y)) at twist t
_BLOCKS = {
    None: ((0, 0, 1), (1, 1, -1)), 0: ((0, 0, 1), (1, 1, 1)), 1: ((0, 1, 1), (1, 0, -1)),
    2: ((0, 0, -1), (1, 1, -1)), 3: ((0, 1, -1), (1, 0, 1)),
}


def _form(pt: PeriodPoint, k: int, twist):
    """(s, K): K the sparse integer rows of s times the realified form
    of the weight k piece at a twist, built once per frame."""
    forms = pt.frame._period_forms
    if (k, twist) not in forms:
        ints, scale = _scaled_int_rows(pt._graded[k][0])
        rows = [[] for _ in range(2 * len(ints))]
        for a, row in enumerate(ints):
            for b, g in enumerate(row):
                for da, db, sign in _BLOCKS[twist] if g else ():
                    rows[2 * a + da].append((2 * b + db, sign * g))
        forms[k, twist] = scale, rows
    return forms[k, twist]


def _form_product(xs, form, ys) -> list:
    """X K Y^T for the sparse integer rows of X, K and Y."""
    xk = _int_product(xs, form, len(form))
    return [[sum(row[j] * y for j, y in yrow) for yrow in ys] for row in xk]


def _leading_minors(rows):
    """The leading principal minors of an integer matrix up to the first
    zero one: the pivots of a fraction-free (Bareiss) pass with no row
    swaps, step c pivoting on the minor of order c + 1."""
    rows, prev = [list(r) for r in rows], 1
    for c, top in enumerate(rows):
        piv = top[c]
        yield piv
        if not piv:
            return
        for i in range(c + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = piv


# --- predicates ---

def in_compact_dual(pt: PeriodPoint) -> bool:
    """Bilinear isotropy: levels p and q pair to zero once p + q > k.
    The levels are nested, so level p is tested against level k + 1 - p
    alone."""
    for k, (gram, table) in pt._graded.items():
        _, form = _form(pt, k, None)
        for p, space in table:
            other = _level(table, k + 1 - p, len(gram))
            if any(map(any, _form_product(space._rows, form, other._rows))):
                return False
    return True


def _hermitian_form(pt: PeriodPoint, k: int, p: int):
    """(c, S) with S = X K X^T on the (p, k - p) intersection, X its
    cleared rows, and S / c the realified form in its rref basis; None
    when the intersection has the wrong dimension."""
    q = k - p
    piece = pt.graded(k, p).intersect(pt.graded(k, q).conjugate())
    if piece.dim != hodge_numbers(pt.frame)[k].get((p, q), 0):
        return None
    rows = piece._rows
    scale, form = _form(pt, k, (p - q) % 4)
    s = _form_product(rows, form, rows)
    if any(s[a][b] != s[b][a] for a in range(len(s)) for b in range(a)):
        raise InvariantViolation("induced form is not hermitian")
    return piece.real._cleared[0] ** 2 * scale, s


def in_D(pt: PeriodPoint) -> bool:
    """Membership in the open domain.  Raises NotInCompactDual when the
    point fails isotropy, so False always means a positivity failure."""
    if not in_compact_dual(pt):
        raise NotInCompactDual("point pairs nontrivially above the weight")
    for k, types in hodge_numbers(pt.frame).items():
        for p, _ in types:  # every multiplicity is positive
            form = _hermitian_form(pt, k, p)
            if form is None or not all(minor > 0 for minor in _leading_minors(form[1])):
                return False
    return True


def small_griffiths(pt: PeriodPoint, n_mat) -> bool:
    """Infinitesimal transversality: the operator moves each level into
    the next one down, each moved row tested with no elimination.  Its
    membership rows give its realified columns: x at (i, j) is x at
    (2i, 2j) and (2i + 1, 2j + 1)."""
    rows, n = _membership(pt.frame, n_mat)[0], 2 * pt.frame.dim
    columns = [[(2 * i + d, x) for i, x in col] for col in _operator_rows(rows) for d in (0, 1)]
    moved = ((pt.at(p - 1).real, w) for p, space in pt.jumps for w in _int_product(space._rows, columns, n))
    return not any(any(target._residual(w)) for target, w in moved)


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
        moves = _orbit_moves(total, y_samples)
    except NotNilpotent as exc:
        raise GriffithsViolated("cone directions do not sum to a nilpotent operator") from exc
    return all(in_D(pt._moved(columns)) for columns in moves)


def _orbit_moves(n_mat, y_samples):
    """exp(i y N) per height y as ``transport`` gives it, up to a positive
    scale: its realified integer series, transposed, formed on demand."""
    powers = _orbit_powers(n_mat)
    return (_sparse_rows(zip(*powers.exp_ints(y)[0])) for y in y_samples)


def _orbit_powers(n_mat) -> NilpotentPowers:
    """The powers of iN realified, in which an entry x is ((0, -x), (x, 0))."""
    blocks = [[((ZERO, -x or ZERO), (x, ZERO)) for x in row] for row in mat(n_mat)]
    return NilpotentPowers(tuple(tuple(z for b in row for z in b[k]) for row in blocks for k in (0, 1)))


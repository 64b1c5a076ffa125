"""Weight frames with a rank one top piece, and relative monodromy
filtrations of nilpotent operators preserving them.

A Frame packages a pure negative weight inner piece (nondegenerate
pairing of the right symmetry, unipotent integral automorphism) sitting
under a rank one weight zero quotient.  The ambient space is
H = inner + Q e, with e the final coordinate.  The operators of
interest restrict to infinitesimal isometries of the inner pairing,
send e into the inner piece, and induce zero on the quotient.

Conventions that everything downstream relies on:
  * increasing filtrations, stored by their jumps;
  * weight filtrations of a nilpotent operator are centered where the
    caller says (the closed kernel/image formula is computed centered
    at zero and shifted);
  * the relative filtration of an operator N is either a Filtration or
    None, never an exception, because nonexistence is an answer.

An operator is cleared to integer rows once at the public edge
(_membership): membership, its pencil level, P membership of n(e) and
the tilt of e are all read off those rows.  The axiom certificates
decide on cleared integer rows of their own: N S <= T is one
sparse product of N with S's rows and T's residuals; a graded piece
upper / lower is read off one integer echelon whose prefixes are the
induced levels, with no Subspace eliminated; and N^l is injective on
Gr_(c+l) iff N^l Gr_(c+l) has rank graded_dim(c + l) modulo level c-l-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import (
    InvariantViolation,
    MixedAmbient,
    NotInG,
    NotInGroup,
    NotNilpotent,
    NotUnipotent,
    PreconditionViolated,
    SpecFormatError,
)
from .qlinalg import (
    ONE,
    ZERO,
    Mat,
    Subspace,
    Vec,
    NilpotentPowers,
    ZLattice,
    _int_product,
    _kernel_ints,
    _rref_ints,
    _scaled_int_rows,
    _sparse_rows,
    det,
    frac,
    log_unipotent,
    mat,
    mat_from_json,
    mat_to_json,
    matmul,
    matscale,
    matvec,
    transpose,
    vec,
    zero_vec,
    zeros,
)


# ---------------------------------------------------------------------------
# filtrations


@dataclass(frozen=True)
class Filtration:
    """Increasing filtration of Q^n, canonical jump representation.

    jumps is a tuple of (index, Subspace) pairs with strictly increasing
    indices and strictly growing subspaces; below the first jump the
    filtration is zero, at and above an index it is the attached space.
    """

    ambient: int
    jumps: tuple

    @classmethod
    def from_spaces(cls, spaces: dict, ambient: int) -> "Filtration":
        items = sorted(spaces.items())
        prev = Subspace.zero(ambient)
        jumps = []
        for j, s in items:
            if s.ambient != ambient:
                raise MixedAmbient("filtration: ambient mismatch")
            if not s.contains_space(prev):
                raise InvariantViolation("filtration is not increasing")
            if s != prev:
                jumps.append((j, s))
                prev = s
        return cls(ambient, tuple(jumps))

    def at(self, j: int) -> Subspace:
        out = Subspace.zero(self.ambient)
        for idx, s in self.jumps:
            if idx <= j:
                out = s
            else:
                break
        return out

    def shift(self, m: int) -> "Filtration":
        """Shifted filtration, value at j equals the old value at j + m."""
        return Filtration(self.ambient, tuple((j - m, s) for j, s in self.jumps))

    @property
    def jump_indices(self) -> tuple:
        return tuple(j for j, _ in self.jumps)

    def graded_dim(self, j: int) -> int:
        return self.at(j).dim - self.at(j - 1).dim

    def is_exhaustive(self) -> bool:
        return bool(self.jumps) and self.jumps[-1][1].dim == self.ambient

    def graded_dims(self) -> dict:
        return {j: self.graded_dim(j) for j in self.jump_indices}

    @cached_property
    def _embedded_levels(self) -> dict:
        """The levels at the jumps and at 0 as the inner piece of a frame,
        one zero coordinate (e's) appended; built once per filtration."""
        levels = sorted(set(self.jump_indices) | {0})
        # a trailing zero coordinate changes no cleared row
        return {j: Subspace(self.ambient + 1, self.at(j)._cleared) for j in levels}


def weight_filtration(n_mat: Mat, center: int = 0) -> Filtration:
    """Monodromy weight filtration of a nilpotent operator.

    Uses the closed formula, centered at zero:
        W_k = sum over j >= max(0, -k) of Ker(N^(k+j+1)) meet Im(N^j)
    then shifts so the filtration is centered at `center`.
    """
    return _weight_filtration(NilpotentPowers(n_mat), center)


def _weight_filtration(powers: NilpotentPowers, center: int) -> Filtration:
    """weight_filtration of the operator whose powers are given."""
    d, amb = len(powers), powers.size
    # kernels and images do not see the scale of the integer powers
    kers = [Subspace.kernel(p) for p in powers.ints] + [Subspace.full(amb)]
    ims = [Subspace.image(p) for p in powers.ints]

    def level(k):
        out = Subspace.zero(amb)
        for j in range(max(0, -k), d):
            i = min(k + j + 1, d)
            if i <= 0:
                continue
            out = out.add(kers[i].intersect(ims[j]))
        return out

    spaces = {k: level(k) for k in range(-d, d)}
    spaces[d] = Subspace.full(amb)
    return Filtration.from_spaces(spaces, amb).shift(-center)


def _operator_rows(n_mat: Mat) -> list:
    """N as the sparse cleared integer rows of N^T: a row r times them
    is (N r)^T up to a scale that no span, membership or rank sees."""
    return _sparse_rows(_scaled_int_rows(transpose(n_mat))[0])


def _push(nt: list, rows: list, times: int = 1) -> list:
    """Dense integer rows spanning N^times span(rows), for sparse integer
    rows: the rows times nt, once per power, with no Fraction in between."""
    for _ in range(times - 1):
        rows = _sparse_rows(_int_product(rows, nt, len(nt)))
    return _int_product(rows, nt, len(nt))


def _maps_into(nt: list, source: Subspace, target: Subspace) -> bool:
    if target.dim == target.ambient:
        return True
    return not any(any(target._residual(row)) for row in _push(nt, [row for _, row in source._cleared[1]]))


def _shifts_by_two(nt: list, filt: Filtration) -> bool:
    """N W_j <= W_(j-2) for every j: W_j is zero below the first jump,
    and above the last the inclusion follows from the last jump's."""
    lo, hi = filt.jump_indices[0], filt.jump_indices[-1]
    return all(_maps_into(nt, filt.at(j), filt.at(j - 2)) for j in range(lo, hi + 1))


def _reduced(echelon: list, v: list) -> list:
    """v, consumed, reduced in order by echelon rows (pivot, pivot entry,
    sparse row), each zero at the pivots of the rows before it, and made
    primitive: zero at every pivot, and zero iff v lies in their span."""
    for p, a, row in echelon:
        f = v[p]
        if f:
            if a != 1:
                v = [a * x for x in v]
            for j, x in row:
                v[j] -= f * x
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _induces_weight(nt: list, cand: Filtration, lower: Subspace, upper: Subspace, c: int) -> bool:
    """Whether cand induces on upper / lower the weight filtration of
    N-bar centered at c, for an N that preserves lower and upper and
    shifts cand by -2 (so N-bar shifts the induced filtration already).

    One integer echelon holds lower's rows (in rref, so one _residual
    reduces by all of them), then, jump by jump, the rows of cand_j meet
    upper, each reduced in order by the rows before it and kept if
    nonzero.  So L_k = lower + (cand_k meet upper) is a prefix, graded
    dimensions are differences of prefix lengths, and appending stops at
    all of upper.  N^l : Gr_(c+l) -> Gr_(c-l) is an isomorphism iff the
    graded dimensions match and N^l of the rows between L_(c+l-1) and
    L_(c+l) has rank graded_dim(c + l) modulo L_(c-l-1), as N^l L_(c+l-1)
    lies in L_(c-l-1) already."""
    rows, ends, seen = [], [], set()  # rows past lower's; (j, len(rows)) per jump
    for j, s in cand.jumps:
        meet = s if upper.contains_space(s) else s.intersect(upper)
        for key, v in zip(meet._cleared[1], meet._int_rows()):
            if key not in seen:  # a row met at an earlier jump is in the prefix
                seen.add(key)
                v = _reduced(rows, lower._residual(v))
                if any(v):
                    row = [(i, x) for i, x in enumerate(v) if x]
                    rows.append((*row[0], row))
        ends.append((j, len(rows)))
        if lower.dim + len(rows) == upper.dim:
            break

    def end(k):  # the number of rows past lower's at level k
        return next((m for j, m in reversed(ends) if j <= k), 0)

    lo, hi = next(j for j, m in ends if m), ends[-1][0]
    for l in range(1, max(hi - c, c - lo) + 1):
        top = end(c + l) - end(c + l - 1)
        if top != end(c - l) - end(c - l - 1):
            return False
        floor = rows[: end(c - l - 1)]
        graded = [row for _, _, row in rows[end(c + l - 1) : end(c + l)]]
        if top and len(_rref_ints([_reduced(floor, lower._residual(v)) for v in _push(nt, graded, l)])) != top:
            return False
    return True


def is_relative_weight_filtration(n_mat: Mat, base: Filtration, cand: Filtration) -> bool:
    """Axioms for a monodromy filtration of n_mat relative to base
    (Steenbrink-Zucker, Variation of mixed Hodge structure I, 1985):
    n preserves base and shifts cand by -2, and on every graded piece
    upper / lower of base the induced filtration is the weight
    filtration of the induced operator, centered at the piece's index,
    as decided by _induces_weight.  A base that is not exhaustive leaves
    part of the space in no graded piece, so it raises
    PreconditionViolated rather than pass a check it never made."""
    amb = len(n_mat)
    if base.ambient != amb or cand.ambient != amb:
        raise MixedAmbient("relative filtration check: ambient mismatch")
    if not base.is_exhaustive():
        raise PreconditionViolated("relative filtration check: the base filtration is not exhaustive")
    if not cand.is_exhaustive():
        return False
    nt = _operator_rows(n_mat)
    if not all(_maps_into(nt, s, s) for _, s in base.jumps) or not _shifts_by_two(nt, cand):
        return False
    pieces = zip([Subspace.zero(amb)] + [s for _, s in base.jumps], base.jumps)
    return all(_induces_weight(nt, cand, lower, upper, w) for lower, (w, upper) in pieces)


def is_weight_filtration(n_mat: Mat, filt: Filtration, center: int) -> bool:
    """Direct axiom check, independent of the construction above: the
    one-piece case of is_relative_weight_filtration, whose base is
    everything at center.  False on a filtration of another ambient."""
    whole = Filtration(filt.ambient, ((center, Subspace.full(filt.ambient)),))
    return filt.ambient == len(n_mat) and is_relative_weight_filtration(n_mat, whole, filt)


# ---------------------------------------------------------------------------
# frames


def _integer(x, what: str) -> int:
    """An exactly integral spec entry as an int; int() alone would
    truncate 2.9 to 2."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    try:
        value = frac(x)
    except SpecFormatError:
        value = None
    if value is None or value.denominator != 1:
        raise SpecFormatError(f"{what} must be an integer, got {x!r}")
    return value.numerator


def _as_type_counts(data, what) -> tuple:
    try:
        items = sorted(tuple(_integer(x, what) for x in (p, q, m)) for (p, q), m in dict(data).items())
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"{what}: expected {{(p, q): multiplicity}}") from exc
    if any(m <= 0 for _, _, m in items):
        raise SpecFormatError(f"{what}: multiplicities must be positive")
    return tuple(items)


@dataclass(eq=False)
class Frame:
    """Ambient data every construction here is relative to.

    rank      rank of the inner piece (ambient dimension is rank + 1)
    weight    pure weight of the inner piece, negative
    gram      nondegenerate pairing on the inner piece,
              symmetric for even weight and alternating for odd
    gamma     unipotent automorphism of the inner piece, integral on
              the lattice and preserving gram
    lattice   full rank lattice in the ambient space containing e
    hodge     {(p, q): multiplicity} with p + q = weight, total = rank
    graded_types
              optional declared types of the graded pieces of the
              weight filtration of log(gamma); these are input data,
              consulted by the square-zero predicate rather than
              recomputed
    """

    rank: int
    weight: int
    gram: Mat
    gamma: Mat
    lattice: ZLattice = None
    hodge: dict = field(default_factory=dict)
    graded_types: dict = None

    def __post_init__(self):
        r = self.rank
        if r < 1:
            raise SpecFormatError("frame: inner rank must be positive")
        if self.weight >= 0:
            raise SpecFormatError("frame: inner weight must be negative")
        self.gram = mat(self.gram)
        self.gamma = mat(self.gamma)
        if any(len(m) != r or any(len(row) != r for row in m) for m in (self.gram, self.gamma)):
            raise SpecFormatError("frame: gram and gamma must be square of the inner rank")
        sign = -ONE if self.weight % 2 else ONE
        if transpose(self.gram) != matscale(sign, self.gram):
            raise SpecFormatError("frame: gram has the wrong symmetry for the weight")
        if det(self.gram) == 0:
            raise SpecFormatError("frame: gram is degenerate")
        if self.lattice is None:
            self.lattice = ZLattice.standard(r + 1)
        if self.lattice.ambient != r + 1 or self.lattice.rank != r + 1:
            raise SpecFormatError("frame: lattice must have full rank in the ambient space")
        if not self.lattice.contains(self.e_vector):
            raise SpecFormatError("frame: lattice must contain e")
        if matmul(matmul(transpose(self.gamma), self.gram), self.gamma) != self.gram:
            raise NotInGroup("frame: gamma does not preserve the pairing")
        self.log_gamma = log_unipotent(self.gamma)  # raises NotUnipotent when it is not
        inner = self.inner_lattice
        for b in inner.basis_vectors():
            if not inner.contains(matvec(self.gamma, b[:r]) + (ZERO,)):
                raise NotInGroup("frame: gamma does not preserve the inner lattice")
        self.hodge = _as_type_counts(self.hodge, "hodge numbers")
        if sum(m for _, _, m in self.hodge) != r:
            raise SpecFormatError("frame: hodge multiplicities must sum to the rank")
        if any(p + q != self.weight for p, q, _ in self.hodge):
            raise SpecFormatError("frame: hodge types must have p + q = weight")
        if any((q, p, m) not in self.hodge for p, q, m in self.hodge):
            raise SpecFormatError("frame: hodge numbers must have h^(p,q) = h^(q,p)")
        if self.graded_types is not None:
            self.graded_types = {
                _integer(w, "graded types"): _as_type_counts(d, "graded types")
                for w, d in dict(self.graded_types).items()
            }
            total = sum(m for d in self.graded_types.values() for _, _, m in d)
            if total != r:
                raise SpecFormatError("frame: graded type multiplicities must sum to the rank")

    # --- geometry of the ambient space ---

    @property
    def dim(self) -> int:
        return self.rank + 1

    @property
    def e_vector(self) -> Vec:
        return zero_vec(self.rank) + (ONE,)

    def embed_inner(self, v: Vec) -> Vec:
        v = vec(v)
        if len(v) != self.rank:
            raise MixedAmbient("embed_inner: wrong length")
        return v + (ZERO,)

    @cached_property
    def inner_space(self) -> Subspace:
        return Subspace(self.dim, Subspace.full(self.rank)._cleared)

    @cached_property
    def inner_lattice(self) -> ZLattice:
        return self.lattice.intersect_subspace(self.inner_space)

    @cached_property
    def log_powers(self) -> NilpotentPowers:
        """The powers of log(gamma), for every series in it."""
        return NilpotentPowers(self.log_gamma)

    @cached_property
    def pencil_weight_filtration(self) -> Filtration:
        """W(log gamma) centered at the frame weight.  W(lam N) = W(N) for
        every lam != 0, so this one copy serves the whole pencil."""
        return _weight_filtration(self.log_powers, self.weight)

    @cached_property
    def base_filtration(self) -> Filtration:
        """The two step weight filtration of the ambient space."""
        return Filtration.from_spaces(
            {self.weight: self.inner_space, 0: Subspace.full(self.dim)}, self.dim
        )

    # --- operators ---

    def assemble(self, inner_op: Mat, e_image: Vec) -> Mat:
        """Ambient operator from an inner block and the image of e."""
        inner_op = mat(inner_op)
        e_image = vec(e_image)
        if len(inner_op) != self.rank or len(e_image) != self.rank:
            raise MixedAmbient("assemble: inner data of the wrong size")
        rows = [inner_op[i] + (e_image[i] or ZERO,) for i in range(self.rank)]
        rows.append(zero_vec(self.dim))
        return tuple(rows)

    def pencil(self, lam, e_image: Vec) -> Mat:
        """Operator with inner block lam * log(gamma)."""
        return self.assemble(matscale(lam, self.log_gamma), e_image)

    def restriction(self, n_mat: Mat) -> Mat:
        return tuple(row[: self.rank] for row in n_mat[: self.rank])

    def e_image(self, n_mat: Mat) -> Vec:
        return tuple(n_mat[i][self.rank] for i in range(self.rank))

    @cached_property
    def _sparse_gram(self) -> list:
        """The gram's cleared integer rows, sparse, for the isometry test."""
        return _sparse_rows(_scaled_int_rows(self.gram)[0])

    @cached_property
    def _log_gamma_ints(self) -> tuple:
        """log(gamma) = L / s cleared: s, and the (i, j, L[i][j]) triples
        with L[i][j] != 0."""
        ints, den = _scaled_int_rows(self.log_gamma)
        return den, tuple((i, j, x) for i, row in enumerate(ints) for j, x in enumerate(row) if x)

    def _level(self, ints: list, den: int):
        """lam with the inner block A / den of cleared rows equal to lam * L
        / s, else None: A[i][j] L[i0][j0] = A[i0][j0] L[i][j] on the support
        of L, and A has as many nonzero entries as lam L."""
        r = self.rank
        nonzero = r * r - sum(row[:r].count(0) for row in ints[:r])
        scale, support = self._log_gamma_ints
        if not support:
            return None if nonzero else ZERO
        i0, j0, x0 = support[0]
        a0 = ints[i0][j0]
        if nonzero != (len(support) if a0 else 0) or any(ints[i][j] * x0 != a0 * x for i, j, x in support):
            return None
        return Fraction(a0 * scale, den * x0)

    def block_multiple(self, block: Mat):
        """lam with block, or the inner block of an operator, equal to
        lam * log(gamma), else None."""
        return self._level(*_scaled_int_rows(block))

    restriction_multiple = block_multiple

    @cached_property
    def _pencil_pq(self) -> tuple:
        """pq_spaces of log(gamma), which serves every lam * log(gamma) with
        lam != 0: such a multiple has the same image, kernel and weight
        filtration."""
        return _pq_spaces(self, self.pencil_weight_filtration, self.log_gamma)

    @cached_property
    def _period_forms(self) -> dict:
        """Memo of the classifying layer's realified forms, by weight and twist."""
        return {}

    @cached_property
    def _zero_block_filtration(self) -> Filtration:
        """W of the zero inner block centered at the frame weight: one jump."""
        return Filtration(self.rank, ((self.weight, Subspace.full(self.rank)),))

    @cached_property
    def _zero_block_pq(self) -> tuple:
        """pq_spaces of the zero inner block, the one at pencil level 0."""
        return _pq_spaces(self, self._zero_block_filtration, zeros(self.rank, self.rank))


def _membership(frame: Frame, n_mat: Mat) -> tuple:
    """check_in_g on the operator cleared once; returns its integer rows
    (over one common scale) and its pencil level.  With g the gram
    (g^T = s g) and a the inner block, a^T g + g a = s M^T + M for the
    one product M = g a, so a is an infinitesimal isometry iff
    M = -s M^T, which the common scale of the entries does not change."""
    n_mat = mat(n_mat)
    if len(n_mat) != frame.dim or (n_mat and len(n_mat[0]) != frame.dim):
        raise MixedAmbient("operator has the wrong ambient size")
    ints, den = _scaled_int_rows(n_mat)
    r = frame.rank
    if any(ints[r]):
        raise NotInG("operator does not kill the weight zero quotient")
    m = _int_product(frame._sparse_gram, _sparse_rows(row[:r] for row in ints[:r]), r)
    sign = 1 if frame.weight % 2 else -1  # -s
    if m != [[sign * x for x in col] for col in zip(*m)]:
        raise NotInG("inner block is not an infinitesimal isometry")
    return ints, frame._level(ints, den)


def check_in_g(frame: Frame, n_mat: Mat) -> None:
    """Membership in the operators compatible with the frame: the inner
    block kills the pairing infinitesimally, e goes into the inner
    piece, the quotient action is zero.  Raises NotInG."""
    _membership(frame, n_mat)


# ---------------------------------------------------------------------------
# the relative construction


def _inner_weight_filtration(frame: Frame, block: Mat, lam) -> Filtration:
    """Weight filtration of a nilpotent inner block at pencil level lam
    (None off the pencil) centered at the frame weight: the frame's
    cached copy for lam != 0 and for the zero block (lam = 0), and
    computed directly for every other block."""
    if lam is not None:
        return frame.pencil_weight_filtration if lam else frame._zero_block_filtration
    try:
        return weight_filtration(block, center=frame.weight)
    except NotNilpotent as exc:
        raise NotNilpotent("inner block is not nilpotent") from exc


def pq_spaces(frame: Frame, inner_op: Mat):
    """The existence space P and the torus direction space Q of an inner
    nilpotent block, and whether the two published descriptions of them
    agree (they must; the flag is carried into reports as evidence, not
    as a branch).

    P = image + level(-2) of the weight filtration centered at the frame
    weight; Q = kernel meet level(-2).  A nonzero multiple of log(gamma)
    reads the frame's cached copy, since lam * N and N have the same
    image, kernel and weight filtration.
    """
    return _block_pq(frame, inner_op, frame.block_multiple(inner_op))


def _block_pq(frame: Frame, block: Mat, lam):
    """pq_spaces of an inner block at pencil level lam (None off the pencil)."""
    if lam is not None:
        return frame._pencil_pq if lam else frame._zero_block_pq
    return _pq_spaces(frame, _inner_weight_filtration(frame, block, lam), block)


def _pq_spaces(frame: Frame, wf: Filtration, inner_op: Mat):
    """pq_spaces of inner_op, whose weight filtration is wf."""
    w2 = wf.at(-2)
    img = Subspace.image(inner_op)
    ker = Subspace.kernel(inner_op)
    p = img.add(w2)
    q = ker.intersect(w2)
    if frame.weight == -1:
        # the weight -1 chapter of the theory states P and Q with the
        # level term dropped resp. replaced by the image; both must match
        agree = (p == img) and (q == ker.intersect(img))
    else:
        # below weight -1 the kernel sits entirely inside level(-2)
        agree = q == ker
    if not agree:
        raise InvariantViolation("the two descriptions of P, Q disagree")
    return p, q, agree


def relative_filtration(frame: Frame, n_mat: Mat):
    """Monodromy filtration of n_mat relative to the frame's two step
    weight filtration, or None when it does not exist.

    The inner part is forced: the weight filtration of the inner block
    centered at the frame weight.  Existence reduces to the image of e
    lying in P; when it does, a correction a with
    n(e) - inner(a) in level(-2) tilts e into every level >= 0.

    On the cleared rows, residuals modulo level(-2) are reductions times
    one constant, so [residual(c_k) | residual(n(e))] over the inner
    block's columns c_k has the rref of the reduced system, and its
    kernel vector at the last column is the tilted e = (-a, 1) up to scale.
    """
    return _relative_filtration(frame, n_mat, *_membership(frame, n_mat))


def _relative_filtration(frame: Frame, n_mat: Mat, ints: list, lam):
    """relative_filtration on the operator's membership step (ints, lam)."""
    r = frame.rank
    wf = _inner_weight_filtration(frame, frame.restriction(n_mat), lam)
    w2 = wf.at(-2)
    work = [list(row) for row in zip(*map(w2._residual, zip(*ints[:r])))]
    pivots = _rref_ints(work)
    if r in pivots:
        return None
    tilted = _kernel_ints(work, pivots, r + 1)[-1][1]
    spaces = {
        j: s if j < 0 else Subspace._of_int_rows(s._int_rows() + [tilted[:]], frame.dim)
        for j, s in wf._embedded_levels.items()
    }
    return Filtration.from_spaces(spaces, frame.dim)


def relative_filtration_exists(frame: Frame, n_mat: Mat) -> bool:
    """Whether n(e) lies in P, read off the operator's cleared e-column."""
    return _relative_filtration_exists(frame, n_mat, *_membership(frame, n_mat))


def _relative_filtration_exists(frame: Frame, n_mat: Mat, ints: list, lam) -> bool:
    """relative_filtration_exists on the operator's membership step."""
    p, _, _ = _block_pq(frame, frame.restriction(n_mat), lam)
    return not any(p._residual([row[frame.rank] for row in ints[:frame.rank]]))


# ---------------------------------------------------------------------------
# shared JSON format


def frame_to_json(frame: Frame) -> dict:
    """Frame as the shared JSON spec format; entries are exact strings."""
    out = {
        "rank": frame.rank,
        "weight": frame.weight,
        "gram": mat_to_json(frame.gram),
        "gamma": mat_to_json(frame.gamma),
        "hodge_numbers": [[p, q, m] for p, q, m in frame.hodge],
        "lattice": mat_to_json(frame.lattice.basis_vectors()),
    }
    if frame.graded_types is not None:
        out["graded_types"] = [
            [w, p, q, m]
            for w in sorted(frame.graded_types)
            for p, q, m in frame.graded_types[w]
        ]
    return out


def frame_from_json(data) -> Frame:
    if not isinstance(data, dict):
        raise SpecFormatError("frame: expected an object")
    try:
        rank = _integer(data["rank"], "frame: rank")
        weight = _integer(data["weight"], "frame: weight")
        gram = mat_from_json(data["gram"])
        gamma = mat_from_json(data["gamma"])
        hodge = {}
        for row in data["hodge_numbers"]:
            p, q, m = (_integer(x, "frame: hodge numbers") for x in row)
            hodge[(p, q)] = m
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"frame: missing or malformed field ({exc})") from exc
    lattice = None
    if "lattice" in data:
        vectors = mat_from_json(data["lattice"])
        if any(len(v) != rank + 1 for v in vectors):
            raise SpecFormatError("frame: lattice vectors must have length rank + 1")
        lattice = ZLattice.from_vectors(vectors, rank + 1)
    graded = None
    if "graded_types" in data:
        graded = {}
        try:
            for row in data["graded_types"]:
                w, p, q, m = (_integer(x, "frame: graded types") for x in row)
                graded.setdefault(w, {})[(p, q)] = m
        except (TypeError, ValueError) as exc:
            raise SpecFormatError("frame: malformed graded type row") from exc
    try:
        return Frame(
            rank=rank, weight=weight, gram=gram, gamma=gamma,
            lattice=lattice, hodge=hodge, graded_types=graded,
        )
    # a spec gamma outside the group is bad input, not a broken invariant
    except NotInGroup as exc:
        raise SpecFormatError(str(exc)) from exc
    except NotUnipotent as exc:
        raise SpecFormatError(f"frame: gamma is not unipotent ({exc})") from exc

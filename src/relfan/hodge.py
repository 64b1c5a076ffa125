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

An inner nilpotent block is analysed once (_analysis): its weight
filtration W, P = im N + W_-2 and Q = ker N meet W_-2 are read off one
set of kernels and images of its powers, which NilpotentPowers holds.
The frame keeps the analysis of log(gamma), which serves every nonzero
pencil level, and that of the zero block, pencil level 0.

An operator is cleared once, in one pass, to sparse integer rows over
one scale at the public edge (_membership): membership, its pencil
level, P membership of n(e), the tilt of e and the ray exponent are read
off those rows.  The frame keeps the last operator that passed in a
one-slot memo, so check_in_g, existence and the construction on one
operator clear it once between them.  Only an operator that cannot
change is kept, a tuple of tuples, and the rows are tuples; like the
frame's other caches, the slot assumes one thread per frame.  The axiom
certificate clears its operator itself, and decides on that clear:
N S <= T is one sparse product of N with S's rows and T's residuals; a
graded piece upper / lower is read off one integer echelon whose
prefixes are the induced levels, with no Subspace eliminated; and N^l
is injective on Gr_(c+l) iff N^l Gr_(c+l) has rank graded_dim(c + l)
modulo level c-l-1.
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
    _sparse_clear,
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
    kers, ims = powers.kernels, powers.images

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


def _operator_rows(rows: tuple) -> list:
    """N^T from the sparse cleared rows of N: a row r times them is
    (N r)^T up to a scale that no span, membership or rank sees."""
    nt = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            nt[j].append((i, x))
    return nt


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
    PreconditionViolated rather than pass a check it never made.  The
    operator is cleared as _membership clears it, with the same errors."""
    rows, _ = _sparse_clear(n_mat, base.ambient)
    if cand.ambient != base.ambient:
        raise MixedAmbient("relative filtration check: ambient mismatch")
    if not base.is_exhaustive():
        raise PreconditionViolated("relative filtration check: the base filtration is not exhaustive")
    if not cand.is_exhaustive():
        return False
    nt = _operator_rows(rows)
    if not all(_maps_into(nt, s, s) for _, s in base.jumps) or not _shifts_by_two(nt, cand):
        return False
    pieces = zip([Subspace.zero(base.ambient)] + [s for _, s in base.jumps], base.jumps)
    return all(_induces_weight(nt, cand, lower, upper, w) for lower, (w, upper) in pieces)


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
        if not all(inner.contains(matvec(self.gamma, b)) for b in inner.basis_vectors()):
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

    @cached_property
    def inner_space(self) -> Subspace:
        return Subspace(self.dim, Subspace.full(self.rank)._cleared)

    @cached_property
    def inner_lattice(self) -> ZLattice:
        """The lattice sliced to the inner piece, in inner coordinates.  e's
        coordinate is zero on the meet, so dropping it keeps the Hermite
        basis canonical."""
        meet = self.lattice.intersect_subspace(self.inner_space)
        return ZLattice(self.rank, tuple(row[: self.rank] for row in meet.rows), meet.denom)

    @cached_property
    def log_powers(self) -> NilpotentPowers:
        """The powers of log(gamma), for every series in it."""
        return NilpotentPowers(self.log_gamma)

    @cached_property
    def pencil_analysis(self) -> tuple:
        """_analysis of log(gamma).  lam N has the kernel, image and weight
        filtration of N for every lam != 0, so this serves the pencil."""
        return _analysis(self.log_powers, self.weight)

    @cached_property
    def zero_analysis(self) -> tuple:
        """_analysis of the zero inner block, the one at pencil level 0."""
        return _analysis(NilpotentPowers(zeros(self.rank, self.rank)), self.weight)

    @property
    def pencil_weight_filtration(self) -> Filtration:
        """W(log gamma) centered at the frame weight."""
        return self.pencil_analysis[0]

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
        return _sparse_clear(self.gram, self.rank)[0]

    @cached_property
    def _log_gamma_ints(self) -> tuple:
        """log(gamma) = L / s cleared: s, L's support in row order, L there."""
        rows, den = _sparse_clear(self.log_gamma, self.rank)
        return den, [(i, j) for i, row in enumerate(rows) for j, _ in row], [x for row in rows for _, x in row]

    def _level(self, rows: tuple, den: int):
        """lam with the inner block A / den of sparse cleared rows equal to
        lam * L / s, else None: A and L share a support and are proportional."""
        block = [((i, j), a) for i, row in enumerate(rows[: self.rank]) for j, a in row if j < self.rank]
        if not block:
            return ZERO
        scale, support, values = self._log_gamma_ints
        (_, a0), x0 = block[0], values[0] if values else 0
        if [at for at, _ in block] != support or any(a * x0 != a0 * x for (_, a), x in zip(block, values)):
            return None
        return Fraction(a0 * scale, den * x0)

    def block_multiple(self, block: Mat):
        """lam with block, or the inner block of an operator, equal to
        lam * log(gamma), else None."""
        return self._level(*_sparse_clear(block, self.rank if len(block) == self.rank else self.dim))

    restriction_multiple = block_multiple

    @cached_property
    def _period_forms(self) -> dict:
        """Memo of the classifying layer's realified forms, by weight and twist."""
        return {}

    @cached_property
    def _last_member(self) -> tuple:
        """One-slot memo of _membership: the last operator that passed it
        and its result, replaced on the next pass.  A fresh object, which
        no caller holds, stands in before the first."""
        return object(), None


def _membership(frame: Frame, n_mat: Mat) -> tuple:
    """check_in_g on the operator's one-pass clear; returns its sparse
    integer rows, its pencil level and their scale.  With g the gram
    (g^T = s g) and a the inner block, a^T g + g a = s M^T + M for
    M = g a, so a is an infinitesimal isometry iff M = -s M^T, which the
    scale does not change; M is formed and compared on its nonzeros.

    The frame keeps the last operator that passed, when it is a tuple of
    tuples and so cannot change, and a later call on that same object
    returns its result with no clear: the public rmf calls on one
    operator then clear it once between them.  The rows are tuples, so no
    consumer can change the shared result.  An operator that fails is
    never kept, nor one in lists; like the frame's other caches, the slot
    assumes one thread per frame."""
    last, out = frame._last_member
    if last is n_mat:
        return out
    rows, den = _sparse_clear(n_mat, frame.dim)
    r = frame.rank
    if rows[r]:
        raise NotInG("operator does not kill the weight zero quotient")
    m = {}
    for i, grow in enumerate(frame._sparse_gram):
        for k, x in grow:
            for j, y in rows[k]:
                if j < r:
                    m[i, j] = m.get((i, j), 0) + x * y
    sign = 1 if frame.weight % 2 else -1  # -s
    if any(m.get((j, i), 0) != sign * x for (i, j), x in m.items()):
        raise NotInG("inner block is not an infinitesimal isometry")
    out = rows, frame._level(rows, den), den
    if type(n_mat) is tuple and all(type(row) is tuple for row in n_mat):
        frame._last_member = n_mat, out
    return out


def check_in_g(frame: Frame, n_mat: Mat) -> None:
    """Membership in the operators compatible with the frame: the inner
    block kills the pairing infinitesimally, e goes into the inner
    piece, the quotient action is zero.  Raises NotInG."""
    _membership(frame, n_mat)


# ---------------------------------------------------------------------------
# the relative construction


def _analysis(powers: NilpotentPowers, weight: int) -> tuple:
    """(W, P, Q) of an inner nilpotent block with the given powers: W its
    weight filtration centered at the frame weight, P = im N + W_-2 and
    Q = ker N meet W_-2 (Steenbrink-Zucker, Variation of mixed Hodge
    structure I, 1985), all read off the powers' one set of kernels and
    images.  Raises InvariantViolation when the two published
    descriptions of P and Q disagree."""
    wf = _weight_filtration(powers, weight)
    w2, ker, img = wf.at(-2), powers.kernels[1], powers.images[1]
    p, q = img.add(w2), ker.intersect(w2)
    # at weight -1 the theory also states P and Q with the level term
    # dropped resp. replaced by the image; below it ker N lies in W_-2
    agree = (p == img and q == ker.intersect(img)) if weight == -1 else q == ker
    if not agree:
        raise InvariantViolation("the two descriptions of P, Q disagree")
    return wf, p, q


def _block_analysis(frame: Frame, block: Mat, lam) -> tuple:
    """_analysis of an inner block at pencil level lam (None off the
    pencil): the frame's copy on the pencil, computed for any other block."""
    if lam is not None:
        return frame.pencil_analysis if lam else frame.zero_analysis
    try:
        return _analysis(NilpotentPowers(mat(block)), frame.weight)
    except NotNilpotent as exc:
        raise NotNilpotent("inner block is not nilpotent") from exc


def pq_spaces(frame: Frame, inner_op: Mat):
    """The existence space P and the torus direction space Q of an inner
    nilpotent block, read off its _analysis, and whether the two published
    descriptions of them agree.  The flag echoes an invariant: it is True
    whenever this returns, because _analysis raises InvariantViolation
    when the descriptions disagree, so a report that carries it
    (pq-definitions-agree) passes or is not written, and the run exits 3."""
    _, p, q = _block_analysis(frame, inner_op, frame.block_multiple(inner_op))
    return p, q, True


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
    rows, lam, _ = _membership(frame, n_mat)
    return _relative_filtration(frame, _block_analysis(frame, frame.restriction(n_mat), lam)[0], rows)


def _relative_filtration(frame: Frame, wf: Filtration, rows: tuple):
    """relative_filtration of the cleared rows whose inner block has
    weight filtration wf; a zero column reduces to 0."""
    r = frame.rank
    w2 = wf.at(-2)
    cols = [[0] * r for _ in range(r + 1)]
    for i, row in enumerate(rows[:r]):
        for j, x in row:
            cols[j][i] = x
    work = [list(row) for row in zip(*(w2._residual(c) if any(c) else c for c in cols))]
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
    rows, lam, _ = _membership(frame, n_mat)
    return _relative_filtration_exists(frame, _block_analysis(frame, frame.restriction(n_mat), lam)[1], rows)


def _relative_filtration_exists(frame: Frame, p: Subspace, rows: tuple) -> bool:
    """Whether the cleared rows' e-column, the last, lies in P."""
    return not any(p._residual([row[-1][1] if row and row[-1][0] == frame.rank else 0 for row in rows[: frame.rank]]))


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

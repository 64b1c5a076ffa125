"""Lattice periodic fans of commuting nilpotent operators.

The central object is CellFan: for a frame whose distinguished inner
block is N = log(gamma), the compatible operators with inner block a
nonnegative multiple of N form a pencil, and the fan's cells are cones
over translated cubes in the normalized slice.  A cell is indexed by a
coset key x (coordinates in P/Q, where P is the existence space of the
relative filtration and Q the kernel directions inside it) and an
integer vector n (the cube position, one coordinate per lattice
direction of Q).  Cells for every rational x and integral n together
form a fan on which the relative filtration is constant cell by cell,
and the whole picture is stable under the extension automorphisms.

Pencil cones are computed in the pencil chart and only lifted.  The
chart of a coset, grid(key), sends (level t, cube coordinates c) to the
flattened pencil(t, t b + sum c_j d_j) for the coset's base point b of
P and the cube directions d_1, ..., d_k, a linear map into operator
space, injective when log(gamma) is nonzero.  A cell is the cone over
the box [n, n + 1] / a at level one, a = denominator(key), the lcm of
the key's denominators.  _place inverts the chart, reading a member of
P off its entries at P's pivots: an operator on the positive pencil
goes to (level, coset key, cube coordinates).  The chart of a lattice
L, lattice_grid(L), sends (t, c) to pencil(t, sum c_j b_j) over a basis
b of L: its level one grid points are the rays of the ray fan over L,
and its unit boxes, for the image lattice, the cube cells.

Every window is the GridFace symbols of one ChartGrid (grid.py), the
one owner of boxes, their cuts and their lifts, and is decided there;
only corner rays and witnesses are lifted.  With log(gamma) = 0 the
cell fan is blocked unless P = 0, and then every chart is collapsed,
with the origin as its window.  The relations are read in the zero
key's chart: the cube cells align by their change of basis, and a Neron
ray is placed there.  Double description runs only in operator space
for cones off the positive pencil (_admissible) and in ChartGrid.cut
over three or more points (subdivision of a cone of three or more
generators, the witness of a misaligned cube), and a CLI run on a
fixture reaches none of them.  Conjugation is an identity of chart
maps, read once per coset key off g M g^-1 = [[G A G^-1, G h - G A G^-1
s], [0, 0]] for g = [[G, s], [0, 1]], G = exp(p log gamma) and M = [[A,
h], [0, 0]], with no inverse.

Also here: the integral exponent of a ray, read off one vector of the
frame lattice with no exponential formed, the coarser comparison fans
(rays over the inner image lattice, rays over the torus lattice, unit
cube cells, rays over the connected Neron lattice), the square zero plus
pure type predicate gating the cube fan, and deterministic corpora of
admissible cones for completeness sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, lcm, prod

from .cones import Cone
from .errors import (
    NotSquareZeroPure,
    InvariantViolation,
    MissingHodgeData,
    NotCommutative,
    NotInGroup,
    PreconditionViolated,
)
from .grid import ChartGrid, GridFace, box
from .hodge import (
    Frame,
    _membership,
    pq_spaces,
    relative_filtration_exists,
)
from .qlinalg import (
    ONE,
    ZERO,
    Mat,
    _scaled_int_rows,
    _to_fractions,
    Subspace,
    Vec,
    ZLattice,
    hermite_transform,
    identity,
    inverse,
    is_nilpotent,
    is_zero_mat,
    is_zero_vec,
    linear_map,
    mat,
    matmul,
    matpow,
    matvec,
    transpose,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)


def flatten(m: Mat) -> Vec:
    return tuple(x for row in m for x in row)


def unflatten(v: Vec, dim: int) -> Mat:
    return tuple(tuple(v[i * dim: (i + 1) * dim]) for i in range(dim))


def combine(coeffs, rows, n: int) -> Vec:
    """sum of coeffs[i] * rows[i], a vector of Q^n."""
    return matvec(transpose(rows), vec(coeffs)) if rows else zero_vec(n)


@dataclass(eq=False)
class CellFan:
    """The relatively complete fan of a frame's distinguished pencil."""

    frame: Frame
    _grids: dict = field(default_factory=dict, init=False, repr=False)
    _gamma_powers: dict = field(default_factory=dict, init=False, repr=False)

    # --- derived geometry ---

    @cached_property
    def ambient(self) -> int:
        return self.frame.dim ** 2

    @property
    def inner_lattice(self) -> ZLattice:
        return self.frame.inner_lattice

    @property
    def kernel_space(self) -> Subspace:
        return self.frame.log_powers.kernels[1]

    @property
    def p_space(self) -> Subspace:
        return self.frame.pencil_analysis[1]

    @property
    def q_space(self) -> Subspace:
        return self.frame.pencil_analysis[2]

    @cached_property
    def p_lattice(self) -> ZLattice:
        return self.inner_lattice.intersect_subspace(self.p_space)

    @cached_property
    def q_lattice(self) -> ZLattice:
        return self.inner_lattice.intersect_subspace(self.q_space)

    @cached_property
    def _adapted(self):
        """Basis of the P lattice whose first block is the Q lattice's own
        Hermite basis, so cube_basis == q_lattice.basis_vectors();
        coordinates over it split a member of P into cube coordinates and
        a canonical coset key.  With C the Q basis in P basis coordinates,
        the Hermite transform U . C^T = H has H = [I; 0] exactly when Q
        is saturated in P, and then C^T is the first block of columns of
        U^-1, so the rows of U^-T complete C to a unimodular matrix."""
        full = self.p_lattice.basis_vectors()
        sub = self.q_lattice.basis_vectors()
        if not sub:
            return tuple(full), ()
        m = len(sub)
        h, u = hermite_transform(transpose([self.p_lattice.coords(v) for v in sub]))
        if h[:m] != identity(m):
            raise InvariantViolation("torus lattice is not saturated in the existence lattice")
        adapted = matmul(inverse(transpose(mat(u))), mat(full))
        return tuple(adapted[m:]), tuple(adapted[:m])

    @cached_property
    def _e_lift(self):
        """x0 in the frame lattice whose e-coordinate generates those of
        the lattice (the Hermite transform's first row takes the gcd of the
        basis' e-entries), and coordinates over the inner lattice's basis."""
        lattice = self.frame.lattice
        _, u = hermite_transform([[row[-1]] for row in lattice.rows])
        x0 = combine(u[0], lattice.basis_vectors(), self.frame.dim)
        return x0, linear_map(inverse(transpose(self.inner_lattice.basis_vectors())))

    @property
    def section_basis(self) -> tuple:
        return self._adapted[0]

    @property
    def cube_basis(self) -> tuple:
        return self._adapted[1]

    @property
    def cube_rank(self) -> int:
        return len(self.cube_basis)

    @property
    def key_rank(self) -> int:
        return len(self.section_basis)

    @cached_property
    def _pivot_coords(self):
        """P's pivots, and the map from a member's entries there to its
        coordinates over the adapted basis, cube block first: P's basis is
        in rref, so that map is the inverse of the adapted basis there."""
        pivots = self.p_space._pivots()
        rows = self.cube_basis + self.section_basis
        return pivots, linear_map(inverse([[r[p] for r in rows] for p in pivots]))

    def _split(self, v: Vec):
        """Cube coordinates and coset key of a member of P."""
        if not self.p_space.contains(v):
            return None
        pivots, coords = self._pivot_coords
        c = coords(tuple(v[p] for p in pivots))
        return tuple(c[:self.cube_rank]), tuple(c[self.cube_rank:])

    @property
    def blocked(self):
        """Why the cell fan is undefined, or None: with log(gamma) = 0 the
        pencil level is invisible, and once P is nonzero the cells collapse
        into cones that do not form a fan."""
        if is_zero_mat(self.frame.log_gamma) and self.p_space.dim:
            return "log(gamma) is zero and P is not, so the cells do not form a fan"
        return None

    def zero_key(self) -> tuple:
        return (ZERO,) * self.key_rank

    def section(self, key) -> Vec:
        key = vec(key)
        if len(key) != self.key_rank:
            raise PreconditionViolated("coset key has the wrong length")
        return combine(key, self.section_basis, self.frame.rank)

    def denominator(self, key) -> int:
        """Order of the coset in P/Q relative to the image of the P
        lattice, the least a >= 1 with a section(key) in P lattice + Q;
        cube side lengths are its reciprocal.  It is the lcm of the key's
        denominators.  The adapted basis is a Z-basis of the P lattice,
        and its cube block spans the Q lattice, which is P lattice meet Q
        (Q lies in P).  So P lattice + Q = Q + sum Z s_i over the section
        basis s_i, a direct sum since the s_i are independent modulo Q,
        and a section(key) = sum a key_i s_i lies in it iff every a key_i
        is an integer."""
        key = vec(key)
        if len(key) != self.key_rank:
            raise PreconditionViolated("coset key has the wrong length")
        return lcm(*(x.denominator for x in key))

    # --- the pencil chart ---

    def grid(self, key=None) -> ChartGrid:
        """The box grid of one coset in its chart, kept per key: (level t,
        cube coordinates c) -> flattened pencil(t, t section(key) + sum
        c_j cube_basis_j)."""
        key = self.zero_key() if key is None else vec(key)
        if key not in self._grids:
            base = self.section(key)
            columns = [flatten(self.frame.pencil(1, base))]
            columns += [flatten(self.frame.pencil(0, d)) for d in self.cube_basis]
            self._grids[key] = ChartGrid(columns, self.denominator(key), self.ambient)
        return self._grids[key]

    def lattice_grid(self, lattice: ZLattice) -> ChartGrid:
        """Unit boxes over a lattice of the inner piece, in the chart with
        base point zero: (level t, coordinates c) -> flattened pencil(t,
        sum c_j b_j) over the lattice basis b.  Its grid point v at level
        one is the ray of pencil(1, sum v_j b_j)."""
        columns = [flatten(self.frame.pencil(1, zero_vec(self.frame.rank)))]
        columns += [flatten(self.frame.pencil(0, d)) for d in lattice.basis_vectors()]
        return ChartGrid(columns, 1, self.ambient)

    @cached_property
    def cube_grid(self) -> ChartGrid:
        """The grid of the cube fan: unit boxes over the image lattice."""
        return self.lattice_grid(image_lattice(self))

    def _place(self, lam, h: Vec):
        """Chart coordinates (level, coset key, cube coordinates) of an
        operator at pencil level lam (None off the pencil) whose image of e
        is h, or None when the level is not positive or h / lam leaves P."""
        if lam is None or lam <= 0:
            return None
        split = self._split(vscale(ONE / lam, h))
        return None if split is None else (lam, split[1], split[0])

    # --- cells ---

    def cell(self, key, n) -> Cone:
        return self.grid(key).cone(GridFace(self._cube_index(n), (True,) * self.cube_rank))

    def _cube_index(self, n) -> tuple:
        n = tuple(int(x) for x in n)
        if len(n) != self.cube_rank:
            raise PreconditionViolated("cube index has the wrong length")
        return n

    def window(self, bound: int, key=None) -> tuple:
        """The cells of one coset with cube offsets at most bound, closed
        under faces: if log(gamma) != 0, the (4 bound + 3)^cube_rank + 1
        GridFace symbols that grid(key).cone lifts, else the origin; see
        ChartGrid.window."""
        return self.grid(key).window(bound)

    # --- the extension automorphisms ---

    def _shift(self, shift) -> Vec:
        """The shift of e, refused unless it is in the inner lattice."""
        shift = vec(shift)
        if len(shift) != self.frame.rank:
            raise NotInGroup("shift has the wrong length")
        if not self.inner_lattice.contains(shift):
            raise NotInGroup("shift is not in the inner lattice")
        return shift

    def conjugate_cell(self, power: int, shift, index):
        """Image index of a cell under conjugation by the automorphism
        gamma^power followed by the lattice shift of e.  The fan is
        stable, so the image of a cell is a cell: box n of coset key goes
        to box n + steps of the new key, both from conjugate_key."""
        key, n = vec(index[0]), self._cube_index(index[1])
        new_key, steps = self.conjugate_key(power, shift, key)
        return new_key, tuple(ni + s for ni, s in zip(n, steps))

    def _gamma_power(self, power: int):
        """(exp(power N), whether it commutes with N and fixes the cube basis), N = log gamma."""
        if power not in self._gamma_powers:
            g, n = self.frame.log_powers.exp(power), self.frame.log_gamma
            fixes = matmul(g, n) == matmul(n, g) and all(matvec(g, d) == d for d in self.cube_basis)
            self._gamma_powers[power] = g, fixes
        return self._gamma_powers[power]

    def conjugate_key(self, power: int, shift, key):
        """The coset-level step of conjugate_cell, independent of the cube
        index: (new key, integer steps).  By g M g^-1 = [[G A G^-1, G h -
        G A G^-1 s], [0, 0]], the chart's base pencil(1, b) goes to
        pencil(1, G b - N s) when G N = N G, and then box n of key to box
        n + steps of the new key iff also G d = d for every cube direction
        d.  G and both tests depend only on the power (_gamma_power)."""
        key = vec(key)
        shift = self._shift(shift)
        g, fixes = self._gamma_power(power)
        split = self._split(vsub(matvec(g, self.section(key)), matvec(self.frame.log_gamma, shift)))
        if split is None:
            raise InvariantViolation("conjugated section left the existence space")
        cube, new_key = split
        a = self.denominator(key)
        if self.denominator(new_key) != a:
            raise InvariantViolation("conjugation changed the coset order")
        steps = [a * c for c in cube]
        if any(s.denominator != 1 for s in steps):
            raise InvariantViolation("conjugation moved a cell off the grid")
        if not fixes:
            raise InvariantViolation("conjugated cell is not the indexed cell")
        return new_key, tuple(int(s) for s in steps)


# ---------------------------------------------------------------------------
# admissibility and subdivision


def _pencil_commute(fan: CellFan, pencil) -> bool:
    """Whether pencil operators, given as (level, image of e) pairs,
    commute pairwise, in O(n) kernel tests.  Two pencil operators commute
    exactly when lam_a h_b - lam_b h_a is killed by the inner block.  For
    nonzero levels that reads h_b / lam_b - h_a / lam_a in ker N, an
    equivalence, so each is compared with the first.  A level zero
    operator commutes with one at a nonzero level iff its h is in ker N,
    and with one at level zero always."""
    moving = [vscale(ONE / lam, h) for lam, h in pencil if lam]
    if not moving:
        return True
    ker = fan.kernel_space
    return all(ker.contains(vsub(h, moving[0])) for h in moving[1:]) and all(
        ker.contains(h) for lam, h in pencil if not lam
    )


def check_admissible(fan: CellFan, mats):
    """Structural validation plus existence of the relative filtration
    across the cone.  Structural failures raise; an honest existence
    failure returns (False, witness)."""
    return _admissible(fan, [mat(m) for m in mats])[0]


def _admissible(fan: CellFan, mats):
    """check_admissible's answer, the pencil level of each generator (None
    off the pencil) and, when every level is positive, the chart place of
    each generator, which decides its membership in P; else None."""
    fr = fan.frame
    lams = []
    for m in mats:
        lam = _membership(fr, m)[1]
        # pencil operators inherit nilpotency from the inner block
        if lam is None and not is_nilpotent(m):
            raise PreconditionViolated("cone generator is not nilpotent")
        lams.append(lam)
    pencil = [(lam, fr.e_image(m)) for m, lam in zip(mats, lams) if lam is not None]
    # an off-pencil generator keeps the matrix test, against every other one
    off = [i for i, lam in enumerate(lams) if lam is None]
    pairs = {tuple(sorted((i, j))) for i in off for j in range(len(mats)) if j != i}
    if not _pencil_commute(fan, pencil) or any(
        matmul(mats[i], mats[j]) != matmul(mats[j], mats[i]) for i, j in pairs
    ):
        raise NotCommutative("cone generators do not commute")
    if all(lam is not None and lam > 0 for lam in lams):
        # all generators sit at positive pencil levels, so the cone is
        # sharp, every nonzero face representative does too and existence
        # is convex in the normalized slice: the generators decide
        located = [fan._place(lam, fr.e_image(m)) for m, lam in zip(mats, lams)]
        if None in located:
            m = mats[located.index(None)]
            return (False, {"generator": m, "reason": "image of e outside the existence space"}), lams, None
        return (True, None), lams, located
    for face in Cone.from_generators([flatten(m) for m in mats], fan.ambient).faces():
        rep = face.interior_point()
        if is_zero_vec(rep):
            continue
        rep_mat = unflatten(rep, fr.dim)
        if not relative_filtration_exists(fr, rep_mat):
            return (False, {"face": face.rays, "representative": rep_mat,
                            "reason": "no relative filtration on this face"}), lams, None
    return (True, None), lams, None


def subdivide_against(fan: CellFan, mats):
    """Pieces of an admissible cone cut along the fan's cells, as
    (cell index, piece) pairs, or None when the fan cannot cover the
    cone (possible below weight -1 for cones touching pencil level
    zero).  Raises PreconditionViolated for inadmissible input.

    The generators are located in the pencil chart of their coset,
    where every cell is a box, and only the pieces are lifted."""
    mats = [mat(m) for m in mats]
    (ok, witness), lams, located = _admissible(fan, mats)
    if not ok:
        raise PreconditionViolated(f"cone is not admissible: {witness['reason']}")
    if located is None:
        located = [fan._place(lam, fan.frame.e_image(m)) for m, lam in zip(mats, lams) if not is_zero_mat(m)]
    if not located:
        return [((fan.zero_key(), (0,) * fan.cube_rank), Cone.zero(fan.ambient))]
    if None in located:
        # an admissible generator pinned at pencil level zero: no cell of
        # the fan meets its ray outside the origin
        return None
    keys = {key for _, key, _ in located}
    if len(keys) != 1:
        raise InvariantViolation("commuting generators landed in different cosets")
    key = keys.pop()
    grid = fan.grid(key)
    pieces = grid.cut([(ONE,) + cube for _, _, cube in located])
    return [((key, n), grid.lift_cone(piece)) for n, piece in pieces]


# ---------------------------------------------------------------------------
# integral exponentials along rays


def _prime_factors(n: int) -> dict:
    out = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def minimal_integral_exponent(fan: CellFan, n_mat: Mat) -> int:
    """Least a >= 1 such that exp(a N) preserves the frame lattice L and
    restricts to an integral power of gamma.  The e-coordinates of L form
    a group (1/q)Z holding 1; for x0 in L of e-coordinate 1/q (_e_lift),
    L = Lambda + Z x0, Lambda the inner lattice, as v - q t x0 is in L and
    in the inner piece for v in L of e-coordinate t.  If a lam is an
    integer, lam the pencil level, exp(a N) is gamma^(a lam) on the inner
    piece, which maps Lambda into Lambda (Frame checks that gamma does),
    and exp(a N) - 1 maps into the inner piece, as N does.  So exp(a N)
    preserves L iff exp(a N) x0 - x0 = sum of a^j c_j / j! over 1 <= j <=
    k is in Lambda, c_j = N^j x0 and k the number of nonzero c_j.  Over
    Lambda's basis, with D the lcm of the c_j's denominators, a0 = lcm(D
    k!, den lam) is valid, as a0^j / j! is a multiple of D.  The valid a
    form a subgroup of Z (an integral exp(a N) is unipotent, so exp(-a N)
    is integral too, and exp(a N) exp(b N) = exp((a + b) N)), so dividing
    primes out of a0 while it stays valid gives the least."""
    fr = fan.frame
    rows, lam, scale = _membership(fr, n_mat)
    if lam is None or lam < 0:
        raise PreconditionViolated("operator is not on the nonnegative pencil")
    x0, coords = fan._e_lift
    (v,), dx = _scaled_int_rows([x0])  # N^j x0 is v / (scale^j dx) after j steps
    terms = []
    while any(v := [sum(x * v[j] for j, x in row) for row in rows]):
        dx *= scale
        terms.append(coords(_to_fractions(v[:fr.rank], dx)))
    ints, den = _scaled_int_rows(terms)
    k = len(ints)

    def integral(a):
        # c_j = ints[j - 1] / den: is sum a^j (k! / j!) ints[j - 1] in k! den Z?
        weights = [a**j * factorial(k) // factorial(j) for j in range(1, k + 1)]
        return all(sum(w * x for w, x in zip(weights, col)) % (factorial(k) * den) == 0 for col in zip(*ints))

    a = lcm(den * factorial(k), lam.denominator)
    for p in _prime_factors(a):
        while a % p == 0 and (a // p * lam).denominator == 1 and integral(a // p):
            a //= p
    if not integral(a):
        raise InvariantViolation("computed exponent is not integral on the lattice")
    power = a * lam
    if power.denominator != 1:
        raise InvariantViolation("computed exponent does not clear the pencil level")
    if fan._gamma_power(int(power))[0] != matpow(fr.gamma, int(power)):
        raise InvariantViolation("exponential does not restrict to a gamma power")
    return a


# ---------------------------------------------------------------------------
# comparison fans


def image_lattice(fan: CellFan) -> ZLattice:
    """Image of the inner lattice under the distinguished inner block."""
    return fan.inner_lattice.apply(fan.frame.log_gamma)


def neron_lattice(fan: CellFan) -> ZLattice:
    """Translates v with v = N(a) for some a moved integrally by gamma.

    gamma - 1 factors through N by the unit u = sum N^i / (i+1)!, so the
    condition is v inside the image's span with u^(-1) v in the lattice.
    """
    fr = fan.frame
    u = fr.log_powers.series(lambda i: Fraction(1, factorial(i + 1)))
    pulled = fan.inner_lattice.apply(inverse(u))
    return pulled.intersect_subspace(fr.log_powers.images[1])


def check_square_zero_pure(frame: Frame) -> dict:
    """The gate for the cube fan: the inner block squares to zero and
    the declared weight zero graded types are all (0, 0).

    Declared types are input data; only their dimension profile is
    checked against the computed weight filtration.
    """
    if frame.graded_types is None:
        raise MissingHodgeData("declared graded types are required for this predicate")
    square_zero = len(frame.log_powers) <= 2
    wf = frame.pencil_weight_filtration
    computed = {j: d for j, d in wf.graded_dims().items() if d}
    declared = {w: sum(m for _, _, m in types) for w, types in frame.graded_types.items()}
    dims_match = computed == declared
    level_zero = frame.graded_types.get(0, ())
    pure = all((p, q) == (0, 0) for p, q, _ in level_zero)
    return {
        "square_zero": square_zero,
        "weight_zero_pure": pure,
        "declared_dims_match": dims_match,
        "holds": square_zero and pure and dims_match,
    }


def cube_window(fan: CellFan, bound: int) -> tuple:
    """Unit cube cells over the image lattice, closed under faces: the
    window of fan.cube_grid, as its symbols.  Only defined under the
    square zero plus pure type predicate."""
    gate = check_square_zero_pure(fan.frame)
    if not gate["holds"]:
        raise NotSquareZeroPure("cube fan requires the square zero pure type predicate")
    return fan.cube_grid.window(bound)


def _cube_cells_align(fan: CellFan, bound: int):
    """Witness that a unit cube cell is not a union of whole cells, or
    the total piece count, decided by _misaligned_cube from the change
    of basis C of the cube chart into the zero key's cell chart: the
    image lattice basis in cube coordinates (both charts have the level
    column pencil(1, 0))."""
    moved = [fan._split(d) for d in image_lattice(fan).basis_vectors()]
    if any(m is None or any(m[1]) for m in moved):
        raise InvariantViolation("image lattice leaves the torus space of the cell chart")
    change = [cube for cube, _ in moved]
    first = _misaligned_cube(change, fan.grid(), bound)
    if first is None:
        return {"pieces": (2 * bound + 1) ** len(change) * prod(abs(int(x)) for row in change for x in row if x)}
    n, bad = first
    return {"cell": fan.cube_grid.cone(GridFace(n, (True,) * len(n))).rays, "index": (fan.zero_key(), bad)}


def _misaligned_cube(change, cells: ChartGrid, bound: int):
    """None when every cube box of [-bound, bound]^r is a union of whole
    cells, |det C| each; else the first cube n in product order and the
    corner of its first piece that is not a whole cell.  C, the r x k
    change, has full row rank, k = cells.rank, cells.a = 1, and box n
    goes to P = C^T [n, n + 1]^r at level one.  The cut's pieces are P's
    full meets with unit boxes and cover P: all are whole boxes iff P is
    a union of boxes (Ziegler, Lectures on Polytopes, ch. 2).

    That holds iff C is square, monomial and integral.  If so, P is the
    product of the intervals c_i [n_i, n_i + 1] on distinct axes, with
    integral ends: prod |c_i| = |det C| boxes.  Conversely, such a P is
    full dimensional, so r = k; each facet lies in the boxes' walls,
    finitely many axis parallel hyperplanes, hence in one, so the facet
    normals, the columns of C^-1, are axis parallel and C is monomial;
    and a vertex of P is a vertex of a box, so each |c_i| is an integer.
    This does not depend on n: when C fails, only the first cube is cut,
    for the witness."""
    k = cells.rank
    axes = sorted(j for row in change for j, x in enumerate(row) if x)
    if len(change) == k and axes == list(range(k)) and all(x.denominator == 1 for row in change for x in row):
        return None
    n = (-bound,) * len(change)
    corners = GridFace(n, (True,) * len(n)).vertices()
    pieces = cells.cut([(ONE,) + combine(v, change, k) for v in corners])
    return n, next(m for m, piece in pieces if piece != box(m, cells.a))


def relations_report(fan: CellFan, bound: int = 1, cube_bound: int = None) -> list:
    """Containments and coincidences between the comparison fans and the
    cell fan, reported as data rather than enforced.  The first check,
    pq-definitions-agree, echoes an invariant rather than deciding one:
    it passes whenever a report is written, since hodge._analysis raises
    InvariantViolation (exit 3) if the two descriptions of P and Q
    disagree."""
    cube_bound = bound if cube_bound is None else cube_bound
    checks = []

    def add(name, ok, witness):
        checks.append({"name": name, "ok": ok, "witness": witness})

    _, _, agree = pq_spaces(fan.frame, fan.frame.log_gamma)
    add("pq-definitions-agree", bool(agree), None)
    try:
        gate = check_square_zero_pure(fan.frame)
        holds, why = gate["holds"], "predicate fails"
        add("square-zero-pure-type", holds, gate)
    except MissingHodgeData as exc:
        holds, why = False, "predicate undecided"
        add("square-zero-pure-type", None, {"reason": str(exc)})

    # the remaining comparisons are only stated under the predicate;
    # without it they are reported as unevaluated rather than failed
    def unevaluated(name, what):
        add(name, None, {"reason": f"{why}, {what} undefined"})

    if holds:
        same = fan.p_space == fan.q_space
        add("existence-space-equals-torus-space", same,
            None if same else {"existence_dim": fan.p_space.dim, "torus_dim": fan.q_space.dim})
        ql = fan.q_lattice
        missing = [b for b in image_lattice(fan).basis_vectors() if not ql.contains(b)]
        add("image-rays-are-torus-rays", not missing, {"vector": missing[0]} if missing else None)
        if fan.blocked:
            add("cube-cells-align-with-cell-fan", None, {"reason": fan.blocked})
        else:
            witness = _cube_cells_align(fan, cube_bound)
            add("cube-cells-align-with-cell-fan", "pieces" in witness, witness)
    else:
        unevaluated("existence-space-equals-torus-space", "space comparison")
        unevaluated("image-rays-are-torus-rays", "ray fan comparison")
        unevaluated("cube-cells-align-with-cell-fan", "cube fan")

    ner = neron_lattice(fan)
    basis = ner.basis_vectors()
    if fan.blocked:
        add("neron-rays-in-cell-fan", None, {"reason": fan.blocked})
    else:
        # log(gamma) = 0 blocks the fan or, P being 0, makes the Neron
        # lattice in its image 0: so pencil(1, v) is at level one, where
        # _split(v) places it
        def stray(v):
            split = fan._split(v)
            if split is None:
                return True
            a = fan.denominator(split[1])
            return any((a * c).denominator != 1 for c in split[0])

        vectors = map(linear_map(transpose(basis)), product(range(-bound, bound + 1), repeat=len(basis))) if basis else ()
        bad = next((v for v in vectors if stray(v)), None)
        add("neron-rays-in-cell-fan", bad is None, None if bad is None else {"vector": bad})

    if holds:
        add("torus-lattice-equals-neron-lattice", ql == ner,
            None if ql == ner else {"torus": ql.basis_vectors(), "neron": basis})
    else:
        unevaluated("torus-lattice-equals-neron-lattice", "ray fan comparison")
    return checks


# ---------------------------------------------------------------------------
# deterministic corpora and deliberate corruption


def random_admissible_cone(fan: CellFan, rng) -> list:
    """One or two commuting admissible generators at pencil level one,
    with small random coordinates over the existence lattice."""
    fr = fan.frame
    pl = fan.p_lattice.basis_vectors()
    den = rng.choice((1, 1, 2, 3))
    v = combine([Fraction(rng.randrange(-6, 7), den) for _ in pl], pl, fr.rank)
    gens = [fr.pencil(1, v)]
    if pl and rng.random() < 0.5:
        ql = fan.q_lattice.basis_vectors()
        steps = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in ql]
        w = vadd(v, combine(steps, ql, fr.rank))
        if w != v:
            gens.append(fr.pencil(1, w))
    return gens


def random_inadmissible_operator(fan: CellFan, rng) -> Mat:
    """Pencil level one operator whose e image leaves the existence
    space.  Requires the existence space to be proper."""
    fr = fan.frame
    outside = [row for row in identity(fr.rank) if not fan.p_space.contains(row)]
    if not outside:
        raise PreconditionViolated("existence space is everything; no inadmissible pencil operator")
    v = vec(rng.choice(outside))
    pl = fan.p_lattice.basis_vectors()
    return fr.pencil(1, vadd(v, combine([rng.randrange(-3, 4) for _ in pl], pl, fr.rank)))


def corrupted_window(fan: CellFan, bound: int, mode: str) -> tuple:
    """Deliberately broken windows of the zero key's grid for negative
    tests: 'drop-faces' removes the one dimensional faces, 'half-cell'
    replaces the origin cell with a shrunken copy that no longer tiles.
    The half cell is the box [0, 1/2]^k at level one, the cell at the
    origin of the zero key's grid (a = 1) refined by 2: the symbol of
    corner 0 at scale 2.  Its vertex at 0 is the window's, and its other
    faces are missing.  At cube rank 0 the one cell is the level ray,
    which no refinement shrinks, and the window is left whole.  The order
    is the honest window's, with the victim replaced (or the dropped
    faces gone), so no refined symbol is ever sorted."""
    window = fan.window(bound)
    if mode == "drop-faces":
        return tuple(c for c in window if c.dim != 1)
    if mode == "half-cell":
        if fan.cube_rank == 0:
            return window
        victim = GridFace((0,) * fan.cube_rank, (True,) * fan.cube_rank)
        half = victim._replace(scale=2)
        return tuple(half if c == victim else c for c in window)
    raise PreconditionViolated(f"unknown corruption mode: {mode}")


def strong_compatibility_report(fan: CellFan, bound: int, gammas) -> list:
    """Two sided stability evidence for the zero key's window of the
    given bound, in window order.

    For each ray: a positive integral multiple whose exponential
    preserves the lattice, recorded with the multiple as witness.  For
    each top cell: conjugating it by every sample automorphism must land
    on the indexed image cell (the library asserts the image equality
    internally).

    A face of an injective chart is its grid symbol (Ziegler, Lectures
    on Polytopes, ch. 2), so the report reads the rays and top cells off
    ChartGrid.window_symbols: a ray is grid.ray(v) at a grid point v, a
    top cell is the box at its corner, and no window cone is lifted or
    decoded.  Conjugation depends only on the coset key, so
    conjugate_key runs once per sample, for the zero key, and each cell
    reads that verdict.  When log(gamma) = 0 the cells do not form a fan
    unless P = 0, and then the chart is collapsed and the window is the
    origin, with no ray and no cell: the report is empty.  With cube
    rank 0 the one box is the level ray, reported as a cell.
    """
    grid = fan.grid()
    points, corners = grid.window_symbols(bound)
    zero, bad = fan.zero_key(), None
    for power, shift in gammas:
        try:
            fan.conjugate_key(power, shift, zero)
        except InvariantViolation as exc:
            bad = {"gamma": (power, shift), "error": str(exc)}
            break
    checks = []
    for v in points if grid.rank else ():
        ray = grid.ray(v)
        try:
            ok, witness = True, {"ray": ray, "multiple": minimal_integral_exponent(fan, unflatten(ray, fan.frame.dim))}
        except InvariantViolation as exc:
            ok, witness = False, {"ray": ray, "error": str(exc)}
        checks.append({"name": "ray-integral-exponential", "ok": ok, "witness": witness})
    for n in corners:
        checks.append({
            "name": "cell-conjugation-stable",
            "ok": bad is None,
            "witness": bad or {"index": (zero, n), "samples": len(gammas)},
        })
    return checks

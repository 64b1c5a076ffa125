"""Exact linear algebra over Q, plus integer lattice canonical forms.

Matrices are tuples of tuples of Fraction, row major.  Endomorphisms act
on column vectors (matvec).  A subspace is stored as the cleared integer
rows of its canonical rref basis, and a lattice as an integer Hermite
basis over one denominator.  There is no floating point anywhere in the
package.

Elimination (rref, det, and everything built on them) and recombination
(matmul, matvec, the intersection basis of two subspaces) run on
integer rows with their denominators cleared, converting back to
Fraction only for the result: integer arithmetic is far cheaper than
Fraction arithmetic, and the canonical forms come out entry for entry
the same.  The operators here are sparse (a nilpotent logarithm at
rank 20 has a handful of nonzero entries), so products and elimination
steps combine rows over the nonzero entries only, in the row-by-row
manner of Gustavson (ACM TOMS 4, 1978), and every zero entry of a
result is the shared ZERO, as is every zero that matscale and frac
return, so a clear reads no Fraction attribute for it.  Callers clear
an operator once at their public edge and pass the integer rows on
(hodge._membership).  A Subspace holds nothing but the cleared integer
rows of its rref basis over their least common denominator (Cohen, A
Course in Computational Algebraic Number Theory, 1993, 2.2), a form
that is unique, so membership, reduction, sums and meets build no
Fraction, and its Fraction basis is read off the rows only where an
answer needs it.

NilpotentPowers is the one kernel for the powers of a nilpotent
operator: exp, log, gamma^p, the orbit exponentials and every other
series in it are read off its integer powers, with one Fraction pass.

The integer side (Hermite and Smith forms, saturation, kernels over Z)
is hand rolled: we need the transformation matrices, and more
importantly a deterministic canonical basis for every lattice, because
lattice equality and quotient coordinates are answers here rather than
intermediate steps.  Sizes stay small (ambient rank <= 21), so dense
elimination is fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm

from .errors import (
    MixedAmbient,
    NotNilpotent,
    NotUnipotent,
    PreconditionViolated,
    SpecFormatError,
)

Vec = tuple
Mat = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise SpecFormatError(f"not an exact scalar: {x!r}")
    try:
        return Fraction(x) or ZERO
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"unparsable scalar {x!r}") from exc


def format_scalar(x: Fraction) -> str:
    """"p" or "p/q", read off the scalar with no new Fraction."""
    if type(x) is int:
        return str(x)
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def vec(xs) -> Vec:
    xs = tuple(xs)
    if set(map(type, xs)) <= {Fraction}:
        return xs
    return tuple(frac(x) for x in xs)


def mat(rows) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise SpecFormatError("ragged matrix")
    return out


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def zeros(n: int, m: int) -> Mat:
    return tuple((ZERO,) * m for _ in range(n))


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def _scaled_int_rows(rows):
    """Rows with denominators cleared, plus the common scale.  Integer
    arithmetic on the cleared rows is far cheaper than Fraction ops.
    The shared ZERO, which every kernel here returns for a zero entry,
    is read without a Fraction attribute lookup."""
    den = lcm(*(x.denominator for row in rows for x in row if x is not ZERO))
    if den == 1:
        return [[0 if x is ZERO else x.numerator for x in row] for row in rows], 1
    return [[0 if x is ZERO else x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _to_fractions(ints, den: int) -> tuple:
    """The integer entries over den, sharing ZERO for every zero."""
    if den == 1:
        return tuple([Fraction(x) if x else ZERO for x in ints])
    return tuple([Fraction(x, den) if x else ZERO for x in ints])


def _row_ints(rows) -> list:
    """Each row with its own denominators cleared."""
    return [_scaled_int_rows([r])[0][0] for r in rows]


def _sparse_rows(ints) -> list:
    """Each integer row as its (column, entry) pairs with entry != 0."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in ints]


def _int_product(sparse_a, sparse_b, width: int) -> list:
    """Integer rows of a . b, both given by their sparse rows: output row
    i adds a_ik * b_k over the nonzero a_ik only (Gustavson's row-by-row
    product), so the cost follows the nonzeros rather than the shape."""
    out = []
    for row in sparse_a:
        acc = [0] * width
        for k, x in row:
            for j, y in sparse_b[k]:
                acc[j] += x * y
        out.append(acc)
    return out


def matmul(a: Mat, b: Mat) -> Mat:
    """a . b by sparse recombination of the cleared integer rows of b."""
    if not a or not b:
        return tuple(() for _ in a)
    ia, da = _scaled_int_rows(a)
    ib, db = _scaled_int_rows(b)
    product = _int_product(_sparse_rows(ia), _sparse_rows(ib), len(ib[0]))
    return tuple(_to_fractions(row, da * db) for row in product)


def linear_map(a: Mat):
    """v -> a . v, with the denominators of a cleared once for all calls."""
    ia, da = _scaled_int_rows(a)
    sparse = _sparse_rows(ia)

    def apply(v: Vec) -> Vec:
        iv, dv = _scaled_int_rows([v])
        iv = iv[0]
        return _to_fractions([sum(x * iv[j] for j, x in row) for row in sparse], da * dv)

    return apply


def sandwich(p: Mat, q: Mat):
    """m -> p . m . q for square matrices, with p and q cleared once for
    all calls."""
    (sp, dp), (sq, dq) = ((_sparse_rows(i), d) for i, d in map(_scaled_int_rows, (p, q)))

    def apply(m: Mat) -> Mat:
        im, dm = _scaled_int_rows(m)
        out = _int_product(_sparse_rows(_int_product(sp, _sparse_rows(im), len(im))), sq, len(im))
        return tuple(_to_fractions(row, dp * dm * dq) for row in out)

    return apply


def matvec(a: Mat, v: Vec) -> Vec:
    return linear_map(a)(v)


def matsub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def matscale(c, a: Mat) -> Mat:
    """c . a, every zero entry the shared ZERO."""
    c = frac(c)
    return tuple(tuple(ZERO if x is ZERO else c * x or ZERO for x in r) for r in a)


def matpow(a: Mat, k: int) -> Mat:
    out = a if k > 0 else identity(len(a))
    for _ in range(k - 1):
        out = matmul(out, a)
    return out


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def vscale(c, v: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in v)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), ZERO)


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def is_zero_mat(m: Mat) -> bool:
    return all(is_zero_vec(r) for r in m)


def _rref_ints(work: list) -> list:
    """Reduce a list of integer rows in place and return the pivot
    columns.  Each step combines a row with the pivot row over the pivot
    row's nonzero entries only, and keeps the row primitive to tame
    entry growth; row i over its pivot entry is row i of the rref."""
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        piv = work[r][c]
        support = [(j, b) for j, b in enumerate(work[r]) if b]
        for i in range(nr):
            f = work[i][c]
            if i != r and f:
                row = [piv * a for a in work[i]] if piv != 1 else list(work[i])
                for j, b in support:
                    row[j] -= f * b
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Mat):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Elimination runs on denominator cleared integer rows (_rref_ints);
    the form is unique, so the result matches entry by entry what
    Fraction elimination would produce."""
    work = _row_ints(m)
    pivots = _rref_ints(work)
    out = tuple(
        _to_fractions(row, row[pivots[i]] if i < len(pivots) else 1) for i, row in enumerate(work)
    )
    return out, tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def solve(a: Mat, b: Vec):
    """One solution x of a . x = b (column convention), or None."""
    n = len(a)
    m = len(a[0]) if n else 0
    if len(b) != n:
        raise MixedAmbient("solve: shape mismatch")
    aug = tuple(tuple(a[i]) + (b[i],) for i in range(n))
    r, piv = rref(aug)
    if m in piv:
        return None
    x = [ZERO] * m
    for i, c in enumerate(piv):
        x[c] = r[i][m]
    return tuple(x)


def inverse(a: Mat):
    n = len(a)
    aug = tuple(tuple(a[i]) + identity(n)[i] for i in range(n))
    r, piv = rref(aug)
    if piv != tuple(range(n)):
        return None
    return tuple(row[n:] for row in r[:n])


def det(a: Mat) -> Fraction:
    """Determinant by fraction free (Bareiss) elimination on the
    denominator cleared integer rows: after step c every entry is a
    minor of order c + 1, so each division is exact and no entry grows
    beyond a minor of the input."""
    rows, den = _scaled_int_rows(a)
    n = len(rows)
    sign, prev = 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return ZERO
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        piv, top = rows[c][c], rows[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = piv
    return Fraction(sign * prev, den**n)


def _kernel_ints(work: list, pivots: list, nc: int) -> list:
    """(f, x) per free column f of a reduced integer system: x is the
    integer kernel vector with x[f] the least common multiple L of the
    pivots P_i in play and x[p_i] = -W_i[f] L / P_i."""
    rows = list(zip(work, pivots))
    pivset = set(pivots)
    out = []
    for f in range(nc):
        if f in pivset:
            continue
        den = lcm(*(row[p] for row, p in rows if row[f]))
        x = [0] * nc
        x[f] = den
        for row, p in rows:
            if row[f]:
                x[p] = -row[f] * den // row[p]
        out.append((f, x))
    return out


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n, stored as the cleared rows of its canonical
    rref basis b_1, ..., b_d: _cleared = (D, ((p_1, r_1), ..., (p_d, r_d)))
    with D the least positive integer making D b_i integral, p_i the
    pivot of b_i and r_i = D b_i as its (column, entry) pairs with entry
    != 0, so r_i is D at p_i.  The form is unique, so equality of fields
    is equality of subspaces.  Membership, reduction, sums and meets run
    on these rows; the Fraction basis is read off them at the edges.
    Construct through the classmethods.
    """

    ambient: int
    _cleared: tuple

    @classmethod
    def span(cls, vectors, ambient: int) -> "Subspace":
        vectors = tuple(vec(v) for v in vectors)
        for v in vectors:
            if len(v) != ambient:
                raise MixedAmbient("span: vector length != ambient")
        return cls._of_int_rows(_row_ints(vectors), ambient)

    @classmethod
    def _of_int_rows(cls, work: list, ambient: int) -> "Subspace":
        """The span of integer rows, which are reduced in place.  Row i of
        the elimination, made primitive with a positive pivot P_i, is b_i
        times P_i, and P_i is the least integer clearing b_i; so D is the
        least common multiple of the P_i."""
        rows = []
        for row, p in zip(work, _rref_ints(work)):
            g = gcd(*row) if row[p] > 0 else -gcd(*row)
            rows.append((p, [x // g for x in row] if g != 1 else row))
        den = lcm(*(row[p] for p, row in rows))
        cleared = tuple((p, tuple((j, x * (den // row[p])) for j, x in enumerate(row) if x)) for p, row in rows)
        return cls(ambient, (den, cleared))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (1, ()))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, (1, tuple((i, ((i, 1),)) for i in range(ambient))))

    @classmethod
    def kernel(cls, m: Mat) -> "Subspace":
        nc = len(m[0]) if m else 0
        work = _row_ints(m)
        pivots = _rref_ints(work)
        return cls._of_int_rows([x for _, x in _kernel_ints(work, pivots, nc)], nc)

    @classmethod
    def image(cls, m: Mat) -> "Subspace":
        return cls._of_int_rows(_row_ints(transpose(m)), len(m))

    @property
    def dim(self) -> int:
        return len(self._cleared[1])

    def _pivots(self):
        return tuple(p for p, _ in self._cleared[1])

    @cached_property
    def basis(self) -> Mat:
        """The rref basis as Fraction rows, for reports and tests."""
        return tuple(_to_fractions(row, self._cleared[0]) for row in self._int_rows())

    def _int_rows(self) -> list:
        """Fresh dense copies of the cleared basis rows."""
        out = []
        for _, row in self._cleared[1]:
            dense = [0] * self.ambient
            for j, x in row:
                dense[j] = x
            out.append(dense)
        return out

    def _residual(self, iv) -> list:
        """D times the residual of the integer vector iv.  The basis is in
        rref, so row i is the only one nonzero at its pivot and the
        residual is v minus the sum of v[p_i] times row i."""
        den, rows = self._cleared
        out = [den * x for x in iv] if den != 1 else list(iv)
        for p, row in rows:
            f = iv[p]
            if f:
                for j, x in row:
                    out[j] -= f * x
        return out

    def _cleared_vector(self, v) -> list:
        v = vec(v)
        if len(v) != self.ambient:
            raise MixedAmbient("reduce: vector length != ambient")
        return _scaled_int_rows([v])

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating this subspace's pivot coordinates.

        The residual is zero iff v is a member, and reduce is linear, so
        it doubles as a canonical projection along the subspace.  It is
        computed on the cleared integer rows of v and of the basis, and
        only the nonzero basis entries are visited.
        """
        (iv,), dv = self._cleared_vector(v)
        return _to_fractions(self._residual(iv), self._cleared[0] * dv)

    def contains(self, v: Vec) -> bool:
        (iv,), _ = self._cleared_vector(v)
        return not any(self._residual(iv))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise MixedAmbient("contains_space: ambient mismatch")
        if self.dim == self.ambient:
            return True
        if other.dim > self.dim:
            return False
        # membership does not see scale, so other's cleared rows will do
        return not any(any(self._residual(iv)) for iv in other._int_rows())

    def coords(self, v: Vec):
        """Coefficients of v in the basis rows, or None.  The basis is in
        rref, so a member's coefficients are its entries at the pivots."""
        v = vec(v)
        return tuple(v[p] for p in self._pivots()) if self.contains(v) else None

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise MixedAmbient("add: ambient mismatch")
        return Subspace._of_int_rows(self._int_rows() + other._int_rows(), self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Meet, on the cleared integer rows of both bases: the canonical
        basis does not depend on their scale."""
        if self.ambient != other.ambient:
            raise MixedAmbient("intersect: ambient mismatch")
        if not self.dim or not other.dim:
            return Subspace.zero(self.ambient)
        if self.dim == self.ambient or other.dim == self.ambient:  # the meet with everything
            return other if self.dim == self.ambient else self
        a = [row for _, row in self._cleared[1]]
        # y . (a + b) = 0 means y[:len(a)] . a lies in both spaces
        cols = [list(c) for c in zip(*(self._int_rows() + other._int_rows()))]
        kernel = _kernel_ints(cols, _rref_ints(cols), len(cols[0]))
        coeffs = _sparse_rows([y[: len(a)] for _, y in kernel])
        return Subspace._of_int_rows(_int_product(coeffs, a, self.ambient), self.ambient)


# ---------------------------------------------------------------------------
# integer side


def primitive(v: Vec) -> Vec:
    """Shortest integral vector on the same ray (orientation kept), its
    zero entries the shared ZERO."""
    v = vec(v)
    if is_zero_vec(v):
        return (ZERO,) * len(v)
    ints = _scaled_int_rows([v])[0][0]
    g = gcd(*ints)
    return tuple([Fraction(x // g) if x else ZERO for x in ints])


def hnf(rows) -> tuple:
    """Row Hermite normal form over Z, canonical.

    Pivots positive, entries above a pivot reduced into [0, pivot),
    zero rows dropped.  Input rows must be integral.
    """
    m = [[int(x) for x in r] for r in rows]
    if not m:
        return ()
    nc = len(m[0])
    nr = len(m)
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, nr):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r] if any(row))


def int_left_kernel(m) -> tuple:
    """HNF basis of {x in Z^k : x . m = 0} for integral m with k rows."""
    k = len(m)
    if k == 0:
        return ()
    nc = len(m[0])
    aug = [list(map(int, m[i])) + [int(i == j) for j in range(k)] for i in range(k)]
    h = hnf(aug)
    out = [row[nc:] for row in h if not any(row[:nc])]
    # rows of an identity-augmented HNF never vanish entirely, so every
    # kernel vector survives; re-normalize for a canonical answer
    return hnf(out)


def snf(a):
    """Smith normal form.  Returns (d, u, v) with u . a . v = d,
    u and v unimodular, diagonal entries nonnegative and each dividing
    the next."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    m = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def rowop(i, j, q):
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def rowswap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def colop(i, j, q):
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def colswap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        rowswap(t, pivot[0])
        colswap(t, pivot[1])
        while True:
            clean = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    rowop(i, t, q)
                    if m[i][t]:
                        rowswap(i, t)
                        clean = False
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    colop(j, t, q)
                    if m[t][j]:
                        colswap(j, t)
                        clean = False
            if not clean:
                continue
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % m[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            rowop(t, bad, -1)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    as_mat = lambda rows: tuple(tuple(row) for row in rows)
    return as_mat(m), as_mat(u), as_mat(v)


@dataclass(frozen=True)
class ZLattice:
    """Finitely generated subgroup of Q^n.

    Stored as rows/denom where rows is an integer HNF basis and denom is
    the least positive integer d with d * self integral.  Equal
    subgroups always produce identical fields, so dataclass equality is
    lattice equality.

    denom stays 1 for anything living inside an integral frame; images
    under rational operators (the logarithm of a unipotent automorphism,
    say) pick up honest denominators and cost nothing extra to keep.
    """

    ambient: int
    rows: tuple = ()
    denom: int = 1

    @classmethod
    def _reduce(cls, ambient, int_rows, denom) -> "ZLattice":
        h = hnf(int_rows)
        if not h:
            return cls(ambient, (), 1)
        g = denom
        for row in h:
            for x in row:
                g = gcd(g, x)
        if g > 1:
            h = tuple(tuple(x // g for x in row) for row in h)
            denom //= g
        return cls(ambient, h, denom)

    @classmethod
    def from_vectors(cls, vectors, ambient: int) -> "ZLattice":
        vectors = tuple(vec(v) for v in vectors)
        for v in vectors:
            if len(v) != ambient:
                raise MixedAmbient("lattice: vector length != ambient")
        ints, d = _scaled_int_rows(vectors)
        return cls._reduce(ambient, ints, d)

    @classmethod
    def standard(cls, n: int) -> "ZLattice":
        return cls(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis_vectors(self) -> Mat:
        d = Fraction(1, self.denom)
        return tuple(tuple(x * d for x in row) for row in self.rows)

    def _int_coords(self, w):
        w = list(w)
        out = []
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x)
            q, r = divmod(w[p], row[p])
            if r:
                return None
            w = [a - q * b for a, b in zip(w, row)]
            out.append(q)
        return tuple(out) if not any(w) else None

    def coords(self, v: Vec):
        """Integer coordinates of v in the HNF basis, or None."""
        v = vec(v)
        if len(v) != self.ambient:
            raise MixedAmbient("coords: vector length != ambient")
        w = []
        for x in v:
            y = x * self.denom
            if y.denominator != 1:
                return None
            w.append(y.numerator)
        return self._int_coords(w)

    def contains(self, v: Vec) -> bool:
        return self.coords(v) is not None

    def add(self, other: "ZLattice") -> "ZLattice":
        if self.ambient != other.ambient:
            raise MixedAmbient("lattice add: ambient mismatch")
        d = lcm(self.denom, other.denom)
        rows = [tuple(x * (d // self.denom) for x in r) for r in self.rows]
        rows += [tuple(x * (d // other.denom) for x in r) for r in other.rows]
        return ZLattice._reduce(self.ambient, rows, d)

    def intersect(self, other: "ZLattice") -> "ZLattice":
        if self.ambient != other.ambient:
            raise MixedAmbient("lattice intersect: ambient mismatch")
        if not self.rows or not other.rows:
            return ZLattice(self.ambient)
        d = lcm(self.denom, other.denom)
        a = [tuple(x * (d // self.denom) for x in r) for r in self.rows]
        b = [tuple(x * (d // other.denom) for x in r) for r in other.rows]
        stacked = a + [tuple(-x for x in r) for r in b]
        rows = []
        for y in int_left_kernel(stacked):
            w = [0] * self.ambient
            for coef, row in zip(y[: len(a)], a):
                w = [s + coef * x for s, x in zip(w, row)]
            rows.append(tuple(w))
        return ZLattice._reduce(self.ambient, rows, d)

    def intersect_subspace(self, space: Subspace) -> "ZLattice":
        """Members of this lattice lying in a Q-subspace."""
        if self.ambient != space.ambient:
            raise MixedAmbient("lattice/subspace intersect: ambient mismatch")
        if not self.rows:
            return ZLattice(self.ambient)
        # integer vectors spanning the kernel of the cleared rows, which
        # are reduced already; their scale changes no left kernel below
        ker = [x for _, x in _kernel_ints(space._int_rows(), space._pivots(), self.ambient)]
        if not ker:
            return self
        w = [[sum(a * b for a, b in zip(row, k)) for k in ker] for row in self.rows]
        rows = []
        for c in int_left_kernel(w):
            v = [0] * self.ambient
            for coef, row in zip(c, self.rows):
                v = [s + coef * x for s, x in zip(v, row)]
            rows.append(tuple(v))
        return ZLattice._reduce(self.ambient, rows, self.denom)

    def apply(self, op: Mat) -> "ZLattice":
        """Image lattice under a linear map (columns convention)."""
        return ZLattice.from_vectors(
            [matvec(op, b) for b in self.basis_vectors()], len(op)
        )


def order_in_quotient(x: Vec, lat: ZLattice, modulo: Subspace) -> int:
    """Least a >= 1 with a*x inside lat + modulo.

    Precondition: x lies in the Q-span of lat plus modulo.
    """
    x = vec(x)
    if len(x) != lat.ambient or modulo.ambient != lat.ambient:
        raise MixedAmbient("order_in_quotient: ambient mismatch")
    xr = modulo.reduce(x)
    red = ZLattice.from_vectors(
        [modulo.reduce(r) for r in lat.basis_vectors()], lat.ambient
    )
    if is_zero_vec(xr):
        return 1
    if not red.rows:
        raise PreconditionViolated("element not in the span of lattice + subspace")
    c = solve(transpose(red.basis_vectors()), xr)
    if c is None:
        raise PreconditionViolated("element not in the span of lattice + subspace")
    a = 1
    for y in c:
        a = lcm(a, y.denominator)
    return a


# ---------------------------------------------------------------------------
# powers of a nilpotent operator


class NilpotentPowers:
    """N^0, ..., N^(k-1) for a nilpotent N, k its nilpotency index (the
    length), formed once on cleared integer rows: N^i = P_i / d^i, with d
    the common denominator of N and ints[i] = P_i = (d N)^i (Cohen, A Course
    in Computational Algebraic Number Theory, 1993, 2.2)."""

    def __init__(self, n_mat: Mat):
        self.size = len(n_mat)
        ints, self.den = _scaled_int_rows(n_mat)
        step = _sparse_rows(ints)
        power = [[int(i == j) for j in range(self.size)] for i in range(self.size)]
        self.ints, self._sparse = [], []
        while any(map(any, power)):
            if len(self.ints) == self.size:
                raise NotNilpotent("matrix power did not vanish by the ambient rank")
            self.ints.append(power)
            self._sparse.append(_sparse_rows(power))
            power = _int_product(self._sparse[-1], step, self.size)

    def __len__(self) -> int:
        return len(self.ints)

    def series(self, coeff) -> Mat:
        """sum of coeff(i) N^i over i < len(self), on the integer powers
        over one common denominator, converted to Fraction once."""
        scaled = [Fraction(coeff(i)) / self.den**i for i in range(len(self))]
        den = lcm(*(c.denominator for c in scaled))
        acc = [[0] * self.size for _ in range(self.size)]
        for c, power in zip(scaled, self._sparse):
            f = c.numerator * (den // c.denominator)
            if f:
                for out, row in zip(acc, power):
                    for j, x in row:
                        out[j] += f * x
        return tuple(_to_fractions(row, den) for row in acc)

    def exp(self, t=1) -> Mat:
        """exp(t N)."""
        return self.series(lambda i: Fraction(t) ** i / factorial(i))


def is_nilpotent(n_mat: Mat) -> bool:
    try:
        NilpotentPowers(n_mat)
        return True
    except NotNilpotent:
        return False


def exp_nilpotent(n_mat: Mat) -> Mat:
    return NilpotentPowers(n_mat).exp()


def log_unipotent(u_mat: Mat) -> Mat:
    try:
        powers = NilpotentPowers(matsub(u_mat, identity(len(u_mat))))
    except NotNilpotent as exc:
        raise NotUnipotent("matrix minus identity is not nilpotent") from exc
    return powers.series(lambda i: Fraction((-1) ** (i + 1), i) if i else 0)


# ---------------------------------------------------------------------------
# JSON helpers ("p/q" strings keep reports byte stable)


def vec_to_json(v: Vec) -> list:
    return [format_scalar(x) for x in v]


def mat_to_json(m: Mat) -> list:
    return [vec_to_json(r) for r in m]


def vec_from_json(data) -> Vec:
    if not isinstance(data, list):
        raise SpecFormatError("vector: expected a list")
    return vec(data)


def mat_from_json(data) -> Mat:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise SpecFormatError("matrix: expected a list of lists")
    return mat(data)

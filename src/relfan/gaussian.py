"""Exact arithmetic over the Gaussian rationals.

Period data is restricted to Q(i) entries so every predicate in the
classifying layer is decidable: Q(i) is dense in C and closed under the
conjugations and exponential series we need.  This module holds the
``Gi`` scalar, its byte stable text form ``a+b*i``, and Q(i) vectors
and matrices as plain tuples of ``Gi``.

Linear algebra is realified onto the rational layer: v in Q(i)^n is
read as (re_1, im_1, ..., re_n, im_n) in Q^2n, a matrix as the rational
matrix of the same map, and a subspace as an i-stable Q-subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MixedAmbient, SpecFormatError
from .qlinalg import ZERO as QZERO, Mat, Subspace, Vec, _int_product, _row_ints, _scaled_int_rows, _sparse_rows


@dataclass(frozen=True)
class Gi:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # a Fraction part is kept; any other input is parsed by Fraction
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other):
        other = coerce(other)
        return Gi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = coerce(other)
        return Gi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return coerce(other) - self

    def __mul__(self, other):
        other = coerce(other)
        return Gi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * Gi(other.re / n, -other.im / n)

    def __neg__(self):
        return Gi(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self) -> "Gi":
        return Gi(self.re, -self.im)

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1


ZERO = Gi()
ONE = Gi(Fraction(1))
I = Gi(Fraction(0), Fraction(1))


def coerce(x) -> Gi:
    if isinstance(x, Gi):
        return x
    if isinstance(x, (int, Fraction)):
        return Gi(x)
    raise SpecFormatError(f"cannot interpret {x!r} as a Gaussian rational")


def format_gi(z: Gi) -> str:
    sign = "-" if z.im < 0 else "+"
    return f"{z.re}{sign}{abs(z.im)}*i"


# --- vectors and matrices -------------------------------------------------

def gvec(entries) -> tuple:
    return tuple(coerce(x) for x in entries)


def gmat(rows) -> tuple:
    return tuple(gvec(r) for r in rows)


# --- realification --------------------------------------------------------

def realify(v) -> Vec:
    """Q(i)^n into Q^2n, as (re_1, im_1, ..., re_n, im_n)."""
    return tuple(x for z in gvec(v) for x in (z.re, z.im))


def unrealify(w) -> tuple:
    return tuple(Gi(w[k], w[k + 1]) for k in range(0, len(w), 2))


def realify_mat(m) -> Mat:
    """The rational matrix of v -> m . v in realified coordinates, every
    zero entry the rational layer's shared ZERO."""
    out = []
    for row in gmat(m):
        out.append(tuple(x or QZERO for z in row for x in (z.re, -z.im)))
        out.append(tuple(x or QZERO for z in row for x in (z.im, z.re)))
    return tuple(out)


def unrealify_mat(m) -> tuple:
    # column 2b of a realified matrix is its realified column b
    return tuple(zip(*(unrealify(col) for col in tuple(zip(*m))[::2])))


def transport(op) -> list:
    """The sparse cleared rows of realify_mat(op) transposed: a realified
    row w times them is op . w up to a positive scale."""
    ints, _ = _scaled_int_rows(realify_mat(op))
    if any(len(row) != len(ints) for row in ints):
        raise MixedAmbient("operator is not square")
    return _sparse_rows(zip(*ints))


def _with_i(w) -> tuple:
    """A realified vector and i times it."""
    return w, tuple(x for k in range(0, len(w), 2) for x in (-w[k + 1], w[k]))


class GSpace:
    """Subspace of Q(i)^n, held as ``real``: the i-stable subspace of
    Q^2n spanned by the realified vectors and i times each of them,
    stored, like every Subspace, as its cleared integer rows.

    ``basis`` is the reduced row echelon basis over Q(i), read off the
    rational one at the edges.  Let b_1, ..., b_d be the Q(i) rref
    basis, with pivots p_1 < ... < p_d.  Realified, b_k has 1 at 2p_k
    and 0 at 2p_k + 1, i b_k has 0 at 2p_k and 1 at 2p_k + 1, both are
    zero before 2p_k and at every other pivot pair.  So these 2d rows
    are already a rational rref; as that form is unique, the rational
    pivots come in pairs (2p_k, 2p_k + 1) and the rows at even pivots
    are exactly the realified b_k.  Equality and hashing of ``real``
    are therefore equality of Q(i)-subspaces.
    """

    def __init__(self, ambient: int, rows=()):
        self.real = Subspace.span([w for v in rows for w in _with_i(realify(v))], 2 * ambient)

    @classmethod
    def _of(cls, real: Subspace) -> "GSpace":
        out = cls.__new__(cls)
        out.real = real
        return out

    @property
    def ambient(self) -> int:
        return self.real.ambient // 2

    @cached_property
    def basis(self) -> tuple:
        return tuple(unrealify(w) for w in self.real.basis[::2])

    @property
    def dim(self) -> int:
        return self.real.dim // 2

    def contains(self, v) -> bool:
        return self.real.contains(realify(v))

    def contains_space(self, other: "GSpace") -> bool:
        return self.real.contains_space(other.real)

    def add_vectors(self, vectors) -> "GSpace":
        """This space plus the span of Q(i) vectors, in one elimination
        over its cleared rows and the realified vectors with i times each."""
        rows = _row_ints(w for v in vectors for w in _with_i(realify(v)))
        return GSpace._of(Subspace._of_int_rows(self.real._int_rows() + rows, self.real.ambient))

    def intersect(self, other: "GSpace") -> "GSpace":
        return GSpace._of(self.real.intersect(other.real))

    @property
    def _rows(self) -> list:
        """The sparse cleared rows of ``real``: b_k and i b_k realified,
        times one positive scale, at rows 2k and 2k + 1."""
        return [row for _, row in self.real._cleared[1]]

    def apply(self, op) -> "GSpace":
        return self._moved(transport(op))

    def _moved(self, columns) -> "GSpace":
        """The image under an operator given by ``transport``."""
        n = self.real.ambient
        if len(columns) != n:
            raise MixedAmbient("operator of the wrong size")
        return GSpace._of(Subspace._of_int_rows(_int_product(self._rows, columns, n), n))

    def conjugate(self) -> "GSpace":
        """Conjugation negates the odd coordinates of each row, and the row
        i b_k, whose pivot is odd, is then negated whole to bring its pivot
        back to 1: each row flips the coordinates of the other parity than
        its pivot.  No zero moves, so the flipped rref rows are the rref of
        the conjugate, with no elimination."""
        den, rows = self.real._cleared
        flipped = tuple((p, tuple((j, -x if (j - p) & 1 else x) for j, x in r)) for p, r in rows)
        return GSpace._of(Subspace(self.real.ambient, (den, flipped)))

    def __eq__(self, other):
        return isinstance(other, GSpace) and self.real == other.real

    def __hash__(self):
        return hash(self.real)

    def __repr__(self):
        return f"GSpace(dim={self.dim}, ambient={self.ambient})"

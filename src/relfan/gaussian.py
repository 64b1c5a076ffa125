"""Exact arithmetic over the Gaussian rationals.

Period data is restricted to Q(i) entries so every predicate in the
classifying layer is decidable: Q(i) is dense in C and closed under the
conjugations and exponential series we need.  This module holds the
``Gi`` scalar, its byte stable text form ``a+b*i``, and Q(i) vectors
and matrices as plain tuples of ``Gi``.

Linear algebra is realified onto the rational layer: v in Q(i)^n is
read as (re_1, im_1, ..., re_n, im_n) in Q^2n, a subspace as an i-stable
Q-subspace, and vectors enter it once, as cleared integer rows each
followed by i times it (_realified_rows), for GSpace and period points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MixedAmbient, SpecFormatError
from .qlinalg import Subspace, Vec, _row_ints


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


def _realified_rows(vectors, ambient: int) -> list:
    """Cleared integer rows spanning the realified Q(i)-span of vectors:
    each is realified once, cleared, and followed by i times it, read off
    its integer row by swapping and negating each pair."""
    reals = [realify(v) for v in vectors]
    if any(len(w) != 2 * ambient for w in reals):
        raise MixedAmbient("spanning vector of the wrong length")
    out = []
    for row in _row_ints(reals):
        out += row, [x for k in range(0, len(row), 2) for x in (-row[k + 1], row[k])]
    return out


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
        self.real = Subspace._of_int_rows(_realified_rows(rows, ambient), 2 * ambient)

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

    def intersect(self, other: "GSpace") -> "GSpace":
        return GSpace._of(self.real.intersect(other.real))

    @property
    def _rows(self) -> list:
        """The sparse cleared rows of ``real``: b_k and i b_k realified,
        times one positive scale, at rows 2k and 2k + 1."""
        return [row for _, row in self.real._cleared[1]]

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

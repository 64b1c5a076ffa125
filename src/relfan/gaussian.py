"""Exact arithmetic over the Gaussian rationals.

Period data is restricted to Q(i) entries so every predicate in the
classifying layer is decidable: Q(i) is dense in C and closed under the
conjugations and exponential series we need.  Vectors and matrices are
plain tuples, mirroring the rational layer.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import NotNilpotent, SpecFormatError


@dataclass(frozen=True)
class Gi:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
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

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1


ZERO = Gi()
ONE = Gi(Fraction(1))
I = Gi(Fraction(0), Fraction(1))


def coerce(x) -> Gi:
    if isinstance(x, Gi):
        return x
    if isinstance(x, (int, Fraction)):
        return Gi(Fraction(x))
    raise SpecFormatError(f"cannot interpret {x!r} as a Gaussian rational")


def i_power(n: int) -> Gi:
    return (ONE, I, -ONE, -I)[n % 4]


_GI_RE = _re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*\*\s*i\s*$"
)


def format_gi(z: Gi) -> str:
    sign = "-" if z.im < 0 else "+"
    return f"{z.re}{sign}{abs(z.im)}*i"


def parse_gi(s: str) -> Gi:
    try:
        m = _GI_RE.match(s)
        if not m:
            # allow a bare rational
            return Gi(Fraction(s.strip()))
        im = Fraction(m.group("im"))
        if m.group("sign") == "-":
            im = -im
        return Gi(Fraction(m.group("re")), im)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"bad Gaussian rational: {s!r}") from exc


# --- vectors and matrices -------------------------------------------------

def gvec(entries) -> tuple:
    return tuple(coerce(x) for x in entries)


def gmat(rows) -> tuple:
    return tuple(gvec(r) for r in rows)


def lift_mat(rows) -> tuple:
    """Rational matrix into Q(i)."""
    return tuple(tuple(coerce(x) for x in r) for r in rows)


def gconj_vec(v) -> tuple:
    return tuple(x.conjugate() for x in v)


def gmatvec(m, v) -> tuple:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m)


def gmatmul(a, b) -> tuple:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt) for row in a
    )


def gidentity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def grref(m) -> tuple:
    """Reduced row echelon form and pivot columns over Q(i)."""
    rows = [list(r) for r in m]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def grank(m) -> int:
    return len(grref(m)[1])


def gdet(m) -> Gi:
    n = len(m)
    rows = [list(r) for r in m]
    det = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def gexp_nilpotent(m) -> tuple:
    """exp of a nilpotent Q(i) matrix by its finite series."""
    n = len(m)
    out = gidentity(n)
    term = gidentity(n)
    for k in range(1, n + 1):
        term = gmatmul(term, m)
        if all(not x for row in term for x in row):
            break
        out = tuple(
            tuple(a + b * Gi(Fraction(1, factorial(k))) for a, b in zip(r, s))
            for r, s in zip(out, term)
        )
    else:
        raise NotNilpotent("exponential series did not terminate")
    return out


class GSpace:
    """Subspace of Q(i)^n in reduced row echelon coordinates."""

    __slots__ = ("ambient", "basis", "_pivots")

    def __init__(self, ambient: int, rows=()):
        basis, pivots = grref(gmat(rows))
        self.ambient = ambient
        self.basis = basis[: len(pivots)]
        self._pivots = pivots

    @classmethod
    def span(cls, rows, ambient: int) -> "GSpace":
        return cls(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v) -> tuple:
        v = list(gvec(v))
        for row, p in zip(self.basis, self._pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: "GSpace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def intersect(self, other: "GSpace") -> "GSpace":
        if not self.basis or not other.basis:
            return GSpace(self.ambient)
        # left kernel of the stacked bases picks out common vectors
        stacked = self.basis + other.basis
        found = []
        for y in _left_kernel(stacked):
            head = y[: len(self.basis)]
            v = tuple(
                sum((head[i] * self.basis[i][j] for i in range(len(head))), ZERO)
                for j in range(self.ambient)
            )
            if any(v):
                found.append(v)
        return GSpace(self.ambient, found)

    def apply(self, op) -> "GSpace":
        return GSpace(self.ambient, [gmatvec(op, b) for b in self.basis])

    def conjugate(self) -> "GSpace":
        return GSpace(self.ambient, [gconj_vec(b) for b in self.basis])

    def __eq__(self, other):
        return (
            isinstance(other, GSpace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"GSpace(dim={self.dim}, ambient={self.ambient})"


def _left_kernel(rows):
    """Vectors y with y * rows = 0, via rref of the transpose."""
    n = len(rows)
    if n == 0:
        return ()
    m = len(rows[0])
    # kernel of the transpose acting on coefficient vectors
    transposed = tuple(tuple(rows[i][j] for i in range(n)) for j in range(m))
    red, pivots = grref(transposed)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for f in free:
        y = [ZERO] * n
        y[f] = ONE
        for r, p in zip(red, pivots):
            y[p] = -r[f]
        out.append(tuple(y))
    return tuple(out)

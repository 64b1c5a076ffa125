"""Dense Fraction reference for series in a nilpotent operator.

These are the power-by-power loops that qlinalg.NilpotentPowers
replaced, on plain Fraction matrices with a schoolbook product, kept
only as oracles for the kernel and the series read from it.
"""

from fractions import Fraction

from relfan.errors import NotNilpotent, NotUnipotent
from conftest import realify_mat, unrealify_mat


def _identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def dense_nilpotency_index(n_mat) -> int:
    n = len(n_mat)
    p = _identity(n)
    for k in range(n + 1):
        if all(x == 0 for row in p for x in row):
            return k
        p = _mul(n_mat, p)
    raise NotNilpotent("matrix power did not vanish by the ambient rank")


def dense_series(n_mat, coeff):
    """sum of coeff(i) N^i over i below the nilpotency index."""
    n = len(n_mat)
    out = _scale(Fraction(0), _identity(n))
    term = _identity(n)
    for i in range(dense_nilpotency_index(n_mat)):
        out = _add(out, _scale(Fraction(coeff(i)), term))
        term = _mul(term, n_mat)
    return out


def dense_exp(n_mat):
    k = dense_nilpotency_index(n_mat)
    out = term = _identity(len(n_mat))
    for i in range(1, k):
        term = _scale(Fraction(1, i), _mul(term, n_mat))
        out = _add(out, term)
    return out


def dense_log(u_mat):
    n = len(u_mat)
    m = _add(u_mat, _scale(Fraction(-1), _identity(n)))
    try:
        k = dense_nilpotency_index(m)
    except NotNilpotent as exc:
        raise NotUnipotent("matrix minus identity is not nilpotent") from exc
    out = _scale(Fraction(0), _identity(n))
    term = _identity(n)
    for i in range(1, k):
        term = _mul(term, m)
        out = _add(out, _scale(Fraction((-1) ** (i + 1), i), term))
    return out


def gexp_nilpotent(m):
    """exp of a nilpotent Q(i) matrix by its finite series, realified."""
    return unrealify_mat(dense_exp(realify_mat(m)))

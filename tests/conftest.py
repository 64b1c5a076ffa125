from fractions import Fraction
from math import lcm

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from relfan.errors import MixedAmbient
from relfan.qlinalg import (
    ZERO,
    ZLattice,
    _int_product,
    _sparse_rows,
    _to_fractions,
    int_left_kernel,
    rref,
    vec,
    vscale,
    vsub,
)

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# more examples for the property tests of a chosen file, on request:
# python -m pytest tests/test_classifying.py --hypothesis-profile=deep
settings.register_profile("deep", parent=settings.get_profile("exact"), max_examples=600)
settings.load_profile("exact")


def fracs(max_num=9, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def int_fracs(lo=-9, hi=9):
    return st.integers(min_value=lo, max_value=hi).map(Fraction)


def lifted(window, grid):
    """A window of GridFace symbols as cones in operator space, for its
    oracles."""
    return tuple(grid.cone(e) for e in window)


def pencil_commutes(fan, a, b):
    """Commutation via the kernel criterion: two pencil operators
    commute exactly when lam_a * h_b - lam_b * h_a is killed by the
    inner block.  None when either operator is off the pencil."""
    la = fan.frame.restriction_multiple(a)
    lb = fan.frame.restriction_multiple(b)
    if la is None or lb is None:
        return None
    w = vsub(vscale(la, fan.frame.e_image(b)), vscale(lb, fan.frame.e_image(a)))
    return fan.kernel_space.contains(w)


# --- helpers no relfan path calls, kept as oracles ----------------------------


def solve(a, b):
    """One solution x of a . x = b (column convention), or None, by one
    Fraction rref of [a | b]."""
    n = len(a)
    m = len(a[0]) if n else 0
    if len(b) != n:
        raise MixedAmbient("solve: shape mismatch")
    r, piv = rref(tuple(tuple(a[i]) + (b[i],) for i in range(n)))
    if m in piv:
        return None
    x = [ZERO] * m
    for i, c in enumerate(piv):
        x[c] = r[i][m]
    return tuple(x)


def reduce(space, v):
    """Residual of v after eliminating the subspace's pivot coordinates:
    zero iff v is a member, and linear, so a canonical projection along
    the subspace."""
    (iv,), dv = space._cleared_vector(v)
    return _to_fractions(space._residual(iv), space._cleared[0] * dv)


def coords(space, v):
    """Coefficients of v in the subspace's rref basis, or None: a
    member's coefficients are its entries at the pivots."""
    v = vec(v)
    return tuple(v[p] for p in space._pivots()) if space.contains(v) else None


def embed_inner(frame, v):
    """An inner vector of the frame in the ambient space, e's coordinate 0."""
    v = vec(v)
    if len(v) != frame.rank:
        raise MixedAmbient("embed_inner: wrong length")
    return v + (ZERO,)


def lattice_add(a, b):
    """The sum of two lattices, over the lcm of their denominators."""
    if a.ambient != b.ambient:
        raise MixedAmbient("lattice add: ambient mismatch")
    d = lcm(a.denom, b.denom)
    rows = [tuple(x * (d // a.denom) for x in r) for r in a.rows]
    rows += [tuple(x * (d // b.denom) for x in r) for r in b.rows]
    return ZLattice._reduce(a.ambient, rows, d)


def lattice_intersect(a, b):
    """The meet of two lattices: the left kernel of [A; -B] over Z gives
    the coefficients of the common vectors on A's rows."""
    if a.ambient != b.ambient:
        raise MixedAmbient("lattice intersect: ambient mismatch")
    if not a.rows or not b.rows:
        return ZLattice(a.ambient)
    d = lcm(a.denom, b.denom)
    ra = [tuple(x * (d // a.denom) for x in r) for r in a.rows]
    rb = [tuple(x * (d // b.denom) for x in r) for r in b.rows]
    coeffs = _sparse_rows([y[: len(ra)] for y in int_left_kernel(ra + [tuple(-x for x in r) for r in rb])])
    return ZLattice._reduce(a.ambient, _int_product(coeffs, _sparse_rows(ra), a.ambient), d)

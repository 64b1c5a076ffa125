from fractions import Fraction
from math import lcm

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from relfan.classifying import _orbit_powers
from relfan.errors import MixedAmbient
from relfan.gallery import ChartPoint, equivalence_witness
from relfan.gaussian import GSpace, gmat, unrealify
from relfan.qlinalg import (
    ONE,
    ZERO,
    Subspace,
    ZLattice,
    _int_product,
    _scaled_int_rows,
    _sparse_rows,
    _to_fractions,
    int_left_kernel,
    inverse,
    linear_map,
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


def check_fan(cones) -> list:
    """Fan axioms on a finite window: closed under faces, and any two
    members intersect in a common face.  Returns a list of violation
    records, empty when the window is a fan."""
    cones = list(cones)
    index = {c.rays for c in cones}
    bad = []
    for c in cones:
        for f in c.facets():
            if f.rays not in index:
                bad.append({"kind": "missing-face", "cone": c, "face": f})
    for i, a in enumerate(cones):
        for b in cones[i + 1:]:
            k = a.intersect(b)
            if not (k.is_face_of(a) and k.is_face_of(b)):
                bad.append({"kind": "bad-intersection", "left": a, "right": b, "meet": k})
    return bad


def limit(p):
    """A chart point's coordinates over the degenerate modulus."""
    return ChartPoint(p.t, p.a1, p.a2, None)


def equivalent(p, q) -> bool:
    return equivalence_witness(p, q)["equivalent"]


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


def fraction_split(fan, v):
    """Cube coordinates and coset key of a Fraction member v of P, or None
    off P: membership by Subspace.contains, and the coordinates by the
    Fraction inverse of the adapted basis at P's pivots."""
    if not fan.p_space.contains(v):
        return None
    pivots = fan.p_space._pivots()
    rows = fan.cube_basis + fan.section_basis
    c = linear_map(inverse([[r[p] for r in rows] for p in pivots]))(tuple(v[p] for p in pivots))
    return tuple(c[:fan.cube_rank]), tuple(c[fan.cube_rank:])


def fraction_place(fan, lam, h):
    """Chart coordinates (level, coset key, cube coordinates) of an
    operator at pencil level lam (None off the pencil) whose image of e is
    the Fraction vector h, or None when the level is not positive or h /
    lam leaves P."""
    if lam is None or lam <= 0:
        return None
    split = fraction_split(fan, vscale(ONE / lam, h))
    return None if split is None else (lam, split[1], split[0])


def fraction_pencil_commute(fan, pencil) -> bool:
    """Whether pencil operators, given as (level, Fraction image of e)
    pairs, commute pairwise: for nonzero levels h / lam lies in one coset
    of ker N, and a level zero h lies in ker N when any level is nonzero."""
    moving = [vscale(ONE / lam, h) for lam, h in pencil if lam]
    if not moving:
        return True
    ker = fan.kernel_space
    return all(ker.contains(vsub(h, moving[0])) for h in moving[1:]) and all(
        ker.contains(h) for lam, h in pencil if not lam
    )


def realify_mat(m) -> tuple:
    """The rational matrix of v -> m . v in realified coordinates, every
    zero entry the rational layer's shared ZERO."""
    out = []
    for row in gmat(m):
        out.append(tuple(x or ZERO for z in row for x in (z.re, -z.im)))
        out.append(tuple(x or ZERO for z in row for x in (z.im, z.re)))
    return tuple(out)


def transport(op) -> list:
    """The sparse cleared rows of realify_mat(op) transposed: a realified
    row w times them is op . w up to a positive scale."""
    ints, _ = _scaled_int_rows(realify_mat(op))
    if any(len(row) != len(ints) for row in ints):
        raise MixedAmbient("operator is not square")
    return _sparse_rows(zip(*ints))


def apply_space(space, op):
    """The image of a GSpace under a Q(i) operator: its cleared rows times
    the transported columns."""
    columns, n = transport(op), space.real.ambient
    if len(columns) != n:
        raise MixedAmbient("operator of the wrong size")
    return GSpace._of(Subspace._of_int_rows(_int_product(space._rows, columns, n), n))


def apply_point(pt, op):
    """A period point transported along an invertible Q(i) operator,
    cleared once into columns and moved as the orbit moves it."""
    columns = transport(op)
    if len(columns) != 2 * pt.frame.dim:
        raise MixedAmbient("operator of the wrong size")
    return pt._moved(columns)


def unrealify_mat(m) -> tuple:
    """The Q(i) matrix of a realified one: column 2b of a realified matrix
    is its realified column b."""
    return tuple(zip(*(unrealify(col) for col in tuple(zip(*m))[::2])))


def orbit_exponentials(n_mat, y_samples) -> list:
    """exp(i y N) over Q(i) for each height y, read off the integer
    series of the realified iN."""
    powers = _orbit_powers(n_mat)
    return [unrealify_mat(powers.exp(y)) for y in y_samples]

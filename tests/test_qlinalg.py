from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import fracs, int_fracs
from dense_series import dense_exp, dense_log, dense_nilpotency_index, dense_series
from relfan.errors import (
    MixedAmbient,
    NotNilpotent,
    NotUnipotent,
    PreconditionViolated,
    SpecFormatError,
)
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gaussian import GSpace, Gi
from relfan.gallery import kunneth_h3, standard_factors
from relfan.qlinalg import (
    ZERO,
    NilpotentPowers,
    Subspace,
    ZLattice,
    det,
    exp_nilpotent,
    format_scalar,
    frac,
    hnf,
    identity,
    int_left_kernel,
    inverse,
    is_nilpotent,
    is_zero_mat,
    log_unipotent,
    mat,
    matmul,
    matscale,
    matvec,
    order_in_quotient,
    primitive,
    rank,
    rref,
    snf,
    solve,
    transpose,
    vec,
)

F = Fraction


def square(dim, elems=int_fracs()):
    return st.lists(
        st.lists(elems, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(mat)


# --- scalars ---------------------------------------------------------------


def test_frac_parses_strings_and_ints():
    assert frac("3/4") == F(3, 4)
    assert frac("-2") == F(-2)
    assert frac(5) == F(5)


@pytest.mark.parametrize("bad", [1.5, "3/0", "x", None, True])
def test_frac_rejects_inexact(bad):
    with pytest.raises(SpecFormatError):
        frac(bad)


def test_format_scalar_roundtrip():
    assert format_scalar(F(-7, 2)) == "-7/2"
    assert format_scalar(F(4)) == "4"
    assert frac(format_scalar(F(22, 7))) == F(22, 7)
    assert [format_scalar(x) for x in (0, -3, ZERO, F(6, 3), F(-1, 9))] == ["0", "-3", "0", "2", "-1/9"]


def test_zero_entries_at_the_edges_are_the_shared_zero():
    assert frac("0") is ZERO and frac(0) is ZERO and frac("0/5") is ZERO
    scaled = matscale(F(1, 2), ((F(0), F(3)), (ZERO, F(-1, 3))))
    assert scaled[0][0] is ZERO and scaled[1][0] is ZERO and scaled[0][1] == F(3, 2)
    assert all(x is ZERO for row in matscale(0, ((F(1), F(2)),)) for x in row)


# --- rref / solve / kernel -------------------------------------------------


def test_rref_known():
    r, piv = rref(mat([[2, 4], [1, 2]]))
    assert r == mat([[1, 2], [0, 0]])
    assert piv == (0,)


@given(square(3, fracs()))
def test_rref_idempotent(m):
    r, piv = rref(m)
    r2, piv2 = rref(r)
    assert r == r2 and piv == piv2


@given(square(3, fracs()), st.lists(fracs(), min_size=3, max_size=3).map(vec))
def test_solve_consistency(m, x):
    b = matvec(m, x)
    got = solve(m, b)
    assert got is not None
    assert matvec(m, got) == b


@given(square(4))
def test_kernel_rank_nullity(m):
    k = Subspace.kernel(m).basis
    assert rank(m) + len(k) == 4
    for v in k:
        assert all(c == 0 for c in matvec(m, v))


@given(square(3, fracs()))
def test_inverse_when_it_exists(m):
    inv = inverse(m)
    if det(m) == 0:
        assert inv is None
    else:
        assert matmul(m, inv) == identity(3)


def test_det_hand_values():
    assert det(mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])) == 18
    assert det(mat([[0, 1], [1, 0]])) == -1
    assert det(mat([["1/2", "1/3"], ["1/4", "1/5"]])) == F(1, 60)
    assert det(mat([[1, 2], [2, 4]])) == 0
    assert det(()) == 1


@given(square(4, fracs()), st.integers(0, 3), st.integers(0, 3), fracs())
def test_det_under_row_swap_and_scaling(m, i, j, c):
    rows = list(m)
    rows[i], rows[j] = rows[j], rows[i]
    assert det(tuple(rows)) == (det(m) if i == j else -det(m))
    rows = list(m)
    rows[i] = tuple(c * x for x in rows[i])
    assert det(tuple(rows)) == c * det(m)


# --- subspaces ---------------------------------------------------------------


def test_subspace_canonical_under_generator_shuffle():
    a = Subspace.span([(1, 2, 0), (0, 0, 1)], 3)
    b = Subspace.span([(2, 4, 3), (0, 0, -1), (1, 2, 1)], 3)
    assert a == b


def test_subspace_modular_law_fails_but_dim_formula_holds():
    u = Subspace.span([(1, 0, 0), (0, 1, 0)], 3)
    v = Subspace.span([(0, 1, 1)], 3)
    assert u.add(v).dim + u.intersect(v).dim == u.dim + v.dim


@given(
    st.lists(st.lists(int_fracs(), min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(int_fracs(), min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_subspace_intersection_is_lower_bound(rows_a, rows_b):
    a = Subspace.span(rows_a, 4)
    b = Subspace.span(rows_b, 4)
    c = a.intersect(b)
    assert a.contains_space(c) and b.contains_space(c)
    assert a.add(b).dim + c.dim == a.dim + b.dim


@given(st.data())
def test_subspace_intersection_of_rational_spaces(data):
    # a shared part keeps the intersection nonzero in most examples
    n = data.draw(st.integers(1, 5))
    row = st.lists(fracs(), min_size=n, max_size=n)
    shared = data.draw(st.lists(row, max_size=2))
    a = Subspace.span(shared + data.draw(st.lists(row, max_size=3)), n)
    b = Subspace.span(shared + data.draw(st.lists(row, max_size=3)), n)
    c = a.intersect(b)
    assert a.contains_space(c) and b.contains_space(c)
    assert c.dim == a.dim + b.dim - a.add(b).dim
    assert c.contains_space(Subspace.span(shared, n))


def test_subspace_reduce_is_membership_test():
    s = Subspace.span([(1, 0, 2), (0, 1, -1)], 3)
    assert s.contains((2, 1, 3))
    assert not s.contains((0, 0, 1))
    assert s.coords((2, 1, 3)) == (F(2), F(1))
    for space in (s, Subspace.zero(3)):
        with pytest.raises(MixedAmbient):
            space.coords((0, 0))


# --- sparse integer kernels against dense Fraction references -----------------


def dense_matmul(a, b):
    """Every inner product, in Fraction arithmetic."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)) for row in a)


def dense_reduce(space, v):
    """Sequential elimination of each pivot coordinate, in Fraction arithmetic."""
    out = list(v)
    for row in space.basis:
        p = next(j for j, x in enumerate(row) if x)
        f = out[p]
        out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


# mostly zero, fully dense with fractional entries, or all zero
ENTRIES = {
    "sparse": st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), fracs()),
    "dense": fracs(),
    "zero": st.just(F(0)),
}


def matrices(data, rows, cols):
    elems = ENTRIES[data.draw(st.sampled_from(sorted(ENTRIES)))]
    return data.draw(
        st.lists(st.lists(elems, min_size=cols, max_size=cols), min_size=rows, max_size=rows).map(mat)
    )


@given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(0, 5))
def test_matmul_matches_the_dense_reference(data, n, k, m):
    a, b = matrices(data, n, k), matrices(data, k, m)
    out = matmul(a, b)
    assert out == dense_matmul(a, b)
    assert all(x is ZERO for row in out for x in row if x == 0)


@given(st.data(), st.integers(1, 5))
def test_rref_zeros_are_shared(data, n):
    r, _ = rref(matrices(data, data.draw(st.integers(1, 4)), n))
    assert all(x is ZERO for row in r for x in row if x == 0)


@given(st.data(), st.integers(1, 6))
def test_subspace_reduce_and_contains_match_the_dense_reference(data, n):
    space = Subspace.span(data.draw(st.lists(st.lists(fracs(), min_size=n, max_size=n), max_size=n)), n)
    coefs = data.draw(st.lists(fracs(), min_size=space.dim, max_size=space.dim))
    member = tuple(sum((c * row[j] for c, row in zip(coefs, space.basis)), F(0)) for j in range(n))
    other = vec(data.draw(st.lists(fracs(), min_size=n, max_size=n)))
    for v in (member, other):
        assert space.reduce(v) == dense_reduce(space, v)
        member_by_rank = rank(space.basis + (v,)) == space.dim
        assert space.contains(v) == is_zero_mat((dense_reduce(space, v),)) == member_by_rank
    assert space.contains(member)
    part = Subspace.span([member, other], n)
    assert space.contains_space(part) == (space.contains(member) and space.contains(other))


# --- the cleared rows are the one stored form of a subspace ------------------


def dense_rref(rows):
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan
    elimination in Fraction arithmetic."""
    work, out = [list(map(F, r)) for r in rows], []
    for c in range(len(work[0]) if work else 0):
        p = next((i for i, r in enumerate(work) if r[c]), None)
        if p is None:
            continue
        top = work.pop(p)
        top = [x / top[c] for x in top]
        work = [[x - r[c] * y for x, y in zip(r, top)] for r in work]
        out = [[x - r[c] * y for x, y in zip(r, top)] for r in out] + [top]
    return tuple(map(tuple, out))


def kernel_basis(m, n):
    """Rows spanning {x : m . x = 0}, one per free column f of the dense
    rref, with x[f] = 1."""
    r = dense_rref(m)
    pivots = [next(j for j, x in enumerate(row) if x) for row in r]
    out = []
    for f in (f for f in range(n) if f not in pivots):
        x = [F(0)] * n
        x[f] = F(1)
        for row, p in zip(r, pivots):
            x[p] = -row[f]
        out.append(tuple(x))
    return tuple(out)


def assert_canonical(space):
    """_cleared is (D, rows) with D the least positive integer clearing the
    rref, every pivot entry D, zeros at the other pivots and no stored
    zero, all in tuples; it is the stored form, so it is hashed."""
    den, rows = space._cleared
    pivots = [p for p, _ in rows]
    assert den > 0 and pivots == sorted(set(pivots)) and len(rows) == space.dim
    for p, row in rows:
        assert type(row) is tuple and row[0] == (p, den) and all(x for _, x in row)
        assert [j for j, _ in row] == sorted({j for j, _ in row}) and not set(dict(row)) & set(pivots) - {p}
    assert lcm(*(F(x, den).denominator for _, row in rows for _, x in row)) == den
    assert hash(space) == hash(Subspace(space.ambient, space._cleared))


def rational_rows(n, max_size=None):
    """Rows of length n whose entries mix denominators up to 12."""
    return st.lists(st.lists(fracs(max_num=12, max_den=12), min_size=n, max_size=n), max_size=max_size or n + 1)


@given(st.data(), st.integers(1, 6))
def test_span_is_the_dense_rref_and_does_not_see_the_generators(data, n):
    rows = data.draw(rational_rows(n))
    space = Subspace.span(rows, n)
    assert space.basis == dense_rref(rows)
    assert_canonical(space)
    if rows:
        u = data.draw(square(len(rows), fracs(max_num=5, max_den=6)))
        assume(det(u) != 0)
        other = Subspace.span(matmul(u, mat(rows)), n)
        assert other._cleared == space._cleared and hash(other) == hash(space) and other == space


@given(st.data(), st.integers(1, 6))
def test_every_space_made_is_canonical(data, n):
    a = Subspace.span(data.draw(rational_rows(n)), n)
    b = Subspace.span(data.draw(rational_rows(n)), n)
    m = mat(data.draw(rational_rows(n, max_size=6)) or [[0] * n])
    made = [a.add(b), a.intersect(b), Subspace.kernel(m), Subspace.image(transpose(m))]
    for space in made + [Subspace.zero(n), Subspace.full(n)]:
        assert_canonical(space)
    assert made[0].basis == dense_rref(a.basis + b.basis)
    assert made[2].basis == dense_rref(kernel_basis(m, n))
    assert made[3].basis == dense_rref(m)
    g = GSpace(n, [[Gi(x, y) for x, y in zip(r, reversed(r))] for r in data.draw(rational_rows(n))])
    conj = g.conjugate()
    assert_canonical(conj.real)
    assert conj.real.basis == dense_rref([[-x if j & 1 else x for j, x in enumerate(w)] for w in g.real.basis])


def intersect_subspace_reference(lat, space):
    """The lattice meet on Fraction rows: the kernel of the basis, made
    primitive, then the integer left kernel of the lattice rows against it."""
    ker = kernel_basis(space.basis, space.ambient)
    if not lat.rows or not ker:
        return lat if lat.rows else ZLattice(lat.ambient)
    w = matmul(mat(lat.rows), transpose(tuple(primitive(k) for k in ker)))
    members = []
    for c in int_left_kernel(tuple(tuple(int(x) for x in r) for r in w)):
        v = [sum(coef * row[j] for coef, row in zip(c, lat.rows)) for j in range(lat.ambient)]
        members.append(tuple(F(x, lat.denom) for x in v))
    return ZLattice.from_vectors(members, lat.ambient)


@given(st.data(), st.integers(1, 6))
def test_intersect_subspace_matches_the_fraction_path(data, n):
    lat = ZLattice.from_vectors(data.draw(rational_rows(n)), n)
    space = Subspace.span(data.draw(rational_rows(n)), n)
    assert lat.intersect_subspace(space) == intersect_subspace_reference(lat, space)
    # a space holding part of the lattice keeps the meet nonzero
    part = Subspace.span(lat.basis_vectors()[:1] + space.basis[:1], n)
    assert lat.intersect_subspace(part) == intersect_subspace_reference(lat, part)


@pytest.mark.parametrize("frame", [elliptic_frame, jordan3_frame, lambda: kunneth_h3(standard_factors())])
def test_embedded_spaces_reuse_the_cleared_rows(frame):
    fr = frame()
    pad = lambda s: Subspace.span([v + (ZERO,) for v in s.basis], s.ambient + 1)
    assert fr.inner_space == pad(Subspace.full(fr.rank)) == Subspace.span(map(fr.embed_inner, identity(fr.rank)), fr.dim)
    for filt in (fr.pencil_weight_filtration, fr._zero_block_filtration):
        levels = filt._embedded_levels
        assert set(levels) == set(filt.jump_indices) | {0}
        for j, space in levels.items():
            assert space == pad(filt.at(j))
            assert_canonical(space)


def test_subspace_ambient_mismatch():
    with pytest.raises(MixedAmbient):
        Subspace.span([(1, 0)], 2).add(Subspace.span([(1, 0, 0)], 3))


# --- integer forms -----------------------------------------------------------


def test_hnf_canonical_shape():
    h = hnf([[4, 6], [2, 5]])
    # pivots positive, above-pivot entries reduced
    assert h == ((2, 1), (0, 4))


def unimodular_2x2():
    return st.sampled_from(
        [
            ((1, 0), (0, 1)),
            ((1, 1), (0, 1)),
            ((1, 0), (1, 1)),
            ((0, 1), (-1, 0)),
            ((2, 1), (1, 1)),
        ]
    )


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=2
    ),
    unimodular_2x2(),
)
def test_hnf_invariant_under_row_mixing(rows, u):
    mixed = [
        [u[i][0] * rows[0][j] + u[i][1] * rows[1][j] for j in range(3)]
        for i in range(2)
    ]
    assert hnf(rows) == hnf(mixed)


def test_int_left_kernel_known():
    assert int_left_kernel([[2], [3]]) == ((3, -2),)




def test_snf_frozen_diag_2_3():
    d, u, v = snf([[2, 0], [0, 3]])
    assert (d[0][0], d[1][1]) == (1, 6)
    assert matmul(matmul(mat(u), mat([[2, 0], [0, 3]])), mat(v)) == mat(d)


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=2, max_size=4
    )
)
def test_snf_properties(rows):
    d, u, v = snf(rows)
    assert matmul(matmul(mat(u), mat(rows)), mat(v)) == mat(d)
    assert abs(det(mat(u))) == 1 and abs(det(mat(v))) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0 if a else b == 0)


# --- lattices ----------------------------------------------------------------


def test_lattice_canonical_and_denominator():
    a = ZLattice.from_vectors([(F(1, 2), 0), (0, F(1, 2))], 2)
    b = ZLattice.from_vectors([(F(1, 2), F(1, 2)), (F(1, 2), -F(1, 2))], 2)
    assert a.denom == 2 and a.rows == ((1, 0), (0, 1))
    assert a != b and a.contains((F(1, 2), F(1, 2)))
    assert b.contains((1, 0)) and not b.contains((F(1, 2), 0))


def test_lattice_membership_and_coords():
    lat = ZLattice.from_vectors([(2, 1), (0, 3)], 2)
    assert lat.contains((2, 4))
    assert lat.coords((2, 4)) == (1, 1)
    assert lat.coords((1, 0)) is None


def test_lattice_intersect_frozen():
    a = ZLattice.from_vectors([(2, 0), (0, 1)], 2)
    b = ZLattice.from_vectors([(1, 0), (0, 2)], 2)
    assert a.intersect(b) == ZLattice.from_vectors([(2, 0), (0, 2)], 2)


def test_lattice_sum_reduces_denominator():
    a = ZLattice.from_vectors([(F(1, 2), 0)], 2)
    b = ZLattice.from_vectors([(F(1, 2), 0), (0, 1)], 2)
    assert a.add(b) == b


def test_lattice_subspace_slice():
    lat = ZLattice.standard(3)
    plane = Subspace.span([(1, 1, 0), (0, 0, 1)], 3)
    got = lat.intersect_subspace(plane)
    assert got == ZLattice.from_vectors([(1, 1, 0), (0, 0, 1)], 3)
    line = Subspace.span([(F(1, 2), F(1, 3), 0)], 3)
    assert lat.intersect_subspace(line) == ZLattice.from_vectors([(3, 2, 0)], 3)


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=1, max_size=3
    ),
    st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=1, max_size=3
    ),
)
def test_lattice_intersection_is_lower_bound(ra, rb):
    a = ZLattice.from_vectors(ra, 2)
    b = ZLattice.from_vectors(rb, 2)
    c = a.intersect(b)
    for v in c.basis_vectors():
        assert a.contains(v) and b.contains(v)
    # anything in both generator lists is in the intersection
    for v in ra:
        if b.contains(vec(v)):
            assert c.contains(vec(v))


# --- quotient orders ---------------------------------------------------------


def test_order_in_quotient_frozen():
    lat = ZLattice.standard(2)
    nothing = Subspace.zero(2)
    assert order_in_quotient((F(1, 2), 0), lat, nothing) == 2
    assert order_in_quotient((F(1, 2), F(1, 3)), lat, nothing) == 6
    line = Subspace.span([(0, 1)], 2)
    assert order_in_quotient((F(1, 2), F(1, 3)), lat, line) == 2
    assert order_in_quotient((0, 0), lat, nothing) == 1


def test_order_in_quotient_precondition():
    lat = ZLattice.from_vectors([(1, 0)], 2)
    with pytest.raises(PreconditionViolated):
        order_in_quotient((0, 1), lat, Subspace.zero(2))


@given(st.integers(-20, 20), st.integers(1, 12))
def test_order_in_quotient_minimality(p, q):
    lat = ZLattice.standard(1)
    a = order_in_quotient((F(p, q),), lat, Subspace.zero(1))
    assert a == F(p, q).denominator
    assert (a * F(p, q)).denominator == 1


# --- nilpotent exponentials --------------------------------------------------


def test_log_unipotent_frozen_jordan():
    u = mat([[1, 1, 1], [0, 1, 1], [0, 0, 1]])  # I + J + J^2 pattern
    expect = mat([[0, 1, F(1, 2)], [0, 0, 1], [0, 0, 0]])
    assert log_unipotent(u) == expect
    assert exp_nilpotent(expect) == u


def test_nilpotency_index():
    j = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert len(NilpotentPowers(j)) == 3
    with pytest.raises(NotNilpotent):
        NilpotentPowers(identity(2))
    with pytest.raises(NotUnipotent):
        log_unipotent(mat([[2, 0], [0, 1]]))


@given(square(3, int_fracs(-3, 3)))
def test_exp_log_roundtrip_on_strict_upper(m):
    n = tuple(
        tuple(m[i][j] if j > i else F(0) for j in range(3)) for i in range(3)
    )
    u = exp_nilpotent(n)
    assert log_unipotent(u) == n
    assert is_zero_mat(matmul(n, matmul(n, n)))


# --- the powers kernel against the dense Fraction loops ------------------------


def strict_upper(max_dim=6):
    """Strictly upper triangular matrices of size 1 to max_dim, their
    entries zero or with mixed denominators."""
    entry = st.one_of(st.just(F(0)), fracs(max_num=6, max_den=6))

    def build(n):
        return st.lists(entry, min_size=n * n, max_size=n * n).map(
            lambda xs: tuple(tuple(xs[i * n + j] if j > i else F(0) for j in range(n)) for i in range(n))
        )

    return st.integers(1, max_dim).flatmap(build)


def check_kernel(n, coeffs):
    """The kernel against the dense loops: the index, each power
    P_i / d^i, a series with the given coefficients (cycled), exp and
    log."""
    powers = NilpotentPowers(n)
    assert len(powers) == dense_nilpotency_index(n)
    for i, p in enumerate(powers.ints):
        want = dense_series(n, lambda j: int(j == i))
        assert tuple(tuple(F(x, powers.den**i) for x in row) for row in p) == want

    def coeff(i):
        return coeffs[i % len(coeffs)]

    assert powers.series(coeff) == dense_series(n, coeff)
    assert exp_nilpotent(n) == dense_exp(n)
    u = dense_exp(n)
    assert log_unipotent(u) == dense_log(u) == n


@given(strict_upper(), st.lists(fracs(), min_size=1, max_size=6))
def test_nilpotent_powers_match_dense_reference(n, coeffs):
    check_kernel(n, coeffs)


@given(strict_upper())
def test_exp_of_log_is_the_unipotent(n):
    u = tuple(tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(n))
    assert log_unipotent(u) == dense_log(u)
    assert exp_nilpotent(log_unipotent(u)) == u


@pytest.mark.parametrize("frame", [elliptic_frame, jordan3_frame, lambda: kunneth_h3(standard_factors())],
                         ids=["elliptic", "jordan3", "triple"])
def test_nilpotent_powers_of_fixture_logs(frame):
    fr = frame()
    check_kernel(fr.log_gamma, [F(1, 3), F(-2), F(5, 7)])
    assert fr.log_powers.series(lambda i: F(1, factorial(i))) == fr.gamma


@given(square(3, int_fracs(-2, 2)))
def test_nilpotency_decided_like_dense_reference(m):
    try:
        want = dense_nilpotency_index(m)
    except NotNilpotent:
        assert not is_nilpotent(m)
        with pytest.raises(NotNilpotent):
            NilpotentPowers(m)
    else:
        assert len(NilpotentPowers(m)) == want


def test_primitive():
    assert primitive(vec([F(2, 3), F(-4, 3)])) == vec([1, -2])
    assert primitive(vec([0, 0])) == vec([0, 0])
    assert primitive(vec([-2, -4])) == vec([-1, -2])


@given(st.lists(fracs(), min_size=1, max_size=12))
def test_primitive_shares_zero(v):
    p = primitive(vec(v))
    assert all(x is ZERO for x in p if not x)
    assert all(x is ZERO for x in primitive(vec([0] * 3 + list(v))) if not x)

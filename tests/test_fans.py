"""Cell fan geometry: indexing, conjugation, subdivision, comparisons."""

import hashlib
import random
from unittest import mock
from math import factorial, floor, gcd, lcm, prod
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from relfan.cones import Cone
from relfan.errors import (
    NotSquareZeroPure,
    InvariantViolation,
    NotCommutative,
    NotInGroup,
    NotSharp,
    PreconditionViolated,
)
from relfan import cones as cones_module, fans
from relfan.fans import (
    CellFan,
    check_admissible,
    check_square_zero_pure,
    corrupted_window,
    cube_window,
    flatten,
    image_lattice,
    minimal_integral_exponent,
    neron_lattice,
    random_admissible_cone,
    random_inadmissible_operator,
    relations_report,
    strong_compatibility_report,
    subdivide_against,
    unflatten,
)
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gallery import kunneth_h3, standard_factors
from relfan.grid import ORIGIN, ChartGrid, GridFace, box, first_fan_violation, window_face_table
from relfan.hodge import Frame, _membership, frame_from_json, frame_to_json, relative_filtration
from relfan.qlinalg import (
    NilpotentPowers,
    Subspace,
    ZLattice,
    _scaled_int_rows,
    exp_nilpotent,
    identity,
    inverse,
    is_zero_mat,
    matmul,
    matpow,
    matscale,
    matvec,
    transpose,
    vadd,
    vscale,
    zero_vec,
)
from conftest import check_fan, fracs, fraction_pencil_commute, fraction_place, fraction_split, lifted, pencil_commutes, solve
from test_qlinalg import order_in_quotient


@pytest.fixture(scope="module")
def ell():
    return CellFan(elliptic_frame())


@pytest.fixture(scope="module")
def jd3():
    return CellFan(jordan3_frame())


@pytest.fixture(scope="module")
def triple():
    return CellFan(kunneth_h3(standard_factors()))


# --- oracles -----------------------------------------------------------

def brute_min_exponent(fan, n_mat, limit=64):
    """Smallest multiple whose exponential is integral, by direct search."""
    fr = fan.frame
    lam = fr.restriction_multiple(n_mat)
    basis = fr.lattice.basis_vectors()
    for a in range(1, limit + 1):
        if (a * lam).denominator != 1:
            continue
        ex = exp_nilpotent(matscale(a, n_mat))
        if all(fr.lattice.contains(matvec(ex, b)) for b in basis):
            return a
    raise AssertionError("no integral multiple found in range")


def gamma_matrix(fan, power, shift):
    """The extension automorphism gamma^power followed by the lattice
    shift of e, as a matrix; NotInGroup for a shift off the lattice."""
    fr = fan.frame
    shift = fan._shift(shift)
    gp = fr.log_powers.exp(power)
    return tuple(gp[i] + (shift[i],) for i in range(fr.rank)) + (zero_vec(fr.rank) + (F(1),),)


def conjugate(fan, power, shift, n_mat):
    """The matrix reference for conjugation: g M g^-1 with g the
    automorphism gamma_matrix(fan, power, shift)."""
    g = gamma_matrix(fan, power, shift)
    return matmul(matmul(g, n_mat), inverse(g))


def cell_containing(fan, n_mat):
    """Index (key, n) of the cell whose relative interior, or floor
    boundary, holds the operator; None when no cell does."""
    rows, lam, den = _membership(fan.frame, n_mat)
    if not any(rows):
        return fan.zero_key(), (0,) * fan.cube_rank
    rank = fan.frame.rank
    at = fan._place(lam, [dict(row).get(rank, 0) for row in rows[:rank]], den)
    if at is None:
        return None
    _, key, cube = at
    return key, tuple(floor(fan.denominator(key) * c) for c in cube)


def reference_gamma_report(fan, window, gammas):
    """strong_compatibility_report by walking the zero key's window and
    lifting each entry: a top cell is indexed by its corner, and each
    entry's dimension picks its check."""
    fr = fan.frame
    top = 1 + fan.cube_rank
    zero, grid = fan.zero_key(), fan.grid()

    def first_failure(key):
        for power, shift in gammas:
            try:
                fan.conjugate_key(power, shift, key)
            except InvariantViolation as exc:
                return {"gamma": (power, shift), "error": str(exc)}
        return None

    checks = []
    for face in window:
        c = grid.cone(face)
        if face.dim == top:
            idx = (zero, face.corner)
            bad = first_failure(idx[0])
            checks.append({"name": "cell-conjugation-stable", "ok": bad is None,
                           "witness": bad or {"index": idx, "samples": len(gammas)}})
        elif face.dim == 1:
            try:
                a = minimal_integral_exponent(fan, unflatten(c.rays[0], fr.dim))
                checks.append({"name": "ray-integral-exponential", "ok": True,
                               "witness": {"ray": c.rays[0], "multiple": a}})
            except InvariantViolation as exc:
                checks.append({"name": "ray-integral-exponential", "ok": False,
                               "witness": {"ray": c.rays[0], "error": str(exc)}})
    return checks


def locate(fan, n_mat):
    """Chart coordinates (level, coset key, cube coordinates) of an
    operator on the positive pencil, or None when the operator is off it
    or its normalized image of e leaves P."""
    return fraction_place(fan, fan.frame.restriction_multiple(n_mat), fan.frame.e_image(n_mat))


def matrix_conjugate_key(fan, power, shift, key):
    """conjugate_key by matrices: conjugate the chart's base and its cube
    directions, require the conjugated chart to be a chart of the fan
    (level column on the pencil at level one, directions fixed), and
    locate the conjugated base."""
    fr = fan.frame
    base = conjugate(fan, power, shift, fr.pencil(1, fan.section(key)))
    assert fr.restriction(base) == fr.log_gamma
    for d in fan.cube_basis:
        assert conjugate(fan, power, shift, fr.pencil(0, d)) == fr.pencil(0, d)
    _, new_key, cube = locate(fan, base)
    return new_key, tuple(fan.denominator(key) * c for c in cube)


def basis_vector_min_exponent(fan, n_mat):
    """minimal_integral_exponent with the lattice test run per basis
    vector: exp(a N) b must lie in the frame lattice for each b."""
    fr = fan.frame
    lam = fr.restriction_multiple(n_mat)
    basis = fr.lattice.basis_vectors()
    to_coords = inverse(transpose(basis))
    from_coords = inverse(to_coords)
    powers = NilpotentPowers(matmul(matmul(to_coords, n_mat), from_coords))
    need = {}
    for i in range(1, len(powers)):
        scale = powers.den**i * factorial(i)
        den = scale // gcd(scale, *(x for row in powers.ints[i] for x in row))
        for p, v in fans._prime_factors(den).items():
            need[p] = max(need.get(p, 0), -(-v // i))
    a = lcm(prod(p**v for p, v in need.items()), lam.denominator)
    ex = matmul(matmul(from_coords, powers.exp(a)), to_coords)
    assert all(fr.lattice.contains(matvec(ex, b)) for b in basis)
    assert (a * lam).denominator == 1
    assert fr.restriction(ex) == matpow(fr.gamma, int(a * lam))
    return a


def is_ray_member(fan, n_mat):
    """Whether the ray through the operator is a one dimensional face of
    the fan: exactly the rays through cube corners.  The operator's
    pencil level is read back off the operator."""
    at = fraction_place(fan, _membership(fan.frame, n_mat)[1], fan.frame.e_image(n_mat))
    if at is None:
        return False
    _, key, cube = at
    return all((fan.denominator(key) * c).denominator == 1 for c in cube)


def neron_walk(fan, lattice, bound):
    """The first v = sum c_j b_j over the lattice basis, |c_j| <= bound in
    product order, whose pencil(1, v) is not a ray of the fan, built as an
    operator and tested with is_ray_member; None when there is none."""
    fr, basis = fan.frame, lattice.basis_vectors()
    for coords in product(range(-bound, bound + 1), repeat=len(basis)) if basis else ():
        v = fans.combine(coords, basis, fr.rank)
        op = fr.pencil(1, v)
        if not is_zero_mat(op) and not is_ray_member(fan, op):
            return v
    return None


def solve_split(fan, v):
    """_split by one elimination against the adapted basis per call."""
    if not fan.p_space.contains(v):
        return None
    rows = fan.cube_basis + fan.section_basis
    if not rows:
        return (), ()
    c = solve(transpose(rows), v)
    return tuple(c[:fan.cube_rank]), tuple(c[fan.cube_rank:])


def cube_walk(change, cells, bound):
    """Every cube box n of [-bound, bound]^r cut in the cell chart through
    the change of basis and each piece compared with its host box: the
    first (n, corner of a piece that is not a whole box) in product order,
    or the total piece count."""
    total = 0
    for n in product(range(-bound, bound + 1), repeat=len(change)):
        corners = GridFace(n, (True,) * len(n)).vertices()
        pieces = cells.cut([(F(1),) + fans.combine(v, change, cells.rank) for v in corners])
        total += len(pieces)
        bad = next((m for m, piece in pieces if piece != box(m, cells.a)), None)
        if bad is not None:
            return n, bad
    return total


def cube_cells_walk(fan, bound):
    """_cube_cells_align by the walk: the change of basis by solve_split,
    every cube box cut, and the first bad piece's cube lifted."""
    change = [solve_split(fan, d)[0] for d in fans.image_lattice(fan).basis_vectors()]
    got = cube_walk(change, fan.grid(), bound)
    if isinstance(got, int):
        return {"pieces": got}
    n, bad = got
    return {"cell": fan.cube_grid.cone(GridFace(n, (True,) * len(n))).rays, "index": (fan.zero_key(), bad)}


def sample_points(cone, rng, count=40):
    """Random conic combinations of the rays."""
    out = []
    for _ in range(count):
        v = zero_vec(cone.ambient)
        for r in cone.rays:
            v = vadd(v, vscale(F(rng.randrange(0, 12), rng.choice((1, 2, 3))), r))
        out.append(v)
    return out


# --- cell shape on the rank 2 frame ------------------------------------

def test_elliptic_splitting(ell):
    assert ell.cube_rank == 1
    assert ell.key_rank == 0
    assert ell.cube_basis == ((F(1), F(0)),)
    assert ell.denominator(()) == 1


def test_elliptic_origin_cell(ell):
    c = ell.cell((), (0,))
    assert c.dim == 2
    assert c.rays == (
        (F(0), F(1), F(0), F(0), F(0), F(0), F(0), F(0), F(0)),
        (F(0), F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
    )
    # self, two boundary rays, origin
    assert len(c.faces()) == 4


def test_elliptic_cell_containing(ell):
    fr = ell.frame
    assert cell_containing(ell, fr.pencil(2, (F(3), F(0)))) == ((), (1,))
    assert cell_containing(ell, fr.pencil(1, (F(-1, 3), F(0)))) == ((), (-1,))
    zero = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))
    assert cell_containing(ell, zero) == ((), (0,))
    # off the nonnegative pencil, or outside the existence space
    assert cell_containing(ell, fr.pencil(-1, (F(0), F(0)))) is None
    assert cell_containing(ell, fr.pencil(1, (F(0), F(1)))) is None


def test_containing_cell_actually_contains(ell):
    fr = ell.frame
    n = fr.pencil(F(3, 2), (F(7, 4), F(0)))
    idx = cell_containing(ell, n)
    assert ell.cell(*idx).contains(flatten(n))


def test_elliptic_ray_membership(ell):
    fr = ell.frame
    assert is_ray_member(ell, fr.pencil(1, (F(1), F(0))))
    assert is_ray_member(ell, fr.pencil(3, (F(-6), F(0))))
    assert not is_ray_member(ell, fr.pencil(1, (F(1, 2), F(0))))
    assert not is_ray_member(ell, fr.pencil(0, (F(0), F(0))))


# --- cells at fractional cosets on the rank 3 frame ---------------------

def test_jordan3_splitting(jd3):
    assert jd3.cube_rank == 1
    assert jd3.key_rank == 1
    assert jd3.cube_basis == ((F(1), F(0), F(0)),)
    assert jd3.section_basis == ((F(0), F(1), F(0)),)


@pytest.mark.parametrize("name", ["ell", "jd3", "triple", "wide"])
def test_adapted_basis_completes_the_torus_hermite_basis(request, name):
    """The cube block is the torus lattice's own Hermite basis, and with
    the section block it is a basis of the existence lattice."""
    fan = CellFan(wide_frame()) if name == "wide" else request.getfixturevalue(name)
    assert fan.cube_basis == fan.q_lattice.basis_vectors()
    rows = fan.cube_basis + fan.section_basis
    assert len(rows) == fan.p_lattice.rank
    assert ZLattice.from_vectors(rows, fan.frame.rank) == fan.p_lattice


def test_unsaturated_torus_lattice_is_an_invariant_violation(jd3, monkeypatch):
    doubled = ZLattice.from_vectors([vscale(2, v) for v in jd3.q_lattice.basis_vectors()], jd3.frame.rank)
    monkeypatch.setattr(CellFan, "q_lattice", doubled)
    with pytest.raises(InvariantViolation, match="torus lattice is not saturated in the existence lattice"):
        CellFan(jd3.frame).cube_basis


def test_jordan3_coset_order(jd3):
    # order of e2/2 against the integral existence lattice
    assert jd3.denominator((F(1, 2),)) == 2
    assert jd3.denominator((F(0),)) == 1
    assert jd3.denominator((F(2, 3),)) == 3
    assert jd3.section((F(1, 2),)) == (F(0), F(1, 2), F(0))


def test_jordan3_halved_cube(jd3):
    fr = jd3.frame
    idx = cell_containing(jd3, fr.pencil(1, (F(1, 4), F(1, 2), F(0))))
    assert idx == ((F(1, 2),), (0,))
    cell = jd3.cell(*idx)
    # cube side is 1/2, so the next cell starts at e1/2
    assert cell_containing(jd3, fr.pencil(1, (F(1, 2), F(1, 2), F(0)))) == ((F(1, 2),), (1,))
    assert cell.contains(flatten(fr.pencil(1, (F(1, 4), F(1, 2), F(0)))))


def test_distinct_cosets_meet_at_origin_only(jd3):
    a = jd3.cell((F(0),), (0,))
    b = jd3.cell((F(1, 2),), (0,))
    assert a.intersect(b).dim == 0


# --- conjugation --------------------------------------------------------

def test_elliptic_shift_action(ell):
    # gamma fixing the inner part, moving e by the second basis vector
    assert ell.conjugate_cell(0, (0, 1), ((), (0,))) == ((), (-1,))
    assert ell.conjugate_cell(0, (0, -2), ((), (3,))) == ((), (5,))
    # inner shifts in the kernel do nothing
    assert ell.conjugate_cell(0, (1, 0), ((), (2,))) == ((), (2,))
    # pure gamma powers fix every index here
    assert ell.conjugate_cell(2, (0, 0), ((), (-1,))) == ((), (-1,))


def test_jordan3_shift_action(jd3):
    # N(e3) = 2 e2 moves the coset key
    assert jd3.conjugate_cell(0, (0, 0, 1), ((F(0),), (0,))) == ((F(-2),), (0,))
    assert jd3.conjugate_cell(1, (0, 0, 0), ((F(0),), (0,))) == ((F(0),), (0,))
    # e2 shifts slide the cube grid
    assert jd3.conjugate_cell(0, (0, 1, 0), ((F(0),), (0,))) == ((F(0),), (-2,))


def test_conjugation_matches_pointwise_transport(ell, jd3):
    """Independent route: transport an interior representative and ask
    which cell it lands in."""
    rng = random.Random(5)
    for fan in (ell, jd3):
        fr = fan.frame
        r = fr.rank
        for _ in range(15):
            power = rng.randrange(-2, 3)
            shift = tuple(rng.randrange(-2, 3) for _ in range(r))
            key = (F(rng.randrange(-2, 3), rng.choice((1, 2))),) * fan.key_rank
            n = (rng.randrange(-2, 3),) * fan.cube_rank
            got = fan.conjugate_cell(power, shift, (key, n))
            rep = fan.cell(key, n).interior_point()
            moved = conjugate(fan, power, shift, unflatten(rep, fr.dim))
            assert cell_containing(fan, moved) == got


def test_shift_action_composes(ell):
    one = ell.conjugate_cell(0, (0, 1), ((), (4,)))
    two = ell.conjugate_cell(0, (0, 2), ((), (4,)))
    assert ell.conjugate_cell(0, (0, 1), one) == two


def test_gamma_element_validation(ell):
    with pytest.raises(NotInGroup):
        gamma_matrix(ell, 1, (F(1, 2), F(0)))
    with pytest.raises(NotInGroup):
        gamma_matrix(ell, 0, (1, 2, 3))


@pytest.mark.parametrize("frame", [elliptic_frame, jordan3_frame, lambda: kunneth_h3(standard_factors())],
                         ids=["elliptic", "jordan3", "triple"])
def test_gamma_matrix_is_the_gamma_power(frame):
    """exp(p log gamma), read off the frame's powers, against gamma or its
    inverse multiplied out |p| times."""
    fan = CellFan(frame())
    fr = fan.frame
    for p in range(-3, 4):
        want = matpow(fr.gamma if p >= 0 else inverse(fr.gamma), abs(p))
        assert fr.restriction(gamma_matrix(fan, p, zero_vec(fr.rank))) == want


def test_conjugate_matrix_shape(ell):
    g = gamma_matrix(ell, 1, (0, 1))
    assert g == ((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(0), F(1)))


# --- admissibility ------------------------------------------------------

def test_admissible_segment(ell):
    fr = ell.frame
    mats = [fr.pencil(1, (F(0), F(0))), fr.pencil(1, (F(5, 2), F(0)))]
    ok, witness = check_admissible(ell, mats)
    assert ok and witness is None


def test_inadmissible_generator_detected(ell):
    fr = ell.frame
    ok, witness = check_admissible(ell, [fr.pencil(1, (F(0), F(1)))])
    assert not ok
    assert "existence" in witness["reason"]


def test_noncommuting_pair_raises(jd3):
    fr = jd3.frame
    with pytest.raises(NotCommutative):
        check_admissible(jd3, [fr.pencil(1, (F(0),) * 3), fr.pencil(1, (F(0), F(0), F(1)))])


def test_opposite_rays_not_sharp(ell):
    fr = ell.frame
    m = fr.pencil(1, (F(1), F(0)))
    neg = tuple(tuple(-x for x in row) for row in m)
    with pytest.raises(NotSharp):
        check_admissible(ell, [m, neg])


def test_zero_restriction_ray_depends_on_weight(ell, jd3):
    # weight -1: nothing with zero inner block and nonzero e image fits
    ok, _ = check_admissible(ell, [ell.frame.pencil(0, (F(1), F(0)))])
    assert not ok
    # weight -2: the filtration exists, but no cell reaches the ray
    ok, _ = check_admissible(jd3, [jd3.frame.pencil(0, (F(1), F(0), F(0)))])
    assert ok
    assert subdivide_against(jd3, [jd3.frame.pencil(0, (F(1), F(0), F(0)))]) is None


def test_commutation_criterion_matches_products(ell, jd3):
    rng = random.Random(11)
    checked_true = checked_false = 0
    for fan in (ell, jd3):
        fr = fan.frame
        for _ in range(60):
            h1 = tuple(F(rng.randrange(-3, 4), rng.choice((1, 2))) for _ in range(fr.rank))
            h2 = tuple(F(rng.randrange(-3, 4), rng.choice((1, 2))) for _ in range(fr.rank))
            a = fr.pencil(F(rng.randrange(0, 4)), h1)
            b = fr.pencil(F(rng.randrange(0, 4)), h2)
            fast = pencil_commutes(fan, a, b)
            slow = matmul(a, b) == matmul(b, a)
            assert fast == slow
            checked_true += slow
            checked_false += not slow
    assert checked_true and checked_false


# nilpotent inner blocks in g that are not multiples of log(gamma)
OFF_PENCIL_BLOCKS = {"elliptic": ((0, 0), (1, 0)), "jordan3": ((0, 0, 0), (1, 0, 0), (0, 1, 0))}


def commute_pairwise(fan, mats) -> bool:
    """Pairwise commutation: the kernel criterion on two pencil
    operators, the matrix products otherwise."""
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            ok = pencil_commutes(fan, a, b)
            if ok is None:
                ok = matmul(a, b) == matmul(b, a)
            if not ok:
                return False
    return True


@given(data=st.data())
def test_admissible_commutation_matches_pairwise_oracle(ell, jd3, data):
    name = data.draw(st.sampled_from(sorted(OFF_PENCIL_BLOCKS)))
    fan = ell if name == "elliptic" else jd3
    fr = fan.frame
    small = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2)))
    vector = st.tuples(*[small] * fr.rank)
    base, kernel = data.draw(vector), fan.kernel_space.basis
    commuting = data.draw(st.booleans())
    mats = []
    for _ in range(data.draw(st.integers(1, 5))):
        lam = data.draw(st.sampled_from((0, 0, 1, 2, F(1, 2), -1)))
        if data.draw(st.integers(0, 4)) == 0:
            # off the pencil: commutes with its own multiples only
            scale = data.draw(st.sampled_from((1, 2)))
            mats.append(fr.assemble(matscale(scale, OFF_PENCIL_BLOCKS[name]), vscale(scale, base)))
        elif commuting:
            # h / lam in one coset of ker N, or h in ker N at level zero
            k = [data.draw(small) for _ in kernel]
            h = vadd(vscale(lam, base), matvec(tuple(zip(*kernel)), k))
            mats.append(fr.pencil(lam, h))
        else:
            mats.append(fr.pencil(lam, data.draw(vector)))
    try:
        check_admissible(fan, mats)
        refused = False
    except NotCommutative:
        refused = True
    except NotSharp:
        # raised after commutation passed, by the faces of a cone with a line
        refused = False
    assert refused == (not commute_pairwise(fan, mats))


# --- subdivision --------------------------------------------------------

def test_elliptic_segment_subdivision(ell):
    fr = ell.frame
    mats = [fr.pencil(1, (F(0), F(0))), fr.pencil(1, (F(5, 2), F(0)))]
    pieces = subdivide_against(ell, mats)
    assert [idx for idx, _ in pieces] == [((), (0,)), ((), (1,)), ((), (2,))]
    cone = Cone.from_generators([flatten(m) for m in mats], ell.ambient)
    for idx, piece in pieces:
        assert piece.dim == cone.dim
        assert cone.contains_cone(piece)
        assert ell.cell(*idx).contains_cone(piece)
    # the last piece stops at the segment end, not the cell end
    assert pieces[2][1].rays[-1] == (F(0), F(2), F(5), F(0), F(0), F(0), F(0), F(0), F(0))


def test_subdivision_inside_one_cell_is_trivial(ell):
    fr = ell.frame
    mats = [fr.pencil(1, (F(1, 3), F(0))), fr.pencil(1, (F(2, 3), F(0)))]
    pieces = subdivide_against(ell, mats)
    assert len(pieces) == 1
    assert pieces[0][0] == ((), (0,))


def test_zero_cone_subdivision(ell):
    zero = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))
    pieces = subdivide_against(ell, [zero])
    assert len(pieces) == 1
    assert pieces[0][1].dim == 0


def test_subdivision_rejects_inadmissible(ell):
    with pytest.raises(PreconditionViolated):
        subdivide_against(ell, [ell.frame.pencil(1, (F(0), F(1)))])


def test_subdivision_covers_sampled_points(ell, jd3):
    """Oracle: pieces must jointly absorb random points of the cone."""
    rng = random.Random(23)
    for fan in (ell, jd3):
        for _ in range(25):
            mats = random_admissible_cone(fan, rng)
            pieces = subdivide_against(fan, mats)
            assert pieces is not None
            cone = Cone.from_generators([flatten(m) for m in mats], fan.ambient)
            for pt in sample_points(cone, rng, count=12):
                assert any(piece.contains(pt) for _, piece in pieces)


def test_subdivision_validates_each_generator_once(ell, jd3):
    """Locating reuses the pencil level and the membership in P that
    admissibility found: one membership step, which reads the pencil
    level, no further restriction_multiple and one integer membership
    test in P (a residual against P's cleared rows) per generator."""
    rng = random.Random(13)
    for fan in (ell, jd3):
        fr = fan.frame
        for _ in range(10):
            mats = random_admissible_cone(fan, rng)
            residual = Subspace._residual
            with mock.patch.object(fans, "_membership", wraps=fans._membership) as in_g, \
                 mock.patch.object(fr, "restriction_multiple", wraps=fr.restriction_multiple) as level, \
                 mock.patch.object(Subspace, "_residual", autospec=True, side_effect=residual) as member:
                assert subdivide_against(fan, mats)
            assert in_g.call_count == len(mats) and level.call_count == 0
            assert sum(call.args[0] is fan.p_space for call in member.call_args_list) == len(mats)


def test_subdivision_pieces_respect_hosts(jd3):
    rng = random.Random(31)
    for _ in range(25):
        mats = random_admissible_cone(jd3, rng)
        pieces = subdivide_against(jd3, mats)
        for idx, piece in pieces:
            assert jd3.cell(*idx).contains_cone(piece)


def test_corpus_inadmissible_operators(ell, jd3):
    rng = random.Random(47)
    for fan in (ell, jd3):
        for _ in range(20):
            op = random_inadmissible_operator(fan, rng)
            ok, _ = check_admissible(fan, [op])
            assert not ok
            assert relative_filtration(fan.frame, op) is None


# --- windows and deliberate corruption ----------------------------------

def test_elliptic_window_is_a_fan(ell):
    w = lifted(ell.window(1), ell.grid())
    assert len(w) == 8  # three cells, four rays, origin
    assert check_fan(w) == []


def test_jordan3_window_is_a_fan(jd3):
    w = lifted(jd3.window(1), jd3.grid())
    assert len(w) == 8
    assert check_fan(w) == []


def test_drop_faces_corruption_detected(ell):
    bad = corrupted_window(ell, 1, "drop-faces")
    violations = check_fan(lifted(bad, ell.grid()))
    assert violations
    assert all(v["kind"] == "missing-face" for v in violations)


def test_half_cell_corruption_detected(jd3):
    bad = corrupted_window(jd3, 1, "half-cell")
    assert check_fan(lifted(bad, jd3.grid()))


def test_honest_window_strong_compatibility(ell):
    gammas = [(1, (0, 0)), (-1, (0, 0)), (0, (1, 0)), (0, (0, 1)), (2, (1, -1))]
    report = strong_compatibility_report(ell, 1, gammas)
    assert report
    assert all(c["ok"] for c in report)
    names = {c["name"] for c in report}
    assert "ray-integral-exponential" in names
    assert "cell-conjugation-stable" in names


def test_unknown_corruption_mode(ell):
    with pytest.raises(PreconditionViolated):
        corrupted_window(ell, 1, "mangle")


# --- chart built windows, conjugation and subdivision against references --

def operator_space_closure(cells):
    """Reference closure: every face of every cell, found by double
    description in operator space from the rays alone."""
    faces = {f.rays: f for c in cells for f in Cone(c.ambient, c.rays).faces()}
    return tuple(sorted(faces.values(), key=lambda c: (c.dim, c.rays)))


CHART_CASES = [("ell", None), ("jd3", None), ("jd3", (F(1, 2),)), ("jd3", (F(2, 3),))]


def _fan(ell, jd3, name):
    return ell if name == "ell" else jd3


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("name,key", CHART_CASES)
def test_window_matches_operator_space_closure(ell, jd3, name, key, bound):
    fan = _fan(ell, jd3, name)
    key = fan.zero_key() if key is None else key
    window = lifted(fan.window(bound, key), fan.grid(key))
    cells = [fan.cell(key, n) for n in product(range(-bound, bound + 1), repeat=fan.cube_rank)]
    assert window == operator_space_closure(cells)
    assert len(window) == (4 * bound + 3) ** fan.cube_rank + 1
    # the facet normals pulled back through the chart are the canonical ones
    assert [c.facet_normals for c in window] == [Cone(c.ambient, c.rays).facet_normals for c in window]


@pytest.mark.parametrize("bound", [1, 2])
def test_elliptic_cube_window_matches_operator_space_closure(ell, bound):
    fr = ell.frame
    (d,) = image_lattice(ell).basis_vectors()
    cells = [
        Cone.from_generators([flatten(fr.pencil(1, vscale(n + bit, d))) for bit in (0, 1)], ell.ambient)
        for n in range(-bound, bound + 1)
    ]
    assert lifted(cube_window(ell, bound), ell.cube_grid) == operator_space_closure(cells)


@pytest.mark.parametrize("name,key", CHART_CASES)
def test_conjugate_cell_matches_image_of_cell(ell, jd3, name, key):
    """Every top cell of the window and every automorphism sample of the
    gamma suite: the conjugated cell is the indexed cell."""
    fan = _fan(ell, jd3, name)
    fr = fan.frame
    key = fan.zero_key() if key is None else key
    shifts = [zero_vec(fr.rank), *fan.inner_lattice.basis_vectors()]
    for n in product(range(-1, 2), repeat=fan.cube_rank):
        cell = fan.cell(key, n)
        for power in (-2, -1, 0, 1, 2):
            for shift in shifts:
                g = gamma_matrix(fan, power, shift)
                g_inv = inverse(g)
                image = Cone.from_generators(
                    [flatten(matmul(matmul(g, unflatten(r, fr.dim)), g_inv)) for r in cell.rays], fan.ambient
                )
                assert image == fan.cell(*fan.conjugate_cell(power, shift, (key, n)))


# sha256 of [(index, piece.rays)] over the seed 7, 40 cone corpora, as
# computed when subdivision still built each cone in operator space
SUBDIVISION_DIGESTS = {
    "ell": "4b8e4b865df273810d1c67249b1e53446bd6a976f268bfa074e2ac9dfc4c63a8",
    "jd3": "1a81c84398eaaf4aa7dacff737d342a643fc4c80fcbf3a3f0ff497d7d09efa26",
    # 132 pieces, as computed when the chart place and the segment cut
    # still ran on Fractions
    "triple": "29e3dc165e4ef0aed2b799ab5b7516b2d87ed5fa0fc11f4aefcf71be99f86d65",
}


@pytest.mark.parametrize("name", ["ell", "jd3", "triple"])
def test_subdivision_corpus_digest(request, name):
    fan = request.getfixturevalue(name)
    rng = random.Random(7)
    out = []
    for _ in range(40):
        pieces = subdivide_against(fan, random_admissible_cone(fan, rng))
        out.append(None if pieces is None else [(idx, piece.rays) for idx, piece in pieces])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SUBDIVISION_DIGESTS[name]


def test_chart_paths_build_no_cell(ell, jd3, monkeypatch):
    """window and conjugate_cell never build a cell, and neither they nor
    subdivide_against build an operator space cone by double description."""
    from_generators = Cone.from_generators.__func__

    def no_cell(self, key, n):
        raise AssertionError("a cell was built")

    def chart_only(cls, generators, ambient):
        if ambient in (ell.ambient, jd3.ambient):
            raise AssertionError("an operator space cone was built by double description")
        return from_generators(cls, generators, ambient)

    monkeypatch.setattr(CellFan, "cell", no_cell)
    monkeypatch.setattr(Cone, "from_generators", classmethod(chart_only))
    for name, key in CHART_CASES:
        fan = _fan(ell, jd3, name)
        key = fan.zero_key() if key is None else key
        assert fan.window(2, key)
        shifts = [zero_vec(fan.frame.rank), *fan.inner_lattice.basis_vectors()]
        for n in range(-2, 3):
            for shift in shifts:
                assert fan.conjugate_cell(1, shift, (key, (n,)))
    for fan in (ell, jd3):
        rng = random.Random(7)
        for _ in range(40):
            assert subdivide_against(fan, random_admissible_cone(fan, rng))


def test_pieces_and_cells_lift_only_rays(jd3):
    """Subdivision pieces and cells are lifted from the chart by their
    rays alone: no span or facet normals in operator space."""
    rng = random.Random(7)
    pieces = [piece for _ in range(20) for _, piece in subdivide_against(jd3, random_admissible_cone(jd3, rng))]
    cells = [jd3.cell(key, (n,)) for key in ((F(0),), (F(1, 2),)) for n in range(-2, 3)]
    for cone in pieces + cells:
        assert cone.rays
        assert "span" not in cone.__dict__ and "facet_normals" not in cone.__dict__


# --- windows decided on grid faces against operator space oracles -------

def oracle_faces(window):
    return [sorted(j for j, other in enumerate(window) if other.is_face_of(cone)) for cone in window]


def oracle_violation(window):
    bad = check_fan(window)
    return bad[0] if bad else None


def assert_decided_like_oracle(window, grid):
    cones = lifted(window, grid)
    assert window_face_table(window) == oracle_faces(cones)
    assert first_fan_violation(window, grid) == oracle_violation(cones)


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("name,key", CHART_CASES)
def test_window_decisions_match_operator_space(ell, jd3, name, key, bound):
    fan = _fan(ell, jd3, name)
    window = fan.window(bound, key)
    grid = fan.grid(key)
    assert fan.denominator(fan.zero_key() if key is None else key) == grid.a
    assert_decided_like_oracle(window, grid)


@pytest.mark.parametrize("bound", [1, 2])
def test_cube_window_decisions_match_operator_space(ell, bound):
    assert_decided_like_oracle(cube_window(ell, bound), ell.cube_grid)


@pytest.mark.parametrize("mode", ["drop-faces", "half-cell"])
@pytest.mark.parametrize("name", ["ell", "jd3"])
@pytest.mark.parametrize("bound", [1, 2])
def test_corrupted_window_decisions_match_operator_space(ell, jd3, name, mode, bound):
    fan = _fan(ell, jd3, name)
    window = corrupted_window(fan, bound, mode)
    assert first_fan_violation(window, fan.grid()) is not None
    assert_decided_like_oracle(window, fan.grid())


def ray_grids(fan):
    return [fan.lattice_grid(lattice(fan)) for lattice in (image_lattice, neron_lattice)]


def test_honest_window_decisions_stay_in_the_chart(jd3, triple, monkeypatch):
    """On an honest window, cells or the grid points of a ray fan, neither
    decision lifts a cone or tests a pair in operator space."""
    cases = [(jd3.window(2), jd3.grid()), (triple.window(0), triple.grid())]
    cases += [(grid.vertex_window(bound), grid) for fan, bound in ((jd3, 2), (triple, 0)) for grid in ray_grids(fan)]

    def forbidden(*args):
        raise AssertionError("a cone was lifted or tested in operator space")

    monkeypatch.setattr(Cone, "is_face_of", forbidden)
    monkeypatch.setattr(Cone, "intersect", forbidden)
    monkeypatch.setattr(Cone, "facets", forbidden)
    monkeypatch.setattr(ChartGrid, "cone", forbidden)
    monkeypatch.setattr(ChartGrid, "chart_cone", forbidden)
    monkeypatch.setattr(ChartGrid, "lift_cone", forbidden)
    for window, grid in cases:
        assert len(window_face_table(window)) == len(window)
        assert first_fan_violation(window, grid) is None


def test_half_cell_window_lifts_only_its_witness(triple, monkeypatch):
    """The half cell is a scale 2 symbol of the rank 6 chart: no double
    description runs, no cone is intersected or walked for its faces,
    and the lifts are the witness's cone and face alone."""
    window, grid = corrupted_window(triple, 0, "half-cell"), triple.grid()
    cone, lifts = ChartGrid.cone, []

    def recorded(self, face):
        lifts.append(cone(self, face))
        return lifts[-1]

    def forbidden(*args):
        raise AssertionError("double description or a cone walk ran")

    monkeypatch.setattr(ChartGrid, "cone", recorded)
    monkeypatch.setattr(cones_module, "rays_from_ineqs", forbidden)
    for name in ("facets", "faces", "intersect"):
        monkeypatch.setattr(Cone, name, forbidden)
    violation = first_fan_violation(window, grid)
    assert violation["kind"] == "missing-face"
    assert lifts == [violation["cone"], violation["face"]]
    lifts.clear()
    assert len(window_face_table(window)) == len(window)
    assert lifts == []
    monkeypatch.undo()
    assert violation["cone"] == grid.lift_cone(box((0,) * grid.rank, 2))


def ray_window_oracle(fan, lattice, bound):
    """The ray fan over a lattice built in operator space: the origin and
    the ray of pencil(1, v) for each v = sum c_j b_j with |c_j| <= bound,
    in window order."""
    fr, basis = fan.frame, lattice.basis_vectors()
    cones = {(): Cone.zero(fan.ambient)}
    for coords in product(range(-bound, bound + 1), repeat=lattice.rank):
        op = fr.pencil(1, fans.combine(coords, basis, fr.rank))
        if not is_zero_mat(op):
            ray = Cone.from_generators([flatten(op)], fan.ambient)
            cones[ray.rays] = ray
    return tuple(sorted(cones.values(), key=lambda c: (c.dim, c.rays)))


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("lattice", [image_lattice, neron_lattice])
@pytest.mark.parametrize("name", ["ell", "jd3"])
def test_vertex_window_is_the_ray_fan(ell, jd3, name, lattice, bound):
    """A ray fan window is the vertex symbols of the lattice's chart: its
    lifts are the operator space ray fan, and both decisions agree with
    the operator space oracles."""
    fan = _fan(ell, jd3, name)
    grid = fan.lattice_grid(lattice(fan))
    window = grid.vertex_window(bound)
    assert window[0] == ORIGIN and all(f.dim == 1 for f in window[1:])
    assert lifted(window, grid) == ray_window_oracle(fan, lattice(fan), bound)
    assert_decided_like_oracle(window, grid)


def identity_grid(rank, a):
    """A grid whose chart is operator space itself."""
    return ChartGrid(identity(rank + 1), a, rank + 1)


GRIDS = ["ell", "jd3", "jd3-half", "plane", "plane-third", "space"]


def _grid(name):
    if name == "plane":
        return identity_grid(2, 1)
    if name == "plane-third":
        return identity_grid(2, 3)
    if name == "space":
        return identity_grid(3, 2)
    fan = CellFan(elliptic_frame() if name == "ell" else jordan3_frame())
    return fan.grid((F(1, 2),) if name == "jd3-half" else None)


@st.composite
def corrupted_windows(draw):
    """A window of grid symbols with one symbol dropped, or one top cell
    replaced by a box of the grid refined by 2 or 3, at any refined
    corner inside the cell, and then perhaps with every face of that box
    added, so that the window is closed under faces and only the pair
    test can see it.  The rank three window keeps to bound 0, where the
    pairwise oracles stay small."""
    grid = _grid(draw(st.sampled_from(GRIDS)))
    window = list(grid.window(draw(st.integers(min_value=0, max_value=1 if grid.rank < 3 else 0))))
    if draw(st.booleans()):
        del window[draw(st.integers(min_value=0, max_value=len(window) - 1))]
        return window, grid
    tops = [i for i, f in enumerate(window) if f.dim == grid.rank + 1]
    i = draw(st.sampled_from(tops))
    scale = draw(st.sampled_from((2, 3)))
    step = tuple(draw(st.integers(min_value=0, max_value=scale - 1)) for _ in range(grid.rank))
    fine = GridFace(tuple(scale * c + t for c, t in zip(window[i].corner, step)), window[i].free, scale)
    window[i] = fine
    if draw(st.booleans()):
        window += [f for f in fine.faces() if f not in window]
    return window, grid


@settings(max_examples=25)
@given(corrupted_windows())
def test_corrupted_window_decisions_match_operator_space_random(case):
    window, grid = case
    assert_decided_like_oracle(window, grid)


def refined_window(grid, scale, bound):
    """Every face of the boxes of the grid refined by scale with corners
    in [-bound, bound)^rank, closed under faces, without repeats."""
    boxes = product(range(-bound, bound), repeat=grid.rank)
    return list(dict.fromkeys(f for n in boxes for f in GridFace(n, (True,) * grid.rank, scale).faces()))


def test_stretched_cell_is_a_bad_intersection():
    """A unit cell over two cells of the window's grid refined by 2: its
    vertices are the refined window's, so the window is closed under
    faces and only the pair test can see it."""
    grid = identity_grid(1, 1)
    window = refined_window(grid, 2, 2) + [GridFace((0,), (True,))]
    assert set(window[-1].faces()) <= set(window)
    violation = first_fan_violation(window, grid)
    assert violation["kind"] == "bad-intersection"
    assert violation == oracle_violation(lifted(window, grid))


def test_segment_across_two_edges_meets_a_vertex_badly():
    """A unit edge of the plane over two edges of the window's grid
    refined by 2: both of its vertices are refined grid vertices, so only
    the pair test can see it."""
    grid = identity_grid(2, 1)
    window = refined_window(grid, 2, 2) + [GridFace((0, 0), (True, False))]
    assert set(window[-1].faces()) <= set(window)
    violation = first_fan_violation(window, grid)
    assert violation["kind"] == "bad-intersection"
    assert violation == oracle_violation(lifted(window, grid))


@settings(max_examples=200)
@given(
    rank=st.integers(min_value=1, max_value=2),
    a=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_cut_keeps_a_cone_whole_exactly_when_its_host_box_holds_it(rank, a, data):
    """The host test reads the level one points against the host box's
    bounds; the closed box cone is the reference."""
    grid = identity_grid(rank, a)
    coord = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    points = data.draw(st.lists(
        st.tuples(*[coord] * rank).map(lambda c: (F(1),) + c), min_size=1, max_size=3, unique=True))
    small = Cone.from_generators(points, rank + 1)
    point = small.interior_point()
    host = tuple(floor(a * c / point[0]) for c in point[1:])
    pieces = grid.cut(points)
    assert (pieces == [(host, small)]) == box(host, a).contains_cone(small)


@given(
    rank=st.integers(min_value=0, max_value=3),
    a=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_grid_face_geometry_matches_generic(rank, a, data):
    corner = tuple(data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(rank))
    free = tuple(data.draw(st.booleans()) for _ in range(rank))
    scale = data.draw(st.integers(min_value=1, max_value=3))
    face = GridFace(corner, free, scale)
    grid = identity_grid(rank, a)
    lifted = grid.cone(face)  # the lift is the identity
    generic = Cone.from_generators([(F(a * scale),) + tuple(map(F, v)) for v in face.vertices()], rank + 1)
    assert lifted == generic == grid.chart_cone(face)
    assert lifted.dim == face.dim

    def rays(faces):
        return sorted(grid.cone(f).rays for f in faces)

    assert sorted(f.rays for f in generic.faces()) == rays(face.faces())
    assert sorted(f.rays for f in generic.facets()) == rays(face.facets())
    # one symbol per cone: a vertex is kept at its coarsest scale
    assert len(set(face.faces())) == len(face.faces())
    assert all(f.dim != 1 or gcd(f.scale, *f.corner) == 1 for f in face.faces())
    if all(free):
        closed = box(corner, a * scale)
        assert closed == generic
        assert closed.span == generic.span
        assert closed.facet_normals == generic.facet_normals


@given(
    rank=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_grid_face_facets_written_down(rank, data):
    """facets() against the faces one dimension down, filtered from all
    3^free faces."""
    corner = tuple(data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(rank))
    free = tuple(data.draw(st.booleans()) for _ in range(rank))
    scale = data.draw(st.integers(min_value=1, max_value=3))
    for face in (GridFace(corner, free, scale), ORIGIN):
        want = [f for f in face.faces() if f.dim == face.dim - 1]
        got = face.facets()
        assert len(got) == len(want) and set(got) == set(want)


def test_window_sizes_and_origin(ell, jd3):
    for fan in (ell, jd3):
        for bound in (0, 1, 3):
            window = fan.window(bound)
            assert len(window) == (4 * bound + 3) ** fan.cube_rank + 1
            assert window[0] is ORIGIN


@pytest.mark.parametrize("name,key", CHART_CASES)
def test_conjugate_key_matches_conjugate_cell(ell, jd3, name, key):
    """conjugate_key once per (sample, key) gives conjugate_cell of every
    top cell, for every automorphism sample of the gamma suite."""
    fan = _fan(ell, jd3, name)
    key = fan.zero_key() if key is None else key
    shifts = [zero_vec(fan.frame.rank), *fan.inner_lattice.basis_vectors()]
    for power in (-2, -1, 0, 1, 2):
        for shift in shifts:
            new_key, steps = fan.conjugate_key(power, shift, key)
            for n in product(range(-2, 3), repeat=fan.cube_rank):
                want = (new_key, tuple(m + s for m, s in zip(n, steps)))
                assert fan.conjugate_cell(power, shift, (key, n)) == want


# the last sample's shift is off the lattice, so conjugation fails there
FAILING_SAMPLES = [(p, s) for p in (-1, 1) for s in ((0, 0, 0), (0, 1, 0))] + [(1, (F(1, 2), 0, 0))]


def suite_samples(fan):
    """The automorphism samples of the gamma suite."""
    shifts = [zero_vec(fan.frame.rank), *fan.inner_lattice.basis_vectors()]
    return [(p, s) for p in (-2, -1, 0, 1, 2) for s in shifts]


@pytest.mark.parametrize("name,bound", [(n, b) for n in ("ell", "jd3") for b in range(4)] + [("triple", 0)])
def test_gamma_report_matches_window_walk(ell, jd3, triple, name, bound):
    fan = {"ell": ell, "jd3": jd3, "triple": triple}[name]
    samples = [suite_samples(fan)]
    if name == "jd3":
        samples.append(FAILING_SAMPLES)
    for gammas in samples:
        report = strong_compatibility_report(fan, bound, gammas)
        assert report == reference_gamma_report(fan, fan.window(bound), gammas)
        assert len(report) == (fan.cube_rank > 0) * (2 * bound + 2) ** fan.cube_rank + (2 * bound + 1) ** fan.cube_rank


def test_gamma_report_names_the_failing_sample(jd3):
    report = strong_compatibility_report(jd3, 2, FAILING_SAMPLES)
    stable = [c for c in report if c["name"] == "cell-conjugation-stable"]
    assert len(stable) == 5
    for check in stable:
        assert not check["ok"]
        assert check["witness"]["gamma"] == FAILING_SAMPLES[-1]
        with pytest.raises(NotInGroup, match=check["witness"]["error"]):
            jd3.conjugate_cell(*FAILING_SAMPLES[-1], (jd3.zero_key(), (0,)))


def test_gamma_report_builds_no_window_and_decodes_nothing(monkeypatch):
    """The report reads the rays and top cells as grid symbols: a built
    window would mean it had gone back to walking the whole window."""
    cases = [(CellFan(jordan3_frame()), 2), (CellFan(kunneth_h3(standard_factors())), 0)]
    want = [reference_gamma_report(fan, fan.window(bound), suite_samples(fan)) for fan, bound in cases]

    def refused(*args, **kwargs):
        raise AssertionError("the gamma report built a window or decoded a cone")

    monkeypatch.setattr(CellFan, "window", refused)
    monkeypatch.setattr(ChartGrid, "window", refused)
    for (fan, bound), checks in zip(cases, want):
        assert strong_compatibility_report(fan, bound, suite_samples(fan)) == checks
        assert strong_compatibility_report(CellFan(fan.frame), bound, suite_samples(fan)) == checks


def test_gamma_report_empty_off_an_injective_chart():
    """gamma = 1 on the elliptic frame: log(gamma) = 0 and P = 0, so the
    chart is the collapsed rank 0 chart, which is not injective, and the
    window is the origin."""
    payload = frame_to_json(elliptic_frame())
    payload["gamma"] = [["1", "0"], ["0", "1"]]
    fan = CellFan(frame_from_json(payload))
    assert fan.grid().collapsed
    assert fan.window(1) == (ORIGIN,)
    assert strong_compatibility_report(fan, 1, suite_samples(fan)) == []


CONJUGATION_CASES = [("ell", None), ("jd3", None), ("jd3", (F(1, 2),)), ("jd3", (F(2, 3),)), ("triple", None)]


@settings(max_examples=40)
@given(data=st.data())
def test_conjugate_key_matches_matrix_conjugation(ell, jd3, triple, data):
    """The block identity against g M g^-1 by matrices, for powers -2..2
    and shifts drawn from the inner lattice."""
    name, key = data.draw(st.sampled_from(CONJUGATION_CASES))
    fan = {"ell": ell, "jd3": jd3, "triple": triple}[name]
    key = fan.zero_key() if key is None else key
    power = data.draw(st.integers(min_value=-2, max_value=2))
    basis = fan.inner_lattice.basis_vectors()
    coeffs = [data.draw(st.integers(min_value=-2, max_value=2)) for _ in basis]
    shift = fans.combine(coeffs, basis, fan.frame.rank)
    assert fan.conjugate_key(power, shift, key) == matrix_conjugate_key(fan, power, shift, key)


def test_conjugate_key_forms_no_inverse_and_no_pencil(jd3, monkeypatch):
    key = (F(1, 2),)
    shifts = [zero_vec(3), *jd3.inner_lattice.basis_vectors()]
    want = {(p, s): jd3.conjugate_key(p, s, key) for p in (-2, 0, 2) for s in shifts}

    def refused(*args, **kwargs):
        raise AssertionError("conjugate_key formed an inverse or a pencil operator")

    monkeypatch.setattr(fans, "inverse", refused)
    monkeypatch.setattr(Frame, "pencil", refused)
    jd3._gamma_powers.clear()
    for (p, s), got in want.items():
        assert jd3.conjugate_key(p, s, key) == got


def test_conjugate_key_faults_raise_their_checks(monkeypatch):
    """Each planted fault trips its own check, with its message."""
    fan = CellFan(jordan3_frame())
    zero = fan.zero_key()
    assert fan.conjugate_key(1, (0, 0, 1), zero) == ((F(-2),), (0,))
    split = fan._split
    faults = [
        ("_split", lambda iv, t: None, "conjugated section left the existence space"),
        ("denominator", lambda key: 1 if key == zero else 2, "conjugation changed the coset order"),
        ("_split", lambda iv, t: ((F(1, 3),), split(iv, t)[1]), "conjugation moved a cell off the grid"),
    ]
    for attr, fault, message in faults:
        with monkeypatch.context() as m:
            m.setattr(fan, attr, fault)
            with pytest.raises(InvariantViolation, match=message):
                fan.conjugate_key(1, (0, 0, 1), zero)
    # 2 gamma^p commutes with log(gamma) but doubles every cube direction
    powers = fan.frame.log_powers
    exp = powers.exp
    monkeypatch.setattr(powers, "exp", lambda t=1: matscale(2, exp(t)))
    fan._gamma_powers.clear()
    with pytest.raises(InvariantViolation, match="conjugated cell is not the indexed cell"):
        fan.conjugate_key(1, (0, 0, 1), zero)


def test_denominator_is_the_order_in_the_quotient(ell, jd3, triple):
    """The lcm of the key's denominators against the order of the
    section in P/(P lattice + Q), reduced and solved by the oracle."""
    for q in range(1, 13):
        for p in range(-2 * q, 2 * q + 1):
            key = (F(p, q),)
            want = order_in_quotient(jd3.section(key), jd3.p_lattice, jd3.q_space)
            assert jd3.denominator(key) == want == F(p, q).denominator
    for fan in (ell, triple):
        assert fan.denominator(()) == order_in_quotient(fan.section(()), fan.p_lattice, fan.q_space) == 1
    for fan, key in ((jd3, ()), (jd3, (F(1, 2), F(1, 3))), (ell, (F(1, 2),))):
        with pytest.raises(PreconditionViolated, match="wrong length"):
            fan.denominator(key)


# --- integral exponentials ----------------------------------------------

def test_minimal_exponent_against_brute_force(ell, jd3, jd3_mixed):
    cases = [
        (ell, ell.frame.pencil(1, (F(0), F(0)))),
        (ell, ell.frame.pencil(1, (F(1), F(0)))),
        (ell, ell.frame.pencil(1, (F(1, 2), F(0)))),
        (ell, ell.frame.pencil(F(1, 3), (F(1), F(0)))),
        (jd3, jd3.frame.pencil(1, (F(0), F(0), F(0)))),
        (jd3, jd3.frame.pencil(1, (F(0), F(1, 2), F(0)))),
        (jd3, jd3.frame.pencil(F(1, 2), (F(1), F(0), F(0)))),
    ]
    # every ray of jordan3's windows 0-3 at keys 0, 1/2 and 2/3, over Z^4
    # and over the mixed lattice
    for fan in (jd3, jd3_mixed):
        for key in ((F(0),), (F(1, 2),), (F(2, 3),)):
            grid = fan.grid(key)
            rays = {grid.ray(v) for bound in range(4) for v in grid.window_symbols(bound)[0]}
            cases += [(fan, unflatten(r, fan.frame.dim)) for r in sorted(rays)]
    for fan, m in cases:
        assert minimal_integral_exponent(fan, m) == brute_min_exponent(fan, m)


def jordan3_on_2z():
    """jordan3 over the lattice 2Z + Z + Z + Z, where the change to
    lattice coordinates is not the identity."""
    base = jordan3_frame()
    lattice = ZLattice.from_vectors([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    return CellFan(Frame(rank=3, weight=-2, gram=base.gram, gamma=base.gamma, lattice=lattice,
                         hodge={(p, q): m for p, q, m in base.hodge}))


# frame lattices with no vector of e-coordinate one beside e in their
# basis, so L = inner lattice + Z x0 with x0 != e
ELLIPTIC_MIXED = [[1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), F(1, 3)], [0, 0, 1]]
JORDAN3_MIXED = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [F(1, 2), 0, F(1, 2), F(1, 2)], [0, 0, 0, 1]]


def over_lattice(frame, vectors):
    """The frame over the lattice the vectors span, as a spec's lattice
    field sets it."""
    data = frame_to_json(frame)
    data["lattice"] = vectors
    return CellFan(frame_from_json(data))


@pytest.fixture(scope="module")
def ell_mixed():
    return over_lattice(elliptic_frame(), ELLIPTIC_MIXED)


@pytest.fixture(scope="module")
def jd3_mixed():
    return over_lattice(jordan3_frame(), JORDAN3_MIXED)


@pytest.mark.parametrize("name,bound", [("ell", 2), ("jd3", 2), ("jd3-2z", 2), ("triple", 0), ("ell-mixed", 2),
                                        ("jd3-mixed", 2)])
def test_minimal_exponent_matches_basis_vector_form(request, name, bound):
    """The exponent read off one lattice vector against exp(a N) b tested
    for each lattice basis vector b, on every ray of a window."""
    fan = request.getfixturevalue(name.replace("-", "_"))
    rays = [c.rays[0] for c in lifted(fan.window(bound), fan.grid()) if len(c.rays) == 1]
    assert rays
    for r in rays:
        m = unflatten(r, fan.frame.dim)
        assert minimal_integral_exponent(fan, m) == basis_vector_min_exponent(fan, m)


def wide_frame():
    """gamma = exp(2 M) for M = [[0, 1], [0, 0]]."""
    return Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)), gamma=((1, 2), (0, 1)),
                 hodge={(0, -1): 1, (-1, 0): 1})


def test_minimal_exponent_faults_raise_their_checks(ell, jd3, monkeypatch):
    # exp(a N) e - e = (2 a^3 / 3, a^2, a): k = 3 terms and D = 1
    cubic = jd3.frame.pencil(1, (F(0), F(0), F(1)))
    assert minimal_integral_exponent(jd3, cubic) == 3
    # gamma = exp(2 M) for M = (1/2) log(gamma) = [[0, 1], [0, 0]], so
    # exp(M) is integral though it is no integral power of gamma
    wide = CellFan(wide_frame())
    half = wide.frame.pencil(F(1, 2), (F(0), F(0)))
    assert minimal_integral_exponent(wide, half) == 2
    # a wrong start, 1 for lcm(D k!, den lam): D k! = 6 and den lam = 2
    # dropped
    with monkeypatch.context() as p:
        p.setattr(fans, "lcm", lambda *xs: 1)
        with pytest.raises(InvariantViolation, match="computed exponent is not integral on the lattice"):
            minimal_integral_exponent(jd3, cubic)
        with pytest.raises(InvariantViolation, match="computed exponent does not clear the pencil level"):
            minimal_integral_exponent(wide, half)
    m = ell.frame.pencil(1, (F(1, 2), F(0)))
    assert minimal_integral_exponent(ell, m) == 2
    with monkeypatch.context() as p:
        p.setattr(fans, "matpow", lambda a, k: matpow(a, k + 1))
        with pytest.raises(InvariantViolation, match="exponential does not restrict to a gamma power"):
            minimal_integral_exponent(ell, m)


def test_minimal_exponent_frozen_values(ell):
    assert minimal_integral_exponent(ell, ell.frame.pencil(1, (F(1), F(0)))) == 1
    assert minimal_integral_exponent(ell, ell.frame.pencil(1, (F(1, 2), F(0)))) == 2


def test_minimal_exponent_where_the_series_terms_cancel(jd3):
    """The e column of exp(N) for pencil(1, (1/3, 0, 1)) is (1, 1, 1):
    the terms N / 1! and N^2 / 2! are not integral, their sum is."""
    for h, want in (((F(1, 3), 0, 1), 1), ((F(1, 3), 0, F(1, 4)), 4)):
        m = jd3.frame.pencil(1, h)
        assert minimal_integral_exponent(jd3, m) == brute_min_exponent(jd3, m) == want


@given(data=st.data())
def test_minimal_exponent_is_the_least_valid_multiple(ell, jd3, jd3_2z, ell_mixed, jd3_mixed, data):
    fan = data.draw(st.sampled_from((ell, jd3, jd3_2z, ell_mixed, jd3_mixed)))
    lam = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
    m = fan.frame.pencil(lam, tuple(data.draw(fracs(4, 4)) for _ in range(fan.frame.rank)))
    assert minimal_integral_exponent(fan, m) == brute_min_exponent(fan, m, limit=400)


# --- comparison fans ----------------------------------------------------

def test_elliptic_gate_holds(ell):
    gate = check_square_zero_pure(ell.frame)
    assert gate["holds"]
    assert gate == {
        "square_zero": True,
        "weight_zero_pure": True,
        "declared_dims_match": True,
        "holds": True,
    }


def test_jordan3_gate_fails_on_square(jd3):
    gate = check_square_zero_pure(jd3.frame)
    assert not gate["holds"]
    assert not gate["square_zero"]
    assert gate["weight_zero_pure"]
    assert gate["declared_dims_match"]


def test_cube_window_gated(jd3):
    with pytest.raises(NotSquareZeroPure):
        cube_window(jd3, 1)


def test_elliptic_cube_window_matches_cells(ell):
    cubes = [c for c in lifted(cube_window(ell, 1), ell.cube_grid) if c.dim == 2]
    cells = [ell.cell((), (n,)) for n in (-1, 0, 1)]
    assert sorted(cubes, key=lambda c: c.rays) == sorted(cells, key=lambda c: c.rays)


def test_elliptic_lattice_coincidences(ell):
    img = image_lattice(ell)
    ner = neron_lattice(ell)
    assert img.basis_vectors() == ((F(1), F(0)),)
    assert img == ner == ell.q_lattice


def test_jordan3_lattice_separation(jd3):
    # square nonzero: the image lattice leaves the torus directions
    img = image_lattice(jd3)
    assert img.basis_vectors() == ((F(2), F(0), F(0)), (F(0), F(2), F(0)))
    ner = neron_lattice(jd3)
    assert ner.basis_vectors() == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert jd3.q_lattice != ner


def test_neron_lattice_is_the_image_moved_integrally():
    """v is in the Neron lattice iff v = N(a) with (gamma - 1) a in the
    inner lattice, decided by solve alone.  The inner lattice 2Z + Z + Z
    of jordan3 is one where the unit sum N^i / (i + 1)! shows."""
    base = jordan3_frame()
    lattice = ZLattice.from_vectors([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    fan = CellFan(Frame(rank=3, weight=-2, gram=base.gram, gamma=base.gamma, lattice=lattice,
                        hodge={(p, q): m for p, q, m in base.hodge}))
    fr, ner = fan.frame, neron_lattice(fan)
    moved = tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(fr.gamma))
    for v in product([F(k, 2) for k in range(-3, 4)], repeat=3):
        a = solve(fr.log_gamma, v)
        assert ner.contains(v) == (a is not None and fan.inner_lattice.contains(matvec(moved, a)))


def test_ray_window_contents(ell):
    grid = ell.lattice_grid(image_lattice(ell))
    w = lifted(grid.vertex_window(2), grid)
    assert len(w) == 6  # origin cone plus rays over the five translates
    dims = sorted(c.dim for c in w)
    assert dims[0] == 0 and set(dims[1:]) == {1}


def test_elliptic_relations_all_pass(ell):
    report = relations_report(ell, 1)
    assert all(c["ok"] for c in report)
    names = [c["name"] for c in report]
    assert names == [
        "pq-definitions-agree",
        "square-zero-pure-type",
        "existence-space-equals-torus-space",
        "image-rays-are-torus-rays",
        "cube-cells-align-with-cell-fan",
        "neron-rays-in-cell-fan",
        "torus-lattice-equals-neron-lattice",
    ]


def test_jordan3_relations_report_data(jd3):
    # off the predicate, only the unconditional checks stay live
    report = {c["name"]: c for c in relations_report(jd3, 1)}
    assert report["pq-definitions-agree"]["ok"]
    assert not report["square-zero-pure-type"]["ok"]
    assert report["existence-space-equals-torus-space"]["ok"] is None
    assert report["image-rays-are-torus-rays"]["ok"] is None
    assert report["cube-cells-align-with-cell-fan"]["ok"] is None
    assert report["neron-rays-in-cell-fan"]["ok"]
    assert report["torus-lattice-equals-neron-lattice"]["ok"] is None


def rank2_frame(g):
    """The elliptic frame with gamma = [[1, g], [0, 1]]."""
    return Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)), gamma=((1, g), (0, 1)),
                 hodge={(0, -1): 1, (-1, 0): 1}, graded_types={0: {(0, 0): 1}, -2: {(-1, -1): 1}})


@pytest.mark.parametrize("name,bounds", [("ell", (0, 1, 2)), ("g2", (0, 1, 2)), ("g3", (0, 1, 2)), ("triple", (0,))])
def test_cube_cells_decided_as_the_walk_cuts(request, name, bounds):
    """The decision from the change of basis against every cube box cut
    in the cell chart, on frames whose cubes align, |det C| cells each."""
    fan = CellFan(rank2_frame(int(name[1]))) if name in ("g2", "g3") else request.getfixturevalue(name)
    for bound in bounds:
        assert fans._cube_cells_align(fan, bound) == cube_cells_walk(fan, bound)


@pytest.mark.parametrize("g,pieces", [(2, 6), (3, 9)])
def test_rank2_cube_cells_hold_g_cells(g, pieces):
    report = {c["name"]: c for c in relations_report(CellFan(rank2_frame(g)), 1)}
    assert report["cube-cells-align-with-cell-fan"] == {
        "name": "cube-cells-align-with-cell-fan", "ok": True, "witness": {"pieces": pieces}}


def test_misaligned_image_lattice_witness_matches_the_walk(monkeypatch):
    """An image lattice at half its size: C = (1/2) is monomial but not
    integral, so no cube aligns and the first cube is the witness."""
    half = ZLattice.from_vectors([(F(1, 2), F(0))], 2)
    monkeypatch.setattr(fans, "image_lattice", lambda fan: half)
    for bound in (0, 1, 2):
        fan = CellFan(elliptic_frame())
        got = fans._cube_cells_align(fan, bound)
        assert got == cube_cells_walk(fan, bound)
        assert got["index"] == ((), (floor(F(-bound, 2)),))


def chart_of_rank(k):
    """The grid of unit boxes in the chart Q^(1 + k) itself."""
    return ChartGrid([tuple(F(int(i == j)) for i in range(k + 1)) for j in range(k + 1)], 1, k + 1)


@st.composite
def cube_changes(draw):
    """(kind, k, C): C monomial and integral; monomial with one side 1/2
    or 3/2; square of full rank and not monomial; or of full row rank with
    one row fewer than its k columns."""
    kind = draw(st.sampled_from(("aligned", "half", "mixed", "short")))
    k = draw(st.integers(min_value={"aligned": 0, "half": 1, "mixed": 2, "short": 1}[kind], max_value=3))
    if kind in ("aligned", "half"):
        axes = draw(st.permutations(range(k)))
        sides = [F(draw(st.sampled_from((-2, -1, 1, 2)))) for _ in range(k)]
        if kind == "half":
            sides[draw(st.integers(0, k - 1))] = F(draw(st.sampled_from((-3, -1, 1, 3))), 2)
        return kind, k, [tuple(sides[i] if j == axes[i] else F(0) for j in range(k)) for i in range(k)]
    rows = k if kind == "mixed" else k - 1
    change = [tuple(F(draw(st.integers(-1, 1))) for _ in range(k)) for _ in range(rows)]
    assume(not rows or len(Subspace.span(change, k)._pivots()) == rows)
    assume(kind == "short" or any(sum(1 for x in row if x) > 1 for row in change))
    return kind, k, change


@given(data=st.data())
def test_cube_alignment_decision_matches_the_walk(data):
    """Every cube aligns iff C is square, monomial and integral, with
    (2 bound + 1)^k |det C| pieces; otherwise the first cube fails."""
    kind, k, change = data.draw(cube_changes())
    bound = data.draw(st.integers(0, 1))
    cells = chart_of_rank(k)
    got, walked = fans._misaligned_cube(change, cells, bound), cube_walk(change, cells, bound)
    if kind == "aligned":
        assert got is None
        assert walked == (2 * bound + 1) ** k * prod(abs(x) for row in change for x in row if x)
    else:
        assert got == walked


@pytest.fixture(scope="module")
def jd3_2z():
    return jordan3_on_2z()


@pytest.fixture(scope="module")
def wide():
    return CellFan(wide_frame())


def cleared(v):
    """A Fraction vector as an integer vector and its positive scale."""
    (iv,), den = _scaled_int_rows([v])
    return iv, den


@given(data=st.data())
def test_split_reads_the_pivots_as_solve_does(ell, jd3, jd3_2z, wide, triple, data):
    """Coordinates over the adapted basis read off P's pivots against one
    elimination per vector; a vector off P has none."""
    fan = data.draw(st.sampled_from((ell, jd3, jd3_2z, wide, triple)))
    basis = fan.p_space.basis
    v = fans.combine([data.draw(fracs(6, 4)) for _ in basis], basis, fan.frame.rank)
    off = [row for row in identity(fan.frame.rank) if not fan.p_space.contains(row)]
    if off and data.draw(st.booleans()):
        v = vadd(v, vscale(data.draw(st.sampled_from((F(-1), F(1, 2), F(3)))), data.draw(st.sampled_from(off))))
    assert fan._split(*cleared(v)) == solve_split(fan, v)


LEVELS = (F(-2), F(-1, 3), F(0), F(1, 2), F(1), F(5, 3), F(3))


@given(data=st.data())
def test_integer_place_and_commute_match_the_fraction_paths(ell, jd3, jd3_mixed, jd3_2z, triple, data):
    """_split, _place and _pencil_commute on integer columns against their
    Fraction versions (tests/conftest.py): members of P with mixed
    denominators, whose coset key has a denominator above 1 wherever the
    key rank is positive, vectors off P, scales of both signs, and
    pencils whose levels take both signs and zero."""
    fan = data.draw(st.sampled_from((ell, jd3, jd3_mixed, jd3_2z, triple)))
    rank = fan.frame.rank
    cube = tuple(data.draw(fracs(6, 4)) for _ in fan.cube_basis)
    key = [data.draw(fracs(6, 4)) for _ in fan.section_basis]
    if key:
        d = data.draw(st.sampled_from((2, 3, 4)))
        key[0] = F(d * data.draw(st.integers(-3, 3)) + 1, d)
        assert fan.denominator(key) > 1
    v = vadd(fans.combine(cube, fan.cube_basis, rank), fans.combine(key, fan.section_basis, rank))
    assert fraction_split(fan, v) == (cube, tuple(key))
    off = [row for row in identity(rank) if not fan.p_space.contains(row)]
    if off and data.draw(st.booleans()):
        v = vadd(v, vscale(data.draw(st.sampled_from((F(-1), F(1, 2), F(3)))), data.draw(st.sampled_from(off))))
        assert fraction_split(fan, v) is None
    iv, den = cleared(v)
    assert fan._split(iv, den) == fan._split([-x for x in iv], -den) == fraction_split(fan, v)
    lam = data.draw(st.sampled_from(LEVELS))
    h = vscale(lam, v)
    assert fan._place(lam, *cleared(h)) == fraction_place(fan, lam, h)

    # a pencil commutes when every h / lam lies in v + ker N; noise breaks that
    ker = fan.kernel_space.basis
    pencil = []
    for _ in range(data.draw(st.integers(1, 3))):
        lam = data.draw(st.sampled_from(LEVELS))
        h = vadd(vscale(lam, v), fans.combine([data.draw(fracs(3, 3)) for _ in ker], ker, rank))
        if data.draw(st.integers(0, 3)) == 0:
            h = vadd(h, tuple(data.draw(fracs(3, 2)) for _ in range(rank)))
        pencil.append((lam, h))
    assert fans._pencil_commute(fan, [(lam, *cleared(h)) for lam, h in pencil]) == fraction_pencil_commute(fan, pencil)


@pytest.mark.parametrize("name,bound", [("ell", 2), ("jd3", 2), ("jd3_2z", 2), ("wide", 2), ("g2", 2), ("triple", 1)])
@pytest.mark.parametrize("halved", [False, True])
def test_neron_rays_read_without_operators(request, monkeypatch, name, bound, halved):
    """neron-rays-in-cell-fan places each pencil(1, v) in its chart at
    level one; the walk builds each operator and reads its level back.
    A Neron lattice at half its size puts stray vectors in."""
    fan = CellFan(rank2_frame(2)) if name == "g2" else request.getfixturevalue(name)
    lattice = neron_lattice(fan)
    if halved:
        lattice = ZLattice.from_vectors([vscale(F(1, 2), b) for b in lattice.basis_vectors()], fan.frame.rank)
        monkeypatch.setattr(fans, "neron_lattice", lambda fan: lattice)
    stray = neron_walk(fan, lattice, bound)
    # jordan3 over 2Z + Z + Z + Z has stray Neron vectors of its own
    assert (stray is not None) == (halved or name == "jd3_2z")
    report = {c["name"]: c for c in relations_report(fan, bound, cube_bound=0)}
    assert report["neron-rays-in-cell-fan"]["ok"] == (stray is None)
    assert report["neron-rays-in-cell-fan"]["witness"] == (None if stray is None else {"vector": stray})


# --- random pencil properties -------------------------------------------

@given(
    lam=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
    num=st.integers(min_value=-8, max_value=8),
    den=st.sampled_from((1, 2, 3, 4)),
)
def test_pencil_points_always_land_in_their_cell(lam, num, den):
    fan = CellFan(elliptic_frame())
    n = fan.frame.pencil(lam, (lam * F(num, den), F(0)))
    idx = cell_containing(fan, n)
    assert idx is not None
    assert fan.cell(*idx).contains(flatten(n))


@given(
    key=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    n=st.integers(min_value=-3, max_value=3),
)
def test_jordan3_cell_round_trip(key, n):
    fan = CellFan(jordan3_frame())
    cell = fan.cell((key,), (n,))
    rep = cell.interior_point()
    back = cell_containing(fan, unflatten(rep, fan.frame.dim))
    assert back == ((key,), (n,))

"""Classifying space predicates on the standard frames.

Oracle: for the rank two symplectic frame with a one dimensional top
level, the induced hermitian form on the inner piece works out by hand
to 2*Im(tau) for the line spanned by tau*e1 + e2.  Membership in the
open domain is therefore equivalent to Im(tau) > 0, which checks the
generic minor machinery against the classical statement.
"""

from fractions import Fraction as F

from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relfan.classifying import (
    PeriodPoint,
    extend_inner_filtration,
    hermitian_gram,
    hodge_numbers,
    in_D,
    in_compact_dual,
    nilpotent_orbit_test,
    orbit_exponentials,
    small_griffiths,
)
from relfan.cones import Cone
from relfan.errors import (
    GriffithsViolated,
    InvariantViolation,
    MixedAmbient,
    NotInCompactDual,
    NotInG,
    PreconditionViolated,
)
from relfan import classifying, gaussian, qlinalg
from relfan.fans import flatten, unflatten
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gaussian import I, ONE, GSpace, Gi, gmat, realify_mat
from relfan.hodge import Frame
from relfan.qlinalg import Subspace, det, exp_nilpotent, identity, linear_map, zero_vec

from conftest import fracs
from dense_series import gexp_nilpotent


def gi(a, b=0):
    return Gi(F(a), F(b))


def elliptic_point(tau):
    fr = elliptic_frame()
    return extend_inner_filtration(fr, {0: [(tau, 1)], -1: [(1, 0), (0, 1)]})


def upper_half(tau) -> bool:
    # the classical oracle for the symplectic rank two frame
    return tau.im > 0


def pencil_ray(frame, lam, h):
    return Cone.from_generators([flatten(frame.pencil(lam, h))], frame.dim**2)


# --- membership ---

def test_hodge_numbers_table():
    fr = elliptic_frame()
    assert hodge_numbers(fr) == {0: {(0, 0): 1}, -1: {(0, -1): 1, (-1, 0): 1}}


def test_elliptic_membership_hand_values():
    assert in_D(elliptic_point(gi(0, 1)))
    assert not in_D(elliptic_point(gi(0, -1)))
    assert not in_D(elliptic_point(gi(0)))
    assert in_D(elliptic_point(gi(1, 1)))
    assert not in_D(elliptic_point(gi(2, -3)))


def test_elliptic_forms_frozen():
    assert hermitian_gram(elliptic_point(gi(0, 1)), -1, 0) == ((gi(2),),)
    assert hermitian_gram(elliptic_point(gi(0, -1)), -1, 0) == ((gi(-2),),)
    assert hermitian_gram(elliptic_point(gi(0)), -1, 0) == ((gi(0),),)
    # the quotient line always contributes a unit form
    assert hermitian_gram(elliptic_point(gi(0, 1)), 0, 0) == ((gi(1),),)


@given(fracs(), fracs())
def test_elliptic_membership_matches_oracle(a, b):
    tau = Gi(a, b)
    pt = elliptic_point(tau)
    # every isotropic line lies in the compact dual of this frame
    assert in_compact_dual(pt)
    assert in_D(pt) == upper_half(tau)
    # in the reduced basis the line is spanned by (1, 1/tau) once tau != 0
    norm = tau.re**2 + tau.im**2
    want = Gi(2 * tau.im / norm) if tau else Gi(0)
    assert hermitian_gram(pt, -1, 0) == ((want,),)


def test_compact_dual_failure_raises():
    fr = Frame(
        rank=2,
        weight=-2,
        gram=((F(1), F(0)), (F(0), F(-1))),
        gamma=identity(2),
        hodge={(0, -2): 1, (-2, 0): 1},
    )
    pt = extend_inner_filtration(fr, {0: [(1, 0)], -2: [(1, 0), (0, 1)]})
    assert not in_compact_dual(pt)
    with pytest.raises(NotInCompactDual):
        in_D(pt)


def test_isotropic_line_in_dual_but_degenerate():
    fr = Frame(
        rank=2,
        weight=-2,
        gram=((F(0), F(1)), (F(1), F(0))),
        gamma=identity(2),
        hodge={(0, -2): 1, (-2, 0): 1},
    )
    pt = extend_inner_filtration(fr, {0: [(1, 0)], -2: [(1, 0), (0, 1)]})
    assert in_compact_dual(pt)
    assert not in_D(pt)


# --- flag validation ---

def test_flag_condition_is_checked():
    fr = elliptic_frame()
    with pytest.raises(PreconditionViolated):
        PeriodPoint(fr, {0: [(0, 0, 1)]})
    # a top level missing the quotient direction
    with pytest.raises(PreconditionViolated):
        PeriodPoint(fr, {0: [(0, 1, 1)], -1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)]})
    with pytest.raises(MixedAmbient):
        PeriodPoint(fr, {0: [(1, 0)]})
    with pytest.raises(PreconditionViolated):
        PeriodPoint(fr, {})


def test_filtration_access():
    pt = elliptic_point(gi(0, 1))
    assert pt.jump_indices == (0, -1)
    assert pt.at(1).dim == 0
    assert pt.at(0).dim == 2
    assert pt.at(-5).dim == 3
    assert pt.graded(-1, 0).dim == 1
    assert pt.graded(0, 0).dim == 1
    with pytest.raises(PreconditionViolated):
        pt.graded(-3, 0)


# --- transversality ---

def test_small_griffiths_elliptic():
    pt = elliptic_point(gi(0, 1))
    fr = pt.frame
    assert small_griffiths(pt, fr.pencil(F(1), (0, 0)))
    assert small_griffiths(pt, fr.pencil(F(2), (1, 0)))
    with pytest.raises(NotInG):
        small_griffiths(pt, identity(3))


def jordan3_point(middle):
    # middle picks the second inner level: e3 plus the chosen line
    return extend_inner_filtration(
        jordan3_frame(),
        {0: [(0, 0, 1)], -1: [middle], -2: [(1, 0, 0), (0, 1, 0), (0, 0, 1)]},
    )


def test_small_griffiths_jordan3():
    fr = jordan3_frame()
    n = fr.pencil(F(1), zero_vec(3))
    assert small_griffiths(jordan3_point((0, 1, 0)), n)
    # the middle level dodges the image of the top one
    assert not small_griffiths(jordan3_point((1, 0, 0)), n)


# --- orbit sampling ---

def test_orbit_from_boundary_point():
    pt = elliptic_point(gi(0))
    assert not in_D(pt)
    cone = pencil_ray(pt.frame, F(1), (0, 0))
    assert nilpotent_orbit_test(pt, cone)


def test_orbit_form_positive_at_every_height():
    pt = elliptic_point(gi(0))
    n = pt.frame.pencil(F(1), (0, 0))
    for y in (1, 4, 16, 64, 256):
        moved = pt.apply(gexp_nilpotent(gmat([[Gi(0, F(y) * x) for x in row] for row in n])))
        # the moved line is tau = i*y, reduced to (1, -i/y)
        assert hermitian_gram(moved, -1, 0) == ((gi(F(2, y)),),)
        assert in_D(moved)


@pytest.mark.parametrize("frame", [elliptic_frame(), jordan3_frame()], ids=["elliptic", "jordan3"])
def test_orbit_exponentials_match_series_at_every_height(frame):
    heights = (1, 4, 16, 64, 256, F(1, 3))
    first, last = (1,) + (0,) * (frame.rank - 1), (0,) * (frame.rank - 1) + (1,)
    for n in (frame.pencil(1, zero_vec(frame.rank)), frame.pencil(2, first), frame.pencil(0, last)):
        want = [gexp_nilpotent(gmat([[Gi(0, F(y) * x) for x in row] for row in n])) for y in heights]
        assert orbit_exponentials(n, heights) == want


def test_orbit_moves_along_the_sum_of_the_generators(monkeypatch):
    pt = elliptic_point(gi(0))
    fr = pt.frame
    cone = Cone.from_generators([flatten(fr.pencil(1, (0, 0))), flatten(fr.pencil(1, (1, 0)))], fr.dim**2)
    seen = []
    direct = classifying.orbit_exponentials
    monkeypatch.setattr(classifying, "orbit_exponentials", lambda n, ys: seen.append(n) or direct(n, ys))
    assert nilpotent_orbit_test(pt, cone)
    left, right = (unflatten(r, fr.dim) for r in cone.rays)
    assert seen == [tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(left, right))]


def test_orbit_rejects_directions_whose_sum_is_not_nilpotent():
    pt = elliptic_point(gi(0, 1))
    fr = pt.frame
    up, down = fr.assemble(((0, 1), (0, 0)), (0, 0)), fr.assemble(((0, 0), (1, 0)), (0, 0))
    cone = Cone.from_generators([flatten(up), flatten(down)], fr.dim**2)
    with pytest.raises(GriffithsViolated, match="nilpotent"):
        nilpotent_orbit_test(pt, cone)


def test_orbit_degenerate_direction_fails():
    fr = elliptic_frame()
    pt = extend_inner_filtration(fr, {0: [(1, 0)], -1: [(1, 0), (0, 1)]})
    cone = pencil_ray(fr, F(1), (0, 0))
    assert not nilpotent_orbit_test(pt, cone)


def test_orbit_zero_cone_reduces_to_membership():
    assert nilpotent_orbit_test(elliptic_point(gi(0, 1)), Cone.zero(9))
    assert not nilpotent_orbit_test(elliptic_point(gi(0)), Cone.zero(9))


def test_orbit_requires_transversality():
    pt = jordan3_point((1, 0, 0))
    cone = pencil_ray(pt.frame, F(1), zero_vec(3))
    with pytest.raises(GriffithsViolated):
        nilpotent_orbit_test(pt, cone)


def test_orbit_rejects_bad_heights():
    pt = elliptic_point(gi(0))
    cone = pencil_ray(pt.frame, F(1), (0, 0))
    with pytest.raises(PreconditionViolated):
        nilpotent_orbit_test(pt, cone, y_samples=(0,))
    with pytest.raises(PreconditionViolated):
        # the point leaves the domain at height 1, before the bad height
        nilpotent_orbit_test(elliptic_point(gi(0, -1)), cone, y_samples=(1, 0))
    assert nilpotent_orbit_test(pt, cone, y_samples=(3,))


# --- invariance ---

def block_diag(s):
    return gmat([[s[0][0], s[0][1], 0], [s[1][0], s[1][1], 0], [0, 0, 1]])


@pytest.mark.parametrize(
    "s", [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1))]
)
@pytest.mark.parametrize("tau", [(0, 1), (0, -1), (1, 2), (F(1, 2), F(-1, 3))])
def test_membership_invariant_under_integral_symplectic(s, tau):
    pt = elliptic_point(gi(*tau))
    moved = pt.apply(block_diag(s))
    assert in_D(moved) == in_D(pt)


def test_exp_log_consistency_with_rational_layer():
    for fr in (elliptic_frame(), jordan3_frame()):
        n = fr.pencil(F(1), zero_vec(fr.rank))
        assert gexp_nilpotent(gmat(n)) == gmat(exp_nilpotent(n))


# --- integer kernels against the Gi paths they replaced ----------------------
#
# The references below are the Q(i) scalar computations the classifying layer
# ran before it moved onto cleared integer rows: the pairing summed entry by
# entry over Gi, the hermitian gram built from it, positivity by one det per
# leading block, the graded pieces cut by a meet with the inner coordinates,
# and a move applied level by level through realify_mat on Fractions.


def ref_pairing(gram, x, y):
    acc = Gi()
    for s, xs in enumerate(x):
        for t, g in enumerate(gram[s]):
            acc = acc + xs * g * y[t]
    return acc


def ref_graded(pt, k, p):
    fr = pt.frame
    space = pt.at(p)
    cut = space.intersect(GSpace(fr.dim, identity(fr.dim)[: fr.rank]))
    if k == 0:
        return GSpace(1, [(1,)] if space.dim > cut.dim else [])
    return GSpace(fr.rank, [v[: fr.rank] for v in cut.basis])


def ref_gram(pt, k):
    return gmat(pt.frame.gram) if k else gmat([[1]])


def ref_in_compact_dual(pt):
    for k in hodge_numbers(pt.frame):
        for p in pt.jump_indices:
            for q in pt.jump_indices:
                if p + q <= k:
                    continue
                for x in ref_graded(pt, k, p).basis:
                    for y in ref_graded(pt, k, q).basis:
                        if ref_pairing(ref_gram(pt, k), x, y):
                            return False
    return True


def ref_hermitian_gram(pt, k, p):
    q = k - p
    conj = GSpace(pt.frame.rank if k else 1, [[c.conjugate() for c in v] for v in ref_graded(pt, k, q).basis])
    piece = ref_graded(pt, k, p).intersect(conj)
    if piece.dim != hodge_numbers(pt.frame)[k].get((p, q), 0):
        return None
    sign = (ONE, I, -ONE, -I)[(p - q) % 4]
    m = tuple(
        tuple(sign * ref_pairing(ref_gram(pt, k), x, [c.conjugate() for c in y]) for y in piece.basis)
        for x in piece.basis
    )
    assert all(m[a][b].conjugate() == m[b][a] for a in range(len(m)) for b in range(len(m)))
    return m


def ref_positive_definite(m):
    form = realify_mat(m)
    return all(det(tuple(row[:t] for row in form[:t])) > 0 for t in range(1, len(form) + 1))


def ref_in_D(pt):
    if not ref_in_compact_dual(pt):
        return None
    for k, types in hodge_numbers(pt.frame).items():
        for (p, _), m in types.items():
            gram = ref_hermitian_gram(pt, k, p)
            if m and (gram is None or not ref_positive_definite(gram)):
                return False
    return True


def ref_apply(pt, op):
    move = linear_map(realify_mat(op))
    return tuple((p, GSpace._of(Subspace.span(map(move, s.real.basis), s.real.ambient))) for p, s in pt.jumps)


def assert_matches_reference(pt):
    isotropic = ref_in_compact_dual(pt)
    assert in_compact_dual(pt) == isotropic
    if isotropic:
        assert in_D(pt) == ref_in_D(pt)
    else:
        with pytest.raises(NotInCompactDual):
            in_D(pt)
    for k, types in hodge_numbers(pt.frame).items():
        for p in {p for p, _ in types} | set(pt.jump_indices):
            assert pt.graded(k, p) == ref_graded(pt, k, p)
            assert hermitian_gram(pt, k, p) == ref_hermitian_gram(pt, k, p)


gis = st.builds(Gi, fracs(), fracs())


@given(gis)
def test_elliptic_points_match_the_gi_paths(tau):
    assert_matches_reference(elliptic_point(tau))


@st.composite
def jordan3_points(draw):
    """F^0 the isotropic line (1, t, t^2 / 2), and F^-1 its orthogonal
    plane, spanned by it and (0, 1, t); or else a plane drawn freely."""
    t = draw(gis)
    top = (Gi(1), t, t * t * Gi(F(1, 2)))
    other = (Gi(), Gi(1), t) if draw(st.booleans()) else draw(st.tuples(gis, gis, gis))
    assume(GSpace(3, [top, other]).dim == 2)
    return extend_inner_filtration(jordan3_frame(), {0: [top], -1: [other], -2: identity(3)})


@given(jordan3_points())
def test_jordan3_points_match_the_gi_paths(pt):
    assert_matches_reference(pt)


def weight_minus_two_frame(gram):
    return Frame(rank=2, weight=-2, gram=gram, gamma=identity(2), hodge={(0, -2): 1, (-2, 0): 1})


# the two hand frames by name: the gram and its isotropic lines
HAND_FRAMES = {
    "diagonal": (((1, 0), (0, -1)), [(1, 1), (1, -1)]),
    "hyperbolic": (((0, 1), (1, 0)), [(1, 0), (0, 1)]),
}


@given(st.sampled_from(sorted(HAND_FRAMES)), st.data())
def test_weight_minus_two_points_match_the_gi_paths(name, data):
    gram, isotropic = HAND_FRAMES[name]
    line = data.draw(st.one_of(st.sampled_from(isotropic), st.tuples(gis, gis)))
    assume(any(line))
    fr = weight_minus_two_frame(gram)
    assert_matches_reference(extend_inner_filtration(fr, {0: [line], -2: identity(2)}))


SL2_GENERATORS = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1))]


@given(gis, st.lists(st.sampled_from(SL2_GENERATORS), min_size=1, max_size=4))
def test_integral_symplectic_moves_match_the_gi_paths(tau, word):
    pt = elliptic_point(tau)
    for s in word:
        op = block_diag(s)
        moved = pt.apply(op)
        assert moved.jumps == ref_apply(pt, op)
        assert_matches_reference(moved)
        pt = moved


@given(st.sampled_from(["elliptic", "jordan3"]), st.data())
def test_orbit_moves_match_the_gi_paths(name, data):
    if name == "elliptic":
        pt, n = elliptic_point(data.draw(gis)), elliptic_frame().pencil(F(1), (0, 0))
    else:
        pt, n = jordan3_point((0, 1, 0)), jordan3_frame().pencil(F(1), zero_vec(3))
    for u in orbit_exponentials(n, (1, data.draw(fracs().filter(lambda y: y > 0)))):
        moved = pt.apply(u)
        assert moved.jumps == ref_apply(pt, u)
        assert_matches_reference(moved)


def test_membership_and_isotropy_build_no_gaussian_scalar(monkeypatch):
    # fresh frames, so the forms are built inside the refused calls too
    points = [
        extend_inner_filtration(elliptic_frame(), {0: [(gi(0, 1), 1)], -1: identity(2)}),
        jordan3_point((0, 1, 0)),
        extend_inner_filtration(weight_minus_two_frame(HAND_FRAMES["hyperbolic"][0]), {0: [(1, 0)], -2: identity(2)}),
    ]

    def refuse(self):
        raise AssertionError("a Gi was built")

    monkeypatch.setattr(Gi, "__post_init__", refuse)
    assert [in_compact_dual(pt) for pt in points] == [True, True, True]
    assert [in_D(pt) for pt in points] == [True, False, False]


def test_a_non_symmetric_form_is_refused(monkeypatch):
    pt = elliptic_point(gi(0, 1))
    built = classifying._form

    def skewed(pt, k, twist):
        scale, rows = built(pt, k, twist)
        if twist is None:
            return scale, rows
        rows = [list(r) for r in rows]
        rows[0].append((1, 1))
        rows[1].append((0, -1))
        return scale, rows

    monkeypatch.setattr(classifying, "_form", skewed)
    with pytest.raises(InvariantViolation, match="induced form is not hermitian"):
        in_D(pt)
    with pytest.raises(InvariantViolation, match="induced form is not hermitian"):
        hermitian_gram(pt, -1, 0)


@st.composite
def symmetric_int_matrices(draw):
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    return m


@given(symmetric_int_matrices())
def test_leading_minors_are_the_leading_dets(m):
    dets = [det(tuple(tuple(F(x) for x in row[:t]) for row in m[:t])) for t in range(1, len(m) + 1)]
    want = dets[: dets.index(0) + 1] if 0 in dets else dets
    assert list(classifying._leading_minors(m)) == want
    assert all(d > 0 for d in classifying._leading_minors(m)) == all(d > 0 for d in dets)


def test_leading_minors_stop_at_the_first_zero():
    assert list(classifying._leading_minors([[0, 1], [1, 0]])) == [0]
    assert list(classifying._leading_minors([[1, 1, 0], [1, 1, 0], [0, 0, 5]])) == [1, 0]
    assert list(classifying._leading_minors([[2, 1], [1, -3]])) == [2, -7]


def test_levels_outside_the_jumps_share_one_zero_space():
    pt = elliptic_point(gi(0, 1))
    assert pt.at(1) is pt.at(7)
    assert pt.graded(-1, 1) is pt.graded(-1, 3)
    assert pt.graded(0, 1) is pt.graded(0, 2)
    assert pt.at(1).dim == pt.graded(-1, 1).dim == pt.graded(0, 1).dim == 0


# --- levels built once, on cleared rows -----------------------------------------


def test_each_spanning_vector_is_realified_once():
    fr = jordan3_frame()
    e = (0, 0, 0, 1)
    jumps = {0: [(0, 0, 1, 0), e], -1: [(0, 1, 0, 0), e], -2: [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), e]}
    with mock.patch.object(gaussian, "realify", wraps=gaussian.realify) as realified:
        pt = PeriodPoint(fr, jumps)
    assert realified.call_count == sum(map(len, jumps.values()))
    for p, vectors in jumps.items():
        want = GSpace(fr.dim, [v for q, vs in jumps.items() if q >= p for v in vs])
        assert pt.at(p) == want


def test_each_level_is_one_elimination():
    # a level is the level above's cleared rows plus its own realified
    # rows, eliminated once; _split_graded then cuts each level once
    fr = jordan3_frame()
    e = (0, 0, 0, 1)
    jumps = {0: [(0, 0, 1, 0), e], -1: [(0, 1, 0, 0)], -2: [(1, 0, 0, 0)]}
    split = PeriodPoint._split_graded
    with mock.patch.object(Subspace, "_of_int_rows", wraps=Subspace._of_int_rows) as eliminated, \
         mock.patch.object(PeriodPoint, "_split_graded", autospec=True, side_effect=split) as cut:
        pt = PeriodPoint(fr, jumps)
    assert cut.call_count == 1
    assert eliminated.call_count == 2 * len(jumps)
    assert [pt.at(p).dim for p in (0, -1, -2)] == [2, 3, 4]


@pytest.mark.parametrize("tau", [gi(F(1, 2), F(3, 4)), gi(-2, 0), gi(F(-1, 3), -1)])
def test_period_points_are_built_and_decided_with_no_fraction_basis(tau):
    fr = elliptic_frame()  # the frame's own caches are built outside the patch
    in_D(extend_inner_filtration(fr, {0: [(ONE, ONE)], -1: [(1, 0), (0, 1)]}))

    def refuse(*args):
        raise AssertionError("a Fraction basis was built")

    with mock.patch.object(qlinalg, "_to_fractions", refuse):
        pt = extend_inner_filtration(fr, {0: [(tau, 1)], -1: [(1, 0), (0, 1)]})
        assert in_D(pt) == upper_half(tau)

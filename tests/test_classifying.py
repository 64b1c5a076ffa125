"""Classifying space predicates on the standard frames.

Oracle: for the rank two symplectic frame with a one dimensional top
level, the induced hermitian form on the inner piece works out by hand
to 2*Im(tau) for the line spanned by tau*e1 + e2.  Membership in the
open domain is therefore equivalent to Im(tau) > 0, which checks the
generic minor machinery against the classical statement.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given

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
    MixedAmbient,
    NotInCompactDual,
    NotInG,
    PreconditionViolated,
)
from relfan import classifying
from relfan.fans import flatten, unflatten
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gaussian import Gi, gmat
from relfan.hodge import Frame
from relfan.qlinalg import exp_nilpotent, identity, zero_vec

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

"""Kunneth bookkeeping and the chart identification relation.

Oracle for the rank: the degree three piece of a triple product is the
convolution of the per factor dimensions, computed here directly from
the basis skeleton and frozen before the matrix machinery runs.
"""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relfan.cli import to_jsonable
from relfan.errors import (
    NotUnipotent,
    PreconditionViolated,
    SpecFormatError,
)
from relfan.fans import CellFan, check_square_zero_pure
from relfan.fixtures import elliptic_frame
from relfan.gallery import (
    H_BASIS,
    ChartPoint,
    CurveFactor,
    declared_graded_types,
    equivalence_witness,
    equivalent,
    fiber_certificate,
    hausdorff_witness,
    kunneth_basis,
    kunneth_gram,
    kunneth_h3,
    kunneth_log_monodromy,
    limit_type_table,
    pure_type_table,
    slit_member,
    standard_factors,
)
from relfan.gaussian import Gi
from relfan.qlinalg import det, is_zero_mat, matmul, transpose

from conftest import fracs


def gi(a, b=0):
    return Gi(F(a), F(b))


T0 = ((1, 0), (1, 0), (1, 0), (1, 0))


# --- kunneth skeleton ---

def test_rank_by_convolution_oracle():
    dims = {d: len(H_BASIS[d]) for d in (0, 1, 2)}
    count = sum(
        dims[d1] * dims[d2] * dims[d3]
        for d1, d2, d3 in product((0, 1, 2), repeat=3)
        if d1 + d2 + d3 == 3
    )
    assert count == 20
    assert len(kunneth_basis(standard_factors())) == count


def test_basis_order_frozen():
    basis = kunneth_basis(standard_factors())
    assert basis[0] == ((0, 1, 2), ("u", "a", "w"))
    assert basis[1] == ((0, 1, 2), ("u", "b", "w"))
    assert basis[-1] == ((2, 1, 0), ("w", "b", "u"))
    # block sizes follow the lex order of the degree triples
    triples = [degs for degs, _ in basis]
    sizes = [triples.count(t) for t in sorted(set(triples))]
    assert sizes == [2, 2, 2, 8, 2, 2, 2]
    assert triples == sorted(triples)


def test_gram_shape_and_sample():
    factors = standard_factors()
    basis = kunneth_basis(factors)
    gram = kunneth_gram(factors)
    assert transpose(gram) == tuple(tuple(-x for x in row) for row in gram)
    assert det(gram) != 0
    index = {b: i for i, b in enumerate(basis)}
    i = index[((0, 1, 2), ("u", "a", "w"))]
    j = index[((2, 1, 0), ("w", "b", "u"))]
    # sign exponent 1*2 + 2*(2+1) is even, all three pairings are +1
    assert gram[i][j] == 1
    assert gram[j][i] == -1


def test_log_monodromy_moves_one_label():
    factors = standard_factors()
    basis = kunneth_basis(factors)
    np = kunneth_log_monodromy(factors)
    index = {b: i for i, b in enumerate(basis)}
    src = index[((0, 2, 1), ("u", "w", "b"))]
    dst = index[((0, 2, 1), ("u", "w", "a"))]
    assert np[dst][src] == 1
    assert sum(1 for row in np for x in row if x) == 6
    assert is_zero_mat(matmul(np, np))


def test_constant_factors_have_zero_log():
    factors = (
        CurveFactor.constant("A"),
        CurveFactor.constant("B"),
        CurveFactor.constant("C"),
    )
    assert is_zero_mat(kunneth_log_monodromy(factors))


def test_factor_validation():
    with pytest.raises(NotUnipotent):
        CurveFactor("bad", ((2, 0), (0, 1)))
    with pytest.raises(SpecFormatError):
        CurveFactor("bad", ((1, 0, 0), (0, 1, 0)))
    assert CurveFactor.degenerating("E").degenerates
    assert not CurveFactor.constant("Y").degenerates


# --- type tables ---

def test_pure_types_frozen():
    assert pure_type_table(standard_factors()) == {
        (1, -2): 1, (0, -1): 9, (-1, 0): 9, (-2, 1): 1,
    }


def test_limit_types_frozen():
    assert limit_type_table(standard_factors()) == {
        0: {(1, -1): 1, (0, 0): 4, (-1, 1): 1},
        -1: {(0, -1): 4, (-1, 0): 4},
        -2: {(0, -2): 1, (-1, -1): 4, (-2, 0): 1},
    }


def test_declared_types_flatten_even_pieces():
    assert declared_graded_types(standard_factors()) == {
        0: {(0, 0): 6},
        -1: {(0, -1): 4, (-1, 0): 4},
        -2: {(-1, -1): 6},
    }


def test_fiber_certificate_frozen():
    assert fiber_certificate(standard_factors()) == {
        "half_rank": 10, "abelian": 4, "torus": 4, "vector": 2,
    }


def test_fiber_certificate_no_degeneration():
    factors = tuple(CurveFactor.constant(n) for n in "ABC")
    assert fiber_certificate(factors) == {
        "half_rank": 10, "abelian": 10, "torus": 0, "vector": 0,
    }


# --- the assembled frame ---

def test_frame_assembly():
    fr = kunneth_h3(standard_factors())
    assert fr.rank == 20
    assert fr.weight == -1
    assert check_square_zero_pure(fr)["holds"]
    with pytest.raises(PreconditionViolated):
        kunneth_h3(standard_factors()[:2])


def test_frame_fan_splitting():
    fan = CellFan(kunneth_h3(standard_factors()))
    assert fan.cube_rank == 6
    assert fan.key_rank == 0
    assert fan.p_space == fan.q_space
    assert fan.denominator(fan.zero_key()) == 1


# --- chart points ---

def test_chart_point_validation():
    with pytest.raises(SpecFormatError):
        ChartPoint(((0, 0), (1, 0), (1, 0), (1, 0)), gi(0), gi(0), None)
    with pytest.raises(SpecFormatError):
        ChartPoint(T0[:3], gi(0), gi(0), None)
    with pytest.raises(SpecFormatError):
        ChartPoint(T0, gi(0), gi(0), (F(1, 3), -1))
    p = ChartPoint(T0, gi(1, 1), gi(2), (F(1, 3), 2))
    assert p.modulus == gi(F(1, 3), 2)
    assert p.limit().tau is None
    assert ChartPoint(T0, gi(0), gi(0), None).modulus is None


def test_chart_point_json_frozen():
    p = ChartPoint(T0, gi(F(1, 3)), gi(1), (F(1, 3), 2))
    assert to_jsonable(p) == {
        "t": [["1+0*i", 0], ["1+0*i", 0], ["1+0*i", 0], ["1+0*i", 0]],
        "a1": "1/3+0*i",
        "a2": "1+0*i",
        "tau": ["1/3", 2],
    }


# --- the identification relation ---

def test_equivalence_spec_pair():
    c = F(1, 3)
    for n in (1, 2, 7):
        first = ChartPoint(T0, gi(c), gi(1), (c, n))
        second = ChartPoint(T0, gi(0), gi(0), (c, n))
        w = equivalence_witness(first, second)
        assert w["equivalent"]
        assert w["b"] == gi(-1)


def test_equivalence_fails_at_degenerate_modulus():
    first = ChartPoint(T0, gi(F(1, 3)), gi(1), None)
    second = ChartPoint(T0, gi(0), gi(0), None)
    w = equivalence_witness(first, second)
    assert not w["equivalent"]
    assert w["reason"] == "second vector coordinates differ"


def test_equivalence_degenerate_integral_shift():
    first = ChartPoint(T0, gi(1, 2), gi(5), None)
    second = ChartPoint(T0, gi(-1, 3), gi(5), None)
    assert equivalent(first, second)
    third = ChartPoint(T0, gi(F(1, 2)), gi(5), None)
    assert not equivalent(first, third)


def test_equivalence_modulus_powers_are_free():
    tee = ((2, 0), (3, -1), (1, 4), (1, 0))
    tee2 = ((2, 3), (3, 0), (1, 0), (1, -2))
    first = ChartPoint(tee, gi(0), gi(0), (F(0), 1))
    second = ChartPoint(tee2, gi(0), gi(0), (F(0), 1))
    assert equivalence_witness(first, second)["b"] == gi(0)
    assert equivalent(first, second)
    # but not once the modulus degenerates
    assert not equivalent(first.limit(), second.limit())


def test_equivalence_rejections():
    base = ChartPoint(T0, gi(0), gi(0), (F(0), 1))
    other_modulus = ChartPoint(T0, gi(0), gi(0), (F(1, 2), 1))
    assert not equivalent(base, other_modulus)
    shifted_modulus = ChartPoint(T0, gi(0), gi(0), (F(2), 1))
    assert equivalent(base, shifted_modulus)
    different_base = ChartPoint(((2, 0), (1, 0), (1, 0), (1, 0)), gi(0), gi(0), (F(0), 1))
    assert not equivalent(base, different_base)
    fractional_b = ChartPoint(T0, gi(0), gi(F(1, 2)), (F(0), 1))
    assert not equivalent(base, fractional_b)
    bad_a1 = ChartPoint(T0, gi(F(1, 5)), gi(0), (F(0), 1))
    w = equivalence_witness(base, bad_a1)
    assert not w["equivalent"] and w["b"] == gi(0)
    degenerate = ChartPoint(T0, gi(0), gi(0), None)
    assert not equivalent(base, degenerate)


def chart_points(with_tau):
    def build(a1, a2, c, n):
        return ChartPoint(T0, Gi(*a1), Gi(*a2), (c, n) if with_tau else None)

    return st.builds(
        build,
        st.tuples(fracs(), fracs()),
        st.tuples(fracs(), fracs()),
        fracs(),
        st.integers(min_value=0, max_value=5),
    )


@given(chart_points(True))
def test_equivalence_reflexive(p):
    w = equivalence_witness(p, p)
    assert w["equivalent"] and w["b"] == gi(0)


@given(chart_points(True), chart_points(True))
def test_equivalence_symmetric(p, q):
    w = equivalence_witness(p, q)
    back = equivalence_witness(q, p)
    assert w["equivalent"] == back["equivalent"]
    if w["equivalent"]:
        assert back["b"] == -w["b"]


@given(chart_points(True), st.tuples(fracs(), fracs()), st.integers(-3, 3))
def test_equivalence_transitive_chain(p, shift, k):
    # q differs from p by an integral witness, r from q by another
    b1 = gi(1, -2)
    q = ChartPoint(p.t, p.a1 + b1 * p.modulus + gi(3), p.a2 + b1, p.tau)
    b2 = gi(k)
    r = ChartPoint(q.t, q.a1 + b2 * q.modulus, q.a2 + b2, q.tau)
    assert equivalent(p, q) and equivalent(q, r)
    w = equivalence_witness(p, r)
    assert w["equivalent"] and w["b"] == b1 + b2


# --- separation failure and the slit ---

def test_hausdorff_witness_certificate():
    report = hausdorff_witness(F(1, 3), T0)
    assert report["certified"]
    assert [s["height"] for s in report["steps"]] == list(range(1, 11))
    assert all(s["equivalent"] for s in report["steps"])
    assert all(s["b"] == gi(-1) for s in report["steps"])
    assert not report["limits"]["witness"]["equivalent"]
    assert report["limits"]["first"] == ChartPoint(T0, gi(F(1, 3)), gi(1), None)
    assert report["limits"]["second"] == ChartPoint(T0, gi(0), gi(0), None)
    assert report["parameter"] == F(1, 3)
    assert to_jsonable(report)["parameter"] == "1/3"


def test_hausdorff_witness_zero_parameter():
    report = hausdorff_witness(0, T0)
    assert report["certified"]


def test_hausdorff_witness_empty_range():
    report = hausdorff_witness(F(1, 3), T0, heights=())
    assert report["steps"] == []
    assert report["certified"]
    assert not report["limits"]["witness"]["equivalent"]


def test_slit_membership():
    assert slit_member(ChartPoint(T0, gi(5), gi(0), None))
    assert not slit_member(ChartPoint(T0, gi(5), gi(1), None))
    assert slit_member(ChartPoint(T0, gi(5), gi(1), (F(1, 3), 1)))


@given(chart_points(True))
def test_slit_away_from_degenerate_modulus(p):
    assert slit_member(p)


@given(chart_points(False))
def test_slit_on_degenerate_modulus(p):
    assert slit_member(p) == (not p.a2)

import copy
from fractions import Fraction
from functools import lru_cache

from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import embed_inner, fracs, reduce, solve
from relfan.errors import (
    MixedAmbient,
    NotInG,
    NotInGroup,
    NotNilpotent,
    NotUnipotent,
    PreconditionViolated,
    SpecFormatError,
)
from relfan import hodge, qlinalg
from relfan.fans import CellFan, minimal_integral_exponent
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gallery import kunneth_h3, standard_factors
from relfan.hodge import (
    Filtration,
    Frame,
    Subspace,
    check_in_g,
    frame_from_json,
    frame_to_json,
    is_relative_weight_filtration,
    pq_spaces,
    relative_filtration,
    relative_filtration_exists,
    weight_filtration,
)
from relfan.qlinalg import (
    ZERO,
    NilpotentPowers,
    identity,
    inverse,
    is_zero_mat,
    mat,
    matmul,
    matpow,
    matscale,
    matvec,
    rref,
    transpose,
    vadd,
    vec,
    vscale,
    zeros,
)

F = Fraction

J2 = mat([[0, 1], [0, 0]])
J3 = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def strict_upper(dim, lo=-3, hi=3):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    ).map(
        lambda rows: mat(
            [[rows[i][j] if j > i else 0 for j in range(dim)] for i in range(dim)]
        )
    )


# --- weight filtrations ------------------------------------------------------


def is_weight_filtration(n_mat, filt, center):
    """The direct axiom check: the one-piece case of
    is_relative_weight_filtration, whose base is everything at center.
    False on a filtration of another ambient."""
    whole = Filtration(filt.ambient, ((center, Subspace.full(filt.ambient)),))
    return filt.ambient == len(n_mat) and is_relative_weight_filtration(n_mat, whole, filt)


def test_weight_filtration_single_jordan_blocks():
    w2 = weight_filtration(J2)
    assert w2.graded_dims() == {-1: 1, 1: 1}
    assert w2.at(-1) == Subspace.span([(1, 0)], 2)

    w3 = weight_filtration(J3)
    assert w3.graded_dims() == {-2: 1, 0: 1, 2: 1}
    assert w3.at(-2) == Subspace.span([(1, 0, 0)], 3)
    assert w3.at(0) == Subspace.span([(1, 0, 0), (0, 1, 0)], 3)


def test_weight_filtration_block_plus_fixed_line():
    n = mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    w = weight_filtration(n)
    assert w.graded_dims() == {-1: 1, 0: 1, 1: 1}
    assert w.at(0) == Subspace.span([(1, 0, 0), (0, 0, 1)], 3)


def test_weight_filtration_of_zero():
    w = weight_filtration(zeros(2, 2), center=-1)
    assert w.graded_dims() == {-1: 2}


def test_weight_filtration_centering():
    w0 = weight_filtration(J3)
    wc = weight_filtration(J3, center=-2)
    for j in range(-6, 4):
        assert wc.at(j) == w0.at(j + 2)


@given(strict_upper(4))
def test_weight_filtration_satisfies_the_axioms(n):
    w = weight_filtration(n)
    assert is_weight_filtration(n, w, 0)


@given(strict_upper(3), st.integers(-2, 2))
def test_weight_filtration_axioms_centered(n, c):
    w = weight_filtration(n, center=c)
    assert is_weight_filtration(n, w, c)
    # off center it is not a weight filtration unless symmetric around both
    if w.graded_dims().keys() != {c}:
        shifted = w.shift(2)
        assert not is_weight_filtration(n, shifted, c)


def test_axiom_checker_rejects_wrong_filtration():
    # exchange the two jump levels of the standard shift
    bad = Filtration.from_spaces(
        {-1: Subspace.span([(0, 1)], 2), 1: Subspace.full(2)}, 2
    )
    assert not is_weight_filtration(J2, bad, 0)


def test_filtration_shift_convention():
    w = weight_filtration(J2)
    s = w.shift(-1)  # value at j is the old value at j - 1
    assert s.at(0) == w.at(-1)
    assert s.jump_indices == (0, 2)


# --- frames ------------------------------------------------------------------


def test_elliptic_frame_shape():
    fr = elliptic_frame()
    assert fr.dim == 3
    assert fr.log_gamma == J2
    assert fr.base_filtration.graded_dims() == {-1: 2, 0: 1}
    assert fr.inner_lattice.rank == 2


def test_jordan3_frame_shape():
    fr = jordan3_frame()
    assert fr.log_gamma == matscale(2, J3)
    assert fr.base_filtration.graded_dims() == {-2: 3, 0: 1}


def test_frame_rejects_wrong_gram_symmetry():
    with pytest.raises(SpecFormatError):
        Frame(rank=2, weight=-1, gram=((1, 0), (0, 1)), gamma=identity(2),
              hodge={(0, -1): 1, (-1, 0): 1})


def test_frame_rejects_gamma_outside_the_group():
    with pytest.raises(NotInGroup):
        Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)),
              gamma=((1, 0), (1, 1), ) if False else ((2, 0), (0, 1)),
              hodge={(0, -1): 1, (-1, 0): 1})


def test_frame_rejects_nonunipotent_gamma():
    with pytest.raises(NotUnipotent):
        Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)),
              gamma=((0, -1), (1, 0)), hodge={(0, -1): 1, (-1, 0): 1})


def test_frame_rejects_bad_hodge_numbers():
    with pytest.raises(SpecFormatError):
        Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)), gamma=((1, 1), (0, 1)),
              hodge={(0, -1): 2, (-1, 0): 1})
    with pytest.raises(SpecFormatError):
        Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)), gamma=((1, 1), (0, 1)),
              hodge={(0, 0): 2})
    with pytest.raises(SpecFormatError, match="h\\^\\(p,q\\) = h\\^\\(q,p\\)"):
        Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)), gamma=((1, 1), (0, 1)),
              hodge={(0, -1): 2})


def test_frame_rejects_gram_of_the_wrong_size():
    with pytest.raises(SpecFormatError):
        Frame(rank=2, weight=-1, gram=((0, -1, 0), (1, 0, 0), (0, 0, 1)),
              gamma=((1, 1), (0, 1)), hodge={(0, -1): 1, (-1, 0): 1})


@pytest.mark.parametrize("field, value", [
    ("rank", 2.9),
    ("weight", "-3/2"),
    ("hodge_numbers", [[0, -1, 1.5], [-1, 0, 1]]),
    ("hodge_numbers", [[0, -1, True], [-1, 0, 1]]),
    ("graded_types", [[0, 0, 0, 1], [-2.5, -1, -1, 1]]),
])
def test_frame_from_json_rejects_non_integral_fields(field, value):
    payload = frame_to_json(elliptic_frame())
    payload[field] = value
    with pytest.raises(SpecFormatError, match="must be an integer"):
        frame_from_json(payload)


def test_frame_from_json_accepts_integral_floats():
    payload = frame_to_json(elliptic_frame())
    payload["rank"], payload["weight"] = 2.0, "-1"
    assert frame_to_json(frame_from_json(payload)) == frame_to_json(elliptic_frame())


# --- the compatible operators -------------------------------------------------


def test_g_membership_elliptic():
    fr = elliptic_frame()
    n = fr.pencil(1, (0, 0))
    check_in_g(fr, n)
    assert fr.restriction_multiple(n) == 1
    # an infinitesimal isometry of the alternating pairing, off the pencil
    off = fr.assemble(((1, 0), (0, -1)), (2, 3))
    check_in_g(fr, off)
    assert fr.restriction_multiple(off) is None
    with pytest.raises(NotInG):
        check_in_g(fr, identity(3))
    bad = mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])  # does not kill the quotient
    with pytest.raises(NotInG):
        check_in_g(fr, bad)


def test_restriction_multiple_detects_non_multiples():
    fr = elliptic_frame()
    nonmult = fr.assemble(((0, 1), (0, 0)), (0, 0))
    assert fr.restriction_multiple(nonmult) == 1
    skew = fr.assemble(matmul(((0, 1), (1, 0)), fr.gram), (0, 0))
    assert fr.restriction_multiple(skew) is None


# --- check_in_g and block_multiple against their definitions -----------------


@lru_cache(maxsize=None)
def oracle_frame(name):
    """elliptic and triple have alternating grams, jordan3 a symmetric one."""
    if name == "triple":
        return kunneth_h3(standard_factors())
    return {"elliptic": elliptic_frame, "jordan3": jordan3_frame}[name]()


ORACLE_FRAMES = ["elliptic", "jordan3", "triple"]


def dense_product(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)) for row in a)


def isometry_reference(fr, a):
    """a^T g + g a = 0, by two dense Fraction products."""
    g = fr.gram
    left, right = dense_product(transpose(a), g), dense_product(g, a)
    return is_zero_mat(tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(left, right)))


@st.composite
def inner_blocks(draw, fr):
    """g^-1 X with X = -s X^T, which lies in G, optionally moved off it at
    one entry."""
    r = fr.rank
    sign = -1 if fr.weight % 2 else 1
    x = [[F(0)] * r for _ in range(r)]
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), fracs()), max_size=6)):
        x[i][j] += v
        x[j][i] -= sign * v
    a = [list(row) for row in matmul(inverse(fr.gram), mat(x))]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        a[i][j] += draw(fracs().filter(bool))
    return mat(a)


@given(st.sampled_from(ORACLE_FRAMES), st.data())
def test_check_in_g_matches_the_two_product_definition(name, data):
    fr = oracle_frame(name)
    a = data.draw(inner_blocks(fr))
    h = data.draw(st.lists(fracs(), min_size=fr.rank, max_size=fr.rank))
    n = fr.assemble(a, h)
    if isometry_reference(fr, a):
        check_in_g(fr, n)
    else:
        for call in (check_in_g, relative_filtration, relative_filtration_exists):
            with pytest.raises(NotInG):
                call(fr, n)


@pytest.mark.parametrize("name", ORACLE_FRAMES)
def test_check_in_g_on_pencil_and_dense_blocks(name):
    fr = oracle_frame(name)
    h = (F(1, 2),) * fr.rank
    for lam in (0, 1, F(-3, 2)):
        assert isometry_reference(fr, fr.restriction(fr.pencil(lam, h)))
        check_in_g(fr, fr.pencil(lam, h))
    dense = mat([[F(i + 2 * j + 1, 3) for j in range(fr.rank)] for i in range(fr.rank)])
    assert not isometry_reference(fr, dense)
    with pytest.raises(NotInG):
        check_in_g(fr, fr.assemble(dense, h))


def block_multiple_reference(fr, block):
    n = fr.log_gamma
    if is_zero_mat(n):
        return F(0) if is_zero_mat(block) else None
    i, j = next((i, j) for i, row in enumerate(n) for j, x in enumerate(row) if x)
    lam = block[i][j] / n[i][j]
    return lam if block == matscale(lam, n) else None


def same_multiple(got, want):
    return (got is None and want is None) or (got is not None and want is not None and got == want)


@given(st.sampled_from(ORACLE_FRAMES), fracs(), st.data())
def test_block_multiple_matches_the_matscale_definition(name, lam, data):
    fr = oracle_frame(name)
    r = fr.rank
    n = fr.log_gamma
    block = [list(row) for row in matscale(lam, n)]
    assert same_multiple(fr.block_multiple(mat(block)), lam)
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
    block[i][j] += data.draw(fracs().filter(bool))
    got = fr.block_multiple(mat(block))
    assert same_multiple(got, block_multiple_reference(fr, mat(block)))
    if n[i][j] == 0:
        assert got is None
    noise = data.draw(st.lists(st.lists(fracs(), min_size=r, max_size=r), min_size=r, max_size=r).map(mat))
    assert same_multiple(fr.block_multiple(noise), block_multiple_reference(fr, noise))


def test_block_multiple_off_the_support_and_at_zero():
    fr = jordan3_frame()
    n = fr.log_gamma
    assert fr.block_multiple(zeros(3, 3)) == 0
    assert fr.block_multiple(matscale(0, n)) == 0
    # 1/2 log(gamma) plus one entry where log(gamma) is zero
    moved = [list(row) for row in matscale(F(1, 2), n)]
    zero_at = next((i, j) for i in range(3) for j in range(3) if n[i][j] == 0)
    moved[zero_at[0]][zero_at[1]] = F(1)
    assert fr.block_multiple(mat(moved)) is None
    assert block_multiple_reference(fr, mat(moved)) is None
    # one entry of the zero block set where log(gamma) is zero
    lone = [[F(0)] * 3 for _ in range(3)]
    lone[zero_at[0]][zero_at[1]] = F(1)
    assert fr.block_multiple(mat(lone)) is None
    trivial = Frame(rank=2, weight=-1, gram=((0, -1), (1, 0)), gamma=identity(2),
                    hodge={(0, -1): 1, (-1, 0): 1})
    assert trivial.block_multiple(zeros(2, 2)) == 0
    assert trivial.block_multiple(((0, 1), (0, 0))) is None


# --- P and Q -----------------------------------------------------------------


def test_pq_spaces_elliptic():
    fr = elliptic_frame()
    p, q, agree = pq_spaces(fr, fr.log_gamma)
    assert agree
    assert p == Subspace.span([(1, 0)], 2)
    assert q == p


def test_pq_spaces_jordan3():
    fr = jordan3_frame()
    p, q, agree = pq_spaces(fr, fr.log_gamma)
    assert agree
    assert p == Subspace.span([(1, 0, 0), (0, 1, 0)], 3)
    assert q == Subspace.span([(1, 0, 0)], 3)


def test_pq_spaces_zero_block():
    fr = elliptic_frame()
    p, q, agree = pq_spaces(fr, zeros(2, 2))
    assert agree
    assert p.dim == 0 and q.dim == 0


def test_pq_rejects_non_nilpotent():
    fr = elliptic_frame()
    with pytest.raises(NotNilpotent):
        pq_spaces(fr, identity(2))


# --- the cached pencil weight filtration -------------------------------------

PENCIL_FRAMES = {"jordan3": jordan3_frame, "triple": lambda: kunneth_h3(standard_factors())}


@pytest.mark.parametrize("name", sorted(PENCIL_FRAMES))
def test_pencil_cache_matches_the_direct_computation(name, monkeypatch):
    fr = PENCIL_FRAMES[name]()
    n = fr.log_gamma
    images = [(0,) * fr.rank, matvec(n, (1,) * fr.rank), (1,) + (0,) * (fr.rank - 1)]

    def results():
        out = []
        for lam in (F(1), F(2), F(-3), F(1, 2)):
            block = matscale(lam, n)
            out.append(pq_spaces(fr, block))
            out.extend(relative_filtration(fr, fr.assemble(block, h)) for h in images)
        return out

    cached = results()
    assert "pencil_analysis" in vars(fr)
    with monkeypatch.context() as m:
        m.setattr(Frame, "_level", lambda self, ints, den: None)
        assert results() == cached
    for lam in (2, -3):
        assert fr.pencil_weight_filtration == weight_filtration(matscale(lam, n), center=fr.weight)


def test_off_pencil_blocks_take_the_direct_path_zero_blocks_none(monkeypatch):
    calls = []
    direct = hodge._weight_filtration
    monkeypatch.setattr(hodge, "_weight_filtration", lambda p, center: calls.append(p) or direct(p, center))
    fr = jordan3_frame()
    n = fr.log_gamma
    off_pencil = matmul(n, n)
    assert fr.block_multiple(off_pencil) is None
    pq_spaces(fr, off_pencil)
    pq_spaces(fr, zeros(3, 3))
    relative_filtration(fr, fr.pencil(0, (0, 1, 0)))
    # the zero block's filtration is computed once, on the general path, and cached
    assert [p.ints for p in calls] == [NilpotentPowers(off_pencil).ints, NilpotentPowers(zeros(3, 3)).ints]
    assert "zero_analysis" in vars(fr) and "pencil_analysis" not in vars(fr)
    pq_spaces(fr, matscale(2, n))
    relative_filtration(fr, fr.pencil(-3, (0, 1, 0)))
    # the cache, built once, on the frame's own powers of log(gamma)
    assert len(calls) == 3 and calls[2] is fr.log_powers
    # a non-nilpotent block off the pencil is refused, not served from the cache
    ell = elliptic_frame()
    with pytest.raises(NotNilpotent):
        pq_spaces(ell, matmul(((0, 1), (1, 0)), ell.gram))


@pytest.mark.parametrize("name", ORACLE_FRAMES)
def test_zero_block_filtration_is_one_jump_at_the_weight(name):
    fr = oracle_frame(name)
    block = zeros(fr.rank, fr.rank)
    direct = weight_filtration(block, center=fr.weight)
    analysis = hodge._block_analysis(fr, block, fr.block_multiple(block))
    assert analysis is fr.zero_analysis and analysis[0] == direct
    assert direct.jump_indices == (fr.weight,)


def test_relative_axioms_read_no_pencil_cache(monkeypatch):
    """The certificate decides from the operator and the candidate alone:
    with the frame's pencil caches made to raise, it still accepts the
    construction and rejects a shifted candidate."""
    fr = jordan3_frame()
    ops = [fr.pencil(lam, h) for lam in (1, F(-1, 2)) for h in ((0, 1, 0), (1, 0, 0), (2, 2, 1))]
    cands = [(n, relative_filtration(fr, n)) for n in ops]
    assert any(filt is not None for _, filt in cands)

    def forbidden(self):
        raise AssertionError("the certificate read a pencil cache")

    monkeypatch.setattr(Frame, "pencil_analysis", property(forbidden))
    monkeypatch.setattr(Frame, "zero_analysis", property(forbidden))
    monkeypatch.setattr(Frame, "pencil_weight_filtration", property(forbidden))
    with pytest.raises(AssertionError):
        pq_spaces(fr, matscale(2, fr.log_gamma))
    for n, filt in cands:
        if filt is not None:
            assert is_relative_weight_filtration(n, fr.base_filtration, filt)
            assert not is_relative_weight_filtration(n, fr.base_filtration, filt.shift(2))


# --- relative filtrations ------------------------------------------------------


def exists_oracle(fr, n):
    """Existence decided through span membership only: any candidate is
    the inner weight filtration plus a tilted line e - a, and tilting is
    an affine condition on a."""
    a_blk = fr.restriction(n)
    level = weight_filtration(a_blk, center=fr.weight).at(-2)
    h = fr.e_image(n)
    dirs = [reduce(level, matvec(a_blk, u)) for u in identity(fr.rank)]
    return Subspace.span(dirs, fr.rank).contains(reduce(level, h))


def test_relative_filtration_elliptic_frozen():
    fr = elliptic_frame()
    m = relative_filtration(fr, fr.pencil(1, (1, 0)))
    assert m is not None
    assert m.graded_dims() == {-2: 1, 0: 2}
    assert m.at(-2) == Subspace.span([(1, 0, 0)], 3)
    assert relative_filtration(fr, fr.pencil(1, (0, 1))) is None


def test_relative_filtration_jordan3_frozen():
    fr = jordan3_frame()
    m = relative_filtration(fr, fr.pencil(1, (0, 1, 0)))
    assert m is not None
    assert m.graded_dims() == {-4: 1, -2: 1, 0: 2}
    assert relative_filtration(fr, fr.pencil(1, (0, 0, 1))) is None


def test_relative_filtration_of_zero_operator():
    fr = elliptic_frame()
    m = relative_filtration(fr, zeros(3, 3))
    assert m is not None
    assert m.graded_dims() == {-1: 2, 0: 1}
    assert m == fr.base_filtration


def test_relative_filtration_rejects_outsiders():
    fr = elliptic_frame()
    with pytest.raises(NotInG):
        relative_filtration(fr, identity(3))


@given(st.integers(0, 3), st.integers(-4, 4), st.integers(-4, 4))
def test_relative_filtration_against_axioms_and_oracle(lam, h1, h2):
    fr = elliptic_frame()
    n = fr.pencil(lam, (h1, h2))
    m = relative_filtration(fr, n)
    assert (m is not None) == exists_oracle(fr, n)
    assert (m is not None) == relative_filtration_exists(fr, n)
    if m is not None:
        assert is_relative_weight_filtration(n, fr.base_filtration, m)


@given(st.integers(0, 2), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_relative_filtration_jordan3_matches_oracle(lam, h1, h2, h3):
    fr = jordan3_frame()
    n = fr.pencil(lam, (h1, h2, h3))
    m = relative_filtration(fr, n)
    assert (m is not None) == exists_oracle(fr, n)
    if m is not None:
        assert is_relative_weight_filtration(n, fr.base_filtration, m)


@given(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5))
def test_relative_filtration_scale_invariance(lam, h1, h2, c):
    fr = elliptic_frame()
    n = fr.pencil(lam, (h1, h2))
    m = relative_filtration(fr, n)
    scaled = relative_filtration(fr, matscale(c, n))
    if m is None:
        assert scaled is None
    else:
        assert scaled == m


def test_relative_axiom_checker_rejects_shifted_candidate():
    fr = elliptic_frame()
    n = fr.pencil(1, (1, 0))
    m = relative_filtration(fr, n)
    assert not is_relative_weight_filtration(n, fr.base_filtration, m.shift(2))


# --- one clear per operator, against the Fraction paths ----------------------


def membership_reference(fr, n):
    """check_in_g and restriction_multiple on Fractions: the pencil level
    (None off the pencil), or the message of the NotInG raised."""
    if any(x != 0 for x in n[fr.rank]):
        return "operator does not kill the weight zero quotient"
    a = fr.restriction(n)
    if not isometry_reference(fr, a):
        return "inner block is not an infinitesimal isometry"
    return block_multiple_reference(fr, a)


def relative_filtration_reference(fr, n):
    """The construction on Fraction rows, with no cache: W of the inner
    block computed directly, the tilt solved on reduced columns, each
    level embedded and spanned afresh."""
    a = fr.restriction(n)
    wf = weight_filtration(a, center=fr.weight)
    w2 = wf.at(-2)
    x = solve(transpose(tuple(reduce(w2, c) for c in transpose(a))), reduce(w2, fr.e_image(n)))
    if x is None:
        return None
    line = Subspace.span([vadd(embed_inner(fr, vscale(-1, x)), fr.e_vector)], fr.dim)
    spaces = {}
    for j in sorted(set(wf.jump_indices) | {0}):
        level = Subspace.span([embed_inner(fr, v) for v in wf.at(j).basis], fr.dim)
        spaces[j] = level.add(line) if j >= 0 else level
    return Filtration.from_spaces(spaces, fr.dim)


def exists_reference(fr, n):
    """n(e) in P = image + W_(-2) of the inner block, on Fractions."""
    a = fr.restriction(n)
    p = Subspace.image(a).add(weight_filtration(a, center=fr.weight).at(-2))
    return p.contains(fr.e_image(n))


LOWER_SHIFT = ((0, 0, 0), (1, 0, 0), (0, 1, 0))  # a nilpotent isometry of jordan3 off its pencil


@st.composite
def rmf_operators(draw, fr):
    """Pencil operators at lam in {0, +-1, 1/2, 3}, isometries off the
    pencil (nilpotent on jordan3, or as drawn), and operators with a
    nonzero quotient row or a perturbed inner block."""
    r = fr.rank
    h = draw(st.lists(fracs(), min_size=r, max_size=r))
    if draw(st.booleans()):
        # inside P of every nonzero multiple of log(gamma): N u plus W_(-2)
        low = fr.pencil_weight_filtration.at(-2).basis
        h = matvec(fr.log_gamma, h)
        for b in low:
            h = vadd(h, vscale(draw(fracs()), b))
    kind = draw(st.sampled_from(["pencil", "pencil", "off", "quotient", "perturbed"]))
    if kind == "off" and fr.rank == 3 and fr.weight == -2 and draw(st.booleans()):
        block = matscale(draw(fracs().filter(bool)), LOWER_SHIFT)
    elif kind == "off":
        block = draw(inner_blocks(fr))
    else:
        block = matscale(draw(st.sampled_from([0, 1, -1, F(1, 2), 3])), fr.log_gamma)
    rows = [list(row) for row in fr.assemble(block, h)]
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r))
    if kind == "quotient":
        rows[r][j] += draw(fracs().filter(bool))
    if kind == "perturbed":
        rows[i][min(j, r - 1)] += draw(fracs().filter(bool))
    return mat(rows)


@given(st.sampled_from(ORACLE_FRAMES), st.data())
def test_membership_step_and_construction_match_the_fraction_paths(name, data):
    fr = oracle_frame(name)
    n = data.draw(rmf_operators(fr))
    want = membership_reference(fr, n)
    if isinstance(want, str):
        for call in (hodge._membership, check_in_g, relative_filtration_exists, relative_filtration):
            with pytest.raises(NotInG, match=want):
                call(fr, n)
        return
    lam = hodge._membership(fr, n)[1]
    assert same_multiple(lam, want) and same_multiple(fr.restriction_multiple(n), want)
    try:
        expected = (exists_reference(fr, n), relative_filtration_reference(fr, n))
    except NotNilpotent:
        for call in (relative_filtration_exists, relative_filtration):
            with pytest.raises(NotNilpotent):
                call(fr, n)
        return
    assert (relative_filtration_exists(fr, n), relative_filtration(fr, n)) == expected
    assert expected[0] == (expected[1] is not None)


def test_the_operator_rows_are_the_operator_over_one_scale():
    """The membership step's rows are the operator's nonzero entries, in
    column order, as integers over the least common denominator."""
    fr = jordan3_frame()
    n = fr.pencil(F(1, 2), (F(1, 3), 0, F(-5, 4)))
    rows, lam, den = hodge._membership(fr, n)
    assert lam == F(1, 2) and den == 12
    assert all(type(x) is int for row in rows for _, x in row)
    assert [[(j, F(x, den)) for j, x in row] for row in rows] == [[(j, x) for j, x in enumerate(row) if x] for row in n]


@pytest.mark.parametrize("name", ORACLE_FRAMES)
def test_every_zero_of_a_pencil_operator_is_the_shared_zero(name):
    fr = oracle_frame(name)
    for lam in (0, 1, F(1, 2)):
        for h in ((0,) * fr.rank, tuple(F(k % 3 - 1) for k in range(fr.rank))):
            n = fr.pencil(lam, h)
            assert all(x is ZERO for row in n for x in row if x == 0)


def full_clears(mocks, n, fr):
    """How many of the recorded clears took n, and how many its inner
    block."""
    seen = [tuple(map(tuple, call.args[0])) for m in mocks for call in m.call_args_list]
    return seen.count(n), seen.count(fr.restriction(n))


@pytest.mark.parametrize("name", ORACLE_FRAMES)
def test_each_public_call_clears_its_operator_once(name):
    """check_in_g, relative_filtration_exists and relative_filtration on
    one tuple operator clear it once between them, on the first call, in
    one sparse pass, and never its inner block on the pencil; a copy in
    nested lists is cleared once per call.  No dense clear takes the
    operator, and the construction runs no rref."""
    fr = oracle_frame(name)
    h = tuple(F(k % 3 - 1, 1 + k % 2) for k in range(fr.rank))
    ops = [(fr.pencil(lam, h), True) for lam in (0, 1, F(-1, 2), 3)]
    if name == "jordan3":
        ops.append((fr.assemble(LOWER_SHIFT, h), False))
    calls = (check_in_g, relative_filtration_exists, relative_filtration)
    one_pass, dense = qlinalg._sparse_clear, qlinalg._scaled_int_rows
    for n, on_pencil in ops:
        for call in calls:
            call(fr, tuple(list(n)))  # frame caches are built outside the count, on an equal copy
        for m, wanted in ((n, (1, 0, 0)), ([list(row) for row in n], (1, 1, 1))):
            for call, want in zip(calls, wanted):
                with mock.patch.object(hodge, "_sparse_clear", wraps=one_pass) as sparse, \
                     mock.patch.object(qlinalg, "_scaled_int_rows", wraps=dense) as dense_clear, \
                     mock.patch.object(qlinalg, "rref", wraps=qlinalg.rref) as reduced_rows:
                    call(fr, m)
                whole, block = full_clears((sparse, dense_clear), n, fr)
                assert whole == sparse.call_count == want, (call.__name__, type(m), whole)
                assert block == 0 or not on_pencil
                if call is relative_filtration:
                    assert reduced_rows.call_count == 0
        assert fr._last_member[0] is n  # a list is never kept


@lru_cache(maxsize=None)
def unused_frame(name):
    """A frame with oracle_frame(name)'s data and its pencil, gram and
    log(gamma) caches built, on which no membership step has run."""
    fr = frame_from_json(frame_to_json(oracle_frame(name)))
    fr.pencil_analysis, fr.zero_analysis, fr._sparse_gram, fr._log_gamma_ints
    return fr


def fresh_frame(name):
    """A copy of unused_frame(name): fresh for the membership slot, with
    the deterministic caches shared so a call costs what a warm one does."""
    assert "_last_member" not in vars(unused_frame(name))
    return copy.copy(unused_frame(name))


def outcomes(frame, n):
    """The membership step's result, check_in_g, relative_filtration_exists
    and relative_filtration, each as its value or its error, each call on
    the frame that frame() returns."""
    def outcome(call):
        try:
            return call(frame(), n)
        except (NotInG, NotNilpotent, MixedAmbient, SpecFormatError) as exc:
            return type(exc), str(exc)
    return [outcome(call) for call in (hodge._membership, check_in_g, relative_filtration_exists, relative_filtration)]


def assign(rows, n):
    """Overwrite the nested-list operator rows with n's entries, in place."""
    for row, new in zip(rows, n):
        row[:] = new


@given(st.sampled_from(ORACLE_FRAMES), st.data())
def test_the_membership_slot_is_invisible(name, data):
    """One frame, over a drawn interleaving of calls on the same tuple
    operator, an equal but distinct copy, a nested-list operator that is
    overwritten in place between calls, a tuple holding those same list
    rows and an operator outside the algebra, gives every value and error
    that a fresh frame per call gives."""
    fr = oracle_frame(name)
    a, b = data.draw(rmf_operators(fr)), data.draw(rmf_operators(fr))
    r = fr.rank
    outside = mat([list(row) for row in a[:r]] + [[1] * (r + 1)])
    rows = [list(row) for row in a]
    held = tuple(rows)
    steps = st.sampled_from(["same", "copy", "list", "held", "overwrite", "outside"])
    # each mutable form is called, overwritten and called again, then come the drawn steps
    fixed = ["list", "overwrite", "list", "held", "overwrite", "held"]
    for step in fixed + data.draw(st.lists(steps, max_size=8)):
        if step == "overwrite":
            assign(rows, b if rows == [list(row) for row in a] else a)
        n = {"same": a, "copy": mat(a), "held": held, "outside": outside}.get(step, rows)
        assert outcomes(lambda: fr, n) == outcomes(lambda: fresh_frame(name), n), step
    with pytest.raises(NotInG):
        check_in_g(fr, outside)


@lru_cache(maxsize=None)
def oracle_fan(name):
    return CellFan(oracle_frame(name))


@given(st.sampled_from(ORACLE_FRAMES), st.sampled_from([0, 1, F(1, 2), 3]), st.data())
def test_the_slot_keeps_the_rows_of_a_fresh_clear(name, lam, data):
    """After the rmf calls, the certificate and the ray exponent on one
    pencil operator, the frame's slot holds that operator and its rows
    equal a fresh one-pass clear of it: no consumer changed them."""
    fan = oracle_fan(name)
    fr = fan.frame
    n = fr.pencil(lam, data.draw(st.lists(fracs(), min_size=fr.rank, max_size=fr.rank)))
    check_in_g(fr, n)
    relative_filtration_exists(fr, n)
    filt = relative_filtration(fr, n)
    if filt is not None:
        is_relative_weight_filtration(n, fr.base_filtration, filt)
    minimal_integral_exponent(fan, n)
    last, (rows, _, den) = fr._last_member
    assert last is n and (rows, den) == qlinalg._sparse_clear(n, fr.dim)


def unshared(rng, n):
    """n as nested lists with each zero drawn as Fraction(0), 0 or "0",
    and each nonzero as an int where it is integral, else as "p/q"."""
    def entry(x):
        if not x:
            return rng.choice([F(0), 0, "0"])
        return rng.choice([int(x), str(x)]) if x.denominator == 1 else str(x)
    return [[entry(x) for x in row] for row in n]


def verdicts(fr, n):
    """The pencil level, check_in_g, relative_filtration_exists,
    relative_filtration and the certificate of the filtration and of its
    shift by 2, each as its value or its error."""
    def outcome(call):
        try:
            return call()
        except (NotInG, NotNilpotent) as exc:
            return type(exc), str(exc)
    filt = outcome(lambda: relative_filtration(fr, n))
    certify = [filt, filt.shift(2)] if isinstance(filt, Filtration) else []
    return [outcome(lambda: hodge._membership(fr, n)[1]), outcome(lambda: check_in_g(fr, n)),
            outcome(lambda: relative_filtration_exists(fr, n)), filt,
            [is_relative_weight_filtration(n, fr.base_filtration, c) for c in certify]]


@given(st.sampled_from(ORACLE_FRAMES), st.data())
def test_unshared_zeros_and_plain_scalars_read_as_the_shared_zero_operator(name, data):
    """An operator whose zeros are not the shared ZERO, and whose entries
    are ints and strings, has the level, membership, existence,
    filtration and certificates of the same operator in Fractions with
    every zero shared."""
    fr = oracle_frame(name)
    n = tuple(tuple(x or ZERO for x in row) for row in data.draw(rmf_operators(fr)))
    raw = unshared(data.draw(st.randoms(use_true_random=False)), n)
    assert not any(x is ZERO for row in raw for x in row)
    assert verdicts(fr, raw) == verdicts(fr, n)


@pytest.mark.parametrize("name", ORACLE_FRAMES)
def test_ragged_and_wrong_size_operators_keep_their_errors(name):
    """check_in_g, relative_filtration_exists, relative_filtration and the
    certificate raise mat's errors in mat's order (a bad scalar before a
    ragged row), then MixedAmbient for the wrong size, as does the level
    of a block that is neither the inner block nor the operator."""
    fr = oracle_frame(name)
    n = fr.pencil(1, (0,) * fr.rank)
    ragged = [list(row) for row in n]
    ragged[0].pop()
    bad = [row[:] for row in ragged]
    bad[-1][0] = 0.5
    small = [row[:-1] for row in n[:-1]]
    calls = [check_in_g, relative_filtration_exists, relative_filtration,
             lambda fr, op: is_relative_weight_filtration(op, fr.base_filtration, fr.base_filtration)]
    for call in calls:
        with pytest.raises(SpecFormatError, match="ragged matrix"):
            call(fr, ragged)
        with pytest.raises(SpecFormatError, match="not an exact scalar"):
            call(fr, bad)
        with pytest.raises(MixedAmbient):
            call(fr, small)
    with pytest.raises(MixedAmbient):
        fr.block_multiple(((0,),))


def test_the_certificate_clears_its_operator_as_membership_does():
    """is_relative_weight_filtration coerces string entries as check_in_g
    does and refuses a ragged operator with mat's error, on jordan3."""
    fr = jordan3_frame()
    n = fr.pencil(1, (1, 0, 0))
    filt = relative_filtration(fr, n)
    strings = [[str(x) for x in row] for row in n]
    check_in_g(fr, strings)
    assert is_relative_weight_filtration(strings, fr.base_filtration, filt)
    assert not is_relative_weight_filtration(strings, fr.base_filtration, filt.shift(2))
    with pytest.raises(SpecFormatError, match="ragged matrix"):
        is_relative_weight_filtration([row[:3] for row in n[:3]] + [n[3]], fr.base_filtration, filt)


def test_exhaustive_tilt_search_confirms_absence():
    # when the construction says no, no tilt works: scan a grid of

    # corrections a and check the axioms directly for each candidate
    fr = elliptic_frame()
    n = fr.pencil(1, (0, 1))
    assert relative_filtration(fr, n) is None
    inner = weight_filtration(fr.restriction(n), center=fr.weight)
    grid = [F(x, 2) for x in range(-4, 5)]
    for a1 in grid:
        for a2 in grid:
            tilt = (-a1, -a2, F(1))
            spaces = {}
            for j in sorted(set(inner.jump_indices) | {0}):
                s = Subspace.span(
                    [embed_inner(fr, v) for v in inner.at(j).basis], 3
                )
                if j >= 0:
                    s = s.add(Subspace.span([tilt], 3))
                spaces[j] = s
            cand = Filtration.from_spaces(spaces, 3)
            assert not is_relative_weight_filtration(n, fr.base_filtration, cand)


# --- the certificates against the Fraction chart they replace -----------------


def reference_chart(lower, upper):
    """Complement basis of lower in upper and its coordinate map, by one
    Fraction rref of [A | I], A the rows of lower then of upper as
    columns: the I part at the complement's pivot rows gives coordinates."""
    amb = upper.ambient
    cols = lower.basis + upper.basis
    k, low = len(cols), len(lower.basis)
    reduced, piv = rref(tuple(tuple(c[i] for c in cols) + identity(amb)[i] for i in range(amb)))
    rank = sum(1 for p in piv if p < k)
    comp = tuple(cols[p] for p in piv[low:rank])
    left = tuple(row[k:] for row in reduced[low:rank])
    return comp, lambda v: matvec(left, v)


def reference_induced(op, lower, upper):
    comp, coords = reference_chart(lower, upper)
    return transpose(tuple(coords(v) for v in matmul(comp, transpose(op))))


def reference_preimage(op, space):
    """{v : op v in space}, as the kernel of the reduce projector times op."""
    proj = transpose(tuple(reduce(space, row) for row in identity(space.ambient)))
    return Subspace.kernel(matmul(proj, op))


def reference_is_weight_filtration(n, filt, center):
    if filt.ambient != len(n) or not filt.is_exhaustive():
        return False
    lo, hi = filt.jump_indices[0], filt.jump_indices[-1]
    for j in range(lo - 1, hi + 1):
        if not all(map(filt.at(j - 2).contains, matmul(filt.at(j).basis, transpose(n)))):
            return False
    for l in range(1, max(hi - center, center - lo) + 2):
        if filt.graded_dim(center + l) != filt.graded_dim(center - l):
            return False
        pre = reference_preimage(matpow(n, l), filt.at(center - l - 1))
        if not filt.at(center + l - 1).contains_space(filt.at(center + l).intersect(pre)):
            return False
    return True


def reference_is_relative(n, base, cand):
    if not cand.is_exhaustive():
        return False
    nt = transpose(n)
    for _, s in base.jumps:
        if not all(map(s.contains, matmul(s.basis, nt))):
            return False
    lo, hi = cand.jump_indices[0], cand.jump_indices[-1]
    for j in range(lo, hi + 1):
        if not all(map(cand.at(j - 2).contains, matmul(cand.at(j).basis, nt))):
            return False
    for w in base.jump_indices:
        lower, upper = base.at(w - 1), base.at(w)
        comp, coords = reference_chart(lower, upper)
        spaces = {
            j: Subspace.span([coords(v) for v in cand.at(j).intersect(upper).add(lower).basis], len(comp))
            for j in range(lo - 1, hi + 1)
        }
        graded = Filtration.from_spaces(spaces, len(comp))
        if not reference_is_weight_filtration(reference_induced(n, lower, upper), graded, w):
            return False
    return True


def tilted(fr, n, a):
    """The inner weight filtration of n plus the line e - a at levels >= 0,
    the shape of every candidate relative filtration."""
    inner = weight_filtration(fr.restriction(n), center=fr.weight)
    line = Subspace.span([tuple(-x for x in a) + (F(1),)], fr.dim)
    spaces = {}
    for j in sorted(set(inner.jump_indices) | {0}):
        s = Subspace.span([embed_inner(fr, v) for v in inner.at(j).basis], fr.dim)
        spaces[j] = s.add(line) if j >= 0 else s
    return Filtration.from_spaces(spaces, fr.dim)


def dropped(filt, k):
    """filt without its k-th jump."""
    return Filtration.from_spaces({j: s for i, (j, s) in enumerate(filt.jumps) if i != k}, filt.ambient)


def certificate_cases(fr, n, draw_int, draw_a):
    """The construction, or a tilt when there is none, and its variants."""
    genuine = relative_filtration(fr, n)
    base = genuine if genuine is not None else tilted(fr, n, draw_a())
    out = [base, tilted(fr, n, draw_a()), dropped(base, draw_int(0, len(base.jumps) - 1))]
    out += [base.shift(k) for k in (-2, -1, 1, 2)]
    return out


@given(st.sampled_from(["elliptic", "jordan3"]), st.data())
def test_relative_certificate_matches_the_fraction_chart(name, data):
    fr = oracle_frame(name)
    lam = data.draw(st.sampled_from((0, 1, 2, F(-1, 2))))
    h = data.draw(st.lists(st.integers(-3, 3), min_size=fr.rank, max_size=fr.rank))
    n = fr.pencil(lam, h)

    def draw_a():
        return data.draw(st.lists(fracs(3, 2), min_size=fr.rank, max_size=fr.rank))

    def draw_int(lo, hi):
        return data.draw(st.integers(lo, hi))

    # the candidates of n against n, and against the operator with the
    # same e image and inner block zero, which shifts them too but leaves
    # graded pieces where only the rank test can say no
    for cand in certificate_cases(fr, n, draw_int, draw_a):
        for op in (n, fr.pencil(0, h)):
            want = reference_is_relative(op, fr.base_filtration, cand)
            assert is_relative_weight_filtration(op, fr.base_filtration, cand) == want


TRIPLE_CASES = [
    (1, "ones"), (2, "ones"), (F(-1, 2), "ones"), (0, "ones"), (1, "zero"),
    (3, "first"), (1, "last"), (F(1, 3), "image-of-first"), (2, "image-of-last"), (0, "first"),
]


def triple_cases(lam, image):
    """The triple frame, the e image named by image, and the
    certificate_cases of the pencil operator at level lam."""
    fr = oracle_frame("triple")
    r = fr.rank
    unit = [tuple(F(int(i == k)) for i in range(r)) for k in (0, r - 1)]
    h = {
        "ones": matvec(fr.log_gamma, (F(1),) * r),
        "zero": (F(0),) * r,
        "first": unit[0],
        "last": unit[1],
        "image-of-first": matvec(fr.log_gamma, unit[0]),
        "image-of-last": matvec(fr.log_gamma, unit[1]),
    }[image]
    picks = iter([1, 0, 2])
    n = fr.pencil(lam, h)
    return fr, h, certificate_cases(fr, n, lambda lo, hi: min(next(picks), hi), lambda: (F(1, 2),) * r)


@pytest.mark.parametrize("lam,image", TRIPLE_CASES)
def test_relative_certificate_matches_the_fraction_chart_on_triple(lam, image):
    fr, h, cases = triple_cases(lam, image)
    n = fr.pencil(lam, h)
    for op in (n, fr.pencil(0, h)):
        verdicts = [is_relative_weight_filtration(op, fr.base_filtration, c) for c in cases]
        assert verdicts == [reference_is_relative(op, fr.base_filtration, c) for c in cases]
    assert is_relative_weight_filtration(n, fr.base_filtration, cases[0]) == (relative_filtration(fr, n) is not None)


def kernel_flag(n):
    """ker N <= ker N^2 <= ... <= everything: a chain every N preserves."""
    spaces, k = [], 1
    while not spaces or spaces[-1].dim < len(n):
        spaces.append(Subspace.kernel(matpow(n, k)))
        k += 1
    return spaces


@st.composite
def chains(draw, n):
    """An exhaustive or not, N-stable or not, chain of subspaces of Q^dim
    at increasing indices: random spans, the kernel flag of N, or the
    weight filtration of N."""
    dim = len(n)
    kind = draw(st.sampled_from(("random", "kernels", "weight")))
    if kind == "weight":
        filt = weight_filtration(n, center=draw(st.integers(-2, 2)))
        return filt.shift(draw(st.integers(-1, 1)))
    if kind == "kernels":
        spaces = kernel_flag(n)
    else:
        vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=1, max_size=dim + 1))
        cuts = sorted(draw(st.lists(st.integers(1, len(vectors)), min_size=1, max_size=4, unique=True)))
        spaces = [Subspace.span(vectors[:c], dim) for c in cuts]
    start = draw(st.integers(-4, 2))
    steps = draw(st.lists(st.integers(1, 2), min_size=len(spaces), max_size=len(spaces)))
    indices = [start + sum(steps[:i]) for i in range(len(spaces))]
    if draw(st.booleans()):
        spaces.append(Subspace.full(dim))
        indices.append(indices[-1] + 1)
    return Filtration.from_spaces(dict(zip(indices, spaces)), dim)


@given(strict_upper(4, -2, 2), st.data())
def test_weight_axioms_match_the_preimage_test(n, data):
    filt = data.draw(chains(n))
    # N^2 and 0 shift a weight filtration of N too, but fail to identify
    # its graded pieces: only the rank test tells
    for op in (n, matmul(n, n), zeros(4, 4)):
        for c in (-1, 0, 1):
            assert is_weight_filtration(op, filt, c) == reference_is_weight_filtration(op, filt, c)


@st.composite
def split_operators(draw, sizes=(2, 2)):
    """(N, base, M) on Q^d = P(Q^s1 + ... + Q^sk), d the sum of the sizes:
    N = P (N1 + ... + Nk) P^-1 with each Ni strictly upper, base
    P(Q^s1 + ... + Q^si) at a_i, increasing in i, and M = P (W(N1) at
    a_1 + ... + W(Nk) at a_k), a relative weight filtration of N.  P is
    unit lower times unit upper triangular, so the spaces are in general
    not spanned by coordinate vectors."""
    d = sum(sizes)
    offsets = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    blocks = [draw(strict_upper(size, -2, 2)) for size in sizes]
    lower_p = [[draw(st.integers(-1, 1)) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper_p = [[draw(st.integers(-1, 1)) if j > i else int(i == j) for j in range(d)] for i in range(d)]
    p = matmul(mat(lower_p), mat(upper_p))
    n = [[F(0)] * d for _ in range(d)]
    for blk, o, size in zip(blocks, offsets, sizes):
        for i in range(size):
            for j in range(size):
                n[o + i][o + j] = blk[i][j]
    n = matmul(matmul(p, mat(n)), inverse(p))
    centers = [draw(st.integers(-3, 0))]
    for _ in sizes[1:]:
        centers.append(centers[-1] + draw(st.integers(1, 3)))
    moved = transpose(p)  # rows v -> (P v)^T = v P^T

    def image(vectors):
        return Subspace.span(matmul(vectors, moved), d)

    pieces = [weight_filtration(blk, center=c) for blk, c in zip(blocks, centers)]
    spaces = {}
    for j in range(min(f.jump_indices[0] for f in pieces), max(f.jump_indices[-1] for f in pieces) + 1):
        spaces[j] = image(tuple(
            (F(0),) * o + v + (F(0),) * (d - o - size)
            for f, o, size in zip(pieces, offsets, sizes) for v in f.at(j).basis
        ))
    base = Filtration.from_spaces({c: image(tuple(identity(d)[:o])) for c, o in zip(centers, offsets[1:])}, d)
    return n, base, Filtration.from_spaces(spaces, d)


@given(split_operators(), st.data())
def test_relative_certificate_with_a_nonzero_lower_piece(split, data):
    """Bases whose top graded piece has a nonzero lower part and dimension
    two, which the two-step frame bases never reach."""
    n, base, genuine = split
    assert is_relative_weight_filtration(n, base, genuine)
    assert reference_is_relative(n, base, genuine)
    k = data.draw(st.integers(0, len(genuine.jumps) - 1))
    cands = [genuine, dropped(genuine, k), data.draw(chains(n))] + [genuine.shift(s) for s in (-2, -1, 1, 2)]
    for cand in filter(Filtration.is_exhaustive, cands):
        for op in (n, zeros(4, 4)):
            assert is_relative_weight_filtration(op, base, cand) == reference_is_relative(op, base, cand)


@given(split_operators((1, 2, 1)), st.data())
def test_relative_certificate_on_three_split_pieces(split, data):
    """A three-jump base whose middle piece, over a nonzero lower part,
    carries the only nonzero block: its rank test reads the floor
    lower + (M_(c-2) meet upper) off the echelon."""
    n, base, genuine = split
    assert len(base.jumps) == 3
    shift = data.draw(st.sampled_from((-1, 1)))
    cands = [genuine, genuine.shift(shift), dropped(genuine, data.draw(st.integers(0, len(genuine.jumps) - 1)))]
    for cand in filter(Filtration.is_exhaustive, cands):
        for op in (n, zeros(4, 4)):
            assert is_relative_weight_filtration(op, base, cand) == reference_is_relative(op, base, cand)


@st.composite
def stable_bases(draw):
    """(N, base) on Q^4: N = P J P^-1 with J one nilpotent Jordan block
    of size 4 or 3 (nonzero superdiagonal scales), P unit lower times
    unit upper triangular, and base an exhaustive N-stable filtration
    with three or more jumps, so that several graded pieces have a
    nonzero lower part.  Its levels are ker N^(i+1) + im N^(b_i) with
    b_i nonincreasing, which grow with i and which N preserves."""
    sizes = draw(st.sampled_from((4, 3)))
    j = [[0] * 4 for _ in range(4)]
    for i in range(sizes - 1):
        j[i][i + 1] = draw(st.sampled_from((1, 2, -1)))
    lower_p = [[draw(st.integers(-1, 1)) if c < r else int(r == c) for c in range(4)] for r in range(4)]
    upper_p = [[draw(st.integers(-1, 1)) if c > r else int(r == c) for c in range(4)] for r in range(4)]
    p = matmul(mat(lower_p), mat(upper_p))
    n = matmul(matmul(p, mat(j)), inverse(p))
    powers = [matpow(n, k) for k in range(5)]
    b = sorted(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)), reverse=True)
    levels = [Subspace.kernel(powers[i + 1]).add(Subspace.image(powers[b[i]])) for i in range(3)]
    start = draw(st.integers(-4, 1))
    steps = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    indices = [start + sum(steps[:i]) for i in range(4)]
    base = Filtration.from_spaces(dict(zip(indices, levels + [Subspace.full(4)])), 4)
    assume(len(base.jumps) >= 3)
    return n, base


@given(stable_bases(), st.data())
def test_relative_certificate_on_stable_flags_with_three_jumps(pair, data):
    """The base itself is a relative weight filtration whenever N shifts
    it by -2 (N is zero on its graded pieces); its shifts, W(N) and
    drawn chains give the other verdicts."""
    n, base = pair
    shift = data.draw(st.sampled_from((-2, -1, 1, 2)))
    center = data.draw(st.integers(-1, 1))
    cands = [base, base.shift(shift), weight_filtration(n, center=center), data.draw(chains(n))]
    for cand in cands:
        for op in (n, matmul(n, n), zeros(4, 4)):
            assert is_relative_weight_filtration(op, base, cand) == reference_is_relative(op, base, cand)


def test_stable_flags_reach_both_verdicts_on_three_pieces():
    n = mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    kernels = {2 * k: Subspace.kernel(matpow(n, k)) for k in range(1, 5)}
    base = Filtration.from_spaces(kernels, 4)
    assert len(base.jumps) == 4
    for cand, want in ((base, True), (base.shift(1), False), (weight_filtration(n), False)):
        assert is_relative_weight_filtration(n, base, cand) is want
        assert reference_is_relative(n, base, cand) is want


@pytest.mark.parametrize("lam,image", TRIPLE_CASES)
def test_triple_certificate_builds_no_chart_subspace(lam, image):
    """On triple a certificate reads every graded piece off one echelon
    of cleared rows: it eliminates no Subspace, and a certified one runs
    exactly one _rref_ints, the rank test of the inner piece."""
    fr, h, cases = triple_cases(lam, image)
    certified_any = False
    for op in (fr.pencil(lam, h), fr.pencil(0, h)):
        for cand in cases:
            with mock.patch.object(Subspace, "_of_int_rows", wraps=Subspace._of_int_rows) as eliminated, \
                 mock.patch.object(hodge, "_rref_ints", wraps=hodge._rref_ints) as ranked:
                certified = is_relative_weight_filtration(op, fr.base_filtration, cand)
            assert eliminated.call_count == 0
            assert ranked.call_count == 1 if certified else ranked.call_count <= 1
            certified_any |= certified
    assert certified_any == (relative_filtration(fr, fr.pencil(lam, h)) is not None)


@pytest.mark.parametrize("make", [elliptic_frame, jordan3_frame], ids=["elliptic", "jordan3"])
def test_relative_certificate_refuses_a_base_that_is_not_exhaustive(make):
    # with no graded piece to check, a candidate whose top jump (where e
    # enters) is one index too high would pass: the base must be exhaustive
    fr = make()
    n = fr.pencil(1, matvec(fr.log_gamma, (F(1),) * fr.rank))
    genuine = relative_filtration(fr, n)
    assert genuine is not None
    top, space = genuine.jumps[-1]
    moved = Filtration(fr.dim, genuine.jumps[:-1] + ((top + 1, space),))
    assert not is_relative_weight_filtration(n, fr.base_filtration, moved)
    truncated = Filtration(fr.dim, fr.base_filtration.jumps[:-1])
    for base in (Filtration(fr.dim, ()), truncated):
        with pytest.raises(PreconditionViolated):
            is_relative_weight_filtration(n, base, moved)


def test_oracle_cases_reach_both_verdicts():
    fr = jordan3_frame()
    n = fr.pencil(1, (0, 1, 0))
    cases = certificate_cases(fr, n, lambda lo, hi: lo, lambda: (F(1), F(0), F(0)))
    verdicts = [is_relative_weight_filtration(n, fr.base_filtration, c) for c in cases]
    # genuine, tilted (the tilt joins only at level 0, which is everything
    # here), the first jump dropped, then four shifts
    assert verdicts == [True, True] + [False] * 5
    # the zero N on Q^2 shifts a filtration with symmetric graded
    # dimensions but does not identify them: only the rank test says no
    zero = zeros(2, 2)
    sym = Filtration.from_spaces({-1: Subspace.span([(1, 0)], 2), 1: Subspace.full(2)}, 2)
    assert not is_weight_filtration(zero, sym, 0)
    assert is_weight_filtration(J2, sym, 0)


# --- commutation ---------------------------------------------------------------


@given(
    st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3),
    st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3),
)
def test_commutation_reduces_to_kernel_membership(l1, a1, a2, l2, b1, b2):
    fr = elliptic_frame()
    n1 = fr.pencil(l1, (a1, a2))
    n2 = fr.pencil(l2, (b1, b2))
    direct = matmul(n1, n2) == matmul(n2, n1)
    cross = vec((F(l1) * b1 - F(l2) * a1, F(l1) * b2 - F(l2) * a2))
    criterion = Subspace.kernel(fr.log_gamma).contains(cross)
    assert direct == criterion


# --- the zero block's P and Q, cached on the frame ---------------------------


@pytest.mark.parametrize("name", ORACLE_FRAMES)
def test_zero_block_pq_is_cached_and_read_on_the_zero_pencil(name):
    """lam = 0 is the zero inner block alone, so its P and Q are one frame
    cache, and lam = 0 operators read it without computing them again."""
    fr = oracle_frame(name)
    zero = zeros(fr.rank, fr.rank)
    assert fr.zero_analysis == hodge._analysis(NilpotentPowers(zero), fr.weight)
    n = fr.pencil(0, tuple(F(k % 3 - 1) for k in range(fr.rank)))
    want = (pq_spaces(fr, zero), relative_filtration_exists(fr, n))
    with mock.patch.object(hodge, "_analysis", side_effect=AssertionError("recomputed")):
        assert (pq_spaces(fr, zero), relative_filtration_exists(fr, n)) == want
    assert want[0][:2] == fr.zero_analysis[1:] and want[0][0] is fr.zero_analysis[1]


# --- one analysis per block, against the dense Fraction formula --------------


def analysis_reference(fr, block):
    """(W, P, Q) of an inner block on its Fraction powers, each kernel and
    image eliminated afresh: W by the closed formula centered at the frame
    weight, then P = im N + W_(-2) and Q = ker N meet W_(-2), which must
    match the other published description."""
    r = fr.rank
    d = next(i for i in range(1, r + 1) if is_zero_mat(matpow(block, i)))
    kers = [Subspace.kernel(matpow(block, i)) for i in range(d + 1)]
    ims = [Subspace.image(matpow(block, j)) for j in range(d)]
    spaces = {d: Subspace.full(r)}
    for k in range(-d, d):
        level = Subspace.zero(r)
        for j in range(max(0, -k), d):
            if k + j + 1 > 0:
                level = level.add(kers[min(k + j + 1, d)].intersect(ims[j]))
        spaces[k] = level
    wf = Filtration.from_spaces(spaces, r).shift(-fr.weight)
    w2, img, ker = wf.at(-2), Subspace.image(block), Subspace.kernel(block)
    p, q = img.add(w2), ker.intersect(w2)
    assert (p == img and q == ker.intersect(img)) if fr.weight == -1 else q == ker
    return wf, p, q


@st.composite
def nilpotent_blocks(draw, fr):
    """lam log(gamma) on the pencil, or moved off it by conjugation with
    the Cayley transform (1 - X)^-1 (1 + X) of a drawn block X, an
    isometry when X lies in G (inner_blocks may move it out), and on
    jordan3 a multiple of LOWER_SHIFT."""
    lam = draw(st.sampled_from([0, 1, -1, F(1, 2), 3]))
    block = matscale(lam, fr.log_gamma)
    kind = draw(st.sampled_from(["pencil", "conjugate", "shift"]))
    if kind == "shift" and fr.rank == 3 and fr.weight == -2:
        return matscale(draw(fracs().filter(bool)), LOWER_SHIFT)
    if kind == "conjugate":
        x = draw(inner_blocks(fr))
        one = identity(fr.rank)
        left = inverse(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(one, x)))
        assume(left is not None)
        g = matmul(left, tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(one, x)))
        back = inverse(g)
        assume(back is not None)
        block = matmul(matmul(g, block), back)
    return block


@given(st.sampled_from(ORACLE_FRAMES), st.data())
def test_block_analysis_matches_the_dense_formula(name, data):
    fr = oracle_frame(name)
    block = data.draw(nilpotent_blocks(fr))
    want = analysis_reference(fr, block)
    assert hodge._block_analysis(fr, block, fr.block_multiple(block)) == want
    assert pq_spaces(fr, block) == (*want[1:], True)

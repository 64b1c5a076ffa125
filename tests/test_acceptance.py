"""Acceptance gate: nine end to end checks over the shipped fixtures.

Each check prints one summary line to the real stdout so a log scan
shows the gate at a glance even under capture.  Random corpora are
seeded; every assertion is exact rational or Gaussian rational
arithmetic, no tolerances anywhere.
"""

import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from conftest import embed_inner, lifted, pencil_commutes
from relfan.cli import main
from relfan.classifying import extend_inner_filtration, in_D, nilpotent_orbit_test
from relfan.cones import Cone, check_fan
from relfan.fans import (
    CellFan,
    check_square_zero_pure,
    corrupted_window,
    flatten,
    random_admissible_cone,
    random_inadmissible_operator,
    relations_report,
    subdivide_against,
)
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.gallery import (
    ChartPoint,
    Gi,
    hausdorff_witness,
    kunneth_h3,
    kunneth_log_monodromy,
    slit_member,
    standard_factors,
)
from relfan.hodge import (
    Filtration,
    Subspace,
    is_relative_weight_filtration,
    relative_filtration,
    relative_filtration_exists,
    weight_filtration,
)
from relfan.qlinalg import identity, inverse, is_zero_mat, matmul, transpose, vsub, zero_vec


@pytest.fixture
def announce(request):
    """Context manager printing one verdict line per check, bypassing
    capture so the line lands in the live test log."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _say(line):
        with capman.global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    @contextmanager
    def _announce(label):
        try:
            yield
        except BaseException:
            _say(f"acceptance {label}: FAIL")
            raise
        _say(f"acceptance {label}: pass")

    return _announce


@pytest.fixture(scope="module")
def triple_frame():
    return kunneth_h3(standard_factors())


@pytest.fixture(scope="module")
def triple_fan(triple_frame):
    return CellFan(triple_frame)


def draw_admissible(fan, rng, count):
    ops = []
    while len(ops) < count:
        ops.extend(random_admissible_cone(fan, rng))
    return ops[:count]


# --- an exhaustive oracle for the three dimensional frames ---

def candidate_filtrations(frame, levels=tuple(range(-3, 2))):
    """Every increasing filtration whose steps are spans of a finite
    vector pool: the inner unit vectors, the distinguished vector, and
    its integral lift corrections up to one unit per coordinate.

    Any filtration satisfying the two axioms restricts to the forced
    weight filtration on the inner piece and jumps on the quotient at
    level zero, so its only freedom is the tilt of the distinguished
    line; the pool covers all small integral tilts and the solvability
    sweep in oracle_confirms_absence covers the rest of the rationals.
    Jump levels outside the window are impossible: they would induce an
    out of range jump on some graded piece.
    """
    dim = frame.dim
    pool = list(identity(dim)[: frame.rank]) + [frame.e_vector]
    for a in product(range(-1, 2), repeat=frame.rank):
        if any(a):
            pool.append(vsub(frame.e_vector, embed_inner(frame, tuple(F(x) for x in a))))
    spans = {}
    for v in pool:
        s = Subspace.span([v], dim)
        spans[s.basis] = s
    for v, w in combinations(pool, 2):
        s = Subspace.span([v, w], dim)
        spans[s.basis] = s
    proper = [s for s in spans.values() if 0 < s.dim < dim]
    lines = [s for s in proper if s.dim == 1]
    planes = [s for s in proper if s.dim == 2]
    full = Subspace.full(dim)
    chains = [(full,)]
    chains.extend((s, full) for s in proper)
    chains.extend((l, p, full) for l in lines for p in planes if p.contains_space(l))
    out = []
    for chain in chains:
        for combo in combinations(levels, len(chain)):
            out.append(Filtration.from_spaces(dict(zip(combo, chain)), dim))
    return out


def oracle_confirms_absence(frame, n_mat, candidates):
    found = [
        f for f in candidates
        if is_relative_weight_filtration(n_mat, frame.base_filtration, f)
    ]
    if found:
        return False
    # all rational tilts: the forced structure needs the image of the
    # distinguished vector to land in image + level(-2), checked here
    # with plain subspace arithmetic
    inner = frame.restriction(n_mat)
    wf = weight_filtration(inner, center=frame.weight)
    allowed = Subspace.image(inner).add(wf.at(-2))
    return not allowed.contains(frame.e_image(n_mat))


def test_relative_filtration_gate(announce, triple_frame, triple_fan):
    with announce("1/9 relative filtration axioms and refusals"):
        rng = random.Random(101)
        fixtures = [
            (elliptic_frame(), None),
            (jordan3_frame(), None),
            (triple_frame, triple_fan),
        ]
        for frame, fan in fixtures:
            fan = fan or CellFan(frame)
            for n in draw_admissible(fan, rng, 100):
                filt = relative_filtration(frame, n)
                assert filt is not None
                assert is_relative_weight_filtration(n, frame.base_filtration, filt)
            refused = [random_inadmissible_operator(fan, rng) for _ in range(100)]
            assert all(relative_filtration(frame, n) is None for n in refused)

        # exhaustive candidate sweep on the three dimensional frame
        frame = elliptic_frame()
        fan = CellFan(frame)
        candidates = candidate_filtrations(frame)
        assert len(candidates) > 500
        for n in [random_inadmissible_operator(fan, rng) for _ in range(10)]:
            assert oracle_confirms_absence(frame, n, candidates)
        for lam, h in ((1, (1, 0)), (2, (2, 0)), (1, (0, 0)), (3, (3, 0))):
            n = frame.pencil(lam, tuple(F(x) for x in h))
            found = {
                f for f in candidates
                if is_relative_weight_filtration(n, frame.base_filtration, f)
            }
            assert found == {relative_filtration(frame, n)}


def _inner_change_of_basis(frame, p):
    rows = [tuple(p[i]) + (F(0),) for i in range(frame.rank)]
    rows.append(zero_vec(frame.rank) + (F(1),))
    return tuple(rows)


def test_criterion_equivalences(announce, triple_frame, triple_fan):
    with announce("2/9 existence and commutation criteria"):
        rng = random.Random(202)

        def pencil_draw(frame):
            lam = rng.choice((0, 1, 1, 2, 3))
            h = tuple(F(rng.randrange(-4, 5), rng.choice((1, 1, 2))) for _ in range(frame.rank))
            return frame.pencil(lam, h)

        # existence: construction plus axiom check against the membership criterion
        seen = 0
        outcomes = set()
        for frame, count, twist in (
            (elliptic_frame(), 500, True),
            (jordan3_frame(), 400, False),
            (triple_frame, 120, False),
        ):
            for _ in range(count):
                n = pencil_draw(frame)
                if twist and rng.random() < 0.4:
                    p = ((F(1), F(rng.randrange(-2, 3))), (F(0), F(1)))
                    if rng.random() < 0.5:
                        p = transpose(p)
                    conj = _inner_change_of_basis(frame, p)
                    n = matmul(matmul(conj, n), inverse(conj))
                filt = relative_filtration(frame, n)
                direct = filt is not None
                if direct:
                    assert is_relative_weight_filtration(n, frame.base_filtration, filt)
                assert relative_filtration_exists(frame, n) == direct
                outcomes.add(direct)
                seen += 1
        assert seen >= 1000 and outcomes == {True, False}

        # commutation: kernel criterion against the matrix commutator
        seen = 0
        outcomes = set()
        for frame, fan, count in (
            (elliptic_frame(), None, 500),
            (jordan3_frame(), None, 300),
            (triple_frame, triple_fan, 200),
        ):
            fan = fan or CellFan(frame)
            for _ in range(count):
                a, b = pencil_draw(frame), pencil_draw(frame)
                verdict = pencil_commutes(fan, a, b)
                assert verdict is not None
                direct = matmul(a, b) == matmul(b, a)
                assert verdict == direct
                outcomes.add(direct)
                seen += 1
        assert seen >= 1000 and outcomes == {True, False}


def test_conjugation_equivariance(announce):
    with announce("3/9 cell conjugation equivariance"):
        for frame, keys in (
            (elliptic_frame(), [()]),
            (jordan3_frame(), [(k,) for k in range(-2, 3)]),
        ):
            fan = CellFan(frame)
            shifts = [zero_vec(frame.rank)]
            shifts.extend(fan.inner_lattice.basis_vectors())
            gammas = [(p, s) for p in (-2, -1, 0, 1, 2) for s in shifts]
            moved = 0
            for key in keys:
                for n in product(range(-3, 4), repeat=fan.cube_rank):
                    index = (key, n)
                    assert fan.conjugate_cell(0, shifts[0], index) == index
                    for power, shift in gammas:
                        fan.conjugate_cell(power, shift, index)  # asserts image cell
                        moved += 1
            assert moved == len(keys) * 7 ** fan.cube_rank * len(gammas)


def cover_verified(cone, pieces):
    """Exact cover check for pieces of a cone of dimension <= 2: each
    piece inside the cone, and their boundary rays chain from one
    extreme ray of the cone to the other without gaps or overlaps."""
    cones = [piece for _, piece in pieces]
    if cone.dim <= 1:
        return cones == [cone]
    if any(piece.dim != 2 or not cone.contains_cone(piece) for piece in cones):
        return False
    start, goal = cone.rays
    current = start
    unused = list(cones)
    while unused:
        hosts = [piece for piece in unused if current in piece.rays]
        if len(hosts) != 1:
            return False
        piece = hosts[0]
        unused.remove(piece)
        other = [r for r in piece.rays if r != current]
        if len(other) != 1:
            return False
        current = other[0]
    return current == goal


def test_admissible_corpus_subdivides(announce, triple_fan):
    with announce("4/9 admissible corpus subdivision"):
        rng = random.Random(404)
        total = 0
        for fan, count in (
            (CellFan(elliptic_frame()), 200),
            (CellFan(jordan3_frame()), 200),
            (triple_fan, 100),
        ):
            for _ in range(count):
                gens = random_admissible_cone(fan, rng)
                cone = Cone.from_generators([flatten(m) for m in gens], fan.ambient)
                pieces = subdivide_against(fan, gens)
                assert pieces is not None
                if fan.cube_rank <= 3:
                    for index, piece in pieces:
                        assert fan.cell(*index).contains_cone(piece)
                assert cover_verified(cone, pieces)
                total += 1
        assert total == 500


def test_fan_axioms_and_corruption(announce):
    with announce("5/9 fan axioms and corrupted window"):
        for frame in (elliptic_frame(), jordan3_frame()):
            fan = CellFan(frame)
            assert check_fan(lifted(fan.window(3), fan.grid())) == []
            for mode in ("drop-faces", "half-cell"):
                violations = check_fan(lifted(corrupted_window(fan, 2, mode), fan.grid()))
                assert violations
                assert violations[0]["kind"] in ("missing-face", "bad-intersection")


def test_comparison_fan_relations(announce, triple_fan):
    with announce("6/9 comparison fan relations"):
        elliptic = CellFan(elliptic_frame())
        assert elliptic.p_space == elliptic.q_space
        assert triple_fan.p_space == triple_fan.q_space
        for report in (
            relations_report(elliptic, bound=3),
            relations_report(triple_fan, bound=1, cube_bound=0),
        ):
            assert all(entry["ok"] is True for entry in report), report


def test_triple_product_certificate(announce, triple_frame):
    with announce("7/9 triple product certificate"):
        factors = standard_factors()
        assert triple_frame.rank == 20
        log = kunneth_log_monodromy(factors)
        assert is_zero_mat(matmul(log, log))
        assert check_square_zero_pure(triple_frame)["holds"]

        report = hausdorff_witness(F(1, 3), ((1, 0),) * 4, heights=range(1, 11))
        assert report["certified"]
        assert len(report["steps"]) == 10
        assert all(s["equivalent"] and s["b"] == Gi(-1) for s in report["steps"])
        assert not report["limits"]["witness"]["equivalent"]

        base = ((1, 0),) * 4
        assert slit_member(ChartPoint(base, Gi(5), Gi(0), None))
        assert not slit_member(ChartPoint(base, Gi(5), Gi(1), None))
        assert slit_member(ChartPoint(base, Gi(5), Gi(1), (F(1, 3), 1)))


def test_classifying_predicates(announce):
    with announce("8/9 classifying space predicates"):
        frame = elliptic_frame()

        def period_point(tau):
            return extend_inner_filtration(frame, {0: [(tau, Gi(1))], -1: identity(2)})

        assert in_D(period_point(Gi(0, 1)))
        assert not in_D(period_point(Gi(0, -1)))

        boundary = period_point(Gi(0))
        ray = Cone.from_generators([flatten(frame.pencil(1, (F(1), F(0))))], frame.dim ** 2)
        assert nilpotent_orbit_test(boundary, ray, y_samples=(1, 4, 16, 64, 256))


def test_deterministic_reports(announce, tmp_path):
    with announce("9/9 deterministic reports"):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"fixture": "elliptic", "window": 2, "corpus": 30, "seed": 13}))
        operator = tmp_path / "n.json"
        operator.write_text(json.dumps({"e_image": ["1", "0"]}))
        runs = [["build", "--spec", str(spec)]]
        runs.extend(
            ["check", "--spec", str(spec), "--suite", suite]
            for suite in ("axioms", "gamma", "completeness", "relations", "gallery")
        )
        runs.append(["rmf", "--spec", str(spec), "--n-data", str(operator)])
        for i, argv in enumerate(runs):
            first = tmp_path / f"a{i}.json"
            second = tmp_path / f"b{i}.json"
            assert main([*argv, "--out", str(first)]) == 0
            assert main([*argv, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()

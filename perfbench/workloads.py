"""The four benchmark workloads.

Each workload builds its state once per set-up, draws its ops in
seeded blocks, runs one op as the timed call, and checks the verdict
with an oracle that runs outside the timer.  A block is a stratified
unit: it holds every op kind in fixed proportion, and for
``jordan3-window`` every (command, window) pair, so the mix a run
measures does not drift with the seed.  Runs stop only at block
boundaries.

Library calls go through module attributes (``hodge.check_in_g``) so
the tracer's rebinding sees the calls made from here too.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from relfan import classifying, cli, cones, fans, fixtures, gallery, hodge, qlinalg
from relfan.gaussian import Gi


def _rank(vectors) -> int:
    """Rank over Q by plain elimination, independent of relfan."""
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _nonneg_combination(gens, v) -> bool:
    """Whether v = sum c_i gens_i with every c_i >= 0, for one or two
    linearly independent generators."""
    if len(gens) == 1:
        (g,) = gens
        i = next(i for i, x in enumerate(g) if x)
        c = Fraction(v[i]) / g[i]
        return c >= 0 and all(c * x == y for x, y in zip(g, v))
    g, h = gens
    i = next(i for i, x in enumerate(g) if x)
    # g[i] != 0 and h is not a multiple of g, so some 2x2 minor on row i is nonzero
    j, d = next((j, g[i] * y - x * h[i]) for j, (x, y) in enumerate(zip(g, h)) if g[i] * y != x * h[i])
    a = (v[i] * h[j] - v[j] * h[i]) / Fraction(d)
    b = (g[i] * v[j] - g[j] * v[i]) / Fraction(d)
    return a >= 0 and b >= 0 and all(a * x + b * y == z for x, y, z in zip(g, h, v))


def digest(obj) -> str:
    """Short stable hash of a verdict, for comparing two commits."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _triple_state():
    frame = gallery.kunneth_h3(gallery.standard_factors())
    fan = fans.CellFan(frame)
    fan.p_lattice, fan.q_lattice  # corpus geometry
    return frame, fan


class TripleFiltration:
    """rmf on the rank-20 frame: check_in_g, existence, construction,
    and the axiom certificate when a filtration exists."""

    name = "triple-filtration"
    block_len = 3
    tail_pct = 85.0
    rate = 2.4  # nominal ops/s, sizes the traced pass

    def setup(self, scratch):
        return _triple_state()

    def block(self, state, rng):
        frame, fan = state
        lam = rng.choice((0, 1, 2, 3))
        h = tuple(Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2))) for _ in range(frame.rank))
        ops = [
            ("admissible", fans.random_admissible_cone(fan, rng)[0], True),
            ("inadmissible", fans.random_inadmissible_operator(fan, rng), False),
            ("pencil", frame.pencil(lam, h), None),
        ]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        frame, _ = state
        n = op[1]
        hodge.check_in_g(frame, n)
        exists = hodge.relative_filtration_exists(frame, n)
        filt = hodge.relative_filtration(frame, n)
        certified = filt is not None and hodge.is_relative_weight_filtration(n, frame.base_filtration, filt)
        return exists, filt, certified

    def check(self, state, op, out):
        exists, filt, certified = out
        expected = op[2]
        ok = (filt is not None) == exists and (filt is None or certified)
        ok = ok and (expected is None or exists == expected)
        shape = None if filt is None else tuple((j, filt.at(j).basis) for j in filt.jump_indices)
        return ok, (op[0], exists, digest(shape))


class TripleSubdivide:
    """The completeness corpus on the rank-20 frame: subdivide an
    admissible cone, or reject an inadmissible operator."""

    name = "triple-subdivide"
    block_len = 5
    tail_pct = 96.0
    rate = 18.0

    def setup(self, scratch):
        return _triple_state()

    def _cone(self, fan, rng, size):
        while True:
            gens = fans.random_admissible_cone(fan, rng)
            if len(gens) == size:
                return gens

    def block(self, state, rng):
        _, fan = state
        # three rejections to two subdivisions: at 1:1 the median would
        # sit in the gap between the two latency populations
        ops = [("subdivide", self._cone(fan, rng, 1)), ("subdivide", self._cone(fan, rng, 2))]
        ops += [("reject", fans.random_inadmissible_operator(fan, rng)) for _ in range(3)]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        _, fan = state
        if op[0] == "subdivide":
            return fans.subdivide_against(fan, op[1])
        ok, _ = fans.check_admissible(fan, [op[1]])
        return ok

    def check(self, state, op, out):
        if op[0] == "reject":
            return out is False, ("reject", out)
        gens = [fans.flatten(m) for m in op[1]]
        if not out:
            return False, ("subdivide", None)
        dim = _rank(gens)
        ok = all(
            _rank(piece.rays) == dim and all(_nonneg_combination(gens, r) for r in piece.rays)
            for _, piece in out
        )
        return ok, ("subdivide", digest([(index, piece.rays) for index, piece in out]))


class Jordan3Window:
    """In-process CLI runs of build, axioms and gamma on jordan3."""

    name = "jordan3-window"
    commands = (("build",), ("check", "--suite", "axioms"), ("check", "--suite", "gamma"))
    # an odd number of (command, window) pairs puts the median inside
    # one pair's latency cluster rather than in the gap between two
    windows = range(1, 6)
    block_len = len(commands) * len(windows)
    # 13.5 of 15 pairs: the middle of the gamma window-4 cluster; p88
    # sat on its lower edge and jumped to the window-3 cluster by seed
    tail_pct = 90.0
    rate = 3.6

    def setup(self, scratch):
        spec = scratch / "jordan3.json"
        spec.write_text(json.dumps({"fixture": "jordan3"}))
        return spec, scratch / "report.json"

    def block(self, state, rng):
        ops = [(cmd, w) for cmd in self.commands for w in self.windows]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        spec, out = state
        cmd, window = op
        return cli.main([*cmd, "--spec", str(spec), "--window", str(window), "--out", str(out)])

    def check(self, state, op, rc):
        if rc != 0:
            return False, (op, rc)
        blob = state[1].read_bytes()
        report = json.loads(blob)
        ok = all(c["status"] in ("pass", "interpreted-pass") for c in report["checks"])
        return ok, (op, digest(blob))


class EllipticPeriod:
    """Period domain membership on the elliptic frame, and every fourth
    op a nilpotent orbit test from a boundary point."""

    name = "elliptic-period"
    block_len = 4
    tail_pct = 99.0
    rate = 52.0

    def setup(self, scratch):
        return fixtures.elliptic_frame()

    @staticmethod
    def _small(rng):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))

    def block(self, state, rng):
        frame = state
        ops = [("member", Gi(self._small(rng), self._small(rng))) for _ in range(3)]
        h = tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(frame.rank))
        ray = cones.Cone.from_generators([fans.flatten(frame.pencil(1, h))], frame.dim ** 2)
        ops.append(("orbit", Gi(self._small(rng)), ray))
        return ops

    def run(self, state, op):
        frame = state
        tau = op[1]
        point = classifying.extend_inner_filtration(frame, {0: [(tau, Gi(1))], -1: qlinalg.identity(2)})
        if op[0] == "member":
            return classifying.in_D(point)
        return classifying.nilpotent_orbit_test(point, op[2])

    def check(self, state, op, out):
        want = op[1].im > 0 if op[0] == "member" else True
        return out is want, (op[0], out)


WORKLOADS = {w.name: w for w in (TripleFiltration(), TripleSubdivide(), Jordan3Window(), EllipticPeriod())}

"""A worked degeneration: a product of three genus one curves over a
disc, where only the last factor acquires a singular fiber.

The degree three cohomology of the product is assembled by Kunneth
bookkeeping: a rank twenty frame with the cup product pairing, the log
of the product monodromy, and type tables tracked through the tensor
and twist arithmetic.  On top of the frame sit the chart points of the
associated family of intermediate tori, their identification relation,
the certificate that the naive quotient is not separated, and the slit
membership test that repairs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .errors import (
    InvariantViolation,
    PreconditionViolated,
    SpecFormatError,
)
from .gaussian import Gi, coerce
from .hodge import Frame
from .qlinalg import exp_nilpotent, log_unipotent, mat, matmul, transpose, zeros

# cohomology skeleton of a genus one curve, one label per basis class
H_BASIS = {0: ("u",), 1: ("a", "b"), 2: ("w",)}
_PAIRS = {("u", "w"): 1, ("w", "u"): 1, ("a", "b"): 1, ("b", "a"): -1}
_SYMPLECTIC = ((0, 1), (-1, 0))


@dataclass(frozen=True)
class CurveFactor:
    """One genus one factor, carrying its degree one monodromy.

    The degree zero and two monodromies are trivial for every factor we
    consider; a factor degenerates exactly when its degree one
    monodromy is not the identity.  Construction sets log_monodromy,
    the nilpotent logarithm of the degree one monodromy, once.
    """

    name: str
    monodromy: tuple

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.monodromy)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise SpecFormatError("degree one monodromy must be two by two")
        object.__setattr__(self, "monodromy", m)
        # raises NotUnipotent when the monodromy is not unipotent
        object.__setattr__(self, "log_monodromy", log_unipotent(mat(m)))
        if matmul(matmul(transpose(m), _SYMPLECTIC), m) != mat(_SYMPLECTIC):
            raise PreconditionViolated("monodromy does not preserve the intersection form")

    @classmethod
    def constant(cls, name: str) -> "CurveFactor":
        return cls(name, ((1, 0), (0, 1)))

    @classmethod
    def degenerating(cls, name: str) -> "CurveFactor":
        return cls(name, ((1, 1), (0, 1)))

    @property
    def degenerates(self) -> bool:
        return self.monodromy != ((1, 0), (0, 1))

    @property
    def weighted_types(self) -> dict:
        """Per degree, per weight type multiplicities near the fiber."""
        if self.degenerates:
            middle = {0: {(0, 0): 1}, 2: {(1, 1): 1}}
        else:
            middle = {1: {(1, 0): 1, (0, 1): 1}}
        return {0: {0: {(0, 0): 1}}, 1: middle, 2: {2: {(1, 1): 1}}}


def standard_factors():
    """Two constant factors and one degenerating factor, in that order."""
    return (
        CurveFactor.constant("Y1"),
        CurveFactor.constant("Y2"),
        CurveFactor.degenerating("E"),
    )


def kunneth_basis(factors) -> tuple:
    """Ordered degree three basis: degree triples lexicographically,
    labels in the per factor order within each triple."""
    out = []
    for degs in product((0, 1, 2), repeat=3):
        if sum(degs) != 3:
            continue
        for labels in product(*(H_BASIS[d] for d in degs)):
            out.append((degs, labels))
    return tuple(out)


def _koszul(x_degs, y_degs) -> int:
    flip = x_degs[1] * y_degs[0] + x_degs[2] * (y_degs[0] + y_degs[1])
    return -1 if flip % 2 else 1


def kunneth_gram(factors) -> tuple:
    basis = kunneth_basis(factors)
    rows = []
    for dx, lx in basis:
        row = []
        for dy, ly in basis:
            v = _koszul(dx, dy)
            for s in range(3):
                v *= _PAIRS.get((lx[s], ly[s]), 0)
            row.append(Fraction(v))
        rows.append(tuple(row))
    return tuple(rows)


def kunneth_log_monodromy(factors) -> tuple:
    """Sum over the slots of the factor logs; a degree zero operator,
    so no sign bookkeeping enters."""
    basis = kunneth_basis(factors)
    index = {b: i for i, b in enumerate(basis)}
    out = [list(row) for row in zeros(len(basis), len(basis))]
    for col, (degs, labels) in enumerate(basis):
        for slot, factor in enumerate(factors):
            if degs[slot] != 1:
                continue
            log = factor.log_monodromy
            src = H_BASIS[1].index(labels[slot])
            for tgt in range(2):
                c = log[tgt][src]
                if c:
                    moved = labels[:slot] + (H_BASIS[1][tgt],) + labels[slot + 1 :]
                    out[index[(degs, moved)]][col] += c
    return tuple(tuple(row) for row in out)


def limit_type_table(factors) -> dict:
    """Graded type multiplicities of the degree three piece near the
    singular fiber, after the weight two normalization that matches the
    frame conventions."""
    tables = [f.weighted_types for f in factors]
    out = {}
    for degs in product((0, 1, 2), repeat=3):
        if sum(degs) != 3:
            continue
        per_slot = [
            tuple(
                (w, t, m)
                for w, types in tables[s][degs[s]].items()
                for t, m in types.items()
            )
            for s in range(3)
        ]
        for combo in product(*per_slot):
            w = sum(c[0] for c in combo) - 4
            p = sum(c[1][0] for c in combo) - 2
            q = sum(c[1][1] for c in combo) - 2
            out.setdefault(w, {})
            out[w][(p, q)] = out[w].get((p, q), 0) + prod(c[2] for c in combo)
    return out


def pure_type_table(factors) -> dict:
    """Type multiplicities of the nearby smooth fibers, normalized the
    same way; this is the hodge field of the assembled frame."""
    pure = tuple(CurveFactor.constant(f.name) for f in factors)
    table = limit_type_table(pure)
    if set(table) != {-1}:
        raise InvariantViolation("smooth fibers must be pure of odd degree")
    return table[-1]


def declared_graded_types(factors) -> dict:
    """The type table the report predicates run against: even graded
    pieces are declared pure of the middle type, odd pieces keep the
    honest off diagonal classes (see limit_type_table for those)."""
    out = {}
    for w, types in limit_type_table(factors).items():
        if w % 2:
            out[w] = dict(types)
        else:
            out[w] = {(w // 2, w // 2): sum(types.values())}
    return out


def kunneth_h3(factors) -> Frame:
    """Assemble the degree three frame of the product family."""
    factors = tuple(factors)
    if len(factors) != 3:
        raise PreconditionViolated("the product has exactly three factors")
    np = kunneth_log_monodromy(factors)
    return Frame(
        rank=len(kunneth_basis(factors)),
        weight=-1,
        gram=kunneth_gram(factors),
        gamma=exp_nilpotent(np),
        hodge=pure_type_table(factors),
        graded_types=declared_graded_types(factors),
    )


def fiber_certificate(factors) -> dict:
    """Dimension bookkeeping of the degenerate fiber of the torus
    family: an abelian part, a multiplicative part and a vector part,
    read off the honest limit types."""
    table = limit_type_table(factors)
    rank = sum(m for types in table.values() for m in types.values())
    if rank % 2:
        raise InvariantViolation("odd rank admits no torus fibration")
    odd = sum(table.get(-1, {}).values())
    if odd % 2:
        raise InvariantViolation("odd weight piece must have even rank")
    abelian = odd // 2
    torus = table.get(0, {}).get((0, 0), 0)
    vector = sum(table.get(0, {}).values()) - torus
    if rank // 2 != abelian + torus + vector:
        raise InvariantViolation("fiber parts do not add up to half the rank")
    return {
        "half_rank": rank // 2,
        "abelian": abelian,
        "torus": torus,
        "vector": vector,
    }


# --- chart points over the degenerate fiber ---

@dataclass(frozen=True)
class ChartPoint:
    """Point of the torus chart near the singular fiber.

    Multiplicative coordinates are (base, exponent) pairs standing for
    base times the modulus to that power.  The modulus itself is kept
    symbolic as tau = c + n*i with c rational and n a nonnegative
    integer, so its logarithm is exact; tau is None once the modulus
    has degenerated to zero.
    """

    t: tuple
    a1: Gi
    a2: Gi
    tau: tuple | None = None

    def __post_init__(self):
        coords = []
        for pair in self.t:
            base, power = pair
            base = coerce(base)
            if not base:
                raise SpecFormatError("multiplicative coordinate with zero base")
            coords.append((base, int(power)))
        if len(coords) != 4:
            raise SpecFormatError("chart points carry four multiplicative coordinates")
        object.__setattr__(self, "t", tuple(coords))
        object.__setattr__(self, "a1", coerce(self.a1))
        object.__setattr__(self, "a2", coerce(self.a2))
        if self.tau is not None:
            c, n = self.tau
            n = int(n)
            if n < 0:
                raise SpecFormatError("modulus height must be nonnegative")
            object.__setattr__(self, "tau", (Fraction(c), n))

    @property
    def modulus(self):
        """tau as a Gaussian rational, None at a degenerate modulus."""
        if self.tau is None:
            return None
        return Gi(self.tau[0], Fraction(self.tau[1]))


def equivalence_witness(p: ChartPoint, q: ChartPoint) -> dict:
    """Decide the chart identification and produce the witness.

    Away from the degenerate modulus the torus coordinates may differ
    by powers of the modulus, the second vector coordinate by a
    Gaussian integer b, and the first by a Gaussian integer plus b
    times tau.  At the degenerate modulus everything must match up to a
    Gaussian integer shift of the first vector coordinate alone.
    """
    if (p.tau is None) != (q.tau is None):
        return _verdict(False, None, "only one modulus is degenerate")
    if p.tau is None:
        if p.t != q.t:
            return _verdict(False, None, "torus coordinates differ at the degenerate modulus")
        if p.a2 != q.a2:
            return _verdict(False, None, "second vector coordinates differ")
        if not (q.a1 - p.a1).is_gaussian_integer():
            return _verdict(False, None, "first vector offset is not integral")
        return _verdict(True, None, "degenerate modulus identification")
    if p.tau[1] != q.tau[1] or (q.tau[0] - p.tau[0]).denominator != 1:
        return _verdict(False, None, "points lie over different moduli")
    if any(tb != sb for (tb, _), (sb, _) in zip(p.t, q.t)):
        return _verdict(False, None, "torus coordinates differ beyond modulus powers")
    b = q.a2 - p.a2
    if not b.is_gaussian_integer():
        return _verdict(False, None, "second vector offset is not integral")
    if not (q.a1 - p.a1 - b * p.modulus).is_gaussian_integer():
        return _verdict(False, b, "first vector offset misses the modulus lattice")
    return _verdict(True, b, "integral witness")


def _verdict(ok: bool, b, reason: str) -> dict:
    return {"equivalent": ok, "b": b, "reason": reason}


def hausdorff_witness(c, t, heights=range(1, 11)) -> dict:
    """Certificate that the naive chart quotient cannot separate two
    sequences: each pair along the way is identified, the two limits
    are not.

    The first sequence fixes vector coordinates (c, 1) and the second
    (0, 0), both over the moduli c + n*i for n in heights.  The
    certificate holds exact values: c and the limits as chart points.
    """
    c = Fraction(c)
    steps = []
    for n in heights:
        first = ChartPoint(t, Gi(c), Gi(Fraction(1)), (c, n))
        second = ChartPoint(t, Gi(), Gi(), (c, n))
        w = equivalence_witness(first, second)
        steps.append({"height": n, "equivalent": w["equivalent"], "b": w["b"]})
    first_limit = ChartPoint(t, Gi(c), Gi(Fraction(1)), None)
    second_limit = ChartPoint(t, Gi(), Gi(), None)
    limit = equivalence_witness(first_limit, second_limit)
    return {
        "parameter": c,
        "steps": steps,
        "limits": {"first": first_limit, "second": second_limit, "witness": limit},
        "certified": all(s["equivalent"] for s in steps) and not limit["equivalent"],
    }


def slit_member(p: ChartPoint) -> bool:
    """Membership in the repaired chart: away from the degenerate
    modulus everything belongs, on it only the points with vanishing
    second vector coordinate survive."""
    return p.tau is not None or not p.a2

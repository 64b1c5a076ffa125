"""Batch front door: load a run spec, build fan windows, run check
suites, emit machine readable reports.

Reports are deterministic for a fixed spec and seed: check order is
fixed, output keys are sorted, and every random draw goes through a
single generator seeded before any check runs.  A report is built from
exact values and formatted in one pass by to_jsonable, the one
formatter, which writes each vector object once; frame_to_json writes
the gallery's frame in the spec format.  Exit codes: 0 all checks
pass, 1 a check failed or was blocked by a precondition, 2 bad input,
3 a mathematical invariant broke.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import __version__
from .cones import Cone
from .errors import (
    InvariantViolation,
    MissingHodgeData,
    NotSquareZeroPure,
    PreconditionViolated,
    SpecFormatError,
)
from .fans import (
    CellFan,
    check_admissible,
    check_square_zero_pure,
    corrupted_window,
    cube_window,
    image_lattice,
    neron_lattice,
    random_admissible_cone,
    random_inadmissible_operator,
    relations_report,
    strong_compatibility_report,
    subdivide_against,
)
from .fixtures import elliptic_frame, jordan3_frame
from .gallery import (
    ChartPoint,
    fiber_certificate,
    hausdorff_witness,
    kunneth_h3,
    slit_member,
    standard_factors,
)
from .gaussian import Gi, format_gi
from .grid import first_fan_violation, window_face_table
from .hodge import (
    Frame,
    _block_analysis,
    _is_relative_weight_filtration,
    _membership,
    _relative_filtration,
    _relative_filtration_exists,
    frame_from_json,
    frame_to_json,
)
from .qlinalg import (
    format_scalar,
    frac,
    mat_from_json,
    vec_from_json,
    vec_to_json,
    zero_vec,
)

_FIXTURES = {
    "elliptic": elliptic_frame,
    "jordan3": jordan3_frame,
    "triple": lambda: kunneth_h3(standard_factors()),
}
_FAN_NAMES = ("cell-fan", "image-rays", "neron-rays", "cube-cells")
_CORRUPT_MODES = ("drop-faces", "half-cell")
_SPEC_KEYS = {"frame", "fixture", "lattice", "fan", "window", "corpus", "seed", "corrupt"}

# checks whose pass is a constructed interpretation of an informal
# claim rather than a literal restatement of it
_INTERPRETED = {"ray-integral-exponential", "square-zero-pure-type"}


@dataclass(frozen=True)
class SpecData:
    """One loaded run configuration; flags override file values."""

    frame: Frame
    fan: str
    window: int
    corpus: int
    seed: int
    corrupt: str | None
    digest: str


def load_spec(path: str) -> SpecData:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file: {exc}")
    try:
        data = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"spec file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SpecFormatError("spec file must hold a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise SpecFormatError(f"unknown spec fields: {sorted(unknown)}")
    if ("fixture" in data) == ("frame" in data):
        raise SpecFormatError("spec needs exactly one of 'fixture' or 'frame'")
    if "fixture" in data:
        name = data["fixture"]
        if name not in _FIXTURES:
            raise SpecFormatError(f"unknown fixture {name!r}")
        frame = _FIXTURES[name]()
    else:
        frame = frame_from_json(data["frame"])
    if "lattice" in data:
        payload = frame_to_json(frame)
        payload["lattice"] = data["lattice"]
        frame = frame_from_json(payload)
    fan = data.get("fan", "cell-fan")
    if fan not in _FAN_NAMES:
        raise SpecFormatError(f"unknown fan {fan!r}")
    corrupt = data.get("corrupt")
    if corrupt is not None and corrupt not in _CORRUPT_MODES:
        raise SpecFormatError(f"unknown corruption mode {corrupt!r}")

    def nonneg(key, default):
        value = data.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SpecFormatError(f"spec field {key!r} must be a nonnegative integer")
        return value

    return SpecData(
        frame=frame,
        fan=fan,
        window=nonneg("window", 1),
        corpus=nonneg("corpus", 100),
        seed=nonneg("seed", 0),
        corrupt=corrupt,
        digest=hashlib.sha256(blob).hexdigest(),
    )


# ---------------------------------------------------------------------------
# report assembly


def to_jsonable(x):
    """Exact data as JSON safe values, in one pass: scalars become p/q
    strings, and a tuple or list of Fractions is one vector, written by
    vec_to_json.  Each vector object is formatted once per pass and its
    text shared wherever it recurs; the memo keeps every key object
    alive, so no id is reused within the pass."""
    memo = {}

    def vector(v):
        hit = memo.get(id(v))
        if hit is None:
            hit = memo[id(v)] = (v, vec_to_json(v))
        return hit[1]

    def walk(x):
        if x is None or isinstance(x, (bool, int, str)):
            return x
        if isinstance(x, Fraction):
            return format_scalar(x)
        if isinstance(x, (list, tuple)):
            return vector(x) if set(map(type, x)) == {Fraction} else [walk(v) for v in x]
        if isinstance(x, dict):
            return {str(k): walk(v) for k, v in x.items()}
        if isinstance(x, Gi):
            return format_gi(x)
        if isinstance(x, Cone):
            return {"rays": [vector(r) for r in x.rays]}
        if isinstance(x, ChartPoint):
            return walk({"t": x.t, "a1": x.a1, "a2": x.a2, "tau": x.tau})
        return str(x)

    return walk(x)


def _status(name: str, ok) -> str:
    if ok is None:
        return "precondition"
    if not ok:
        return "fail"
    return "interpreted-pass" if name in _INTERPRETED else "pass"


def make_report(suite: str, spec_hash, seed, checks, extra=None) -> dict:
    report = {
        "tool": "relfan",
        "version": __version__,
        "schema": 1,
        "spec_hash": spec_hash,
        "suite": suite,
        "seed": seed,
        "checks": [
            {"name": name, "status": _status(name, ok), "witness": witness}
            for name, ok, witness in checks
        ],
    }
    if extra:
        report.update(extra)
    return to_jsonable(report)


def report_exit(report: dict) -> int:
    good = all(c["status"] in ("pass", "interpreted-pass") for c in report["checks"])
    return 0 if good else 1


# ---------------------------------------------------------------------------
# commands


def _build_window(spec: SpecData):
    """(window, grid): the requested fan's window as GridFace symbols of
    grid, the cells of the zero key, as a corruption left them, the cube
    cells or the grid points of a ray fan; or the reason, a string, when
    a precondition of the fan fails."""
    fan = CellFan(spec.frame)
    if spec.corrupt is not None and spec.fan != "cell-fan":
        raise SpecFormatError("corruption applies only to the cell fan window")
    if spec.fan == "cell-fan":
        if fan.blocked:
            return fan.blocked
        if spec.corrupt is not None:
            return corrupted_window(fan, spec.window, spec.corrupt), fan.grid()
        return fan.window(spec.window), fan.grid()
    if spec.fan == "cube-cells":
        try:
            return cube_window(fan, spec.window), fan.cube_grid
        except (NotSquareZeroPure, MissingHodgeData) as exc:
            return str(exc)
    grid = fan.lattice_grid(image_lattice(fan) if spec.fan == "image-rays" else neron_lattice(fan))
    return grid.vertex_window(spec.window), grid


def cmd_build(spec: SpecData) -> dict:
    built = _build_window(spec)
    if isinstance(built, str):
        ok, outcome, cones, faces = None, {"reason": built}, [], []
    else:
        window, grid = built
        ok, outcome = len(window) > 0, {"cones": len(window)}
        cones, faces = [grid.cone(e) for e in window], window_face_table(window)
    checks = [("window-built", ok, {"fan": spec.fan, **outcome})]
    extra = {"window": {"fan": spec.fan, "bound": spec.window, "cones": cones, "faces": faces}}
    return make_report("build", spec.digest, spec.seed, checks, extra)


def _axioms_checks(spec: SpecData) -> list:
    built = _build_window(spec)
    if isinstance(built, str):
        return [("fan-axioms", None, {"reason": built})]
    violation = first_fan_violation(*built)
    return [("fan-axioms", violation is None, violation or {"cones": len(built[0])})]


def _gamma_checks(spec: SpecData) -> list:
    fan = CellFan(spec.frame)
    if fan.blocked:
        return [("cell-conjugation-stable", None, {"reason": fan.blocked})]
    shifts = [zero_vec(spec.frame.rank)]
    shifts.extend(fan.inner_lattice.basis_vectors())
    gammas = [(p, s) for p in (-2, -1, 0, 1, 2) for s in shifts]
    return [(e["name"], e["ok"], e["witness"]) for e in strong_compatibility_report(fan, spec.window, gammas)]


def _completeness_checks(spec: SpecData) -> list:
    fan = CellFan(spec.frame)
    rng = random.Random(spec.seed)
    cones = [random_admissible_cone(fan, rng) for _ in range(spec.corpus)]
    try:
        operators = [random_inadmissible_operator(fan, rng) for _ in range(spec.corpus)]
    except PreconditionViolated as exc:
        operators, blocked = None, str(exc)

    def covers():
        if fan.blocked:
            return "subdivision-covers", None, {"reason": fan.blocked}
        for i, gens in enumerate(cones):
            if subdivide_against(fan, gens) is None:
                return "subdivision-covers", False, {"index": i, "generators": gens}
        return "subdivision-covers", True, {"cones": len(cones)}

    def rejects():
        if operators is None:
            return "inadmissible-rejected", None, {"reason": blocked}
        for i, op in enumerate(operators):
            ok, _ = check_admissible(fan, [op])
            if ok:
                return "inadmissible-rejected", False, {"index": i, "operator": op}
        return "inadmissible-rejected", True, {"operators": len(operators)}

    return [covers(), rejects()]


def _relations_checks(spec: SpecData) -> list:
    fan = CellFan(spec.frame)
    # the cube cells are decided from one change of basis at any bound;
    # the clamp stays because the reported pieces count, (2b+1)^k |det C|
    # in schema 1, is taken at the clamped bound
    cube_bound = spec.window if fan.cube_rank <= 3 else 0
    report = relations_report(fan, bound=spec.window, cube_bound=cube_bound)
    return [(e["name"], e["ok"], e["witness"]) for e in report]


_GALLERY_BASE = ((1, 0), (1, 0), (1, 0), (1, 0))


def _slit_cases() -> list:
    points = [
        (ChartPoint(_GALLERY_BASE, Gi(5), Gi(0), None), True),
        (ChartPoint(_GALLERY_BASE, Gi(5), Gi(1), None), False),
        (ChartPoint(_GALLERY_BASE, Gi(5), Gi(1), (Fraction(1, 3), 1)), True),
    ]
    return [(p, slit_member(p), want) for p, want in points]


def _gallery_payload():
    factors = standard_factors()
    frame = kunneth_h3(factors)
    gate = check_square_zero_pure(frame)
    certificate = fiber_certificate(factors)
    separation = hausdorff_witness(Fraction(1, 3), _GALLERY_BASE)
    slit = _slit_cases()
    checks = [
        ("kunneth-frame-built", frame.rank == 20, {"rank": frame.rank}),
        ("square-zero-pure-type", gate["holds"], gate),
        (
            "separation-failure-certified",
            separation["certified"],
            {"parameter": separation["parameter"], "steps": len(separation["steps"])},
        ),
        (
            "slit-test-vectors",
            all(got == want for _, got, want in slit),
            [{"point": p, "member": got, "expected": want} for p, got, want in slit],
        ),
        (
            "fiber-certificate",
            certificate["half_rank"]
            == certificate["abelian"] + certificate["torus"] + certificate["vector"],
            certificate,
        ),
    ]
    extra = {
        "degeneration": frame_to_json(frame),
        "purity": gate,
        "separation": separation,
        "slit": [{"point": p, "member": got, "expected": want} for p, got, want in slit],
        "fiber": certificate,
    }
    return checks, extra


_SUITES = {
    "axioms": _axioms_checks,
    "gamma": _gamma_checks,
    "completeness": _completeness_checks,
    "relations": _relations_checks,
}


def cmd_check(spec: SpecData, suite: str) -> dict:
    if suite == "gallery":
        checks, _ = _gallery_payload()
    else:
        checks = _SUITES[suite](spec)
    return make_report(suite, spec.digest, spec.seed, checks)


def _load_operator(path: str, frame: Frame):
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read())
    except OSError as exc:
        raise SpecFormatError(f"cannot read operator file: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"operator file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SpecFormatError("operator file must hold a JSON object")
    if "matrix" in data:
        if set(data) != {"matrix"}:
            raise SpecFormatError("operator object with 'matrix' takes no other fields")
        n_mat = mat_from_json(data["matrix"])
        if len(n_mat) != frame.dim or any(len(row) != frame.dim for row in n_mat):
            raise SpecFormatError(f"operator matrix must be {frame.dim} x {frame.dim}")
        return n_mat
    if "e_image" not in data or not set(data) <= {"e_image", "lam"}:
        raise SpecFormatError("operator object needs 'matrix', or 'e_image' plus optional 'lam'")
    image = vec_from_json(data["e_image"])
    if len(image) != frame.rank:
        raise SpecFormatError("e_image length must match the inner rank")
    try:
        lam = frac(data.get("lam", 1))
    except SpecFormatError as exc:
        raise SpecFormatError("operator field 'lam' must be a rational scalar") from exc
    return frame.pencil(lam, image)


def cmd_rmf(spec: SpecData, operator_path: str) -> dict:
    frame = spec.frame
    n_mat = _load_operator(operator_path, frame)
    rows, lam, _ = _membership(frame, n_mat)  # check_in_g, once for all four
    wf, allowed, _ = _block_analysis(frame, frame.restriction(n_mat), lam)
    exists = _relative_filtration_exists(frame, allowed, rows)
    filt = _relative_filtration(frame, wf, rows)
    witness = {"e_image": frame.e_image(n_mat), "allowed_space": allowed.basis, "member": exists}
    checks = [("existence-criterion-agrees", (filt is not None) == exists, witness)]
    if filt is not None:
        checks.append(
            ("relative-axioms", _is_relative_weight_filtration(rows, frame.base_filtration, filt), None)
        )
    extra = {
        "existence": {"exists": exists, "witness": witness},
        "filtration": None
        if filt is None
        else {j: filt.at(j).basis for j in filt.jump_indices},
    }
    return make_report("rmf", spec.digest, spec.seed, checks, extra)


def cmd_gallery(entry: str) -> dict:
    if entry != "triple":
        raise SpecFormatError(f"unknown gallery entry {entry!r}")
    checks, extra = _gallery_payload()
    return make_report("gallery-triple", None, None, checks, extra)


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfan",
        description="exact fan and filtration checks for degenerating Hodge data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", help="write the report here instead of stdout")
    io.add_argument("--format", choices=("json", "text"), default="json")

    spec_io = argparse.ArgumentParser(add_help=False, parents=[io])
    spec_io.add_argument("--spec", required=True, help="path to the run spec JSON")
    spec_io.add_argument("--window", type=int, help="override the spec window bound")
    spec_io.add_argument("--corpus", type=int, help="override the spec corpus size")
    spec_io.add_argument("--seed", type=int, help="override the spec seed")

    sub.add_parser("build", parents=[spec_io], help="build a fan window and serialize it")
    check = sub.add_parser("check", parents=[spec_io], help="run a check suite")
    check.add_argument(
        "--suite",
        required=True,
        choices=("axioms", "gamma", "completeness", "relations", "gallery"),
    )
    rmf = sub.add_parser("rmf", parents=[spec_io], help="relative filtration of one operator")
    rmf.add_argument("--n-data", required=True, help="path to the operator JSON")
    gallery = sub.add_parser("gallery", parents=[io], help="emit a worked example bundle")
    gallery.add_argument("entry", choices=("triple",))
    return parser


def _spec_from_args(args) -> SpecData:
    spec = load_spec(args.spec)
    overrides = {}
    for field in ("window", "corpus", "seed"):
        value = getattr(args, field)
        if value is not None:
            if value < 0:
                raise SpecFormatError(f"--{field} must be nonnegative")
            overrides[field] = value
    return replace(spec, **overrides) if overrides else spec


def render_text(report: dict) -> str:
    lines = [f"{report['tool']} {report['version']} suite={report['suite']} seed={report['seed']}"]
    if report.get("spec_hash"):
        lines.append(f"spec sha256 {report['spec_hash']}")
    marks = {"pass": "PASS", "interpreted-pass": "PASS*", "fail": "FAIL", "precondition": "PREC"}
    for c in report["checks"]:
        line = f"{marks[c['status']]:5s} {c['name']}"
        if c["status"] in ("fail", "precondition") and c["witness"] is not None:
            line += " " + json.dumps(c["witness"], sort_keys=True)
        lines.append(line)
    counts = Counter(c["status"] for c in report["checks"])
    lines.append(" ".join(f"{k}={counts.get(k, 0)}" for k in marks))
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    if args.format == "text":
        text = render_text(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "build":
            report = cmd_build(_spec_from_args(args))
        elif args.command == "check":
            report = cmd_check(_spec_from_args(args), args.suite)
        elif args.command == "rmf":
            report = cmd_rmf(_spec_from_args(args), args.n_data)
        else:
            report = cmd_gallery(args.entry)
    except SpecFormatError as exc:
        print(f"relfan: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"relfan: invariant violation: {exc}", file=sys.stderr)
        return 3
    _emit(report, args)
    return report_exit(report)

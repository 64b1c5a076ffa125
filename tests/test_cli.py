"""End to end runs of the batch front door.

Every test drives main() with real files and asserts on the report
JSON, the exit code, or both.
"""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from conftest import check_fan, lifted
from relfan import cones, hodge
from relfan.cli import _build_window, load_spec, main, to_jsonable
from relfan.cones import Cone
from relfan.fixtures import elliptic_frame, jordan3_frame
from relfan.hodge import frame_to_json
from test_frozen_reports import JORDAN3_OFF_PENCIL


def write_spec(tmp_path, name="spec.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# --- build ---

def test_build_cell_window(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", window=1)
    code, report = run_json(capsys, "build", "--spec", spec)
    assert code == 0
    window = report["window"]
    assert len(window["cones"]) == 8
    full = [i for i, c in enumerate(window["cones"]) if len(c["rays"]) == 2]
    assert len(full) == 3
    for i in full:
        assert len(window["faces"][i]) == 4
        assert i in window["faces"][i]
    assert report["schema"] == 1
    assert len(report["spec_hash"]) == 64


def test_build_trivial_monodromy(tmp_path, capsys):
    payload = frame_to_json(elliptic_frame())
    payload["gamma"] = [["1", "0"], ["0", "1"]]
    spec = write_spec(tmp_path, frame=payload)
    code, report = run_json(capsys, "build", "--spec", spec)
    assert code == 0
    assert report["window"]["cones"] == [{"rays": []}]


@pytest.mark.parametrize("fan", ["image-rays", "neron-rays", "cube-cells"])
def test_build_other_fans(tmp_path, capsys, fan):
    spec = write_spec(tmp_path, fixture="elliptic", fan=fan, window=2)
    code, report = run_json(capsys, "build", "--spec", spec)
    assert code == 0
    assert len(report["window"]["cones"]) >= 2


def test_window_flag_overrides_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", window=3)
    code, report = run_json(capsys, "build", "--spec", spec, "--window", "0")
    assert code == 0
    assert report["window"]["bound"] == 0
    assert len(report["window"]["cones"]) == 4  # one cell and its faces


# --- input errors ---

def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "build", "--spec", str(path))
    assert code == 2
    assert "JSON" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--spec", str(tmp_path / "absent.json"))
    assert code == 2


def test_unknown_field_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", cheese=1)
    assert run(capsys, "build", "--spec", spec)[0] == 2


def test_fixture_and_frame_both_given_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", frame={})
    assert run(capsys, "build", "--spec", spec)[0] == 2


def test_unknown_fixture_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="cusp")
    assert run(capsys, "build", "--spec", spec)[0] == 2


@pytest.mark.parametrize(
    "field, value",
    [("rank", 2.9), ("rank", "2.5"), ("weight", -1.5), ("hodge_numbers", [[0, -1, 1.5], [-1, 0, 1]])],
)
def test_non_integral_frame_field_exits_2(tmp_path, capsys, field, value):
    payload = frame_to_json(elliptic_frame())
    payload[field] = value
    spec = write_spec(tmp_path, frame=payload)
    code, _, err = run(capsys, "build", "--spec", spec)
    assert code == 2
    assert "must be an integer" in err


def test_asymmetric_hodge_numbers_exit_2(tmp_path, capsys):
    payload = frame_to_json(elliptic_frame())
    payload["hodge_numbers"] = [[0, -1, 2]]
    spec = write_spec(tmp_path, frame=payload)
    for suite in ("axioms", "gamma", "completeness", "relations"):
        code, _, err = run(capsys, "check", "--suite", suite, "--spec", spec)
        assert code == 2
        assert "h^(p,q) = h^(q,p)" in err
    assert run(capsys, "build", "--spec", spec)[0] == 2


def test_gram_of_the_wrong_size_exits_2(tmp_path, capsys):
    payload = frame_to_json(elliptic_frame())
    payload["gram"] = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    spec = write_spec(tmp_path, frame=payload)
    code, _, err = run(capsys, "build", "--spec", spec)
    assert code == 2
    assert "inner rank" in err


@pytest.mark.parametrize(
    "lattice, message",
    [([["1", "0", "0"]], "full rank"), ([["1", "0"], ["0", "1"]], "length rank + 1")],
)
def test_malformed_lattice_exits_2(tmp_path, capsys, lattice, message):
    payload = frame_to_json(elliptic_frame())
    payload["lattice"] = lattice
    spec = write_spec(tmp_path, frame=payload)
    code, _, err = run(capsys, "build", "--spec", spec)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "gamma, message",
    [
        ([["2", "0"], ["0", "1"]], "does not preserve the pairing"),
        ([["0", "-1"], ["1", "0"]], "not unipotent"),
        ([["1", "1/2"], ["0", "1"]], "does not preserve the inner lattice"),
    ],
    ids=["pairing", "unipotent", "lattice"],
)
def test_gamma_outside_the_group_exits_2(tmp_path, capsys, gamma, message):
    payload = frame_to_json(elliptic_frame())
    payload["gamma"] = gamma
    spec = write_spec(tmp_path, frame=payload)
    for argv in (["build"], ["check", "--suite", "gamma"]):
        code, _, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
        assert code == 2
        assert message in err


def test_corrupt_mode_on_ray_fan_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", fan="neron-rays", corrupt="drop-faces")
    assert run(capsys, "build", "--spec", spec)[0] == 2


# --- check suites ---

@pytest.mark.parametrize("fields", [
    {"fixture": "elliptic", "fan": "cube-cells"},
    {"fixture": "jordan3", "corrupt": "half-cell"},
    {"fixture": "jordan3", "corrupt": "drop-faces"},
    {"fixture": "elliptic", "fan": "image-rays"},
])
def test_build_faces_and_axioms_match_operator_space(tmp_path, capsys, fields):
    """The faces table and the axioms witness, decided on grid faces,
    equal the pairwise operator space tests on the same window."""
    spec = write_spec(tmp_path, window=2, **fields)
    _, built = run_json(capsys, "build", "--spec", spec)
    _, axioms = run_json(capsys, "check", "--spec", spec, "--suite", "axioms")
    window, grid = _build_window(load_spec(spec))
    window = lifted(window, grid)
    assert built["window"]["faces"] == [
        sorted(j for j, other in enumerate(window) if other.is_face_of(cone)) for cone in window
    ]
    bad = check_fan(window)
    assert axioms["checks"][0]["witness"] == to_jsonable(bad[0] if bad else {"cones": len(window)})


@pytest.mark.parametrize("corrupt", [None, "drop-faces", "half-cell"])
@pytest.mark.parametrize("fixture", ["elliptic", "jordan3", "triple"])
def test_window_suites_run_no_double_description(tmp_path, capsys, fixture, corrupt):
    """build and axioms decide every window at bound 0, honest or corrupted,
    on its grid symbols: double description never runs, and no cone is
    walked for its faces or intersected."""
    fields = {"fixture": fixture, "window": 0} | ({"corrupt": corrupt} if corrupt else {})
    spec = write_spec(tmp_path, **fields)
    with mock.patch.object(cones, "rays_from_ineqs", wraps=cones.rays_from_ineqs) as dd, \
            mock.patch.object(Cone, "faces", autospec=True, side_effect=Cone.faces) as faces, \
            mock.patch.object(Cone, "intersect", autospec=True, side_effect=Cone.intersect) as meet:
        assert run(capsys, "build", "--spec", spec)[0] == 0
        assert run(capsys, "check", "--spec", spec, "--suite", "axioms")[0] == (0 if corrupt is None else 1)
        assert (dd.call_count, faces.call_count, meet.call_count) == (0, 0, 0)
        # the wrappers do count: a cone built by double description
        square = Cone.from_generators([(1, 0), (1, 1)], 2)
        square.intersect(square.facets()[0])
        square.faces()
        assert dd.call_count and faces.call_count and meet.call_count


def load_run_suites():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_suites.py"
    spec = importlib.util.spec_from_file_location("run_suites", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fixture", ["elliptic", "jordan3", "triple"])
def test_no_cli_suite_runs_double_description(tmp_path, capsys, monkeypatch, fixture):
    """Every CLI suite at window 0 decides in its charts: scripts/run_suites.py
    (build, the five check suites and rmf on its two pencil operators),
    then build and axioms of every other fan and of both corruptions,
    with double description refused.  The check suites other than axioms
    read neither the fan nor the corruption."""
    calls = []

    def refused(*args):
        calls.append(args)
        raise AssertionError("double description ran")

    monkeypatch.setattr(cones, "rays_from_ineqs", refused)
    assert load_run_suites().main(["--fixture", fixture, "--window", "0"]) in (0, 1)
    variants = [{"fan": fan} for fan in ("image-rays", "neron-rays", "cube-cells")]
    variants += [{"corrupt": mode} for mode in ("drop-faces", "half-cell")]
    for fields in variants:
        spec = write_spec(tmp_path, fixture=fixture, window=0, **fields)
        assert run(capsys, "build", "--spec", spec)[0] in (0, 1)
        assert run(capsys, "check", "--spec", spec, "--suite", "axioms")[0] in (0, 1)
    assert calls == []


def test_axioms_pass(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", window=2)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "axioms")
    assert code == 0
    assert report["checks"][0]["status"] == "pass"


def test_corrupted_window_fails_axioms(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", corrupt="drop-faces")
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "axioms")
    assert code == 1
    check = report["checks"][0]
    assert check["status"] == "fail"
    assert check["witness"]["kind"] in ("missing-face", "bad-intersection")


def test_half_cell_corruption_fails(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", corrupt="half-cell")
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "axioms")
    assert code == 1


def test_gamma_suite(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", window=1)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "gamma")
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert names == {"cell-conjugation-stable", "ray-integral-exponential"}
    assert any(c["status"] == "interpreted-pass" for c in report["checks"])


def test_gamma_suite_trivial_monodromy(tmp_path, capsys):
    """The gamma = 1 elliptic frame of test_build_trivial_monodromy: its
    window is the origin, which has no ray and no cell to check."""
    payload = frame_to_json(elliptic_frame())
    payload["gamma"] = [["1", "0"], ["0", "1"]]
    spec = write_spec(tmp_path, frame=payload)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "gamma")
    assert code == 0
    assert report["checks"] == []


def test_completeness_suite(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", corpus=20, seed=5)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "completeness")
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["subdivision-covers", "inadmissible-rejected"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_relations_pass_on_square_zero_frame(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "relations")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["square-zero-pure-type"] == "interpreted-pass"
    assert statuses["existence-space-equals-torus-space"] == "pass"


def test_relations_precondition_without_predicate(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="jordan3")
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "relations")
    assert code == 1
    statuses = [c["status"] for c in report["checks"]]
    assert "precondition" in statuses
    assert {"name": "neron-rays-in-cell-fan", "status": "pass", "witness": None} in report["checks"]


# --- blocked preconditions report and exit 1 ---

def _without_graded_types():
    payload = frame_to_json(elliptic_frame())
    del payload["graded_types"]
    return payload


def _jordan3_trivial_monodromy():
    payload = frame_to_json(jordan3_frame())
    payload["gamma"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    return payload


def _blocked(report, name):
    check = next(c for c in report["checks"] if c["name"] == name)
    assert check["status"] == "precondition"
    return check["witness"]["reason"]


def test_relations_without_graded_types(tmp_path, capsys):
    spec = write_spec(tmp_path, frame=_without_graded_types(), window=1)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "relations")
    assert code == 1
    assert "graded types" in _blocked(report, "square-zero-pure-type")
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    # the checks that do not need the predicate are still decided
    assert statuses["pq-definitions-agree"] == "pass"
    assert statuses["neron-rays-in-cell-fan"] == "pass"
    assert "fail" not in statuses.values()


@pytest.mark.parametrize("fixture", ["elliptic", "jordan3"])
def test_relations_exits_3_when_the_pq_descriptions_disagree(tmp_path, capsys, monkeypatch, fixture):
    """pq-definitions-agree echoes an invariant: with W(log gamma) shifted
    so that the two descriptions of P and Q disagree, no report is
    written and the run exits 3, naming the invariant."""
    real = hodge._weight_filtration
    monkeypatch.setattr(hodge, "_weight_filtration", lambda powers, center: real(powers, center).shift(-10))
    spec = write_spec(tmp_path, fixture=fixture, window=1)
    code, out, err = run(capsys, "check", "--spec", spec, "--suite", "relations")
    assert code == 3 and not out
    assert "invariant violation: the two descriptions of P, Q disagree" in err


def test_completeness_with_existence_space_everything(tmp_path, capsys):
    spec = write_spec(tmp_path, frame=_jordan3_trivial_monodromy(), corpus=3)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "completeness")
    assert code == 1
    assert "everything" in _blocked(report, "inadmissible-rejected")


def test_completeness_trivial_monodromy_below_weight_minus_one(tmp_path, capsys):
    # every corpus generator sits at pencil level zero, where no cell is defined
    spec = write_spec(tmp_path, frame=_jordan3_trivial_monodromy(), corpus=5)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "completeness")
    assert code == 1
    assert "log(gamma) is zero" in _blocked(report, "subdivision-covers")


def test_relations_cube_cells_blocked_with_the_cell_fan(tmp_path, capsys):
    """jordan3 with gamma = 1 and square zero, pure graded types passes
    the cube fan's predicate, but its cell fan is blocked, as in build,
    axioms, gamma and completeness: so the cube cells cannot be compared
    with it, nor can the Neron rays be checked against it.  The torus
    and Neron lattices both exist, so their comparison is decided."""
    payload = _jordan3_trivial_monodromy()
    payload["graded_types"] = [[-2, 0, -2, 1], [-2, -1, -1, 1], [-2, -2, 0, 1]]
    spec = write_spec(tmp_path, frame=payload, window=1)
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "relations")
    assert code == 1
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["square-zero-pure-type"] == "interpreted-pass"
    assert "log(gamma) is zero" in _blocked(report, "cube-cells-align-with-cell-fan")
    assert "log(gamma) is zero" in _blocked(report, "neron-rays-in-cell-fan")
    assert statuses["torus-lattice-equals-neron-lattice"] == "fail"


@pytest.mark.parametrize("frame", ["jordan3", "no-graded-types"])
def test_cube_cells_blocked_build(tmp_path, capsys, frame):
    fields = {"fixture": "jordan3"} if frame == "jordan3" else {"frame": _without_graded_types()}
    spec = write_spec(tmp_path, fan="cube-cells", window=1, **fields)
    code, report = run_json(capsys, "build", "--spec", spec)
    assert code == 1
    assert _blocked(report, "window-built")
    assert report["window"]["cones"] == []


@pytest.mark.parametrize("argv,name", [
    (["build"], "window-built"),
    (["check", "--suite", "axioms"], "fan-axioms"),
    (["check", "--suite", "gamma"], "cell-conjugation-stable"),
])
def test_trivial_monodromy_below_weight_minus_one(tmp_path, capsys, argv, name):
    spec = write_spec(tmp_path, frame=_jordan3_trivial_monodromy(), window=1)
    code, report = run_json(capsys, argv[0], "--spec", spec, *argv[1:])
    assert code == 1
    assert "log(gamma) is zero" in _blocked(report, name)
    assert len(report["checks"]) == 1


def test_gallery_suite(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "gallery")
    assert code == 0
    assert {c["name"] for c in report["checks"]} == {
        "kunneth-frame-built",
        "square-zero-pure-type",
        "separation-failure-certified",
        "slit-test-vectors",
        "fiber-certificate",
    }


# --- rmf ---

def write_operator(tmp_path, name, **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def test_rmf_exists(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(tmp_path, "n.json", e_image=["1", "0"])
    code, report = run_json(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 0
    assert report["existence"]["exists"] is True
    assert report["existence"]["witness"]["allowed_space"] == [["1", "0"]]
    assert {c["name"]: c["status"] for c in report["checks"]}["relative-axioms"] == "pass"
    assert report["filtration"]["-2"] == [["1", "0", "0"]]
    assert len(report["filtration"]["0"]) == 3


def test_rmf_no_exist_with_witness(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(tmp_path, "n.json", e_image=["0", "1"])
    code, report = run_json(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 0
    assert report["existence"]["exists"] is False
    assert report["filtration"] is None
    witness = report["existence"]["witness"]
    assert witness["e_image"] == ["0", "1"]
    assert witness["allowed_space"] == [["1", "0"]]
    assert witness["member"] is False


def test_rmf_zero_operator_reproduces_base(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(tmp_path, "n.json", matrix=[["0"] * 3] * 3)
    code, report = run_json(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 0
    assert sorted(report["filtration"]) == ["-1", "0"]
    assert [len(report["filtration"][k]) for k in ("-1", "0")] == [2, 3]


def test_rmf_outside_algebra_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(
        tmp_path, "n.json", matrix=[["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]]
    )
    code, _, err = run(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 3
    assert "invariant" in err


def test_rmf_bad_operator_file_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(tmp_path, "n.json", e_image=["1", "0"], extra=1)
    assert run(capsys, "rmf", "--spec", spec, "--n-data", op)[0] == 2
    short = write_operator(tmp_path, "short.json", e_image=["1"])
    assert run(capsys, "rmf", "--spec", spec, "--n-data", short)[0] == 2


@pytest.mark.parametrize("matrix", [
    [["0"]],
    [["0", "0", "0"], ["0", "0", "0"]],
    [["0", "0"], ["0", "0"], ["0", "0"]],
    [],
])
def test_rmf_wrong_size_matrix_exits_2(tmp_path, capsys, matrix):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(tmp_path, "n.json", matrix=matrix)
    code, _, err = run(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 2
    assert "3 x 3" in err


@pytest.mark.parametrize("lam", ["1/0", True, 1.5])
def test_rmf_bad_lam_exits_2_naming_the_field(tmp_path, capsys, lam):
    spec = write_spec(tmp_path, fixture="elliptic")
    op = write_operator(tmp_path, "n.json", e_image=["1", "0"], lam=lam)
    code, _, err = run(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 2
    assert "operator field 'lam' must be a rational scalar" in err


def test_rmf_off_the_pencil_analyses_its_block_once(tmp_path, capsys, monkeypatch):
    """Existence, the allowed space and the construction read one
    analysis of the inner block: one weight filtration, one
    NilpotentPowers besides the frame's log(gamma), and one kernel and one
    image per power of the block (its nilpotency index is 3)."""
    from relfan import hodge, qlinalg
    from relfan.qlinalg import Subspace

    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(hodge, "_weight_filtration", counted("weight", hodge._weight_filtration))
    monkeypatch.setattr(qlinalg.NilpotentPowers, "__init__", counted("powers", qlinalg.NilpotentPowers.__init__))
    for name in ("kernel", "image"):
        fn = getattr(Subspace, name).__func__
        monkeypatch.setattr(Subspace, name, classmethod(counted(name, fn)))
    spec = write_spec(tmp_path, fixture="jordan3")
    op = write_operator(tmp_path, "off.json", matrix=JORDAN3_OFF_PENCIL)
    code, report = run_json(capsys, "rmf", "--spec", spec, "--n-data", op)
    assert code == 0 and report["existence"]["exists"] is True
    assert calls == {"weight": 1, "powers": 2, "kernel": 3, "image": 3}


# --- gallery entry ---

def test_gallery_triple_payload(tmp_path, capsys):
    code, report = run_json(capsys, "gallery", "triple")
    assert code == 0
    assert report["degeneration"]["rank"] == 20
    assert report["spec_hash"] is None
    assert report["separation"]["certified"] is True
    assert [s["b"] for s in report["separation"]["steps"]] == ["-1+0*i"] * 10
    assert [case["member"] for case in report["slit"]] == [True, False, True]
    assert report["fiber"] == {"half_rank": 10, "abelian": 4, "torus": 4, "vector": 2}
    assert report["purity"]["holds"] is True


# --- report plumbing ---

def test_reports_byte_identical(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", corpus=15, seed=11)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        code = main(["check", "--spec", spec, "--suite", "completeness", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_seed_flag_overrides_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic", seed=1, corpus=5)
    code, report = run_json(
        capsys, "check", "--spec", spec, "--suite", "completeness", "--seed", "9"
    )
    assert code == 0
    assert report["seed"] == 9


def test_text_format(tmp_path, capsys):
    spec = write_spec(tmp_path, fixture="elliptic")
    code, out, _ = run(capsys, "check", "--spec", spec, "--suite", "axioms", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("relfan 0.1.0 suite=axioms")
    assert any(line.startswith("PASS  fan-axioms") for line in lines)
    assert lines[-1] == "pass=1 interpreted-pass=0 fail=0 precondition=0"


def test_module_entry_point(tmp_path):
    spec = write_spec(tmp_path, fixture="elliptic")
    proc = subprocess.run(
        [sys.executable, "-m", "relfan", "check", "--spec", spec, "--suite", "axioms"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suite"] == "axioms"


def test_rmf_runs_one_membership_step(tmp_path, capsys, monkeypatch):
    """check_in_g, the criterion, the construction and the witness share
    the operator's one membership step."""
    from relfan import cli

    calls = []
    step = cli._membership
    monkeypatch.setattr(cli, "_membership", lambda fr, n: calls.append(n) or step(fr, n))
    spec = write_spec(tmp_path, fixture="jordan3")
    for name, fields in [
        ("lam1.json", {"lam": "1", "e_image": ["1", "0", "0"]}),
        ("lam0.json", {"lam": "0", "e_image": ["1", "1", "1"]}),
        ("zero.json", {"matrix": [["0"] * 4] * 4}),
        ("off.json", {"matrix": [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0"] * 4]}),
    ]:
        calls.clear()
        code, report = run_json(capsys, "rmf", "--spec", spec, "--n-data", write_operator(tmp_path, name, **fields))
        assert code == 0 and len(calls) == 1
        assert report["existence"]["exists"] == (report["filtration"] is not None)


def test_rmf_clears_its_operator_once(tmp_path, capsys, monkeypatch):
    """Membership, existence, the construction and the axiom certificate
    read one clear of the operator; the frame's own clears of its gram
    and log(gamma) are at the inner width."""
    widths = []
    clear = hodge._sparse_clear
    monkeypatch.setattr(hodge, "_sparse_clear", lambda rows, width: widths.append(width) or clear(rows, width))
    spec = write_spec(tmp_path, fixture="jordan3")
    certified = 0
    for name, fields in [
        ("lam1.json", {"lam": "1", "e_image": ["1", "0", "0"]}),
        ("lam0.json", {"lam": "0", "e_image": ["1", "1", "1"]}),
        ("zero.json", {"matrix": [["0"] * 4] * 4}),
        ("off.json", {"matrix": JORDAN3_OFF_PENCIL}),
    ]:
        widths.clear()
        code, report = run_json(capsys, "rmf", "--spec", spec, "--n-data", write_operator(tmp_path, name, **fields))
        assert code == 0 and widths.count(4) == 1
        certified += any(c["name"] == "relative-axioms" for c in report["checks"])
    assert certified == 4


def test_report_formats_each_vector_once(tmp_path, capsys, monkeypatch):
    """A report is formatted in one pass that writes each vector object
    once: build on triple at window 0 formats one ray per grid point,
    (2w + 2)^6 = 64 of them for the 730 cones that share them, and gamma
    formats each witness ray once."""
    from relfan import cli

    seen = []
    fmt = cli.vec_to_json
    monkeypatch.setattr(cli, "vec_to_json", lambda v: seen.append(v) or fmt(v))
    spec = write_spec(tmp_path, fixture="triple", window=0)
    code, report = run_json(capsys, "build", "--spec", spec)
    assert code == 0 and len(report["window"]["cones"]) == 730
    assert len(seen) == 64 and len(set(seen)) == 64
    seen.clear()
    code, report = run_json(capsys, "check", "--spec", spec, "--suite", "gamma")
    rays = [c["witness"]["ray"] for c in report["checks"] if c["name"] == "ray-integral-exponential"]
    texts = Counter(json.dumps(fmt(v)) for v in seen)
    assert code == 0 and len(rays) == 64
    assert all(texts[json.dumps(r)] == 1 for r in rays)


def test_gamma_builds_no_nilpotent_powers_per_ray(tmp_path, capsys, monkeypatch):
    """The ray exponents read powers of the ray operator off one lattice
    vector: gamma on jordan3 builds as many NilpotentPowers at window 3
    as at window 1, though it reports more rays."""
    from relfan import qlinalg

    calls = []
    init = qlinalg.NilpotentPowers.__init__
    monkeypatch.setattr(qlinalg.NilpotentPowers, "__init__", lambda self, n: calls.append(n) or init(self, n))
    counts, rays = [], []
    for window in (1, 3):
        calls.clear()
        spec = write_spec(tmp_path, f"w{window}.json", fixture="jordan3", window=window)
        code, report = run_json(capsys, "check", "--spec", spec, "--suite", "gamma")
        assert code == 0
        counts.append(len(calls))
        rays.append(sum(c["name"] == "ray-integral-exponential" for c in report["checks"]))
    assert rays[0] < rays[1]
    assert counts[0] == counts[1]

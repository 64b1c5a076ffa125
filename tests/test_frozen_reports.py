"""Report bytes pinned across commits.

test_deterministic_reports only compares two runs of the same code;
these sha256 digests were taken from the reports of an earlier commit,
so a refactor that changes any byte of these reports fails here.  The
rmf digests pin the constructed relative filtration, the existence
witness and the verdict of the axiom certificate.
"""

import hashlib
import json

import pytest

from relfan.cli import main

BASE = {"window": 2, "corpus": 40, "seed": 7}
CHECK = {suite: ["check", "--suite", suite] for suite in ("axioms", "gamma", "completeness", "relations", "gallery")}

# frame lattices with no vector of e-coordinate one beside e in their
# basis: L = inner lattice + Z x0 with x0 != e
ELLIPTIC_MIXED = [["1", "0", "0"], ["0", "1", "0"], ["1/3", "2/3", "1/3"], ["0", "0", "1"]]
JORDAN3_MIXED = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["1/2", "0", "1/2", "1/2"],
                 ["0", "0", "0", "1"]]

FROZEN = [
    ("elliptic", {}, ["build"], "ea95f234b0acc38a0ad3396e002366b368a47e7550f36826f8af460b67cde2d1"),
    ("elliptic", {}, CHECK["axioms"], "cc09ffc73f27bce97f01da3fc5aa8a8d696ecf24b52cfb8deddc3c3cc0c7b559"),
    ("elliptic", {}, CHECK["gamma"], "7abe61c4918f373610fd977022a30ad4e2f65e0dd146e7bab66fbdccd32328cc"),
    ("elliptic", {}, CHECK["completeness"], "8e3510fb8650ca75570a0992664788551535b63c52515436b37f2046d0b32c8a"),
    ("elliptic", {}, CHECK["relations"], "07e8fc5e9ce5cd74dc59d64715513579fc571077be215ce32351a3bbace1ddb6"),
    ("jordan3", {}, ["build"], "47a76a046f09563e1611d6833d8b15420a09670d6d60fc07ca7f91e4899e592a"),
    ("jordan3", {}, CHECK["axioms"], "8577edad28c86bd16219f346794c2e1963bb5a61822a936e1abbb2d951669878"),
    ("jordan3", {}, CHECK["gamma"], "11c6bcb0aa8c86706165b3b471260d7799fece5563f3e71a7573fa1193af4801"),
    ("jordan3", {}, CHECK["completeness"], "91504765fef5ec605df3771ecf12d6d8b59a75303d067c519713697d53b6dc49"),
    ("jordan3", {}, CHECK["relations"], "b79547786d2baaa2e00d490c94218793d6c0cad9fee81b172effc1ea9b2f6336"),
    ("elliptic", {"fan": "cube-cells"}, ["build"],
     "b96d4c470fc33349d9eb3d429547637f3d0a46fea5e52d07b333ae3779fa755e"),
    ("jordan3", {"corrupt": "drop-faces"}, ["build"],
     "70b98956af872a3ae1ca76984eeecedf73b56e6f423839afda31cd2f4f1bb5d1"),
    ("jordan3", {"corrupt": "drop-faces"}, CHECK["axioms"],
     "b5b7a9b4c4af7d00a2efb412bb0de8f8894780150bdcbc897aea73f291c6338a"),
    ("jordan3", {"corrupt": "half-cell"}, ["build"],
     "0fb77ab6fa7007e08e8089b3eb34b5e08b9362090faf0d99977944908b48a2e6"),
    ("jordan3", {"corrupt": "half-cell"}, CHECK["axioms"],
     "7f92dc75256fa9d35f96898db18bed5cd5317e8c7144743a1e06bd05821fc11f"),
    # the rank-6 chart of the rank twenty frame, 730 window faces
    ("triple", {"window": 0}, ["build"],
     "b5803f5c10a08024f4eccc34e269c1f994cdd4febe3712f0d0d7ebc4c0d6f645"),
    ("triple", {"window": 0}, CHECK["gamma"],
     "083c2911ed8599cbbe96c8b45c86ece82ccf3956e93776aaeef08adacfcf2565"),
    ("triple", {"window": 0}, CHECK["completeness"],
     "835d693792c90b1602eb5fb430039d1d4b587c5c581a1c6689f0061756815219"),
    ("triple", {"window": 0}, CHECK["relations"],
     "f778871e28c12b32b2ec14c325db9869bb26e363d2ab4b9b631edf00357217b4"),
    # the gallery suite ignores the frame; the spec enters through spec_hash
    ("triple", {"window": 0}, CHECK["gallery"],
     "3e37dcc93f824ac4d507abcda8d7948c3ab53b748ae593fb717049481e9c3089"),
    ("triple", {"window": 0, "corrupt": "drop-faces"}, CHECK["axioms"],
     "8e108a1d92b01042f1ee3d360fed530982fe78e72ac0aa282180360614661b99"),
    ("triple", {"window": 0, "corrupt": "half-cell"}, CHECK["axioms"],
     "d42f2af509b69ac0b65e6edbfb19b7287a6c2882888855b5657a7b10cec182bd"),
    ("triple", {"window": 0, "corrupt": "half-cell"}, ["build"],
     "612a682afb1ec4f6fcecc23c8f50301be8cd22418bbcb2a660d174237f8f767f"),
    # the ray fans, as operator space cones before they were vertex symbols
    ("jordan3", {"fan": "image-rays"}, ["build"],
     "bed3adb13e8d987848f52ed2cb3e73c3ad3c2de21cfb2a7952dacfdca41224f5"),
    ("jordan3", {"fan": "image-rays"}, CHECK["axioms"],
     "e69fe0afdbd8a4961356da689b15f76060be3b9d80c863f40315458e4f00e388"),
    ("jordan3", {"fan": "neron-rays"}, ["build"],
     "6e11f696a03fc7c583d4dff89d559b70cfa721b4535fa51a959293131b78fc1a"),
    ("jordan3", {"fan": "neron-rays"}, CHECK["axioms"],
     "13a727d72f455ff1eac0c22e2f6f027128eef00cfd3a7c2dcdae5687358a9861"),
    # 730 rays of the rank-6 image lattice chart
    ("triple", {"window": 1, "fan": "image-rays"}, ["build"],
     "94bb9bf312fc814d6ddf005e629f75fbaecdb515df25f04e937c141ddac7f3a0"),
    # ray exponents 3 and 1 on elliptic, 2 on jordan3
    ("elliptic", {"lattice": ELLIPTIC_MIXED}, CHECK["gamma"],
     "12459681b336b88425efa5fcc4a76d01fab61fa98797087aee1a04319011f286"),
    ("jordan3", {"lattice": JORDAN3_MIXED}, CHECK["gamma"],
     "5c0ceb201a7e7181bf25f49b77bedf086ddb6134b8ad09e1d8f3bae8769f37d6"),
]


def _label(fields):
    return "-".join("mixed-lattice" if k == "lattice" else str(v) for k, v in fields.items()) or "plain"


@pytest.mark.parametrize(
    "fixture,fields,argv,digest",
    FROZEN,
    ids=[f"{f}-{_label(x)}-{a[-1]}" for f, x, a, _ in FROZEN],
)
def test_report_bytes_frozen(tmp_path, capsys, fixture, fields, argv, digest):
    # the spec bytes enter the report through spec_hash, so they are
    # written exactly as when the digests were taken
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"fixture": fixture, **BASE, **fields}))
    main([argv[0], "--spec", str(spec), *argv[1:]])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gallery_bundle_bytes_frozen(capsys):
    assert main(["gallery", "triple"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "0c50e7bfd289d6492ff59fc0db27b8a0372a6d5bba8a16dfa2298c00bffa5f0f"


TRIPLE_IMAGE = ["0", "0", "1", "0", "0", "0", "1", "0", "1", "0", "1", "0", "1", "0", "0", "0", "1", "0", "0", "0"]
JORDAN3_OFF_PENCIL = [["2", "1", "0", "1"], ["-2", "0", "1", "0"], ["0", "-2", "-2", "-2"], ["0", "0", "0", "0"]]

# (fixture, operator file, sha256 of the rmf report): on each fixture one
# pencil operator whose relative filtration exists and one whose does
# not, and on jordan3 a nilpotent isometry off the pencil (not a
# multiple of log gamma) whose filtration exists; TRIPLE_IMAGE is
# log(gamma) applied to (1, ..., 1)
FROZEN_RMF = [
    ("elliptic", {"e_image": ["1", "0"]}, "6a0696fdc0fa7efc9d8c026b06f138cdcf230cd80f3a2a2dbb48f0961ec485d4"),
    ("elliptic", {"e_image": ["0", "1"]}, "6251b823e8ca31bee114a6ab8ed79fa8141f96e300b88537df34043c4fc7d046"),
    ("jordan3", {"e_image": ["0", "1", "0"]}, "a66a0f47fb3933dac47c82f65d81c031644b4dde173c6726049680aabe5a83f1"),
    ("jordan3", {"e_image": ["0", "0", "1"]}, "da17c4ea9b8af3c2a3d4d72c6b3203db2d1b8d8e71ad737b0716255804b7dfb2"),
    ("jordan3", {"matrix": JORDAN3_OFF_PENCIL}, "08a4c75ac0d50b91ab7c9d162bb7ba341350910491fa8426bdd10c99984f1d26"),
    ("triple", {"e_image": TRIPLE_IMAGE}, "6bddbd0a643a1d4912fd8f185ee0a484bf55370f2d31b62c9412d5ebbabfed42"),
    ("triple", {"e_image": ["1"] + ["0"] * 19}, "271e2ad10e322e8eec5bb15a2deafaa7a1aad9f7b500fad434a7563055bdac13"),
]


@pytest.mark.parametrize(
    "fixture,operator,digest",
    FROZEN_RMF,
    ids=["elliptic-exists", "elliptic-absent", "jordan3-exists", "jordan3-absent", "jordan3-off-pencil",
         "triple-exists", "triple-absent"],
)
def test_rmf_report_bytes_frozen(tmp_path, capsys, fixture, operator, digest):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"fixture": fixture, **BASE}))
    n_data = tmp_path / "n.json"
    n_data.write_text(json.dumps(operator))
    assert main(["rmf", "--spec", str(spec), "--n-data", str(n_data)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

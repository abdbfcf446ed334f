"""Golden digests of the CLI's reports.

Each case runs one subcommand and pins the sha256 of its report bytes and its
exit code, so any change to the report format shows here.  The inputs are the
fixtures in ``tests/fixtures/`` and small documents written to ``tmp_path``;
together they reach the report paths the benchmark manifest does not gate:
obstructions, failed memberships with a direction and with an irrational
distance, Rademacher test rows, information reports, purification inside
``solve`` and belief violations.
"""

import hashlib
import json
from pathlib import Path

import pytest

from condexp.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return json.loads((FIXTURES / name).read_text())


def rich_outside():
    # h = 2 lies outside the attainable interval [0, 1] of rich_F01
    doc = fixture("rich_F01.json")
    doc["h"] = {"dim": 1, "values": {"c": [{"upto": "1", "v": ["2"]}]}}
    return doc


def rich_dim4_outside():
    # one rich cell in dimension 4; h = (1, 1, 1, 1) lies at squared distance
    # 5/3 from the hull, so the reported distance is a float
    vertices = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0)]
    cell = {"id": "c", "kind": "rich", "mass": "1", "g_block": "g"}
    branches = [
        {"dim": 4, "values": {"c": [{"upto": "1", "v": [str(x) for x in v]}]}}
        for v in vertices
    ]
    h = {"dim": 4, "values": {"c": [{"upto": "1", "v": ["1"] * 4}]}}
    return {"correspondence": {"space": {"cells": [cell]}, "branches": branches}, "h": h}


def rademacher_tests():
    doc = fixture("saturated.json")
    doc["tests"] = [
        {"dim": 1, "values": {"D": [{"upto": "1/2", "v": ["1"]}, {"upto": "1", "v": ["0"]}]}},
        {"dim": 1, "values": {"D": [{"upto": "1/3", "v": ["1"]}, {"upto": "1", "v": ["-2"]}]}},
    ]
    return doc


def uhc_rich_block():
    # D is rich and shares its block with a rich and a point cell
    cells = [
        {"id": "D", "kind": "rich", "mass": "1/3", "g_block": "g"},
        {"id": "r", "kind": "rich", "mass": "1/4", "g_block": "g"},
        {"id": "p", "kind": "point", "mass": "5/12", "g_block": "g"},
    ]
    return {"cell": "D", "space": {"cells": cells}}


def audit_violations():
    # f plays action 0 surely, g plays action 1: a belief violation on t1
    doc = fixture("mp_audit.json")
    doc["f"][0] = {"type": "behavioral", "plan": {"t1": [{"upto": "1", "w": ["1", "0"]}]}}
    doc["g"][0] = {
        "type": "pure",
        "plan": {"t1": [{"upto": "1/2", "action": 0}, {"upto": "1", "action": 1}]},
    }
    doc["deviations"] = [[doc["f"][0], doc["g"][0]], [doc["f"][1]]]
    return doc


def audit_residuals():
    # g keeps player 0's block totals but moves player 1's, so player 0's
    # deviations see different opponents under f and under g: nonzero strong
    # residuals for player 0 and zero ones for player 1
    doc = fixture("mp_audit.json")
    doc["g"][0] = {
        "type": "pure",
        "plan": {"t1": [{"upto": "1/2", "action": 0}, {"upto": "1", "action": 1}]},
    }
    doc["g"][1] = {
        "type": "pure",
        "plan": {"t2": [{"upto": "1/4", "action": 0}, {"upto": "1", "action": 1}]},
    }
    piecewise = {
        "type": "behavioral",
        "plan": {"t1": [{"upto": "1/3", "w": ["1", "0"]}, {"upto": "1", "w": ["1/2", "1/2"]}]},
    }
    late = {
        "type": "pure",
        "plan": {"t1": [{"upto": "3/4", "action": 1}, {"upto": "1", "action": 0}]},
    }
    doc["deviations"] = [[piecewise, late, doc["f"][0]], [doc["f"][1], doc["g"][1]]]
    return doc


# id -> (argv, builder of the document written as doc.json or None)
CASES = {
    "g-atom": ("g-atom saturated.json", None),
    "condexp-set-member": ("condexp-set rich_F01.json", None),
    "condexp-set-saturated": ("condexp-set saturated.json", None),
    "condexp-set-union": ("condexp-set mixed_block.json", None),
    "condexp-set-direction": ("condexp-set doc.json", rich_outside),
    "condexp-set-irrational": ("condexp-set doc.json", rich_dim4_outside),
    "convexify-witness": ("convexify rich_F01.json --alpha 1/4", None),
    "convexify-obstruction": ("convexify point_block.json --alpha 1/2", None),
    "rademacher": ("rademacher saturated.json --m 3", None),
    "rademacher-tests": ("rademacher doc.json --m 4", rademacher_tests),
    "uhc-audit": ("uhc-audit saturated.json --depth 5", None),
    "uhc-audit-d16": ("uhc-audit saturated.json --depth 16", None),
    "uhc-audit-rich-block-d16": ("uhc-audit doc.json --depth 16", uhc_rich_block),
    "rademacher-tests-m16": ("rademacher doc.json --m 16", rademacher_tests),
    "derive-info": ("derive-info saturated_game.json", None),
    "coarser-check-pass": ("coarser-check mp_game.json", None),
    "coarser-check-fail": ("coarser-check saturated_game.json", None),
    "solve-purify": ("solve mp_game.json --purify", None),
    "solve-purify-obstruction": ("solve saturated_game.json --purify", None),
    "solve-br": ("solve saturated_game.json --method br --max-iters 0", None),
    "purify": ("purify mp_purify.json --samples 3", None),
    "purify-obstruction": ("purify saturated_game.json", None),
    "audit-equivalence": ("audit-equivalence mp_audit.json", None),
    "audit-equivalence-violations": ("audit-equivalence doc.json", audit_violations),
    "audit-equivalence-residuals": ("audit-equivalence doc.json", audit_residuals),
    "pennies": ("pennies --m 2 --budget 1 --grid 4", None),
    "pennies-m3": ("pennies --m 3 --variant independent-types --budget 1 --grid 3", None),
    "pennies-fail": ("pennies --m 2 --budget 1 --grid 4 --epsilon 1", None),
}

# id -> (exit code, sha256 of the report), recorded before the report
# encoder was unified
DIGESTS = {
    "g-atom": (0, "3043b3f4bed624c4b61964f8d5449082ce5bf4823c8dacd13c6b40d944a6f0a7"),
    "condexp-set-member": (0, "b88c8303c9d1d9ec61d3efc7626172eae128a12e4b04d5677bc0f2732638415b"),
    "condexp-set-saturated": (2, "eb4e81b43ac53f245be905eb273d30ed5681cddd8d6b972aa8505cff2d9a2dba"),
    "condexp-set-union": (0, "d80341e838b7a82f600438c1f0980f8af96cfcc44059f4fe995abe7f1af0cb2b"),
    "condexp-set-direction": (2, "cfac4f5cb53bb68dfdcf9fbbfa06d03af5b68befd8291cce90f88641403166ac"),
    "condexp-set-irrational": (2, "297928887261e97d9cab39e177a69f157c070f1463b330b38f531389fbb3775e"),
    "convexify-witness": (0, "9221b3ca87de7ba4d96de8d8f28fa285f663f1da8ce7fac5ebc7b805b319eaca"),
    "convexify-obstruction": (2, "787ee12b40af2cb59263dcb7b965edfd644629d2fda415e7abb80fc0f5d33030"),
    "rademacher": (0, "780bc0d0dda1901d9a8749ef691fe2a4026152d6dcba7eccc33b68f491b71828"),
    "rademacher-tests": (0, "8ad30d710e8ee38c692aa769ae099fdb4faf2ff996f4faad8eaab259b73abe76"),
    "uhc-audit": (0, "dcf1ec34a5f9527553e779cb91730e0ef4c350aad127e3f95492e8871ed32399"),
    # the three at the level cap recorded before the dyadic integer lane
    "uhc-audit-d16": (0, "b2d14fed3c9095436758aa5cded490082006db954fb4efd4c2528358e5f97ee0"),
    "uhc-audit-rich-block-d16": (0, "1fdd8905615f4f0ff55331a30fbbcf532728cbd8138cf46029496f6711f819d0"),
    "rademacher-tests-m16": (0, "8bda4d403a5d6ee15d09457c1448e1325f6be43143f966bc86187e2d97f4cc72"),
    "derive-info": (0, "e58fab9cec44acff1230f7c310234c2e615760649fe07fdb1b02cc77ef93ef65"),
    "coarser-check-pass": (0, "e42a19e724a4d509fb7d65040049fe7de3fde4d22a7111cd85dc278955628607"),
    "coarser-check-fail": (2, "1e0495900f4c0171db99cfed7912572fc3a6cf47a06c8ba88f55ef80f9277324"),
    "solve-purify": (0, "1ed696f430eacd86ec85c2cb9816cc89c4f6e4ec224068c84656350fe30eaa16"),
    "solve-purify-obstruction": (2, "25eefc154825003c2dc13a9edbd7a83b0c521f9f92683fbd31bba9084427e36a"),
    "solve-br": (0, "f6b9111dfe0acbd0fd33aedbc03e4a71310f0be795c29a659cf346c5f6b5d1c9"),
    "purify": (0, "529323ee27d1fada0f8bc9ed7d1735b598140c90f19b3b946cc044a08af2bfd6"),
    "purify-obstruction": (2, "9c8fd1bca49983d36dbe90afcab03ffc27422e63d4415f36ccac3c08f1576ab0"),
    "audit-equivalence": (0, "375a1fdde73bc1a89d3dcefbfec20c72be8fcb704e081867b2aeb72ea7c4b4dd"),
    "audit-equivalence-violations": (2, "c9baede4da6fbfed6d98f9e0990bdd7ddcfdecfd581eb7491550040799fde892"),
    # recorded before the audit took strong residuals against difference forms
    "audit-equivalence-residuals": (2, "b85aa161c77f426bf0467571572dc7481a46ecfe1e32363c9594735353adce36"),
    "pennies": (0, "66d2b8e7c89aab1114e4e0b2eb9d9e1f278de9df1903828ca9ed7cb44e57928b"),
    "pennies-m3": (0, "f0d8fa268b4f340e7e8a312c80813f2b401538172b2a45c54125ed332c60d2d4"),
    "pennies-fail": (2, "1b59a045c6a81f9a834613243ac406c14024a7c328ce5bdb00d59da5e0202e7e"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(capsys, tmp_path, case):
    argv, build = CASES[case]
    if build is not None:
        (tmp_path / "doc.json").write_text(json.dumps(build()))
    folders = {"doc.json": tmp_path}
    argv = [
        str(folders.get(a, FIXTURES) / a) if a.endswith(".json") else a for a in argv.split()
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (code, hashlib.sha256(captured.out.encode()).hexdigest()) == DIGESTS[case]

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from condexp.cli import main
from condexp.serialize import dump_game

from game_factories import random_dominance_game

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_g_atom_saturated(self, capsys):
        code, out = run(capsys, "g-atom", FIXTURES / "saturated.json")
        assert code == 0
        report = json.loads(out)
        assert report == {"has_g_atom": True, "witness": "D"}

    def test_g_atom_rich(self, capsys):
        code, out = run(capsys, "g-atom", FIXTURES / "rich_F01.json")
        # the fixture's correspondence carries the space
        assert code == 1  # no top-level space key -> schema error
        # provide the embedded space instead
        doc = json.loads((FIXTURES / "rich_F01.json").read_text())
        tmp = FIXTURES / "_rich_space.json"
        tmp.write_text(json.dumps({"space": doc["correspondence"]["space"]}))
        try:
            code, out = run(capsys, "g-atom", tmp)
            assert code == 0
            assert json.loads(out) == {"has_g_atom": False, "witness": None}
        finally:
            tmp.unlink()

    def test_condexp_set_membership_pass(self, capsys):
        code, out = run(capsys, "condexp-set", FIXTURES / "rich_F01.json")
        assert code == 0
        report = json.loads(out)
        assert report["membership"]["member"] is True
        assert report["blocks"]["g"]["polytopes"] == [[["0"], ["1"]]]

    def test_condexp_set_membership_fail(self, capsys):
        code, out = run(capsys, "condexp-set", FIXTURES / "saturated.json")
        assert code == 2
        report = json.loads(out)
        assert report["membership"]["member"] is False
        assert report["membership"]["certificate"]["distance"] == "1/2"

    def test_convexify_witness(self, capsys):
        code, out = run(
            capsys, "convexify", FIXTURES / "rich_F01.json", "--alpha", "1/4"
        )
        assert code == 0
        report = json.loads(out)
        assert report["identity_verified"] is True
        assert report["selection"]["c"] == [
            {"upto": "1/4", "branch": 0},
            {"upto": "1", "branch": 1},
        ]

    def test_convexify_obstruction(self, capsys):
        code, out = run(
            capsys, "convexify", FIXTURES / "point_block.json", "--alpha", "1/2"
        )
        assert code == 2
        report = json.loads(out)
        assert report["obstruction"]["cell"] == "p"

    def test_rademacher(self, capsys):
        code, out = run(
            capsys, "rademacher", FIXTURES / "saturated.json", "--m", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert report["integral"] == "1/2"
        assert report["limit_escape_certificate"] == "1/2"

    def test_uhc_audit(self, capsys):
        code, out = run(capsys, "uhc-audit", FIXTURES / "saturated.json")
        assert code == 0
        report = json.loads(out)
        assert report["limit_in_H0"] is False
        assert report["defect"] == "1/2"

    def test_derive_info_and_coarser(self, capsys):
        code, out = run(capsys, "derive-info", FIXTURES / "mp_game.json")
        assert code == 0
        report = json.loads(out)
        assert report["players"][0]["blocks"] == [[0]]
        code, out = run(capsys, "coarser-check", FIXTURES / "mp_game.json")
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_solve_with_purify(self, capsys):
        code, out = run(
            capsys, "solve", FIXTURES / "mp_game.json", "--purify"
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "lp"
        assert report["value"] == "0"
        assert report["eps"] == ["0", "0"]
        assert report["purified"]["eps"] == ["0", "0"]

    def test_purify_subcommand(self, capsys):
        code, out = run(capsys, "purify", FIXTURES / "mp_purify.json")
        assert code == 0
        report = json.loads(out)
        assert report["all_zero"] is True
        assert report["profile"][0]["type"] == "pure"

    def test_audit_equivalence(self, capsys):
        code, out = run(capsys, "audit-equivalence", FIXTURES / "mp_audit.json")
        assert code == 0
        assert json.loads(out)["all_zero"] is True

    def test_pennies(self, capsys, tmp_path):
        csv_path = tmp_path / "weights.csv"
        code, out = run(
            capsys,
            "pennies",
            "--m",
            "2",
            "--budget",
            "1",
            "--grid",
            "4",
            "--epsilon",
            "1/100",
            "--csv",
            csv_path,
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "l2,w1,w2"
        assert len(lines) == 100

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "--m 2 --variant type-irrelevant --budget 2 --grid 8 --epsilon 1/100",
                "6414ec001be30ffbde0aee64e84a3e39b3ea4d82303e12e544371e625a0fa01c",
            ),
            (
                "--m 3 --variant independent-types --budget 3 --grid 16 --samples 7 --seed 2",
                "c32edd090b55be0318667300c33916048525e8fc00eeebca34a7a219d31cf252",
            ),
        ],
        ids=["readme", "sampled"],
    )
    def test_pennies_csv_bytes_are_pinned(self, capsys, tmp_path, argv, digest):
        # the conditional weights of the reported strategy, read off its actions view
        csv_path = tmp_path / "weights.csv"
        run(capsys, "pennies", *argv.split(), "--csv", csv_path)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    def test_input_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "g-atom", bad)
        assert code == 1
        missing_mass = tmp_path / "missing.json"
        missing_mass.write_text(json.dumps({"cells": [{"id": "a", "kind": "rich"}]}))
        code, _ = run(capsys, "g-atom", missing_mass)
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("g-atom", "saturated.json"),
            ("condexp-set", "rich_F01.json"),
            ("convexify", "rich_F01.json", "--alpha", "2/5"),
            ("rademacher", "saturated.json", "--m", "4"),
            ("uhc-audit", "saturated.json"),
            ("derive-info", "mp_game.json"),
            ("coarser-check", "mp_game.json"),
            ("solve", "mp_game.json", "--purify"),
            ("purify", "mp_purify.json"),
            ("audit-equivalence", "mp_audit.json"),
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2

    def test_pennies_repeat_identical(self, capsys):
        argv = ("pennies", "--m", "2", "--budget", "1", "--grid", "4")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2

    def test_pennies_seed_drives_the_sample(self, capsys):
        # 16-grid strategies with at most 3 changes exceed the 600 cap, so the
        # scan is a seeded sample
        argv = ("pennies", "--m", "2", "--budget", "3", "--grid", "16")
        _, default = run(capsys, *argv)
        _, seed0 = run(capsys, *argv, "--seed", "0")
        _, seed1 = run(capsys, *argv, "--seed", "1")
        assert seed0 == default
        assert json.loads(default)["exhaustive"] is False
        assert json.loads(seed1)["argmin"] != json.loads(seed0)["argmin"]


class TestPenniesGuard:
    @pytest.mark.parametrize("m", ["2", "3"])
    def test_largest_advertised_request_finishes(self, capsys, m):
        # budget 8 on the 64-grid: about 9.0e9 (m=2) and 3.2e12 (m=3) strategies,
        # sampled by index without building the family
        code, out = run(capsys, "pennies", "--m", m, "--budget", "8", "--grid", "64")
        report = json.loads(out)
        assert code == 0
        assert report["exhaustive"] is False
        assert report["strategies"] == 600
        assert report["passed"] is True

    @pytest.mark.parametrize("flag, value", [("--budget", "-1"), ("--grid", "0")])
    def test_empty_family_is_an_input_error(self, capsys, flag, value):
        code = main(["pennies", flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"input error: {flag[2:]}: ")


class TestRoundTrip:
    def test_emitted_selection_reloads(self, capsys):
        code, out = run(
            capsys, "convexify", FIXTURES / "rich_F01.json", "--alpha", "3/7"
        )
        assert code == 0
        report = json.loads(out)
        from condexp import serialize
        from condexp.correspondences import selection_value

        doc = json.loads((FIXTURES / "rich_F01.json").read_text())
        F = serialize.load_correspondence(doc["correspondence"])
        s = serialize.load_selection(report["selection"], F.space)
        selection_value(F, s)  # validates against the correspondence

    def test_emitted_profile_reloads(self, capsys):
        code, out = run(capsys, "solve", FIXTURES / "mp_game.json")
        assert code == 0
        report = json.loads(out)
        from condexp import serialize
        from condexp.equilibrium import verify_equilibrium

        doc = json.loads((FIXTURES / "mp_game.json").read_text())
        game = serialize.load_game(doc["game"])
        profile = [
            serialize.load_strategy(sd, spec)
            for sd, spec in zip(report["profile"], game.players)
        ]
        assert verify_equilibrium(game, profile) == (0, 0)


class TestAdditionalPaths:
    def test_union_region_report(self, capsys):
        code, out = run(capsys, "condexp-set", FIXTURES / "mixed_block.json")
        assert code == 0
        report = json.loads(out)
        # point cell makes the region a union of two intervals
        assert report["blocks"]["g"]["polytopes"] == [
            [["0"], ["1/2"]],
            [["1/2"], ["1"]],
        ]
        assert report["membership"]["member"] is True  # 7/8 lies in [1/2, 1]

    def test_float_mode_solve_runs_best_response(self, capsys):
        # --mode float leaves --method auto alone, so the zero-sum game keeps
        # the exact LP; best response runs only when --method br asks for it
        # (on two players the damped run misses and the support search
        # seeded by it finds the equilibrium)
        code, out = run(capsys, "solve", FIXTURES / "mp_game.json", "--mode", "float")
        assert code == 0
        report = json.loads(out)
        assert (report["method"], report["converged"]) == ("lp", True)
        code, exact = run(capsys, "solve", FIXTURES / "mp_game.json")
        assert json.loads(exact) == report
        code, out = run(
            capsys, "solve", FIXTURES / "mp_game.json", "--mode", "float", "--method", "br"
        )
        assert code == 0
        report = json.loads(out)
        assert (report["method"], report["iterations"], report["converged"]) == ("enum", 4001, True)

    def test_float_mode_membership_tolerance(self, capsys, tmp_path):
        # nudge h off the region by far less than 1e-9; float mode accepts
        doc = json.loads((FIXTURES / "point_block.json").read_text())
        doc["h"] = {
            "dim": 1,
            "values": {"p": [str(Fraction(1) + Fraction(1, 10**12))]},
        }
        fixture = tmp_path / "near.json"
        fixture.write_text(json.dumps(doc))
        code, out = run(capsys, "condexp-set", str(fixture), "--mode", "float")
        assert code == 0
        assert json.loads(out)["membership"]["member"] is True
        code, out = run(capsys, "condexp-set", str(fixture))
        assert code == 2

    def test_purify_obstruction_exit(self, capsys):
        code, out = run(capsys, "purify", FIXTURES / "saturated_game.json")
        assert code == 2
        report = json.loads(out)
        assert "obstruction" in report

    @pytest.mark.parametrize("fixture, want", [("mp_game.json", 0), ("saturated_game.json", 2)])
    def test_solve_purify_derives_information_once(self, capsys, monkeypatch, fixture, want):
        from condexp import games

        calls = []
        derive = games.derive_interplayer_info

        def counted(game):
            calls.append(game)
            return derive(game)

        monkeypatch.setattr(games, "derive_interplayer_info", counted)
        code, out = run(capsys, "solve", FIXTURES / fixture, "--purify")
        assert code == want
        assert len(calls) == 1
        if fixture == "saturated_game.json":
            assert json.loads(out)["purified"] == {
                "obstruction": {
                    "alpha": None,
                    "cell": "unit t1[0] is saturated",
                    "distance": None,
                    "reason": "coarser information fails",
                }
            }

    def test_solve_reports_coarser_flags(self, capsys):
        code, out = run(capsys, "solve", FIXTURES / "saturated_game.json")
        report = json.loads(out)
        assert report["coarser"] == [False, True]

    def test_id_less_cells_of_one_player_get_distinct_ids(self, capsys, tmp_path):
        # a missing id defaulted to t<player> for every cell of the player, so
        # two id-less cells clashed: "cell ids must be unique", exit 1
        doc = json.loads((FIXTURES / "mp_game.json").read_text())
        game = doc["game"]
        game["players"][0]["cells"] = [{"grid": ["1"], "mass": "1/2"}] * 2

        def both_units(entries):
            return entries + [{**e, "units": [1, 0]} for e in entries]

        game["density"] = both_units(game["density"])
        for rows in game["payoffs"]:
            for row in rows:
                row["entries"] = both_units(row["entries"])
        path = tmp_path / "id_less.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "solve", path)
        assert code == 0
        assert list(json.loads(out)["profile"][0]["plan"]) == ["t0", "t0_1"]

    @pytest.mark.parametrize("method", ["lp", "enum"])
    def test_two_player_method_on_three_players_is_an_input_error(self, capsys, tmp_path, method):
        # was a ValueError traceback where the agent form's action counts
        # were unpacked as two
        path = tmp_path / "game3.json"
        path.write_text(json.dumps({"game": dump_game(random_dominance_game(random.Random(1), 3))}))
        code = main(["solve", str(path), "--method", method])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"input error: --method: {method} needs two players, the game has 3\n"


    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize(
        "target, reason",
        [("missing/x", "No such file or directory"), ("", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path, flag, target, reason):
        # both writes opened their file unguarded: a FileNotFoundError or an
        # IsADirectoryError traceback
        path = tmp_path / target
        if flag == "--out":
            argv = ["g-atom", FIXTURES / "saturated.json"]
        else:
            argv = ["pennies", "--budget", "1", "--grid", "4"]
        code = main([str(a) for a in [*argv, flag, path]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"input error: {flag}: cannot write {path}: {reason}\n"
        assert "Traceback" not in captured.err

def dim4_fixture(tmp_path, kind, vertices, **extra):
    """One-cell block g in dimension 4 with one constant branch per vertex."""
    def value(v):
        vec = [str(x) for x in v]
        return [{"upto": "1", "v": vec}] if kind == "rich" else vec

    doc = {
        "correspondence": {
            "space": {"cells": [{"id": "c", "kind": kind, "mass": "1", "g_block": "g"}]},
            "branches": [{"dim": 4, "values": {"c": value(v)}} for v in vertices],
        },
        **extra,
    }
    fixture = tmp_path / f"{kind}4.json"
    fixture.write_text(json.dumps(doc))
    return fixture


class TestHighDimensionCertificates:
    def test_outside_point_gets_a_certificate_in_both_modes(self, capsys, tmp_path):
        h = {"dim": 4, "values": {"c": [{"upto": "1", "v": ["1", "1", "1", "1"]}]}}
        fixture = dim4_fixture(tmp_path, "rich", [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0)], h=h)
        code, out = run(capsys, "condexp-set", fixture)
        assert code == 2
        report = json.loads(out)
        assert report["blocks"]["g"]["polytopes"] is None
        cert = report["membership"]["certificate"]
        # nearest point (1/3, 2/3, 2/3, 0); squared distance 5/3 is not a square
        assert cert["direction"] == ["2/3", "1/3", "1/3", "1"]
        assert cert["distance"] == pytest.approx((5 / 3) ** 0.5, abs=1e-15)
        code, out_float = run(capsys, "condexp-set", fixture, "--mode", "float")
        assert code == 2
        assert out_float == out

    def test_convexify_obstruction_carries_its_defect(self, capsys, tmp_path):
        fixture = dim4_fixture(
            tmp_path, "point", [(0, 0, 0, 0), (1, 0, 0, 0)], s1={"c": 0}, s2={"c": 1}
        )
        code, out = run(capsys, "convexify", fixture, "--alpha", "1/2")
        assert code == 2
        assert json.loads(out)["obstruction"]["distance"] == "1/2"


class TestAuditEquivalenceInput:
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("key", ["f", "g", "deviations"])
    def test_wrong_length_is_an_input_error(self, capsys, tmp_path, key, rows):
        doc = json.loads((FIXTURES / "mp_audit.json").read_text())
        given = [doc["f"][0], doc["f"][1], doc["f"][0]][:rows]  # two players
        doc[key] = [[s] for s in given] if key == "deviations" else given
        fixture = tmp_path / "wrong.json"
        fixture.write_text(json.dumps(doc))
        code = main(["audit-equivalence", str(fixture)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {key}: one strategy per player required\n"

    @pytest.mark.parametrize(
        "key, given, err",
        [
            ("f", 1000000, "f: expected list, got int"),  # was a TypeError from len
            ("deviations", [5, 6], "deviations[0]: expected list, got int"),  # int not iterable
            ("f", {"a": 1, "b": 2}, "f: expected list, got dict"),  # was reported at f[0]
            # falsy non-lists were read as no samples
            ("deviations", {}, "deviations: expected list, got dict"),
            ("deviations", 0, "deviations: expected list, got int"),
            ("deviations", "", "deviations: expected list, got str"),
            ("deviations", False, "deviations: expected list, got bool"),
        ],
        ids=[
            "f-int", "deviation-rows-int", "f-dict",
            "deviations-dict", "deviations-zero", "deviations-str", "deviations-false",
        ],
    )
    def test_list_shapes_are_input_errors(self, capsys, tmp_path, key, given, err):
        doc = json.loads((FIXTURES / "mp_audit.json").read_text())
        doc[key] = given
        fixture = tmp_path / "shape.json"
        fixture.write_text(json.dumps(doc))
        code = main(["audit-equivalence", str(fixture)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"

    def test_full_deviation_rows_are_audited(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "mp_audit.json").read_text())
        doc["deviations"] = [[doc["f"][0]], [doc["f"][1], doc["g"][1]]]
        fixture = tmp_path / "devs.json"
        fixture.write_text(json.dumps(doc))
        code, out = run(capsys, "audit-equivalence", fixture)
        assert code == 0
        assert json.loads(out)["strong_residuals"] == [["0"], ["0", "0"]]

    def test_empty_deviations_means_no_samples(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "mp_audit.json").read_text())
        _code, without = run(capsys, "audit-equivalence", FIXTURES / "mp_audit.json")
        for empty in ([], None):
            doc["deviations"] = empty
            fixture = tmp_path / "empty.json"
            fixture.write_text(json.dumps(doc))
            code, out = run(capsys, "audit-equivalence", fixture)
            assert code == 0
            assert out == without


def _entry_pair(first: dict, second: dict):
    """An edit that updates the first entry of player 0's first two payoff
    tables with ``first`` and ``second``."""

    def edit(doc):
        tables = doc["game"]["payoffs"][0]
        tables[0]["entries"][0].update(first)
        tables[1]["entries"][0].update(second)

    return edit


class TestLoaderInput:
    @staticmethod
    def purify_with(tmp_path, edit):
        doc = json.loads((FIXTURES / "mp_purify.json").read_text())
        edit(doc)
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps(doc))
        return main(["purify", str(fixture)])

    @pytest.mark.parametrize(
        "edit, err",
        [
            (
                lambda d: d["profile"][0]["plan"].update(t1=["1"]),
                "profile[0].plan[t1][0]: expected dict, got str",
            ),
            (
                lambda d: d["game"]["density"][0].update(units=["x", 0]),
                "game.density[0].units[0]: expected an integer, got 'x'",
            ),
            # a unit tuple holds ints only (True == 1 is refused) and is a
            # JSON list, on the density and on a payoff entry alike
            (
                lambda d: d["game"]["density"][0].update(units=[True, 0]),
                "game.density[0].units[0]: expected an integer, got True",
            ),
            (
                lambda d: d["game"]["density"][0].update(units="0,0"),
                "game.density[0].units: expected list, got str",
            ),
            (
                lambda d: d["game"]["density"][0].pop("units"),
                "game.density[0].units: expected list, got NoneType",
            ),
            (
                lambda d: d["game"]["payoffs"][0][0]["entries"][0].update(units=[0, True]),
                "game.payoffs[0][0].entries[0].units[1]: expected an integer, got True",
            ),
            (
                lambda d: d["game"]["payoffs"][0][0]["entries"][0].update(units={"0": 0}),
                "game.payoffs[0][0].entries[0].units: expected list, got dict",
            ),
            (
                lambda d: d["game"]["payoffs"][0][0].update(profile=[0, "1"]),
                "game.payoffs[0][0].profile[1]: expected an integer, got '1'",
            ),
            (
                lambda d: d["game"]["density"][0].update(units=[0.7, 0]),
                "game.density[0].units[0]: expected an integer, got 0.7",
            ),
            (
                lambda d: d["profile"].__setitem__(
                    0, {"type": "pure", "plan": {"t1": [{"upto": "1", "action": "a1"}]}}
                ),
                "profile[0].plan[t1][0].action: expected an integer, got 'a1'",
            ),
            (
                lambda d: d["game"]["players"][0]["cells"][0].update(point="no"),
                "game.players[0].cells[0].point: expected bool, got str",
            ),
            (
                lambda d: d["profile"].append({"type": "pure", "plan": {"zz": 7}}),
                "profile: one strategy per player required",
            ),
            (
                lambda d: d["profile"].pop(),
                "profile: one strategy per player required",
            ),
            # the rows below were accepted: a boolean coord read as player 0,
            # repeats where the last one won, and keys off the grid
            (
                lambda d: d["game"]["payoffs"][0][0]["entries"][0].update(slope="1", coord=False),
                "game.payoffs[0][0].entries[0].coord: expected an integer, got False",
            ),
            (
                lambda d: d["game"]["density"].append(dict(d["game"]["density"][0])),
                "game.density[1].units: repeats unit tuple (0, 0)",
            ),
            (
                lambda d: d["game"]["payoffs"][0][0]["entries"].append(
                    {"units": [0, 0], "const": "100"}
                ),
                "game.payoffs[0][0].entries[1].units: repeats unit tuple (0, 0)",
            ),
            (
                lambda d: d["game"]["payoffs"][1].append(dict(d["game"]["payoffs"][1][2])),
                "game.payoffs[1][4].profile: repeats action profile (1, 0)",
            ),
            (
                lambda d: d["game"]["density"].append({"units": [7, 7], "const": "0"}),
                "game.density[1].units: not a unit tuple",
            ),
            (
                lambda d: d["game"]["density"].append({"units": [0], "const": "0"}),
                "game.density[1].units: not a unit tuple",
            ),
            (
                lambda d: d["game"]["payoffs"][0].append(
                    dict(d["game"]["payoffs"][0][0], profile=[9, 9])
                ),
                "game.payoffs[0][4].profile: not an action profile",
            ),
            # a later entry equal to an earlier valid one up to a value's
            # type (True == 1 == 1.0) is checked on its own, at its own path
            (
                _entry_pair({"const": 1}, {"const": True}),
                "game.payoffs[0][1].entries[0].const: expected a rational like '3/4', got True",
            ),
            (
                _entry_pair({"const": 1}, {"const": 1.0}),
                "game.payoffs[0][1].entries[0].const: expected a rational like '3/4', got 1.0",
            ),
            (
                _entry_pair(
                    {"const": "1", "slope": "1", "coord": 1},
                    {"const": "1", "slope": "1", "coord": True},
                ),
                "game.payoffs[0][1].entries[0].coord: expected an integer, got True",
            ),
            # faults found while the game is built name the entry's JSON
            # path, or the game's own path under "game." where the document
            # has no such entry
            (
                lambda d: d["game"]["density"][0].update(const="-1"),
                "game.density[0].units: density must be nonnegative",
            ),
            (
                lambda d: d["game"]["payoffs"][0][1]["entries"][0].update(slope="1", coord=5),
                "game.payoffs[0][1].entries[0].units: bad affine coordinate",
            ),
            (
                lambda d: d["game"]["payoffs"][1][2]["entries"].pop(),
                "game.payoffs[1][(1, 0)][(0, 0)]: missing entry",
            ),
            (
                lambda d: d["game"]["density"][0].update(const="2"),
                "game.density: must integrate to 1, got 2",
            ),
            # player and cell faults name the player's or cell's JSON path
            (
                lambda d: d["game"]["players"][0]["cells"][0].update(mass="0"),
                "game.players[0].cells[0].mass: must be positive",
            ),
            (
                lambda d: d["game"]["players"][0]["actions"].__setitem__(1, "a1"),
                "game.players[0].actions: labels must be unique",
            ),
            (
                lambda d: d["game"]["players"][0]["cells"][0].update(grid=["1/2"]),
                "game.players[0].cells[0].grid: grid must end at 1",
            ),
        ],
        ids=["piece-not-object", "unit-not-integer", "density-unit-bool",
             "density-units-not-list", "density-units-missing", "payoff-unit-bool",
             "payoff-units-not-list", "profile-action-not-integer",
             "unit-float", "pure-action-not-integer", "point-not-bool",
             "profile-extra-entry", "profile-short", "coord-bool", "repeated-density-units",
             "repeated-payoff-units", "repeated-profile", "density-units-off-grid",
             "density-units-short", "profile-off-grid", "const-true-after-int",
             "const-float-after-int", "coord-true-after-int", "density-negative",
             "payoff-bad-coordinate", "payoff-entry-missing", "density-total",
             "cell-mass-zero", "action-labels-repeated", "cell-grid-short"],
    )
    def test_malformed_input_is_an_input_error(self, capsys, tmp_path, edit, err):
        code = self.purify_with(tmp_path, edit)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"


class TestPayloadFaults:
    """Strategy and selection payload faults exit 1 and name their JSON path."""

    @pytest.mark.parametrize(
        "edit, err",
        [
            (
                lambda d: d["profile"][0]["plan"]["t1"][0].update(w=["1/2", "1/4"]),
                "profile[0].plan[t1]: weights must be >= 0 and sum to 1",
            ),
            (
                lambda d: d["profile"].__setitem__(
                    0, {"type": "pure", "plan": {"t1": [{"upto": "1", "action": 5}]}}
                ),
                "profile[0].plan[t1]: index 5 is not in range(2)",
            ),
        ],
        ids=["behavioral-weights", "pure-action-out-of-range"],
    )
    def test_strategy_faults(self, capsys, tmp_path, edit, err):
        code = TestLoaderInput.purify_with(tmp_path, edit)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"

    @pytest.mark.parametrize(
        "fixture, edit, err",
        [
            (
                "rich_F01.json",
                lambda d: d["h"]["values"]["c"][0].update(v=["1/2", "1/2"]),
                "h.values[c]: piece dimension != 1",
            ),
            (
                "mixed_block.json",
                lambda d: d["h"]["values"].update(p=["7/8", "1"]),
                "h.values[p]: vector dimension != 1",
            ),
        ],
        ids=["interval-cell", "point-cell"],
    )
    def test_step_function_dimension(self, capsys, tmp_path, fixture, edit, err):
        doc = json.loads((FIXTURES / fixture).read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["condexp-set", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"

    @pytest.mark.parametrize(
        "edit, err",
        [
            (
                lambda d: d["correspondence"]["branches"][1].update(
                    dim=2, values={"c": [{"upto": "1", "v": ["1", "1"]}]}
                ),
                "correspondence.branches[1].dim: dimension 2 != 1",
            ),
            (
                lambda d: d["h"].update(dim=2, values={"c": [{"upto": "1", "v": ["1", "1"]}]}),
                "h.dim: dimension 2 != 1",
            ),
        ],
        ids=["branch", "h"],
    )
    def test_dimension_disagreement(self, capsys, tmp_path, edit, err):
        # were DimensionMismatch / NotGMeasurable without a JSON path
        doc = json.loads((FIXTURES / "rich_F01.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["condexp-set", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"

    def test_convexify_branch_out_of_range(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "rich_F01.json").read_text())
        doc["s1"]["c"][0]["branch"] = 5
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps(doc))
        code = main(["convexify", str(fixture), "--alpha", "1/4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "input error: s1[c]: index 5 is not in range(2)\n"

    @pytest.mark.parametrize(
        "argv",
        [["uhc-audit"], ["rademacher", "--m", "3"]],
        ids=["uhc-audit", "rademacher"],
    )
    def test_unknown_cell(self, capsys, argv):
        # was a bare KeyError from MeasureSpaceModel.cell
        code = main([*argv[:1], str(FIXTURES / "saturated.json"), *argv[1:], "--cell", "ZZ"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("input error: cell: ")

    @pytest.mark.parametrize(
        "argv, fixture, edit, err",
        [
            (
                ["condexp-set"],
                "rich_F01.json",
                lambda d: d["h"]["values"].update(
                    c=[{"upto": "1/2", "v": ["0"]}, {"upto": "1", "v": ["1"]}]
                ),
                "h.values[c]: not constant on block g",
            ),
            (
                ["rademacher", "--m", "3"],
                "saturated.json",
                lambda d: d.update(
                    tests=[{"dim": 2, "values": {"D": [{"upto": "1", "v": ["1", "1"]}]}}]
                ),
                "tests[0].dim: dimension 2 != 1",
            ),
            (
                ["rademacher", "--m", "3"],
                "saturated.json",
                lambda d: d.update(tests=5),
                "tests: expected list, got int",
            ),
            (
                # was read as dimension 1, and reported as "dim": true
                ["condexp-set"],
                "rich_F01.json",
                lambda d: d["correspondence"]["branches"][0].update(dim=True),
                "correspondence.branches[0].dim: expected an integer, got True",
            ),
        ],
        ids=["h-not-block-constant", "rademacher-test-dimension", "rademacher-tests-not-list",
             "dim-bool"],
    )
    def test_fault_is_typed_where_it_is_read(self, capsys, tmp_path, argv, fixture, edit, err):
        # were "error: h is not constant on block g" (NotGMeasurable),
        # "error: inner_products needs dimension-1 functions", without a path,
        # and a TypeError escaping main from iterating "tests": 5
        doc = json.loads((FIXTURES / fixture).read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main([argv[0], str(bad), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"

    @pytest.mark.parametrize("text", ["[]", "7", '"x"', "null"])
    def test_fixture_must_be_an_object(self, capsys, tmp_path, text):
        # was an AttributeError from doc.get escaping main
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["g-atom", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"input error: {bad}: expected a JSON object\n"


class TestFlagBounds:
    """Flag values outside their range and argparse usage errors exit 1 with
    ``input error:`` naming the flag (exit 2 is a certified negative)."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("rademacher saturated.json --m -1", "--m: must be an integer >= 0, got '-1'"),
            ("convexify rich_F01.json --alpha 2", "--alpha: must lie in [0, 1], got '2'"),
            ("uhc-audit saturated.json --depth -1", "--depth: must be an integer >= 0, got '-1'"),
            ("purify mp_purify.json --samples -1", "--samples: must be an integer >= 0, got '-1'"),
            ("solve mp_game.json --max-iters -5", "--max-iters: must be an integer >= 0, got '-5'"),
            ("convexify rich_F01.json --alpha", "--alpha: expected one argument"),
            ("rademacher saturated.json --m x", "--m: must be an integer >= 0, got 'x'"),
            ("rademacher saturated.json --m 17", "--m: must be at most 16, got '17'"),
            ("uhc-audit saturated.json --depth 17", "--depth: must be at most 16, got '17'"),
            ("solve mp_game.json --epsilon=-1", "--epsilon: must be >= 0, got '-1'"),
            ("pennies --epsilon=-1/100", "--epsilon: must be >= 0, got '-1/100'"),
            ("pennies --m 17", "--m: must be at most 16, got '17'"),
        ],
        ids=[
            "m", "alpha", "depth", "samples", "max-iters", "alpha-missing", "m-not-int",
            "m-cap", "depth-cap", "solve-epsilon", "pennies-epsilon", "pennies-m-cap",
        ],
    )
    def test_out_of_range_flag_is_an_input_error(self, capsys, argv, err):
        # were a TypeError or ValueError traceback, a silent run (exit 0) of
        # a negative count, argparse's usage exit 2, an uncapped run whose
        # work grows fourfold per two levels, and a negative epsilon that
        # certified nothing (solve: converged false; pennies: a vacuous pass)
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv.split()]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: {err}\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["uhc-audit", "--help"])
        assert exc.value.code == 0
        assert "--depth" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            "rademacher saturated.json --m 0",
            "uhc-audit saturated.json --depth 0",
            "convexify rich_F01.json --alpha 1",
            "purify mp_purify.json --samples 0",
            "solve mp_game.json --epsilon 0",
            "pennies --budget 1 --grid 4 --epsilon 0",
        ],
        ids=["m", "depth", "alpha", "samples", "solve-epsilon", "pennies-epsilon"],
    )
    def test_bounds_are_inclusive(self, capsys, argv):
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv.split()]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestParserReuse:
    """``main`` builds its parser once per process; a run of calls on it
    must match calls that each get a fresh parser, byte for byte."""

    @staticmethod
    def calls(tmp_path):
        out = tmp_path / "report.json"
        fixtures = {a: str(FIXTURES / a) for a in ("mp_purify.json", "rich_F01.json")}
        return [
            ["purify", fixtures["mp_purify.json"], "--samples", "3", "--seed", "5"],
            ["purify", fixtures["mp_purify.json"], "--samples", "3"],  # --seed back to 0
            ["condexp-set", fixtures["rich_F01.json"], "--mode", "float", "--out", str(out)],
            ["convexify", fixtures["rich_F01.json"], "--alpha"],  # usage error
            ["condexp-set", fixtures["rich_F01.json"]],  # rational mode, stdout
            ["pennies", "--m", "17"],
            ["pennies", "--budget", "3", "--grid", "16", "--seed", "1"],  # sampled
            ["pennies", "--budget", "3", "--grid", "16"],  # --seed back to 0
            ["bogus"],
        ]

    @staticmethod
    def outcome(capsys, tmp_path, argv):
        out = tmp_path / "report.json"
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        return code, captured.out, captured.err, written

    def test_calls_in_a_row_match_fresh_parsers(self, capsys, tmp_path):
        from condexp.cli import build_parser

        fresh = []
        for argv in self.calls(tmp_path):
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, tmp_path, argv))
        build_parser.cache_clear()
        in_a_row = [self.outcome(capsys, tmp_path, argv) for argv in self.calls(tmp_path)]
        assert in_a_row == fresh
        assert [code for code, *_ in fresh] == [0, 0, 0, 1, 0, 1, 0, 0, 1]
        assert fresh[6][1] != fresh[7][1]  # the seed reached the sample
        assert fresh[2][1] == "" and fresh[2][3] == fresh[4][1]
        assert build_parser() is build_parser()


class TestSubprocessDeterminism:
    def test_separate_processes_byte_identical(self, tmp_path):
        # separate interpreter runs rule out per-process ordering effects
        import os
        import subprocess
        import sys

        # the child imports condexp from this tree's src/, whatever the
        # caller's PYTHONPATH
        src = str(Path(__file__).resolve().parents[1] / "src")
        env_variants = [{"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "42"}]
        outputs = []
        for extra in env_variants:
            env = dict(os.environ, PYTHONPATH=src, **extra)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "condexp.cli",
                    "solve",
                    str(FIXTURES / "mp_game.json"),
                    "--purify",
                ],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(Path(__file__).parents[1]),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestUnreadableInput:
    """Input that used to crash or run for hours exits 1 at once."""

    @pytest.mark.parametrize(
        "content, err",
        [
            (b'{"space": "\xff"}', "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
            (b'{"space": ' + b"1" * 4400 + b"}", "invalid JSON: Exceeds the limit (4300 digits)"),
            (None, "cannot read: Is a directory"),
        ],
        ids=["not-utf8", "int-past-digit-limit", "directory"],
    )
    def test_unreadable_fixture(self, capsys, tmp_path, content, err):
        fixture = tmp_path / "bad.json"
        if content is None:
            fixture.mkdir()
        else:
            fixture.write_bytes(content)
        code = main(["g-atom", str(fixture)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {fixture}: {err}")

    @pytest.mark.parametrize("epsilon", ["1e5000", "1e4300", "1e-4300"])
    def test_exponent_flag(self, capsys, epsilon):
        # was a ValueError from the int-string limit while writing the report
        code = main(["pennies", "--m", "2", "--budget", "1", "--grid", "4", "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"input error: --epsilon: not a rational: '{epsilon}'\n"

    def test_exponent_in_fixture(self, capsys, tmp_path):
        # Fraction("1e10000000") alone takes seconds, a larger exponent hours
        doc = json.loads((FIXTURES / "mp_purify.json").read_text())
        doc["game"]["players"][0]["cells"][0]["mass"] = "1e10000000000"
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps(doc))
        code = main(["purify", str(fixture)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "input error: game.players[0].cells[0].mass: "
            "expected a rational like '3/4', got '1e10000000000'\n"
        )

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condexp import attainable
from condexp.attainable import (
    AtomObstruction,
    CondExpBlockSet,
    RademacherReport,
    RademacherTestEntry,
    block_set,
    cond_exp_set,
    convexify_witness,
    derandomize_selection,
    dyadic_selection,
    indicator_correspondence,
    limit_escape_certificate,
    membership,
    rademacher_escape,
    uhc_audit,
)
from condexp.correspondences import (
    FiniteIndexedCorrespondence,
    Selection,
    mixed_value,
    selection_value,
)
from condexp.errors import AtomObstructionError, CondexpError, NotSaturated, SaturatedBlock
from condexp.measure import (
    Cell,
    CellKind,
    MeasureSpaceModel,
    StepFunction,
    functions_equal,
    linear_combination,
)
from condexp.rational_geometry import feasible_combination
from condexp.serialize import dump_report, dump_uhc

from helpers import (
    binary_F,
    branch_values,
    breakpoints,
    constant_branches,
    dyadic_indicator,
    one_positive_scale,
    payload_at,
    point_cell,
    recording_min_norm_point,
    reference_distance,
    reference_extreme_points,
    reference_mixed_block_blend,
    reference_proportional_blend,
    reference_rademacher_escape,
    reference_rich_vertices,
    reference_uhc_audit,
    refinement_on,
    rich_cell,
    saturated_cell,
    space,
    step,
    unit_rich_space,
)
from test_correspondences import mix, sel
from test_rational_geometry import reference_nearest_point

F = Fraction


class TestBlockSet:
    def test_rich_binary_interval(self):
        sp = unit_rich_space()
        bs = block_set(binary_F(sp), "c")
        assert bs.polytopes() == [((F(0),), (F(1),))]

    def test_point_only_nonconvex(self):
        sp = space(point_cell("p"))
        bs = block_set(binary_F(sp), "p")
        assert bs.polytopes() == [((F(0),),), ((F(1),),)]
        assert not bs.contains((F(1, 2),))

    def test_mixed_block_union_covers_interval(self):
        # brute force: point choices {0, 1/2} translated by rich range [0, 1/2]
        sp = space(rich_cell("r", F(1, 2), block="g"), point_cell("p", F(1, 2), block="g"))
        bs = block_set(binary_F(sp), "g")
        assert bs.polytopes() == [
            ((F(0),), (F(1, 2),)),
            ((F(1, 2),), (F(1),)),
        ]
        for num in range(0, 9):
            assert bs.contains((F(num, 8),))

    def test_saturated_block_rejected(self):
        sp = space(saturated_cell("D"))
        with pytest.raises(SaturatedBlock):
            block_set(binary_F(sp), "D")

    def test_support_function(self):
        sp = unit_rich_space()
        bs = block_set(binary_F(sp), "c")
        assert bs.support((F(1),)) == 1
        assert bs.support((F(-1),)) == 0


def brute_force_averages(Fc, block_label, grid):
    """All block averages of selections constant on a sub-grid, exact."""
    sp = Fc.space
    cells = sp.blocks[block_label]
    mass = sp.block_mass(block_label)
    per_cell_options = []
    for c in cells:
        if c.has_inner:
            pieces = refinement_on(Fc, c)
            combos_per_piece = []
            for lo, hi in pieces:
                values = branch_values(Fc, c, lo)
                width = (hi - lo) / grid
                counts = itertools.combinations_with_replacement(range(len(values)), grid)
                sums = set()
                for combo in counts:
                    total = tuple(
                        sum(values[k][d] for k in combo) * width * c.mass
                        for d in range(Fc.dim)
                    )
                    sums.add(total)
                combos_per_piece.append(sorted(sums))
            cell_sums = set()
            for picks in itertools.product(*combos_per_piece):
                cell_sums.add(
                    tuple(sum(p[d] for p in picks) for d in range(Fc.dim))
                )
            per_cell_options.append(sorted(cell_sums))
        else:
            per_cell_options.append(
                sorted(
                    {
                        tuple(x * c.mass for x in v)
                        for v in branch_values(Fc, c, F(0))
                    }
                )
            )
    out = set()
    for picks in itertools.product(*per_cell_options):
        out.add(tuple(sum(p[d] for p in picks) / mass for d in range(Fc.dim)))
    return sorted(out)


class TestBlockSetOracle:
    def test_brute_force_members_are_exact_members(self):
        sp = space(rich_cell("r", F(1, 2), block="g"), point_cell("p", F(1, 2), block="g"))
        b0 = step(sp, {"r": [(F(1, 2), 0), (1, 2)], "p": 1})
        b1 = step(sp, {"r": 3, "p": 4})
        Fc = FiniteIndexedCorrespondence(sp, (b0, b1))
        bs = block_set(Fc, "g")
        cloud = brute_force_averages(Fc, "g", grid=4)
        for point in cloud:
            assert bs.contains(point)

    def test_cloud_hits_every_vertex(self):
        sp = unit_rich_space()
        b0 = step(sp, {"c": (0, 0)}, dim=2)
        b1 = step(sp, {"c": (1, 0)}, dim=2)
        b2 = step(sp, {"c": (0, 1)}, dim=2)
        Fc = FiniteIndexedCorrespondence(sp, (b0, b1, b2))
        cloud = brute_force_averages(Fc, "c", grid=4)
        (poly,) = block_set(Fc, "c").polytopes()
        for v in poly:
            assert v in cloud


class TestMembership:
    def test_midpoint_on_rich_cell(self):
        sp = unit_rich_space()
        res = membership(binary_F(sp), step(sp, {"c": F(1, 2)}))
        assert res.member

    def test_midpoint_on_saturated_cell(self):
        sp = space(saturated_cell("D"))
        res = membership(binary_F(sp), step(sp, {"D": F(1, 2)}))
        assert not res.member
        assert res.certificate.kind == "saturated"
        assert res.certificate.distance == F(1, 2)

    def test_irrational_distance_on_saturated_cell(self):
        # both branches lie sqrt(2) from h on D, so the certificate is the
        # float mass * sqrt(2)
        sp = space(saturated_cell("D", F(1, 2)), rich_cell("r", F(1, 2)))
        Fc = constant_branches(sp, [(0, 0), (2, 0)], dim=2)
        res = membership(Fc, step(sp, {"D": (1, 1), "r": (1, 0)}, dim=2))
        assert not res.member
        assert res.certificate.kind == "saturated"
        assert isinstance(res.certificate.distance, float)
        assert res.certificate.distance == math.sqrt(2) / 2

    def test_midpoint_on_point_block(self):
        sp = space(point_cell("p"))
        res = membership(binary_F(sp), step(sp, {"p": F(1, 2)}))
        assert not res.member
        assert res.certificate.distance == F(1, 2)

    def test_tolerance_path(self):
        sp = space(point_cell("p"))
        near = F(1) + F(1, 10**12)
        res = membership(binary_F(sp), step(sp, {"p": near}), tolerance=F(1, 10**9))
        assert res.member


class TestConvexifyWitness:
    def test_quarter_blend_on_rich_cell(self):
        sp = unit_rich_space()
        Fc = binary_F(sp)
        s1, s2 = sel(sp, {"c": 0}), sel(sp, {"c": 1})
        s0 = convexify_witness(Fc, s1, s2, F(1, 4))
        assert isinstance(s0, Selection)
        assert s0.plan["c"] == ((F(1, 4), 0), (F(1), 1))
        e = sp.conditional_expectation(selection_value(Fc, s0))
        assert functions_equal(sp, e, step(sp, {"c": F(3, 4)}))

    def test_alpha_zero_endpoint(self):
        sp = unit_rich_space()
        Fc = binary_F(sp)
        s1, s2 = sel(sp, {"c": 0}), sel(sp, {"c": 1})
        s0 = convexify_witness(Fc, s1, s2, F(0))
        e = sp.conditional_expectation(selection_value(Fc, s0))
        e2 = sp.conditional_expectation(selection_value(Fc, s2))
        assert functions_equal(sp, e, e2)

    def test_point_block_obstruction(self):
        sp = space(point_cell("p"))
        Fc = binary_F(sp)
        out = convexify_witness(Fc, sel(sp, {"p": 0}), sel(sp, {"p": 1}), F(1, 2))
        assert isinstance(out, AtomObstruction)
        assert out.cell == "p"
        assert out.alpha == F(1, 2)

    def test_saturated_obstruction(self):
        sp = space(saturated_cell("D"))
        Fc = binary_F(sp)
        out = convexify_witness(Fc, sel(sp, {"D": 0}), sel(sp, {"D": 1}), F(1, 3))
        assert isinstance(out, AtomObstruction)

    def test_saturated_block_blends_by_splice(self):
        # s1 and s2 agree on the saturated cell D, so the blend there is a
        # splice of the branches; the rich cell r is split proportionally
        sp = space(Cell("D", F(1, 2), CellKind.SATURATED, "gD"), rich_cell("r", F(1, 2), block="g"))
        Fc = binary_F(sp)
        s1, s2 = sel(sp, {"D": 1, "r": 0}), sel(sp, {"D": 1, "r": 1})
        s0 = convexify_witness(Fc, s1, s2, F(1, 4))
        assert isinstance(s0, Selection)
        assert s0.plan == {"D": ((F(1), 1),), "r": ((F(1, 4), 0), (F(1), 1))}
        e = sp.conditional_expectation(selection_value(Fc, s0))
        assert functions_equal(sp, e, step(sp, {"D": 1, "r": F(3, 4)}))

    def test_achievable_blend_on_atom_space(self):
        # mixed block where the target is reachable despite the point cell
        sp = space(rich_cell("r", F(1, 2), block="g"), point_cell("p", F(1, 2), block="g"))
        Fc = binary_F(sp)
        s1, s2 = sel(sp, {"r": 0, "p": 0}), sel(sp, {"r": 1, "p": 1})
        s0 = convexify_witness(Fc, s1, s2, F(1, 2))
        assert isinstance(s0, Selection)
        e = sp.conditional_expectation(selection_value(Fc, s0))
        target = linear_combination(
            sp,
            [
                (F(1, 2), sp.conditional_expectation(selection_value(Fc, s1))),
                (F(1, 2), sp.conditional_expectation(selection_value(Fc, s2))),
            ],
        )
        assert functions_equal(sp, e, target)

    def test_multi_block_random_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            sp = space(
                rich_cell("a", F(1, 3), block="g"),
                rich_cell("b", F(1, 3), block="g"),
                rich_cell("c", F(1, 3), block="h"),
            )
            branches = []
            for _k in range(3):
                branches.append(
                    step(
                        sp,
                        {
                            cid: [
                                (F(1, 2), rng.randint(-3, 3)),
                                (1, rng.randint(-3, 3)),
                            ]
                            for cid in ["a", "b", "c"]
                        },
                    )
                )
            Fc = FiniteIndexedCorrespondence(sp, tuple(branches))
            s1 = sel(sp, {cid: rng.randrange(3) for cid in ["a", "b", "c"]})
            s2 = sel(sp, {cid: rng.randrange(3) for cid in ["a", "b", "c"]})
            alpha = F(rng.randint(0, 6), 6)
            s0 = convexify_witness(Fc, s1, s2, alpha)
            assert isinstance(s0, Selection)
            e0 = sp.conditional_expectation(selection_value(Fc, s0))
            target = linear_combination(
                sp,
                [
                    (alpha, sp.conditional_expectation(selection_value(Fc, s1))),
                    (1 - alpha, sp.conditional_expectation(selection_value(Fc, s2))),
                ],
            )
            assert functions_equal(sp, e0, target)


class TestDerandomize:
    def test_half_half(self):
        sp = unit_rich_space()
        Fc = binary_F(sp)
        s = derandomize_selection(Fc, mix(sp, {"c": ["1/2", "1/2"]}))
        assert s.plan["c"] == ((F(1, 2), 0), (F(1), 1))
        assert sp.integrate(selection_value(Fc, s)) == (F(1, 2),)

    def test_one_hot_passthrough(self):
        sp = space(rich_cell("r", F(1, 2)), point_cell("p", F(1, 2)))
        Fc = binary_F(sp)
        s = derandomize_selection(Fc, mix(sp, {"r": [0, 1], "p": [1, 0]}))
        assert s.plan["p"] == 0
        assert s.plan["r"] == ((F(1), 1),)

    def test_piecewise_average(self):
        sp = unit_rich_space()
        b0 = step(sp, {"c": [(F(1, 2), 2), (1, 2)]})
        b1 = step(sp, {"c": [(F(1, 2), 4), (1, 4)]})
        Fc = FiniteIndexedCorrespondence(sp, (b0, b1))
        s = derandomize_selection(Fc, mix(sp, {"c": ["3/4", "1/4"]}))
        assert sp.integrate(selection_value(Fc, s)) == (F(5, 2),)

    def test_piecewise_integral_identity(self):
        sp = unit_rich_space()
        b0 = step(sp, {"c": [(F(1, 3), 1), (1, -2)]})
        b1 = step(sp, {"c": 5})
        Fc = FiniteIndexedCorrespondence(sp, (b0, b1))
        m = mix(sp, {"c": [(F(1, 2), ["2/3", "1/3"]), (1, ["1/4", "3/4"])]})
        s = derandomize_selection(Fc, m)
        mv = mixed_value(Fc, m)
        sv = selection_value(Fc, s)
        # the split preserves the integral piece by piece, not just overall
        for lo, hi in refinement_on(Fc, sp.cells[0], breakpoints(m, sp.cells[0])):
            got = _integral_over(sp.cells[0], sv, lo, hi)
            want = _integral_over(sp.cells[0], mv, lo, hi)
            assert got == want

    def test_atom_obstruction(self):
        sp = space(point_cell("p"))
        Fc = binary_F(sp)
        with pytest.raises(AtomObstructionError):
            derandomize_selection(Fc, mix(sp, {"p": ["1/2", "1/2"]}))

    def test_positive_weight_support_only(self):
        sp = unit_rich_space()
        Fc = binary_F(sp)
        s = derandomize_selection(Fc, mix(sp, {"c": [0, 1]}))
        assert all(k == 1 for _, k in s.plan["c"])


def _integral_over(cell, f, lo, hi):
    total = F(0)
    for plo, phi, v in f.pieces_on(cell):
        a, b = max(plo, lo), min(phi, hi)
        if b > a:
            total += (b - a) * v[0]
    return total * cell.mass


class TestRademacher:
    def test_m1_integral(self):
        sp = space(saturated_cell("D"))
        report = rademacher_escape(sp, "D", 1)
        assert report.integral == F(1, 2)
        assert dyadic_selection(sp, "D", 1).plan["D"] == ((F(1, 2), 1), (F(1), 0))

    def test_constant_test_function(self):
        sp = space(saturated_cell("D"))
        psi = step(sp, {"D": 1})
        report = rademacher_escape(sp, "D", 5, tests=[psi])
        entry = report.tests[0]
        assert entry.lhs == entry.rhs == F(1, 2)

    def test_level2_values(self):
        sp = space(saturated_cell("D"))
        psi = step(
            sp,
            {"D": [(F(1, 4), 1), (F(1, 2), 2), (F(3, 4), 3), (1, 4)]},
        )
        report = rademacher_escape(sp, "D", 3, tests=[psi])
        entry = report.tests[0]
        assert entry.level == 2
        assert entry.lhs == F(5, 4)
        assert entry.rhs == F(5, 4)

    def test_requires_saturated(self):
        sp = unit_rich_space()
        with pytest.raises(NotSaturated):
            rademacher_escape(sp, "c", 2)

    def test_identities_all_levels_small_m(self):
        sp = space(saturated_cell("D", F(1, 2)), rich_cell("r", F(1, 2)))
        for m in range(1, 7):
            denom = 2 ** (m - 1)
            tests = [
                dyadic_indicator(sp, "D", F(i, denom), F(i + 1, denom))
                for i in range(denom)
            ]
            report = rademacher_escape(sp, "D", m, tests=tests)
            for entry in report.tests:
                assert entry.holds

    def test_non_dyadic_test_at_depth_12(self):
        # [0, 1/3) covers the 683 even pieces 0, 2, ..., 1364 of width 1/4096
        # and part of odd piece 1365, where the selection is 0
        sp = space(saturated_cell("D", F(1, 2)), rich_cell("r", F(1, 2)))
        third = step(sp, {"D": [(F(1, 3), 1), (1, 0)], "r": 0})
        half = dyadic_indicator(sp, "D", F(0), F(1, 2))
        report = rademacher_escape(sp, "D", 12, tests=[third, half])
        assert report.tests[0] == RademacherTestEntry(None, F(683, 8192), F(1, 12))
        assert not report.tests[0].holds
        assert report.tests[1] == RademacherTestEntry(1, F(1, 8), F(1, 8))


class TestLimitEscape:
    def test_full_mass(self):
        sp = space(saturated_cell("D"))
        assert limit_escape_certificate(sp, "D") == F(1, 2)

    def test_half_mass(self):
        sp = space(saturated_cell("D", F(1, 2)), rich_cell("r", F(1, 2)))
        assert limit_escape_certificate(sp, "D") == F(1, 4)

    def test_rich_rejected_but_member(self):
        sp = unit_rich_space()
        with pytest.raises(NotSaturated):
            limit_escape_certificate(sp, "c")
        Fc = indicator_correspondence(sp, "c")
        half = step(sp, {"c": F(1, 2)})
        assert membership(Fc, half).member


class TestUhcAudit:
    def test_rich_cell(self):
        sp = space(rich_cell("D", F(1, 2)), rich_cell("r", F(1, 2)))
        report = uhc_audit(sp, "D", depth=6)
        assert report.limit_in_H0
        assert report.defect == 0
        assert report.averages_constant

    @pytest.mark.parametrize(
        "mass,expected",
        [(F(1), F(1, 2)), (F(1, 2), F(1, 4)), (F(1, 3), F(1, 6))],
    )
    def test_saturated_cell(self, mass, expected):
        self._check_saturated(mass, expected, depth=6)

    @pytest.mark.parametrize("mass", [F(1), F(1, 2), F(1, 3)])
    def test_saturated_cell_depth_12(self, mass):
        self._check_saturated(mass, mass / 2, depth=12)

    @staticmethod
    def _check_saturated(mass, expected, depth):
        cells = [saturated_cell("D", mass)]
        if mass != 1:
            cells.append(rich_cell("r", 1 - mass))
        sp = space(*cells)
        report = uhc_audit(sp, "D", depth=depth)
        assert not report.limit_in_H0
        assert report.defect == expected
        assert report.identities_ok


def _escape_outcome(run):
    """The dumped report of ``run()`` as JSON text, or its error's type and message."""
    try:
        out = run()
    except CondexpError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):  # the rademacher reference: (selection, report)
        out = out[1]
    if isinstance(out, RademacherReport):
        return json.dumps(dump_report(out))
    return json.dumps(dump_uhc(out))


@st.composite
def escape_spaces(draw):
    """D rich alone in its block, D rich in a block with other rich cells
    and a point cell, or D saturated beside other saturated cells; random
    masses."""
    RICH, SAT, POINT = CellKind.RICH, CellKind.SATURATED, CellKind.POINT_MASS
    layout = draw(st.sampled_from(["rich-alone", "rich-block", "saturated"]))
    if layout == "rich-alone":
        specs = [("D", RICH, "gD"), ("r", RICH, "g"), ("p", POINT, "g")]
    elif layout == "rich-block":
        specs = [("D", RICH, "g"), ("p", POINT, "g")]
        specs += [(f"r{k}", RICH, "g") for k in range(draw(st.integers(1, 2)))]
    else:
        specs = [("D", SAT, "D")]
        specs += [(f"S{k}", SAT, f"S{k}") for k in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        specs.append(("q", RICH, "h"))
    raw = draw(st.lists(st.integers(1, 6), min_size=len(specs), max_size=len(specs)))
    masses = [F(x, sum(raw)) for x in raw]
    return MeasureSpaceModel(
        tuple(Cell(cid, mass, kind, block) for (cid, kind, block), mass in zip(specs, masses))
    )


breakpoints_01 = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(
    lambda x: 0 < x < 1
)
test_values = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def escape_tests(draw, sp):
    """Scalar tests with dyadic and non-dyadic breakpoints, nonzero on
    every cell."""
    tests = []
    for _ in range(draw(st.integers(0, 3))):
        values = {}
        for c in sp.cells:
            if c.has_inner:
                cuts = sorted(set(draw(st.lists(breakpoints_01, max_size=4)))) + [F(1)]
                values[c.id] = tuple((u, (draw(test_values),)) for u in cuts)
            else:
                values[c.id] = (draw(test_values),)
        tests.append(StepFunction(1, values))
    return tests


class TestDyadicLane:
    """The integer lane against the Fraction-piece audits it replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(escape_spaces(), st.integers(0, 10))
    def test_uhc_audit_matches_the_reference(self, sp, depth):
        got = _escape_outcome(lambda: uhc_audit(sp, "D", depth))
        assert got == _escape_outcome(lambda: reference_uhc_audit(sp, "D", depth))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data(), escape_spaces(), st.integers(0, 10))
    def test_rademacher_matches_the_reference(self, data, sp, m):
        tests = data.draw(escape_tests(sp))
        got = _escape_outcome(lambda: rademacher_escape(sp, "D", m, tests))
        assert got == _escape_outcome(lambda: reference_rademacher_escape(sp, "D", m, tests))

    def test_same_errors(self):
        sp = space(
            saturated_cell("D", F(1, 4)),
            rich_cell("r", F(1, 4), block="g"),
            point_cell("p", F(1, 2), block="g"),
        )
        flat = step(sp, {"D": (1, 0), "r": (0, 0), "p": (0, 1)}, dim=2)
        cases = [
            (uhc_audit, reference_uhc_audit, ("p", 4)),
            (rademacher_escape, reference_rademacher_escape, ("p", 4)),
            (rademacher_escape, reference_rademacher_escape, ("r", 4)),
            (rademacher_escape, reference_rademacher_escape, ("D", 4, [flat])),
            (uhc_audit, reference_uhc_audit, ("x", 4)),
        ]
        for lane, reference, args in cases:
            got = _escape_outcome(lambda: lane(sp, *args))
            assert isinstance(got[0], type) and issubclass(got[0], CondexpError)
            assert got == _escape_outcome(lambda: reference(sp, *args))


class TestCondExpSetAssembly:
    def test_regions_and_saturated_split(self):
        sp = space(
            rich_cell("r", F(1, 2), block="g"),
            point_cell("p", F(1, 4), block="g"),
            saturated_cell("D", F(1, 4)),
        )
        ces = cond_exp_set(binary_F(sp))
        assert set(ces.regions) == {"g"}
        assert ces.saturated_cells == ("D",)


class TestBlockSetCache:
    @staticmethod
    def count_block_set(monkeypatch):
        import condexp.attainable as attainable

        original = attainable.block_set
        labels = []

        def counted(F, label):
            labels.append(label)
            return original(F, label)

        monkeypatch.setattr(attainable, "block_set", counted)
        return labels

    def test_membership_after_cond_exp_set_builds_each_block_once(self, monkeypatch):
        # the condexp-set subcommand: the regions, then membership of h
        labels = self.count_block_set(monkeypatch)
        sp = space(
            rich_cell("r", F(1, 2), block="g"),
            point_cell("p", F(1, 4), block="g"),
            rich_cell("s", F(1, 8), block="h"),
            saturated_cell("D", F(1, 8)),
        )
        Fc = binary_F(sp)
        ces = cond_exp_set(Fc)
        h = step(sp, {"r": F(1, 2), "p": F(1, 2), "s": F(1, 3), "D": F(0)})
        assert membership(Fc, h).member
        assert sorted(labels) == sorted(ces.regions) == ["g", "h"]
        assert membership(Fc, h) == membership(binary_F(sp), h)
        assert sorted(labels) == ["g", "g", "h", "h"]  # a new correspondence builds its own

    def test_cli_membership_builds_each_block_once(self, monkeypatch, capsys):
        labels = self.count_block_set(monkeypatch)
        from condexp.cli import main

        fixtures = Path(__file__).parent / "fixtures"
        assert main(["condexp-set", str(fixtures / "mixed_block.json")]) == 0
        assert '"member": true' in capsys.readouterr().out
        assert labels == ["g"]


class TestHighDimension:
    def test_membership_and_support_beyond_vertex_dimension(self):
        # in dimension 4 only LP membership and support queries are offered
        sp = unit_rich_space()
        b0 = step(sp, {"c": (0, 0, 0, 0)}, dim=4)
        b1 = step(sp, {"c": (1, 0, 0, 0)}, dim=4)
        b2 = step(sp, {"c": (0, 1, 1, 0)}, dim=4)
        Fc = FiniteIndexedCorrespondence(sp, (b0, b1, b2))
        bs = block_set(Fc, "c")
        mid = tuple(F(x, 3) for x in (1, 1, 1, 0))
        assert bs.contains(mid)
        assert not bs.contains((F(1), F(1), F(1), F(1)))
        assert bs.support((F(1), F(0), F(0), F(0))) == 1
        assert bs.support((F(1), F(1), F(1), F(1))) == 2
        from condexp.errors import UnsupportedDimension

        with pytest.raises(UnsupportedDimension):
            bs.polytopes()

    def test_certificates_beyond_vertex_dimension(self):
        sp = unit_rich_space()
        Fc = FiniteIndexedCorrespondence(
            sp,
            tuple(step(sp, {"c": v}, dim=4) for v in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0))),
        )
        ones = (F(1),) * 4
        # nearest point 1/3 e1 + 2/3 (0, 1, 1, 0) on the edge between them
        assert block_set(Fc, "c").distance(ones) == (F(5, 3), (F(1, 3), F(2, 3), F(2, 3), F(0)))
        cert = membership(Fc, step(sp, {"c": ones}, dim=4)).certificate
        assert cert.direction == (F(2, 3), F(1, 3), F(1, 3), F(1))
        assert cert.distance == pytest.approx((5 / 3) ** 0.5, abs=1e-15)


class TestMembershipAtomDichotomy:
    def test_half_indicator_membership_iff_target_rich(self):
        # off-target cells are single-valued for the indicator correspondence,
        # so the midpoint is attainable exactly when the target cell is rich
        from condexp.measure import CellKind, indicator_of_cells

        rng = random.Random(77)
        for _ in range(25):
            n = rng.randint(1, 4)
            masses = [rng.randint(1, 4) for _ in range(n)]
            total = sum(masses)
            kind_pool = [CellKind.RICH] * 3 + [CellKind.SATURATED, CellKind.POINT_MASS]
            kinds = [rng.choice(kind_pool) for _ in range(n)]
            cells = []
            for i, (m, k) in enumerate(zip(masses, kinds)):
                block = f"c{i}" if k is CellKind.SATURATED else f"g{rng.randrange(2)}"
                cells.append(Cell(f"c{i}", F(m, total), k, block))
            sp = space(*cells)
            target = rng.randrange(n)
            Fc = indicator_correspondence(sp, f"c{target}")
            half = linear_combination(
                sp,
                [
                    (
                        F(1, 2),
                        sp.conditional_expectation(
                            indicator_of_cells(sp, [f"c{target}"])
                        ),
                    )
                ],
            )
            result = membership(Fc, half)
            assert result.member == (cells[target].kind is CellKind.RICH)


# Each certified check is broken at the quantity it checks, under python -O,
# where a bare assert would be skipped.
OPTIMIZED_CHECKS = """
from fractions import Fraction as F

from condexp import attainable, equilibrium
from condexp.correspondences import FiniteIndexedCorrespondence, MixedSelection, Selection
from condexp.factories import matching_pennies_game
from condexp.measure import Cell, CellKind, MeasureSpaceModel, constant_function

if __debug__:
    raise SystemExit("expected to run under python -O")

def binary(cells):
    sp = MeasureSpaceModel(tuple(cells))
    return FiniteIndexedCorrespondence(
        sp, (constant_function(sp, (F(0),)), constant_function(sp, (F(1),)))
    )

# convexify: the point cell's choice is flipped, so the witness misses the blend
Fc = binary([Cell("r", F(1, 2), CellKind.RICH, "g"), Cell("p", F(1, 2), CellKind.POINT_MASS, "g")])
blend = attainable._mixed_block_blend
attainable._mixed_block_blend = lambda *args: {
    cid: 1 - e if cid == "p" else e for cid, e in blend(*args).items()
}
s1 = Selection({"r": ((F(1), 0),), "p": 0})
s2 = Selection({"r": ((F(1), 1),), "p": 1})
try:
    attainable.convexify_witness(Fc, s1, s2, F(1, 2))
except ArithmeticError as exc:
    print("convexify:", exc)

# convexify on an atom-free space: the proportional split takes s2's branch
# where s1's belongs and vice versa, so the witness blends at 1 - alpha
Fa = binary([Cell("r", F(1, 2), CellKind.RICH, "g"), Cell("q", F(1, 2), CellKind.RICH, "h")])
proportional = attainable._proportional_blend
attainable._proportional_blend = lambda F_, s1, s2, alpha, cells: proportional(
    F_, s2, s1, alpha, cells
)
s1 = Selection({"r": ((F(1), 0),), "q": ((F(1), 0),)})
s2 = Selection({"r": ((F(1), 1),), "q": ((F(1), 1),)})
try:
    attainable.convexify_witness(Fa, s1, s2, F(1, 4))
except ArithmeticError as exc:
    print("convexify:", exc)

# derandomize: every piece goes to branch 0, whatever its weights
Fr = binary([Cell("r", F(1), CellKind.RICH, "r")])
attainable.split_pieces = lambda pieces, spans: [(hi, 0) for _lo, hi, _symmetric in spans]
try:
    attainable.derandomize_selection(Fr, MixedSelection({"r": ((F(1), (F(1, 2), F(1, 2))),)}))
except ArithmeticError as exc:
    print("derandomize:", exc)

# zero-sum LP: each side's optimum is off by one
simplex_min = equilibrium.simplex_min
equilibrium.simplex_min = lambda *args: (simplex_min(*args)[0] + 1, simplex_min(*args)[1])
try:
    equilibrium.solve_behavioral(matching_pennies_game(2), equilibrium.SolveOptions(method="lp"))
except ArithmeticError as exc:
    print("lp:", exc)

# escape certificate: the splice defect comes back as a float
attainable._splice_defect = lambda *args: 0.5
try:
    attainable.limit_escape_certificate(
        MeasureSpaceModel((Cell("D", F(1), CellKind.SATURATED, "D"),)), "D"
    )
except ArithmeticError as exc:
    print("certificate:", exc)
"""


class TestChecksSurviveOptimize:
    def test_certified_checks_raise_under_dash_o(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "convexify: convexify witness misses the blended conditional expectation",
            "convexify: convexify witness misses the blended conditional expectation",
            "derandomize: derandomized selection misses the mixture's conditional expectation",
            "lp: zero-sum LP values disagree: -1 vs 1",
            "certificate: escape certificate is not exact on cell D: 0.5",
        ]


# -- Minkowski-sum distance against the polytopes one at a time ----------------


@st.composite
def block_sets(draw):
    """A block set in dimension 1-3 from small lattice summands and point
    sets, and a half-integer query point."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2).map(F)] * dim)

    def vertex_set(max_size):
        return tuple(sorted(set(draw(st.lists(point, min_size=1, max_size=max_size)))))

    coeff = st.sampled_from([F(1, 4), F(1, 2), F(1)])
    bs = CondExpBlockSet(
        block="g",
        dim=dim,
        block_mass=draw(st.sampled_from([F(1), F(1, 2), F(3, 4)])),
        summands=tuple((draw(coeff), vertex_set(3)) for _ in range(draw(st.integers(0, 2)))),
        point_sets=tuple(vertex_set(2) for _ in range(draw(st.integers(0, 2)))),
    )
    return bs, draw(st.tuples(*[st.integers(-6, 6).map(lambda k: F(k, 2))] * dim))


class TestBlockSetDistance:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(block_sets())
    @example(  # two equidistant points: the smaller one is reported
        (CondExpBlockSet("g", 1, F(1), (), (((F(0),), (F(1),)),)), (F(1, 2),))
    )
    def test_distance_is_the_least_over_the_polytopes(self, case):
        bs, value = case
        assert bs.distance(value) == min(
            reference_nearest_point(value, poly) for poly in bs.polytopes()
        )


# -- block-set summands as generators against their vertices -------------------


@st.composite
def generator_blocks(draw, dims):
    """A block of a rich cell with one or two constancy pieces and, half the
    time, a point cell, whose branch values repeat and line up: they come
    from three or four distinct integer multiples of one lattice direction
    (so one lies inside a segment of two others) and up to two lattice
    points.  Also a half-integer query point and a lattice direction."""
    dim = draw(st.sampled_from(dims))
    lattice = st.tuples(*[st.integers(-2, 2)] * dim)
    u = draw(lattice.filter(any))
    ts = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=4, unique=True))
    pool = [tuple(t * x for x in u) for t in ts] + draw(st.lists(lattice, max_size=2))
    with_point = draw(st.booleans())
    cells = [rich_cell("r", F(1, 2) if with_point else F(1), block="g")]
    if with_point:
        cells.append(point_cell("p", F(1, 2), block="g"))
    sp = space(*cells)
    pick = st.sampled_from(pool)

    def branch(k):
        # the first piece of the rich cell takes every pool value
        per_cell = {"p": draw(pick)} if with_point else {}
        first = pool[k % len(pool)]
        per_cell["r"] = [(F(1, 3), first), (1, draw(pick))] if draw(st.booleans()) else first
        return step(sp, per_cell, dim)

    branches = range(draw(st.integers(len(pool), 6)))
    Fc = FiniteIndexedCorrespondence(sp, tuple(branch(k) for k in branches))
    query = draw(st.tuples(*[st.integers(-6, 6).map(lambda k: F(k, 2))] * dim))
    return block_set(Fc, "g"), query, draw(lattice)


def vertex_summands(bs):
    """The block set with each summand cut down to its hull's vertices."""
    summands = tuple((coeff, tuple(reference_extreme_points(pts))) for coeff, pts in bs.summands)
    return dataclasses.replace(bs, summands=summands)


class TestGeneratorSummands:
    """A summand keeps every distinct branch value of its piece; every
    reader of it sees only its hull."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(generator_blocks((1, 2, 3)))
    def test_readers_match_vertex_summands(self, case):
        bs, query, direction = case
        hulls = vertex_summands(bs)
        assert bs.distance(query) == hulls.distance(query)
        assert bs.support(direction) == hulls.support(direction)
        assert bs.polytopes() == hulls.polytopes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(generator_blocks((4, 5)))
    def test_distance_matches_vertex_summands_beyond_dimension_3(self, case):
        bs, query, _direction = case
        assert bs.distance(query) == vertex_summands(bs).distance(query)


# -- block-set geometry on its integer lattice against the Fraction path -------


def V(*coords):
    return tuple(F(c) for c in coords)


@st.composite
def lattice_blocks(draw, dims):
    """A block set drawn as data: 0-3 summands whose points include a
    collinear run (up to three multiples of one direction) and repeats, with
    coefficients, point values and a block mass of unlike denominators, 0-2
    point sets, and a query over 1, 2 or 3."""
    dim = draw(st.sampled_from(dims))
    coord = st.integers(-2, 2).map(F) | st.sampled_from([F(1, 2), F(-1, 3), F(2, 3)])
    point = st.tuples(*[coord] * dim)

    def generators():
        u = draw(point)
        run = [tuple(t * x for x in u) for t in draw(st.lists(st.integers(-2, 2), max_size=3))]
        pts = run + draw(st.lists(point, min_size=1, max_size=3))
        return tuple(pts + draw(st.lists(st.sampled_from(pts), max_size=2)))

    coeff = st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 5), F(1)])
    bs = CondExpBlockSet(
        block="g",
        dim=dim,
        block_mass=draw(st.sampled_from([F(1), F(1, 2), F(3, 4), F(2, 3)])),
        summands=tuple((draw(coeff), generators()) for _ in range(draw(st.integers(0, 3)))),
        point_sets=tuple(
            tuple(draw(st.lists(point, min_size=1, max_size=2, unique=True)))
            for _ in range(draw(st.integers(0, 2)))
        ),
    )
    query = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    return bs, draw(st.tuples(*[query] * dim))


# two offsets at distance 1 from the query: the smaller nearest point wins
CROSS_OFFSET_TIE = (
    CondExpBlockSet("g", 2, F(1), ((F(1, 2), (V(0, 0), V(1, 0))),), ((V(0, 1), V(0, -1)),)),
    (F(1, 4), F(0)),
)
# no point cell; a collinear run with a repeat and a second summand
COLLINEAR_RUN = (
    CondExpBlockSet(
        "g",
        3,
        F(2, 3),
        (
            (F(1, 3), (V(0, 0, 0), V(1, 1, 1), V(2, 2, 2), V(1, 1, 1))),
            (F(1, 2), (V(1, 0, 0), V(0, 1, 0))),
        ),
        (),
    ),
    (F(2), F(0), F(-1)),
)
# no rich summand: the offsets alone, two of them equidistant
NO_RICH = (CondExpBlockSet("g", 1, F(1), (), ((V(0), V(1)),)), (F(1, 2),))


class TestLatticeGeometry:
    """The block set's distance and vertices run on integers over one
    denominator; they equal the Fraction path, iterate for iterate."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lattice_blocks((1, 2, 3, 4, 5)))
    @example(CROSS_OFFSET_TIE)
    @example(COLLINEAR_RUN)
    @example(NO_RICH)
    def test_distance_matches_the_fraction_wolfe(self, case):
        import condexp.attainable as attainable

        bs, value = case
        seen, want = [], []
        with recording_min_norm_point(attainable, seen):
            d2, nearest = bs.distance(value)
        assert (d2, nearest) == reference_distance(bs, value, want)
        assert all(type(v) is Fraction for v in (d2, *nearest))
        # every start and oracle answer is the Fraction one times one scale
        assert one_positive_scale(seen, want)

    def test_named_cases(self):
        assert CROSS_OFFSET_TIE[0].distance(CROSS_OFFSET_TIE[1]) == (F(1), V("1/4", -1))
        assert NO_RICH[0].distance(NO_RICH[1]) == (F(1, 4), V(0))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(lattice_blocks((1, 2, 3)))
    @example(COLLINEAR_RUN)
    def test_vertices_match_the_fraction_minkowski_sum(self, case):
        bs, _value = case
        vertices = bs.rich_vertices()
        assert vertices == reference_rich_vertices(bs)
        assert all(type(v) is Fraction for p in vertices for v in p)
        inv = 1 / bs.block_mass
        want = sorted(
            {tuple(tuple(inv * (a + o) for a, o in zip(v, offset)) for v in vertices)
             for offset in bs.offsets()}
        )
        assert bs.polytopes() == want


# -- membership by distance against the LP feasibility test --------------------


def reference_contains(bs, value):
    """One exact LP per point-cell offset: is the mass-scaled value minus the
    offset a sum, over the summands, of coefficient times a convex
    combination of the summand's points?"""
    target = [x * bs.block_mass for x in value]
    for offset in bs.offsets():
        residual = [t - o for t, o in zip(target, offset)]
        if not bs.summands:
            if all(v == 0 for v in residual):
                return True
            continue
        cols = [[coeff * x for x in p] for coeff, points in bs.summands for p in points]
        A = [[col[d] for col in cols] for d in range(bs.dim)]
        start = 0
        for _coeff, points in bs.summands:
            A.append([F(int(start <= j < start + len(points))) for j in range(len(cols))])
            start += len(points)
        if feasible_combination(A, residual + [F(1)] * len(bs.summands)) is not None:
            return True
    return False


@st.composite
def point_cell_blocks(draw):
    """A correspondence in dimension 1-4 on one block of one or two point
    cells and, mostly, a rich cell with one or two constancy pieces, and a
    block-constant candidate: a lattice point or an attained average."""
    dim = draw(st.integers(1, 4))
    n_points = draw(st.integers(1, 2))
    rich = draw(st.booleans()) or draw(st.booleans())
    point_mass = F(1, 2 * n_points) if rich else F(1, n_points)
    cells = [point_cell(f"p{i}", point_mass, block="g") for i in range(n_points)]
    if rich:
        cells.append(rich_cell("r", F(1, 2), block="g"))
    sp = space(*cells)
    vec = st.tuples(*[st.integers(-2, 2)] * dim)

    def branch():
        per_cell = {c.id: draw(vec) for c in cells}
        if rich and draw(st.booleans()):
            per_cell["r"] = [(F(1, 2), draw(vec)), (1, draw(vec))]
        return step(sp, per_cell, dim)

    Fc = FiniteIndexedCorrespondence(sp, tuple(branch() for _ in range(draw(st.integers(1, 3)))))
    if draw(st.booleans()):
        picks = st.integers(0, Fc.branch_count - 1)
        s = Selection({c.id: draw(picks) if not c.has_inner else ((F(1), draw(picks)),) for c in cells})
        expectation = sp.conditional_expectation(selection_value(Fc, s))
        value = payload_at(expectation, cells[0], F(0))
    else:
        value = draw(st.tuples(*[st.integers(-4, 4).map(lambda k: F(k, 2))] * dim))
    return Fc, value


class TestMembershipByDistance:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(point_cell_blocks())
    def test_contains_matches_the_lp_and_failures_carry_a_distance(self, case):
        Fc, value = case
        region = block_set(Fc, "g")
        expected = reference_contains(region, value)
        assert region.contains(value) == expected
        result = membership(Fc, step(Fc.space, {c.id: value for c in Fc.space.cells}, Fc.dim))
        assert result.member == expected
        assert all(cert.distance > 0 for cert in result.failures)


@st.composite
def atom_free_blends(draw):
    """A correspondence on 1-3 blocks of 1-2 rich cells each, in dimension
    1-2 with 2-3 branches of up to three pieces per cell, two random
    selections of up to three pieces per cell, and an alpha in [0, 1]."""
    dim = draw(st.integers(1, 2))
    n_branches = draw(st.integers(2, 3))
    blocks = range(draw(st.integers(1, 3)))
    ids = [(f"c{b}{k}", f"g{b}") for b in blocks for k in range(draw(st.integers(1, 2)))]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(ids), max_size=len(ids)))
    cells = [rich_cell(cid, F(w, sum(weights)), block) for (cid, block), w in zip(ids, weights)]
    sp = space(*cells)

    def pieces(payload):
        cut = st.sampled_from([F(1, 5), F(1, 3), F(1, 2), F(3, 4)])
        cuts = draw(st.lists(cut, max_size=2, unique=True))
        return [(upto, draw(payload)) for upto in sorted(cuts) + [F(1)]]

    value = st.tuples(*[st.integers(-3, 3)] * dim)
    branches = tuple(
        step(sp, {c.id: pieces(value) for c in cells}, dim) for _ in range(n_branches)
    )
    index = st.integers(0, n_branches - 1)
    s1, s2 = (sel(sp, {c.id: pieces(index) for c in cells}) for _ in range(2))
    alpha = draw(st.sampled_from([F(0), F(1), F(1, 2)]) | st.fractions(0, 1, max_denominator=12))
    return FiniteIndexedCorrespondence(sp, branches), s1, s2, alpha


class TestAtomFreeBlend:
    """On an atom-free space every block is all rich, so the per-block path
    gives each cell the cut that one split over the whole space gives it."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(atom_free_blends())
    def test_matches_the_whole_space_cut(self, case):
        Fc, s1, s2, alpha = case
        expected = reference_proportional_blend(Fc, s1, s2, alpha)
        assert convexify_witness(Fc, s1, s2, alpha) == expected


class TestAttainedChoices:
    """The mixed-block blend runs its branch mixture LP only for point-cell
    choices whose offset is at distance 0, and returns the witness of the
    loop that ran one LP per choice in product order."""

    @staticmethod
    def counting_lps():
        return mock.patch.object(attainable, "_branch_mixture", wraps=attainable._branch_mixture)

    def test_first_choices_infeasible(self):
        # r adds [0, 1/2] to the block sum and each point cell 0 or 1/2, so
        # the blend 5/4 is reached by the last choice, (1, 1), only
        sp = space(
            rich_cell("r", F(1, 2), block="g"),
            point_cell("p1", F(1, 4), block="g"),
            point_cell("p2", F(1, 4), block="g"),
        )
        Fc = FiniteIndexedCorrespondence(
            sp, (step(sp, {"r": 0, "p1": 0, "p2": 0}), step(sp, {"r": 1, "p1": 2, "p2": 2}))
        )
        s1 = sel(sp, {"r": 1, "p1": 1, "p2": 1})
        s2 = sel(sp, {"r": 0, "p1": 1, "p2": 1})
        with self.counting_lps() as lp:
            witness = convexify_witness(Fc, s1, s2, F(1, 2))
        assert lp.call_count == 1
        with self.counting_lps() as lp, mock.patch.object(
            attainable, "_mixed_block_blend", reference_mixed_block_blend
        ):
            expected = convexify_witness(Fc, s1, s2, F(1, 2))
        assert lp.call_count == 4
        assert witness == expected
        assert witness.plan["p1"] == witness.plan["p2"] == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(point_cell_blocks(), st.sampled_from([F(0), F(1, 3), F(1)]))
    def test_matches_the_product_loop(self, case, alpha):
        Fc, value = case
        cells = Fc.space.blocks["g"]
        with self.counting_lps() as lp:
            got = attainable._mixed_block_blend(Fc, "g", cells, value, alpha)
        expected = reference_mixed_block_blend(Fc, "g", cells, value, alpha)
        assert got == expected
        rich = any(c.has_inner for c in cells)
        assert lp.call_count == (rich and not isinstance(got, AtomObstruction))

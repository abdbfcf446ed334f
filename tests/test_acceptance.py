"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria (tolerances pinned here, nothing deferred):
  1. exact convexification witnesses on atom-free spaces; certified
     membership failures at distance mass/2 on spaces with an atom (exact)
  2. block regions match brute-force sub-grid enumeration within
     Hausdorff distance diam/16
  3. alternating-selection integral identities, exact, m <= 12;
     escape certificate exactly mass/2
  4. limit-attainability dichotomy for cell masses 1, 1/2, 1/3 (exact)
  5. solve + purify on >= 100 random coarser-information games with
     verified eps <= 1e-9 and exact conditioning audits, under 60 s
  6. strong purification with exactly-zero residuals on >= 100 profiles
  7. necessity lab: exhaustive search min gain > 1/100, positive balance
     defects, exact zero uniform gains, quadrature match within 1e-10
  8. byte-identical repeated CLI runs
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from condexp.attainable import (
    block_set,
    convexify_witness,
    derandomize_selection,
    indicator_correspondence,
    limit_escape_certificate,
    membership,
    rademacher_escape,
    uhc_audit,
)
from condexp.cli import main as cli_main
from condexp.correspondences import (
    FiniteIndexedCorrespondence,
    MixedSelection,
    Selection,
    mixed_value,
    selection_value,
)
from condexp.equilibrium import (
    SolveOptions,
    purify_equilibrium,
    solve_behavioral,
    verify_equilibrium,
)
from condexp.games import expected_payoff
from condexp.measure import (
    Cell,
    CellKind,
    MeasureSpaceModel,
    StepFunction,
    functions_equal,
    indicator_of_cells,
    linear_combination,
)
from condexp.pennies import (
    IntervalUnionStrategy,
    PenniesGame,
    balance_defect,
    interim_weight,
    no_pure_equilibrium_search,
)
from condexp.purification import strong_purify

from game_factories import random_coarser_game, random_dominance_game, random_profile
from helpers import (
    branch_values,
    breakpoints,
    dyadic_indicator,
    payload_at,
    refinement_on,
    substitute_conditioned,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def report_line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# -- random model builders -----------------------------------------------------


def random_masses(rng, count):
    raw = [rng.randint(1, 5) for _ in range(count)]
    total = sum(raw)
    masses = [F(x, total) for x in raw]
    masses[-1] = 1 - sum(masses[:-1])
    return masses


def random_atomless_space(rng, max_cells=6) -> MeasureSpaceModel:
    count = rng.randint(1, max_cells)
    masses = random_masses(rng, count)
    blocks = [f"g{rng.randrange(3)}" for _ in range(count)]
    return MeasureSpaceModel(
        tuple(
            Cell(f"c{i}", masses[i], CellKind.RICH, blocks[i]) for i in range(count)
        )
    )


def random_step_function(rng, space, dim) -> StepFunction:
    values = {}
    for c in space.cells:
        cuts = sorted(set(F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))))
        uptos = cuts + [F(1)]
        pieces = []
        for upto in uptos:
            vec = tuple(F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(dim))
            pieces.append((upto, vec))
        values[c.id] = tuple(pieces)
    return StepFunction(dim, values)


def random_correspondence(rng, space, max_branches=4, max_dim=3):
    dim = rng.randint(1, max_dim)
    K = rng.randint(1, max_branches)
    return FiniteIndexedCorrespondence(
        space, tuple(random_step_function(rng, space, dim) for _ in range(K))
    )


def random_selection(rng, Fc) -> Selection:
    assignments = {}
    for c in Fc.space.cells:
        cuts = sorted(set(F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))))
        uptos = cuts + [F(1)]
        assignments[c.id] = tuple((u, rng.randrange(Fc.branch_count)) for u in uptos)
    return Selection(assignments)


def random_mixed_selection(rng, Fc) -> MixedSelection:
    K = Fc.branch_count
    weights = {}
    for c in Fc.space.cells:
        cuts = sorted(set(F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 1))))
        uptos = cuts + [F(1)]
        rows = []
        for u in uptos:
            raw = [rng.randint(0, 3) for _ in range(K)]
            if sum(raw) == 0:
                raw[rng.randrange(K)] = 1
            total = sum(raw)
            w = [F(x, total) for x in raw]
            w[-1] = 1 - sum(w[:-1])
            rows.append((u, tuple(w)))
        weights[c.id] = tuple(rows)
    return MixedSelection(weights)


def random_atom_space(rng):
    atom_kind = rng.choice([CellKind.SATURATED, CellKind.POINT_MASS])
    extra = rng.randint(0, 3)
    masses = random_masses(rng, extra + 1)
    cells = []
    if atom_kind is CellKind.SATURATED:
        cells.append(Cell("D", masses[0], CellKind.SATURATED, "D"))
        for i in range(extra):
            cells.append(Cell(f"c{i}", masses[i + 1], CellKind.RICH, f"g{rng.randrange(2)}"))
    else:
        block = rng.choice(["gD", "shared"])
        cells.append(Cell("D", masses[0], CellKind.POINT_MASS, block))
        for i in range(extra):
            b = "shared" if block == "shared" and i == 0 else f"g{rng.randrange(2)}"
            cells.append(Cell(f"c{i}", masses[i + 1], CellKind.RICH, b))
    return MeasureSpaceModel(tuple(cells)), "D"


# -- criterion 1 ----------------------------------------------------------------


class TestCriterion1Convexity:
    def test_atom_free_witnesses_exact(self):
        rng = random.Random(101)
        for _ in range(200):
            space = random_atomless_space(rng)
            Fc = random_correspondence(rng, space)
            s1 = random_selection(rng, Fc)
            s2 = random_selection(rng, Fc)
            alpha = F(rng.randint(0, 12), 12)
            witness = convexify_witness(Fc, s1, s2, alpha)
            assert isinstance(witness, Selection)
            e0 = space.conditional_expectation(selection_value(Fc, witness))
            target = linear_combination(
                space,
                [
                    (alpha, space.conditional_expectation(selection_value(Fc, s1))),
                    (1 - alpha, space.conditional_expectation(selection_value(Fc, s2))),
                ],
            )
            assert functions_equal(space, e0, target)

            mixed = random_mixed_selection(rng, Fc)
            s = derandomize_selection(Fc, mixed)
            em = space.conditional_expectation(mixed_value(Fc, mixed))
            es = space.conditional_expectation(selection_value(Fc, s))
            assert functions_equal(space, es, em)
            for c in space.cells:
                for lo, hi in refinement_on(Fc, c, breakpoints(mixed, c)):
                    w = payload_at(mixed, c, lo)
                    used = {
                        payload_at(s, c, t)
                        for t in _probe_points(s, c, lo, hi)
                    }
                    assert used <= {k for k, x in enumerate(w) if x > 0}
        report_line(
            1,
            True,
            "200 atom-free spaces: exact convexification and derandomization",
        )

    def test_atom_membership_fails_at_half_mass(self):
        rng = random.Random(102)
        for _ in range(50):
            space, atom = random_atom_space(rng)
            Fc = indicator_correspondence(space, atom)
            half = linear_combination(
                space,
                [(F(1, 2), space.conditional_expectation(indicator_of_cells(space, [atom])))],
            )
            result = membership(Fc, half, tolerance=F(0))
            assert not result.member
            assert result.certificate.distance == space.cell(atom).mass / 2
        report_line(
            1,
            True,
            "50 atom spaces: membership refused with certified distance mass/2",
        )


def _probe_points(s, cell, lo, hi):
    points = [lo]
    for upto, _k in s.plan[cell.id]:
        if lo < upto < hi:
            points.append(upto)
    return points


# -- criterion 2 ----------------------------------------------------------------


def brute_force_cloud(Fc, label, grid):
    """Exact block averages of all grid-constant selections, via count
    multisets (independent of the region code path).  Every contribution is
    an integer over one common denominator, so the sums are integer sums,
    and each coordinate is divided by the denominator times the block mass
    once, at the end."""
    import math

    sp = Fc.space
    cells = sp.blocks[label]
    mass = sp.block_mass(label)
    # (scale, branch values, rich): a rich piece adds scale * sum(count * v)
    # over a composition of the grid, a point cell scale * v for one branch
    factors = []
    for c in cells:
        if c.has_inner:
            for lo, hi in refinement_on(Fc, c):
                factors.append(((hi - lo) * c.mass / grid, branch_values(Fc, c, lo), True))
        else:
            factors.append((c.mass, branch_values(Fc, c, F(0)), False))
    den = math.lcm(
        *((scale * x).denominator for scale, values, _ in factors for v in values for x in v)
    )
    cloud = {(0,) * Fc.dim}
    for scale, values, rich in factors:
        ints = [tuple((scale * x * den).numerator for x in v) for v in values]
        if rich:
            sums = {
                tuple(sum(cnt * v[d] for cnt, v in zip(counts, ints)) for d in range(Fc.dim))
                for counts in _compositions(grid, len(ints))
            }
        else:
            sums = set(ints)
        cloud = {tuple(a + b for a, b in zip(point, offset)) for point in cloud for offset in sums}
    # x / (den * mass) keeps the order of the integer tuples
    scale = (mass.denominator, den * mass.numerator)
    return [tuple(F(x * scale[0], scale[1]) for x in point) for point in sorted(cloud)]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _criterion2_fixture(rng, grid):
    """Keep the oracle tractable: the brute-force cloud has
    prod_pieces C(grid+K-1, K-1) points, so piece/branch counts are bounded
    so that the product stays near 20k."""
    import math

    dim = rng.choice([1, 1, 2, 3])
    K = rng.choice([2, 2, 3] if dim > 1 else [2, 3, 4])
    per_piece = math.comb(grid + K - 1, K - 1)
    max_pieces = 1
    while per_piece ** (max_pieces + 1) <= 25000 and max_pieces < 4:
        max_pieces += 1
    n_rich = 1 if max_pieces == 1 else rng.randint(1, 2)
    split_cells = max(0, max_pieces - n_rich)
    with_point = rng.random() < 0.3
    count = n_rich + (1 if with_point else 0)
    masses = random_masses(rng, count)
    cells = [
        Cell(f"r{i}", masses[i], CellKind.RICH, "g") for i in range(n_rich)
    ]
    if with_point:
        cells.append(Cell("p", masses[-1], CellKind.POINT_MASS, "g"))
    space = MeasureSpaceModel(tuple(cells))
    cuts = {
        c.id: sorted({F(rng.randint(1, 3), 4), F(1)})
        if i < split_cells
        else [F(1)]
        for i, c in enumerate(space.cells)
        if c.has_inner
    }
    branches = []
    for _ in range(K):
        values = {}
        for c in space.cells:
            if c.has_inner:
                values[c.id] = tuple(
                    (u, tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
                    for u in cuts[c.id]
                )
            else:
                values[c.id] = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        branches.append(StepFunction(dim, values))
    return FiniteIndexedCorrespondence(space, tuple(branches))


class TestCriterion2BlockSetOracle:
    def test_block_set_matches_brute_force(self):
        rng = random.Random(202)
        grid = 16
        for _ in range(50):
            Fc = _criterion2_fixture(rng, grid)
            region = block_set(Fc, "g")
            cloud = brute_force_cloud(Fc, "g", grid)
            cloud_arr = np.array([[float(x) for x in p] for p in cloud])
            all_values = [
                v
                for c in Fc.space.cells
                for lo, _hi in refinement_on(Fc, c)
                for v in branch_values(Fc, c, lo)
            ]
            diam = max(
                (
                    float(sum((a - b) ** 2 for a, b in zip(p, q))) ** 0.5
                    for p in all_values
                    for q in all_values
                ),
                default=0.0,
            )
            tol = diam / grid
            # direction 1: the cloud sits inside the region.  Every point is
            # dominated by the support function along the probe directions
            # (float lane); directional extremes and a spread sample are
            # certified by exact membership.
            directions = _directions(Fc.dim)
            sample = set(range(0, len(cloud), max(1, len(cloud) // 20)))
            for d in directions:
                darr = np.array([float(x) for x in d])
                scores = cloud_arr @ darr
                assert scores.max() <= float(region.support(d)) + 1e-9
                sample.add(int(scores.argmax()))
            for i in sorted(sample):
                assert region.contains(cloud[i])
            # direction 2: region points are near the cloud (vertices plus
            # seeded mixtures), within diam/grid
            probes = [v for poly in region.polytopes() for v in poly]
            probes.extend(_random_region_points(rng, region, 10))
            for p in probes:
                pf = np.array([float(x) for x in p])
                dist = np.sqrt(((cloud_arr - pf) ** 2).sum(axis=1)).min()
                assert dist <= tol + 1e-12, (dist, tol)
        report_line(2, True, "50 fixtures: Hausdorff within diam/16 of the 16-grid oracle")


def _directions(dim):
    out = []
    for d in range(dim):
        e = [F(0)] * dim
        e[d] = F(1)
        out.append(tuple(e))
        e2 = list(e)
        e2[d] = F(-1)
        out.append(tuple(e2))
    if dim > 1:
        out.append(tuple(F(1) for _ in range(dim)))
        out.append(tuple(F(-1) for _ in range(dim)))
        out.append(tuple(F(1) if i % 2 else F(-1) for i in range(dim)))
    return out


def _random_region_points(rng, region, count):
    # convex mixtures of summand points plus a point-set choice, exact
    points = []
    for _ in range(count):
        total = [F(0)] * region.dim
        for _coeff, pts in region.summands:
            weights = [rng.randint(0, 3) for _ in pts]
            if sum(weights) == 0:
                weights[0] = 1
            s = sum(weights)
            for w, p in zip(weights, pts):
                for d in range(region.dim):
                    total[d] += _coeff * F(w, s) * p[d]
        for pts in region.point_sets:
            choice = pts[rng.randrange(len(pts))]
            for d in range(region.dim):
                total[d] += choice[d]
        points.append(tuple(x / region.block_mass for x in total))
    return points


# -- criterion 3 ----------------------------------------------------------------


class TestCriterion3Escape:
    def test_identities_and_certificate(self):
        space = MeasureSpaceModel(
            (
                Cell("D", F(1, 2), CellKind.SATURATED, "D"),
                Cell("r", F(1, 2), CellKind.RICH, "g"),
            )
        )
        rng = random.Random(303)
        for m in range(1, 13):
            levels = range(0, m) if m <= 7 else list(range(0, 4)) + [m - 1]
            tests = []
            for k in levels:
                denom = 2**k
                if denom <= 64:
                    idxs = range(denom)
                else:
                    idxs = sorted(rng.sample(range(denom), 32))
                for i in idxs:
                    tests.append(
                        dyadic_indicator(space, "D", F(i, denom), F(i + 1, denom))
                    )
            # one random-valued test function at the finest admissible level
            fine = 2 ** min(m - 1, 6) if m > 1 else 1
            values = {
                "D": tuple(
                    (F(i + 1, fine), (F(rng.randint(-4, 4), 2),)) for i in range(fine)
                ),
                "r": ((F(1), (F(0),)),),
            }
            tests.append(StepFunction(1, values))
            report = rademacher_escape(space, "D", m, tests)
            assert report.integral == F(1, 4)
            for entry in report.tests:
                assert entry.lhs == entry.rhs
        assert limit_escape_certificate(space, "D") == F(1, 4)
        full = MeasureSpaceModel((Cell("D", F(1), CellKind.SATURATED, "D"),))
        assert limit_escape_certificate(full, "D") == F(1, 2)
        report_line(
            3,
            True,
            "alternating-selection identities exact through m=12; certificate mass/2",
        )


# -- criterion 4 ----------------------------------------------------------------


class TestCriterion4UhcDichotomy:
    @pytest.mark.parametrize("mass", [F(1), F(1, 2), F(1, 3)])
    def test_dichotomy(self, mass):
        filler = []
        if mass != 1:
            filler = [Cell("r", 1 - mass, CellKind.RICH, "g")]
        rich_space = MeasureSpaceModel(
            tuple([Cell("D", mass, CellKind.RICH, "gD")] + filler)
        )
        sat_space = MeasureSpaceModel(
            tuple([Cell("D", mass, CellKind.SATURATED, "D")] + filler)
        )
        rich_report = uhc_audit(rich_space, "D", depth=6)
        sat_report = uhc_audit(sat_space, "D", depth=6)
        assert rich_report.limit_in_H0 and rich_report.defect == 0
        assert rich_report.averages_constant
        assert not sat_report.limit_in_H0
        assert sat_report.defect == mass / 2
        assert sat_report.identities_ok
        if mass == F(1, 3):
            report_line(
                4, True, "limit attainability dichotomy exact for masses 1, 1/2, 1/3"
            )


# -- criterion 5 ----------------------------------------------------------------


class TestCriterion5ExistencePipeline:
    def test_solve_and_purify_hundred_games(self):
        rng = random.Random(505)
        epsilon = F(1, 10**9)
        start = time.time()
        solved = 0
        for trial in range(100):
            kind = trial % 3
            if kind == 0:
                game = random_coarser_game(rng, 2, zero_sum=True)
                options = SolveOptions(method="lp", epsilon=epsilon)
            elif kind == 1:
                game = random_coarser_game(rng, 2, max_blocks=2)
                options = SolveOptions(method="enum", epsilon=epsilon, max_iters=400)
            else:
                game = random_dominance_game(rng, 3)
                options = SolveOptions(method="br", epsilon=epsilon, max_iters=800)
            report = solve_behavioral(game, options)
            assert report.converged, (trial, report.eps)
            assert max(report.eps) <= epsilon
            purified = purify_equilibrium(game, report)
            eps_pure = verify_equilibrium(game, purified.profile)
            assert max(eps_pure) <= epsilon
            assert purified.mixtures_preserved
            assert purified.payoffs_preserved
            u = expected_payoff(game, purified.profile)
            for i in range(len(game.players)):
                subbed = substitute_conditioned(game, list(purified.profile), i)
                assert expected_payoff(game, subbed)[i] == u[i]
            solved += 1
        elapsed = time.time() - start
        report_line(
            5,
            solved == 100 and elapsed < 60,
            f"{solved} games solved+purified at eps<=1e-9 in {elapsed:.1f}s (<60s)",
        )


# -- criterion 6 ----------------------------------------------------------------


class TestCriterion6StrongPurification:
    def test_hundred_profiles_zero_residuals(self):
        rng = random.Random(606)
        for trial in range(100):
            n = 2 if trial % 3 else 3
            game = random_coarser_game(rng, n, own_affine=trial % 4 == 0)
            profile = random_profile(rng, game)
            cert = strong_purify(game, profile, deviation_samples=16, seed=trial)
            assert cert.report.all_zero
            assert all(cert.block_identity)
            assert all(
                len(row) == 16 for row in cert.report.strong_residuals
            )
        report_line(
            6, True, "100 behavioral profiles strongly purified with zero residuals"
        )


# -- criterion 7 ----------------------------------------------------------------


class TestCriterion7NecessityLab:
    def test_search_and_balance(self):
        threshold = F(1, 100)
        for m in (2, 3):
            for variant in ("type-irrelevant", "independent-types"):
                game = PenniesGame(m, variant)
                report = no_pure_equilibrium_search(
                    game, budget=2, grid=8, epsilon=threshold
                )
                assert report.passed
                assert report.min_gain > threshold
                assert report.uniform_gains == (F(0), F(0))
        rng = random.Random(707)
        for _ in range(100):
            m = rng.choice([2, 3])
            arr = [rng.randrange(m) for _ in range(8)]
            part = IntervalUnionStrategy.from_grid(arr, m)
            assert balance_defect(part, side=rng.choice([1, 2])) > 0
        report_line(
            7,
            True,
            "search min gain > 1/100 (m=2,3 both variants); 100 positive balance defects",
        )

    def test_interim_weight_quadrature(self):
        from scipy import integrate as scipy_integrate

        rng = random.Random(708)
        worst = 0.0
        for _ in range(100):
            pieces = sorted(rng.sample(range(1, 16), 2))
            E = ((F(pieces[0], 16), F(pieces[1], 16)),)
            side = rng.choice([1, 2])
            point = F(rng.randint(1, 31), 32)
            got = float(interim_weight(E, point, side))
            if side == 2:
                l2 = float(point)

                def integrand(l1):
                    if not 0 < l1 <= l2:
                        return 0.0
                    return (1.0 / (2.0 * (1.0 - l1) * l2)) * 2.0 * (1.0 - l1)

            else:
                l1 = float(point)

                def integrand(l2):
                    if not l1 <= l2 < 1:
                        return 0.0
                    return (1.0 / (2.0 * (1.0 - l1) * l2)) * 2.0 * l2

            expected, _err = scipy_integrate.quad(
                integrand, float(E[0][0]), float(E[0][1]), limit=200
            )
            worst = max(worst, abs(got - expected))
        report_line(
            7, worst < 1e-10, f"closed form vs quadrature, max deviation {worst:.2e}"
        )


# -- criterion 8 ----------------------------------------------------------------


class TestCriterion8Determinism:
    def test_cli_byte_identical(self, capsys, tmp_path):
        invocations = [
            ["g-atom", str(FIXTURES / "saturated.json")],
            ["condexp-set", str(FIXTURES / "rich_F01.json")],
            ["convexify", str(FIXTURES / "rich_F01.json"), "--alpha", "1/3"],
            ["rademacher", str(FIXTURES / "saturated.json"), "--m", "5"],
            ["uhc-audit", str(FIXTURES / "saturated.json")],
            ["derive-info", str(FIXTURES / "mp_game.json")],
            ["coarser-check", str(FIXTURES / "mp_game.json")],
            ["solve", str(FIXTURES / "mp_game.json"), "--purify", "--seed", "7"],
            ["purify", str(FIXTURES / "mp_purify.json"), "--seed", "7"],
            ["audit-equivalence", str(FIXTURES / "mp_audit.json")],
            ["pennies", "--m", "2", "--budget", "1", "--grid", "4", "--seed", "7"],
        ]
        for argv in invocations:
            cli_main(argv)
            first = capsys.readouterr().out
            cli_main(argv)
            second = capsys.readouterr().out
            assert first == second, argv
            assert first.endswith("\n")
            json.loads(first)  # round-trips as JSON
        report_line(8, True, "all 11 subcommands byte-identical across repeated runs")

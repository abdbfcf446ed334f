"""Seeded item pools for the four workloads, and the semantic half of the gate.

Each workload is a pool of items.  An item is one ``condexp`` CLI invocation
on a fixture file written from the pool; the pool depends only on the
workload's pinned pool seed (the pennies grid has none), so every item has a
committed report digest in ``manifest.json``.  The run seed only fixes the
order in which the pool is played (see ``run.py``).

The game and region generators are ported from the test suite's factories
and acceptance fixtures instead of imported, so an edit to a test cannot
shift a workload.  They build library objects (the coarser-game generator
rejects draws through ``derive_interplayer_info``) and hand the program only
fixture-schema JSON produced by ``condexp.serialize``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from condexp import serialize
from condexp.correspondences import FiniteIndexedCorrespondence, Selection, selection_value
from condexp.games import BayesianGame, BehavioralStrategy, Entry, PlayerSpec, TypeCell
from condexp.games import derive_interplayer_info
from condexp.measure import Cell, CellKind, MeasureSpaceModel, StepFunction

F = Fraction
SOLVE_EPS = F(1, 10**9)
PENNIES_EXHAUSTIVE_MAX = 600  # no_pure_equilibrium_search's max_strategies


@dataclass
class Item:
    """One CLI call: ``argv`` with ``{fixture}`` standing for the written file."""

    id: str
    argv: list[str]
    doc: dict | None = None
    expect: dict = field(default_factory=dict)


# -- games (ported from the test suite's game factories) ----------------------


def _centered_block_values(rng, block_masses):
    raw = [F(rng.randint(-2, 2)) for _ in block_masses]
    total = sum(block_masses)
    mean = sum(m * v for m, v in zip(block_masses, raw)) / total
    return [v - mean for v in raw]


def random_coarser_game(
    rng, n_players=2, zero_sum=False, own_affine=False, max_actions=3, max_units=3, max_blocks=3
) -> BayesianGame:
    """A game whose derived information equals an intended block partition."""
    while True:
        game, intended = _attempt_game(
            rng, n_players, zero_sum, own_affine, max_actions, max_units, max_blocks
        )
        info = derive_interplayer_info(game)
        if all(tuple(p.block_of_unit) == tuple(intended[i]) for i, p in enumerate(info)):
            return game


def _attempt_game(rng, n_players, zero_sum, own_affine, max_actions, max_units, max_blocks):
    specs, unit_blocks, block_masses = [], [], []
    for i in range(n_players):
        m = rng.randint(2, max_actions)
        if zero_sum and i > 0:
            m = len(specs[0].actions)
        n_units = rng.randint(2, max_units)
        grid = tuple(F(k + 1, n_units) for k in range(n_units))
        specs.append(
            PlayerSpec(tuple(f"a{j + 1}" for j in range(m)), (TypeCell(f"t{i + 1}", F(1), grid),))
        )
        n_blocks = rng.randint(1, min(max_blocks, n_units))
        assign = [u % n_blocks for u in range(n_units)]
        rng.shuffle(assign)
        seen = {}
        assign = [seen.setdefault(b, len(seen)) for b in assign]
        unit_blocks.append(assign)
        masses = [F(0)] * (max(assign) + 1)
        for b in assign:
            masses[b] += F(1, n_units)
        block_masses.append(masses)

    # density: 1 plus centered pairwise block perturbations (marginals stay 1)
    perturbations = []
    for i, j in itertools.combinations(range(n_players), 2):
        if rng.random() < 0.5:
            continue
        xi = _centered_block_values(rng, block_masses[i])
        xj = _centered_block_values(rng, block_masses[j])
        perturbations.append((i, j, xi, xj))
    delta = F(1, 16 * max(1, len(perturbations)))
    unit_counts = [len(s.cells[0].grid) for s in specs]
    keys = list(itertools.product(*[range(c) for c in unit_counts]))
    density = {}
    for key in keys:
        q = F(1)
        for i, j, xi, xj in perturbations:
            q += delta * xi[unit_blocks[i][key[i]]] * xj[unit_blocks[j][key[j]]]
        density[key] = Entry(q)

    # payoffs: base matrix + own-block terms + separating opponent-block terms
    profiles = list(itertools.product(*[range(len(s.actions)) for s in specs]))
    base = {(i, x): F(rng.randint(-2, 2)) for i in range(n_players) for x in profiles}
    if zero_sum:
        for x in profiles:
            base[(1, x)] = -base[(0, x)]
    own_term, dep_term = [], []
    for i in range(n_players):
        m = len(specs[i].actions)
        own_term.append([[F(rng.randint(-2, 2), 4) for _ in range(m)] for _ in block_masses[i]])
        dep_term.append([F(b + 1, 8) for b in range(len(block_masses[i]))])
    affine = {}
    if own_affine and not zero_sum:
        carrier = rng.randrange(n_players)
        for x in profiles:
            if rng.random() < 0.6:
                affine[(carrier, x)] = F(rng.randint(1, 2), 4)

    payoffs = []
    for i in range(n_players):
        tables = {}
        for x in profiles:
            table = {}
            for key in keys:
                v = base[(i, x)] + own_term[i][unit_blocks[i][key[i]]][x[i]]
                for j in range(n_players):
                    if j != i:
                        v += dep_term[j][unit_blocks[j][key[j]]] * F(1 + x[i])
                slope = affine.get((i, x), F(0))
                table[key] = Entry(v, slope, i) if slope else Entry(v)
            tables[x] = table
        payoffs.append(tables)
    if zero_sum:
        payoffs[1] = {
            x: {
                key: Entry(-e.const, -e.slope, e.coord if e.slope else None)
                for key, e in payoffs[0][x].items()
            }
            for x in profiles
        }
    return BayesianGame(tuple(specs), density, tuple(payoffs)), unit_blocks


def random_dominance_game(rng, n_players=3) -> BayesianGame:
    """Games with a strictly dominant action per (player, block)."""
    specs, unit_blocks = [], []
    for i in range(n_players):
        m = rng.randint(2, 3)
        n_units = rng.randint(2, 3)
        grid = tuple(F(k + 1, n_units) for k in range(n_units))
        specs.append(
            PlayerSpec(tuple(f"a{j + 1}" for j in range(m)), (TypeCell(f"t{i + 1}", F(1), grid),))
        )
        n_blocks = rng.randint(1, 2)
        seen = {}
        unit_blocks.append([seen.setdefault(u % n_blocks, len(seen)) for u in range(n_units)])
    unit_counts = [len(s.cells[0].grid) for s in specs]
    keys = list(itertools.product(*[range(c) for c in unit_counts]))
    density = {key: Entry(F(1)) for key in keys}
    dominant = [
        [rng.randrange(len(specs[i].actions)) for _ in range(max(unit_blocks[i]) + 1)]
        for i in range(n_players)
    ]
    profiles = list(itertools.product(*[range(len(s.actions)) for s in specs]))
    payoffs = []
    for i in range(n_players):
        tables = {}
        for x in profiles:
            table = {}
            coupling = F(rng.randint(-1, 1), 4)
            for key in keys:
                v = (F(2) if x[i] == dominant[i][unit_blocks[i][key[i]]] else F(0)) + coupling
                for j in range(n_players):
                    if j != i:
                        v += F(unit_blocks[j][key[j]] + 1, 8) * F(1 + x[i])
                table[key] = Entry(v)
            tables[x] = table
        payoffs.append(tables)
    return BayesianGame(tuple(specs), density, tuple(payoffs))


def random_behavioral(spec: PlayerSpec, rng) -> BehavioralStrategy:
    m = len(spec.actions)

    def random_weights():
        raw = [rng.randint(0, 4) for _ in range(m)]
        if sum(raw) == 0:
            raw[rng.randrange(m)] = 1
        total = sum(raw)
        w = [F(x, total) for x in raw]
        w[-1] = 1 - sum(w[:-1])
        return tuple(w)

    plan = {}
    for cell in spec.cells:
        if cell.point:
            plan[cell.id] = random_weights()
            continue
        cuts = sorted({F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))})
        plan[cell.id] = tuple((u, random_weights()) for u in cuts + [F(1)])
    return BehavioralStrategy(plan)


# -- solve-purify --------------------------------------------------------------
# The only workload where the solvers and the equality-heavy simplex tableaux
# of the support polish dominate.  Most items follow the existence-pipeline
# rotation (zero-sum by LP, <=2-block general-sum by support enumeration,
# three-player dominance games by damped best response); the hard share is
# two-player, <=4 blocks, <=6 units, <=4 actions, method auto, and carries the
# known support-enumeration failures, so the ok share can move.

SOLVE_ROTATION = 80
SOLVE_HARD = 20


def solve_purify_pool(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for k in range(SOLVE_ROTATION + SOLVE_HARD):
        if k >= SOLVE_ROTATION:
            game = random_coarser_game(rng, 2, max_blocks=4, max_units=6, max_actions=4)
            flags, family = ["--method", "auto"], "hard"
        elif k % 3 == 0:
            game = random_coarser_game(rng, 2, zero_sum=True)
            flags, family = ["--method", "lp"], "lp"
        elif k % 3 == 1:
            game = random_coarser_game(rng, 2, max_blocks=2)
            flags, family = ["--method", "enum", "--max-iters", "400"], "enum"
        else:
            game = random_dominance_game(rng, 3)
            flags, family = ["--method", "br", "--max-iters", "800"], "br"
        items.append(
            Item(
                f"solve-{k:03d}-{family}",
                ["solve", "{fixture}", "--purify", *flags],
                serialize.dump_game(game),
            )
        )
    return items


def check_solve(report: dict, item: Item) -> list[str]:
    problems = []
    if not report.get("converged"):
        problems.append("not converged")
        return problems
    purified = report.get("purified", {})
    if any(F(e) > SOLVE_EPS for e in purified.get("eps", ["1"])):
        problems.append("purified eps above 1e-9")
    for flag in ("mixtures_preserved", "payoffs_preserved"):
        if purified.get(flag) is not True:
            problems.append(f"{flag} is not true")
    return problems


# -- strong-purify -------------------------------------------------------------
# About four fifths of the time goes to interim payoffs (games.interim_affine
# under player_payoff) with no solver and no LP: compiled game tables show up
# here, and solver or geometry changes must not move it.  Two-player
# coarser games with a three-player game every fifth item (three-player
# items cost ten times as much), own-affine terms on every fourth, plus a
# minority of four-player, two-action games with up to 3 units per player.

PURIFY_SMALL = 97
PURIFY_FOUR = 3


def strong_purify_pool(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for k in range(PURIFY_SMALL + PURIFY_FOUR):
        if k >= PURIFY_SMALL:
            game = random_coarser_game(rng, 4, max_units=3, max_actions=2)
        else:
            game = random_coarser_game(rng, 3 if k % 5 == 4 else 2, own_affine=k % 4 == 0)
        profile = [random_behavioral(spec, rng) for spec in game.players]
        doc = {
            "game": serialize.dump_game(game),
            "profile": [serialize.dump_strategy(s, spec) for s, spec in zip(profile, game.players)],
        }
        items.append(
            Item(
                f"purify-{k:03d}-n{len(game.players)}",
                ["purify", "{fixture}", "--samples", "16", "--seed", str(k)],
                doc,
            )
        )
    return items


def check_purify(report: dict, item: Item) -> list[str]:
    problems = []
    if report.get("all_zero") is not True:
        problems.append("residuals not all zero")
    if not report.get("block_identity") or not all(report["block_identity"]):
        problems.append("block identity fails")
    return problems


# -- regions -------------------------------------------------------------------
# Covers rational_geometry (vertex filtering by LP, subset-enumerating
# nearest point), attainable and measure, and touches no game code.
# Membership points are inside by construction (a selection's conditional
# expectation) or outside by construction (one past the largest branch value
# in the first coordinate); convexify runs on correspondences with point
# cells where both selections agree on the atoms; uhc-audit runs on rich and
# saturated cells.

REGIONS_MEMBERSHIP = 60
REGIONS_CONVEXIFY = 24
REGIONS_UHC = 16


def _random_masses(rng, count):
    raw = [rng.randint(1, 5) for _ in range(count)]
    masses = [F(x, sum(raw)) for x in raw]
    masses[-1] = 1 - sum(masses[:-1])
    return masses


def random_region_correspondence(rng, with_point: bool) -> FiniteIndexedCorrespondence:
    """Dimension 1-3, 2-4 pieces in one coarse block, 2-4 branches.

    Vertex counts grow steeply with dimension, pieces and branches, so the
    higher dimensions draw fewer of both to keep each item near a second.
    """
    dim = rng.randint(1, 3)
    branches = rng.randint(2, (4, 3, 2)[dim - 1])
    pieces = rng.randint(2, (4, 4, 3)[dim - 1])
    n_rich = rng.randint(1, min(2, pieces))
    masses = _random_masses(rng, n_rich + (1 if with_point else 0))
    cells = [Cell(f"r{i}", masses[i], CellKind.RICH, "g") for i in range(n_rich)]
    if with_point:
        cells.append(Cell("p", masses[-1], CellKind.POINT_MASS, "g"))
    space = MeasureSpaceModel(tuple(cells))
    # spread the pieces over the rich cells
    cut_counts = [1] * n_rich
    for _ in range(pieces - n_rich):
        cut_counts[rng.randrange(n_rich)] += 1
    cuts = {
        c.id: sorted(set(F(u, 8) for u in rng.sample(range(1, 8), n - 1)) | {F(1)})
        for c, n in zip(cells, cut_counts)
    }
    fns = []
    for _ in range(branches):
        values = {}
        for c in cells:
            if c.has_inner:
                values[c.id] = tuple(
                    (u, tuple(F(rng.randint(-3, 3)) for _ in range(dim))) for u in cuts[c.id]
                )
            else:
                values[c.id] = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        fns.append(StepFunction(dim, values))
    return FiniteIndexedCorrespondence(space, tuple(fns))


def random_selection(rng, corr, point_branch=None) -> Selection:
    assignments = {}
    for c in corr.space.cells:
        if not c.has_inner:
            assignments[c.id] = (
                point_branch if point_branch is not None else rng.randrange(corr.branch_count)
            )
            continue
        cuts = sorted({F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))})
        assignments[c.id] = tuple((u, rng.randrange(corr.branch_count)) for u in cuts + [F(1)])
    return Selection(assignments)


def _outside_point(corr) -> StepFunction:
    space = corr.space
    top = max(
        v[0]
        for fn in corr.branches
        for c in space.cells
        for _lo, _hi, v in fn.pieces_on(c)
    )
    value = (top + 1,) + tuple(F(0) for _ in range(corr.dim - 1))
    return StepFunction(
        corr.dim,
        {c.id: ((F(1), value),) if c.has_inner else value for c in space.cells},
    )


def _uhc_space(rng, kind: CellKind):
    mass = rng.choice([F(1), F(1, 2), F(1, 3)])
    cells = [Cell("D", mass, kind, "D" if kind is CellKind.SATURATED else "gD")]
    if mass != 1:
        cells.append(Cell("r", 1 - mass, CellKind.RICH, "g"))
    return MeasureSpaceModel(tuple(cells)), mass


def regions_pool(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for k in range(REGIONS_MEMBERSHIP):
        corr = random_region_correspondence(rng, with_point=rng.random() < 0.3)
        inside = k % 2 == 0
        if inside:
            h = corr.space.conditional_expectation(selection_value(corr, random_selection(rng, corr)))
        else:
            h = _outside_point(corr)
        doc = serialize.dump_correspondence(corr)
        doc["h"] = serialize.dump_step_function(h, corr.space)
        items.append(
            Item(
                f"member-{k:03d}-{'in' if inside else 'out'}-d{corr.dim}",
                ["condexp-set", "{fixture}"],
                doc,
                {"member": inside, "dim": corr.dim, "exit": 0 if inside else 2},
            )
        )
    for k in range(REGIONS_CONVEXIFY):
        corr = random_region_correspondence(rng, with_point=True)
        shared = rng.randrange(corr.branch_count)
        s1 = random_selection(rng, corr, shared)
        s2 = random_selection(rng, corr, shared)
        alpha = F(rng.randint(1, 11), 12)
        doc = {
            "correspondence": serialize.dump_correspondence(corr),
            "s1": serialize.dump_selection(s1, corr.space),
            "s2": serialize.dump_selection(s2, corr.space),
        }
        items.append(
            Item(f"convexify-{k:03d}", ["convexify", "{fixture}", "--alpha", str(alpha)], doc)
        )
    for k in range(REGIONS_UHC):
        kind = CellKind.SATURATED if k % 2 else CellKind.RICH
        space, mass = _uhc_space(rng, kind)
        depth = 6 + (k // 2) % 6
        items.append(
            Item(
                f"uhc-{k:03d}-{kind.value}-d{depth}",
                ["uhc-audit", "{fixture}", "--cell", "D", "--depth", str(depth)],
                {"space": serialize.dump_space(space)},
                {"defect": str(mass / 2 if kind is CellKind.SATURATED else F(0))},
            )
        )
    return items


def check_regions(report: dict, item: Item) -> list[str]:
    cmd = item.argv[0]
    if cmd == "condexp-set":
        verdict = report.get("membership", {})
        if verdict.get("member") is not item.expect["member"]:
            return ["membership verdict differs from construction"]
        cert = verdict.get("certificate")
        if not item.expect["member"] and item.expect["dim"] <= 3:
            if not cert or cert.get("distance") is None or cert.get("direction") is None:
                return ["outside point lacks distance or direction"]
        return []
    if cmd == "convexify":
        return [] if report.get("identity_verified") is True else ["blend identity not verified"]
    if F(report.get("defect", "-1")) != F(item.expect["defect"]):
        return ["uhc defect differs from mass/2 (saturated) or 0 (rich)"]
    return []


# -- pennies-lab ---------------------------------------------------------------
# The only workload that runs the pennies lab: the numpy float lane against
# materialising the strategy family.  The grid spans exhaustive families
# (<= 600 strategies) and sampled ones of 10^3 to 10^5 strategies.
# Budget 8 with grid 64 sits inside the advertised guard but its family has
# 9.0e9 strategies and would exhaust memory; it is left out (see README).

PENNIES_GRID = [(b, g) for b in (1, 2, 3, 4) for g in (4, 8, 16)] + [(2, 32)]
PENNIES_MAX_FAMILY = 100_000
PENNIES_EPSILON = "1/1000"


def pennies_family_size(m: int, grid: int, budget: int) -> int:
    return sum(math.comb(grid - 1, k) * m * (m - 1) ** k for k in range(budget + 1))


def pennies_pool() -> list[Item]:
    # A fixed grid, so this pool has no seed.  --seed is never passed:
    # cmd_pennies ignores it today, and passing it would tie the digests to
    # that bug.
    items = []
    for m in (2, 3):
        for variant in ("type-irrelevant", "independent-types"):
            for budget, grid in PENNIES_GRID:
                family = pennies_family_size(m, grid, budget)
                if family > PENNIES_MAX_FAMILY:
                    continue
                argv = ["pennies", "--m", str(m), "--variant", variant, "--budget", str(budget),
                        "--grid", str(grid), "--epsilon", PENNIES_EPSILON]
                items.append(
                    Item(
                        f"pennies-m{m}-{variant[:3]}-b{budget}-g{grid}",
                        argv,
                        None,
                        {"exhaustive": family <= PENNIES_EXHAUSTIVE_MAX, "family": family},
                    )
                )
    return items


def check_pennies(report: dict, item: Item) -> list[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append("search did not pass")
    if F(report.get("min_gain", "0")) <= F(report.get("epsilon", PENNIES_EPSILON)):
        problems.append("min_gain not above epsilon")
    if report.get("exhaustive") is not item.expect["exhaustive"]:
        problems.append("exhaustive flag differs from the family-size prediction")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[..., list[Item]]
    check: Callable[[dict, Item], list[str]]
    pool_seed: int | None  # None for a pool that draws nothing at random

    def items(self) -> list[Item]:
        return self.pool() if self.pool_seed is None else self.pool(self.pool_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-purify", solve_purify_pool, check_solve, 505),
        Workload("strong-purify", strong_purify_pool, check_purify, 606),
        Workload("regions", regions_pool, check_regions, 202),
        Workload("pennies-lab", pennies_pool, check_pennies, None),
    )
}

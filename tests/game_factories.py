"""Randomized game generators used by unit and acceptance tests.

Games built here always have derived inter-player information equal to an
intended per-player block partition, all-interval type cells, and payoffs
measurable with respect to the player's own blocks (except where own-affine
terms are requested, which never disturb anyone's information).
"""

import itertools
import random
from fractions import Fraction

from condexp.games import (
    BayesianGame,
    Entry,
    PlayerSpec,
    PureStrategy,
    TypeCell,
    derive_interplayer_info,
)
from condexp.piecewise import pack_pieces

F = Fraction

# Every draw of the suite matches within 3 attempts, so no drawn game depends
# on this bound; a table or derivation defect that never matches fails here
# instead of hanging the run.
MAX_ATTEMPTS = 50


def _centered_block_values(rng, block_masses):
    raw = [F(rng.randint(-2, 2)) for _ in block_masses]
    total = sum(m for m in block_masses)
    mean = sum(m * v for m, v in zip(block_masses, raw)) / total
    return [v - mean for v in raw]


def random_coarser_game(
    rng: random.Random,
    n_players: int = 2,
    zero_sum: bool = False,
    own_affine: bool = False,
    max_actions: int = 3,
    max_units: int = 3,
    max_blocks: int = 3,
) -> BayesianGame:
    for _ in range(MAX_ATTEMPTS):
        game, intended = _attempt_game(
            rng, n_players, zero_sum, own_affine, max_actions, max_units, max_blocks
        )
        info = derive_interplayer_info(game)
        if all(
            tuple(part.block_of_unit) == tuple(intended[i])
            for i, part in enumerate(info)
        ):
            return game
    raise RuntimeError(f"no game with its intended information in {MAX_ATTEMPTS} attempts")


def _attempt_game(rng, n_players, zero_sum, own_affine, max_actions, max_units, max_blocks):
    specs = []
    unit_blocks = []  # per player: block index per unit
    block_masses = []
    for i in range(n_players):
        m = rng.randint(2, max_actions)
        if zero_sum and i > 0:
            m = len(specs[0].actions)
        n_units = rng.randint(2, max_units)
        grid = tuple(F(k + 1, n_units) for k in range(n_units))
        specs.append(
            PlayerSpec(
                tuple(f"a{j + 1}" for j in range(m)),
                (TypeCell(f"t{i + 1}", F(1), grid),),
            )
        )
        n_blocks = rng.randint(1, min(max_blocks, n_units))
        assign = [u % n_blocks for u in range(n_units)]
        rng.shuffle(assign)
        # renumber blocks in first-seen order so they match derived ordering
        seen = {}
        assign = [seen.setdefault(b, len(seen)) for b in assign]
        unit_blocks.append(assign)
        masses = [F(0)] * (max(assign) + 1)
        for u, b in enumerate(assign):
            masses[b] += F(1, n_units)
        block_masses.append(masses)

    # density: 1 plus centered pairwise block perturbations (marginals stay 1)
    pairs = [(i, j) for i in range(n_players) for j in range(i + 1, n_players)]
    perturbations = []
    for (i, j) in pairs:
        if rng.random() < 0.5:
            continue
        xi = _centered_block_values(rng, block_masses[i])
        xj = _centered_block_values(rng, block_masses[j])
        perturbations.append((i, j, xi, xj))
    delta = F(1, 16 * max(1, len(perturbations)))
    density = {}
    unit_counts = [len(specs[i].cells[0].grid) for i in range(n_players)]
    for key in itertools.product(*[range(c) for c in unit_counts]):
        q = F(1)
        for (i, j, xi, xj) in perturbations:
            q += delta * xi[unit_blocks[i][key[i]]] * xj[unit_blocks[j][key[j]]]
        density[key] = Entry(q)

    # payoffs: base matrix + own-block terms + separating opponent-block terms
    profiles = list(itertools.product(*[range(len(s.actions)) for s in specs]))
    base = {}
    for i in range(n_players):
        for x in profiles:
            base[(i, x)] = F(rng.randint(-2, 2))
    if zero_sum:
        for x in profiles:
            base[(1, x)] = -base[(0, x)]
    own_term = []
    dep_term = []
    for i in range(n_players):
        m = len(specs[i].actions)
        own_term.append(
            [[F(rng.randint(-2, 2), 4) for _ in range(m)] for _ in block_masses[i]]
        )
        # distinct per-block separators so derived blocks cannot merge
        dep_term.append([F(b + 1, 8) for b in range(len(block_masses[i]))])
    affine_flags = {}
    if own_affine and not zero_sum:
        # one carrier player: the tuple-level "one affine coordinate" rule
        # forbids mixing own-affine terms of different players
        carrier = rng.randrange(n_players)
        for x in profiles:
            if rng.random() < 0.6:
                affine_flags[(carrier, x)] = F(rng.randint(1, 2), 4)

    payoffs = []
    for i in range(n_players):
        tables = {}
        for x in profiles:
            table = {}
            for key in itertools.product(*[range(c) for c in unit_counts]):
                v = base[(i, x)]
                v += own_term[i][unit_blocks[i][key[i]]][x[i]]
                for j in range(n_players):
                    if j != i:
                        v += dep_term[j][unit_blocks[j][key[j]]] * F(1 + x[i])
                slope = affine_flags.get((i, x), F(0))
                table[key] = Entry(v, slope, i) if slope else Entry(v)
            tables[x] = table
        payoffs.append(tables)
    if zero_sum:
        # rebuild player 2 as the exact negation of player 1
        tables2 = {}
        for x in profiles:
            tables2[x] = {
                key: Entry(-e.const, -e.slope, e.coord if e.slope else None)
                for key, e in payoffs[0][x].items()
            }
        payoffs[1] = tables2
    game = BayesianGame(tuple(specs), density, tuple(payoffs))
    return game, unit_blocks


def random_dominance_game(rng: random.Random, n_players: int = 3) -> BayesianGame:
    """Games with a strictly dominant action per (player, block)."""
    specs = []
    unit_blocks = []
    for i in range(n_players):
        m = rng.randint(2, 3)
        n_units = rng.randint(2, 3)
        grid = tuple(F(k + 1, n_units) for k in range(n_units))
        specs.append(
            PlayerSpec(
                tuple(f"a{j + 1}" for j in range(m)),
                (TypeCell(f"t{i + 1}", F(1), grid),),
            )
        )
        n_blocks = rng.randint(1, 2)
        assign = [u % n_blocks for u in range(n_units)]
        seen = {}
        assign = [seen.setdefault(b, len(seen)) for b in assign]
        unit_blocks.append(assign)
    unit_counts = [len(specs[i].cells[0].grid) for i in range(n_players)]
    density = {
        key: Entry(F(1))
        for key in itertools.product(*[range(c) for c in unit_counts])
    }
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
            for key in itertools.product(*[range(c) for c in unit_counts]):
                b = unit_blocks[i][key[i]]
                v = F(2) if x[i] == dominant[i][b] else F(0)
                v += coupling
                for j in range(n_players):
                    if j != i:
                        v += F(unit_blocks[j][key[j]] + 1, 8) * F(1 + x[i])
                table[key] = Entry(v)
            tables[x] = table
        payoffs.append(tables)
    return BayesianGame(tuple(specs), density, tuple(payoffs))


def random_profile(rng: random.Random, game: BayesianGame):
    from condexp.purification import random_behavioral

    return tuple(random_behavioral(spec, rng) for spec in game.players)


def flip_first_piece(purify):
    """``purify`` with the first piece of player 0's first cell moved to the
    next action, so the action integrals of that piece's block move."""

    def tampered(game, i, *args):
        pure = purify(game, i, *args)
        if i != 0:
            return pure
        cell = game.players[0].cells[0]
        (upto, k), *rest = pure.pieces(cell)
        flipped = (upto, (k + 1) % len(game.players[0].actions))
        return PureStrategy({**pure.plan, cell.id: pack_pieces(cell, [flipped, *rest])})

    return tampered

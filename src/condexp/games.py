"""Finite-action Bayesian games on finitely-presented type spaces.

Each player's type space is a list of cells with rational masses; interval
cells carry an inner coordinate on [0, 1] partitioned into a fixed unit grid,
point cells do not.  The common-prior density and the payoffs are tables over
tuples of units, each entry either a constant or affine in exactly one
player's inner coordinate (with slope folded against the other factor, so
density-weighted payoffs stay affine and every integral below is exact
rational arithmetic).

A game checks and compiles its tables in one pass each, the density first,
with one integer row per distinct ``Entry`` (``serialize.load_game`` shares
one ``Entry`` per distinct entry of a document).  The density-weighted
payoffs become ``BayesianGame.weighted``: each player's entries are integer
(const, slope, coord) triples over one positive denominator, the products of
the payoffs' and the density's numerators, with no Fraction per entry.

A profile walk stays in integers too.  A strategy's moments are integers
over one denominator (``strategy_moments``); ``interim_affine`` reads player
i's table in one pass against the opponents' moments and returns the forms
of every own unit and action as integers over one denominator, in lowest
terms, so equal forms are equal integers.  Every reader takes that pair; a
payoff becomes one Fraction at the end (``moment_payoff``).  The agent form
sums its coefficients the same way.

The inter-player information of player i is derived, never declared: units of
i are grouped by the full profile of opponents' density-weighted payoffs, and
a unit is saturated when some opponent-relevant entry is affine in i's own
coordinate.  The game derives it on first use, as ``BayesianGame.info``,
from the integer tables, where equal payoffs are equal integers, in one pass
per opponent table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .correspondences import MixedSelection, Selection
from .errors import SchemaError
from .piecewise import append_piece, clip_pieces, pack_pieces
from .rationals import over_one_denominator

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class TypeCell:
    id: str
    mass: Fraction
    grid: tuple[Fraction, ...]  # () for point cells; else increasing, ends at 1
    point: bool = False

    def __post_init__(self):
        if self.mass <= 0:
            raise SchemaError(f"cells[{self.id}].mass", "must be positive")
        if self.point:
            if self.grid:
                raise SchemaError(f"cells[{self.id}].grid", "point cells have no grid")
            return
        if not self.grid:
            raise SchemaError(f"cells[{self.id}].grid", "interval cells need a grid")
        prev = ZERO
        for g in self.grid:
            if g <= prev:
                raise SchemaError(f"cells[{self.id}].grid", "grid must increase")
            prev = g
        if prev != 1:
            raise SchemaError(f"cells[{self.id}].grid", "grid must end at 1")

    @property
    def has_inner(self) -> bool:
        return not self.point


@dataclass(frozen=True)
class Unit:
    """One (cell, piece) atom of a player's unit grid.

    A point cell is one unit spanning [0, 1), the span its single stored
    piece reads as, so every unit is walked alike.
    """

    cell_index: int
    cell_id: str
    piece_index: int
    lo: Fraction
    hi: Fraction
    mass: Fraction
    point: bool

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class PlayerSpec:
    actions: tuple[str, ...]
    cells: tuple[TypeCell, ...]

    def __post_init__(self):
        if not self.actions:
            raise SchemaError("actions", "need at least one action")
        if len(set(self.actions)) != len(self.actions):
            raise SchemaError("actions", "labels must be unique")
        if not self.cells:
            raise SchemaError("cells", "need at least one cell")
        ids = [c.id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise SchemaError("cells", "cell ids must be unique")
        if sum((c.mass for c in self.cells), ZERO) != 1:
            raise SchemaError("cells", "cell masses must sum to 1")


def player_units(spec: PlayerSpec) -> tuple[Unit, ...]:
    units = []
    for ci, cell in enumerate(spec.cells):
        lo = ZERO
        for pi, hi in enumerate(cell.grid if cell.has_inner else (ONE,)):
            units.append(Unit(ci, cell.id, pi, lo, hi, cell.mass * (hi - lo), cell.point))
            lo = hi
    return tuple(units)


@dataclass(frozen=True)
class Entry:
    """A table entry: const + slope * (inner coordinate of player ``coord``)."""

    const: Fraction
    slope: Fraction = ZERO
    coord: int | None = None

    def __post_init__(self):
        if self.slope == 0 and self.coord is not None:
            object.__setattr__(self, "coord", None)


EntryTable = Mapping[tuple[int, ...], Entry]


class WeightedTable(NamedTuple):
    """One player's density-weighted payoffs over one positive denominator.

    ``entries[x][key] = (c, s, coord)`` stands for ``(c + s*t)/den``, t the
    inner coordinate of player ``coord`` (None exactly when s == 0), so
    equal rationals are equal integers.
    """

    den: int
    entries: Mapping[tuple[int, ...], Mapping[tuple[int, ...], tuple[int, int, int | None]]]


@dataclass(frozen=True)
class BayesianGame:
    players: tuple[PlayerSpec, ...]
    density: EntryTable
    payoffs: tuple[Mapping[tuple[int, ...], EntryTable], ...]
    units: tuple[tuple[Unit, ...], ...] = field(init=False, compare=False, repr=False)
    # payoffs[i][x][key] * density[key] per player, compiled with the checks
    weighted: tuple[WeightedTable, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """Check each table and compile ``weighted``, in one pass per table."""
        if len(self.players) < 2:
            raise SchemaError("players", "need at least two players")
        object.__setattr__(self, "units", tuple(player_units(spec) for spec in self.players))
        if len(self.payoffs) != len(self.players):
            raise SchemaError("payoffs", "one payoff table per player")
        keys = list(self.unit_tuples())
        profiles = list(self.action_profiles())
        coords: dict[tuple[int, ...], int] = {}  # each tuple's one affine coordinate
        density = self._entries("density", self.density, keys, coords)
        q_affine = set(coords)
        q_den, q_rows = _int_rows(density)
        self._check_density(keys, density, q_den, q_rows)
        tables = []
        for i, payoff in enumerate(self.payoffs):
            flat = []
            for x in profiles:
                if x not in payoff:
                    raise SchemaError(f"payoffs[{i}][{x}]", "missing action profile")
                flat += self._entries(f"payoffs[{i}][{x}]", payoff[x], keys, coords, q_affine)
            _no_stray(f"payoffs[{i}]", payoff, profiles, "not an action profile")
            u_den, u_rows = _int_rows(flat)
            it = zip(flat, u_rows)
            entries = {}
            for x in profiles:
                row = entries[x] = {}
                for key, q, (qc, qs) in zip(keys, density, q_rows):
                    u, (uc, us) = next(it)
                    s, coord = (us * qc, u.coord) if us else (qs * uc, q.coord)
                    row[key] = (uc * qc, s, coord if s else None)
            tables.append(WeightedTable(u_den * q_den, entries))
        object.__setattr__(self, "weighted", tuple(tables))

    # -- table shape ------------------------------------------------------

    def unit_tuples(self):
        return itertools.product(*[range(len(us)) for us in self.units])

    def action_profiles(self):
        return itertools.product(*[range(len(p.actions)) for p in self.players])

    def tuple_units(self, key: tuple[int, ...]) -> tuple[Unit, ...]:
        return tuple(self.units[i][k] for i, k in enumerate(key))

    def _entries(self, path, table, keys, coords, q_affine=()) -> list[Entry]:
        """``table``'s entries in key order, each read once: present, an
        affine one in a player's interval unit, on no tuple of ``q_affine``
        and in the tuple's one affine coordinate (kept in ``coords``)."""
        out = []
        for key in keys:
            e = table.get(key)
            if e is None:
                raise SchemaError(f"{path}[{key}]", "missing entry")
            if e.slope:
                c = e.coord
                if c is None or not 0 <= c < len(self.players):
                    raise SchemaError(f"{path}[{key}]", "bad affine coordinate")
                if self.units[c][key[c]].point:
                    raise SchemaError(f"{path}[{key}]", "affine coordinate points at a point cell")
                if key in q_affine:
                    raise SchemaError(
                        f"{path}[{key}]", "payoff and density are both affine on this tuple"
                    )
                if coords.setdefault(key, c) != c:
                    raise SchemaError(f"tuple {key}", "at most one affine coordinate per unit tuple")
            out.append(e)
        _no_stray(path, table, keys, "not a unit tuple")
        return out

    def _check_density(self, keys, density, q_den, q_rows):
        """Nonnegativity, total mass 1 and every marginal identically 1, from
        the density's integer rows over ``q_den`` in one loop over the tuples.

        The loop runs on integers: each player's unit masses over one
        denominator, every unit end over one denominator G, and an affine
        entry's two ends summed rather than averaged, so nothing is divided.
        A message builds its ``Fraction``s only on failure.
        """
        dens, masses = zip(*(over_one_denominator([u.mass] for u in us) for us in self.units))
        G, flat = over_one_denominator((u.lo, u.hi) for us in self.units for u in us)
        it = iter(flat)
        ends = [[row for _, row in zip(us, it)] for us in self.units]
        # a tuple's mass is an integer over prod(dens) and each end over G, so
        # everything below is times S, and a sum of two ends times 2G
        S = 2 * G * math.prod(dens)
        # marginals[i][k] = [a, b]: player i's marginal a + b*t on own unit k,
        # times the unit's mass, q_den and S
        marginals = [[[0, 0] for _ in us] for us in self.units]
        for key, e, (qc, qs) in zip(keys, density, q_rows):
            mass = math.prod(ms[k][0] for ms, k in zip(masses, key))
            lo, hi = ends[e.coord][key[e.coord]] if qs else (0, 0)
            if min(qc * G + qs * lo, qc * G + qs * hi) < 0:
                raise SchemaError(f"density[{key}]", "density must be nonnegative")
            weight = mass * (2 * G * qc + qs * (lo + hi))
            for i, k in enumerate(key):
                ab = marginals[i][k]
                if qs and e.coord == i:
                    ab[0] += 2 * G * mass * qc
                    ab[1] += 2 * G * mass * qs
                else:
                    ab[0] += weight
        total = sum(2 * G * a + b * (lo + hi) for (a, b), (lo, hi) in zip(marginals[0], ends[0]))
        if total != 2 * G * S * q_den:
            got = Fraction(total, 2 * G * S * q_den)
            raise SchemaError("density", f"must integrate to 1, got {got}")
        for i, (den, ms) in enumerate(zip(dens, masses)):
            for k, ((a, b), (m,)) in enumerate(zip(marginals[i], ms)):
                scale = S * q_den * m  # the unit's mass times q_den, S and den
                if b or a * den != scale:
                    raise SchemaError(
                        f"density marginal[player {i}, unit {k}]",
                        f"must be identically 1, got {Fraction(a * den, scale)} + "
                        f"{Fraction(b * den, scale)}*t",
                    )

    @functools.cached_property
    def info(self) -> tuple[InfoPartition, ...]:
        """``derive_interplayer_info(self)``, derived on first use and cached."""
        return derive_interplayer_info(self)

    def is_zero_sum(self) -> bool:
        if len(self.players) != 2:
            return False
        for x in self.action_profiles():
            for key in self.unit_tuples():
                e1 = self.payoffs[0][x][key]
                e2 = self.payoffs[1][x][key]
                if e2.const != -e1.const or e2.slope != -e1.slope:
                    return False
                if e1.slope != 0 and e2.coord != e1.coord:
                    return False
        return True


def _no_stray(path: str, table: Mapping, keys: Sequence, message: str) -> None:
    """Raise ``message`` at the first key of ``table`` outside ``keys``,
    all of which ``table`` holds."""
    if len(table) != len(keys):
        grid = set(keys)
        raise SchemaError(f"{path}[{next(k for k in table if k not in grid)}]", message)


def _int_rows(entries: Sequence[Entry]) -> tuple[int, list[list[int]]]:
    """``over_one_denominator`` of the entries' (const, slope) pairs, one
    row per entry, each distinct Entry object converted once.  Objects are
    told apart by id: hashing a Fraction costs more than converting it."""
    distinct = {id(e): e for e in entries}
    D, rows = over_one_denominator((e.const, e.slope) for e in distinct.values())
    row_of = dict(zip(distinct, rows))
    return D, [row_of[id(e)] for e in entries]


# -- strategies -------------------------------------------------------------


# A behavioral strategy is a mixed selection of the action correspondence and
# a pure strategy a selection of it: one type each, indexed by action.
BehavioralStrategy = MixedSelection
PureStrategy = Selection
Strategy = MixedSelection | Selection


def as_behavioral(spec: PlayerSpec, f: Strategy) -> MixedSelection:
    """``f`` checked against the player's cells and actions, as weights."""
    f.validate(spec.cells, len(spec.actions), "strategy")
    return as_weights(spec, f)


def as_weights(spec: PlayerSpec, f: Strategy) -> MixedSelection:
    """An already checked ``f`` as weights: a pure strategy's one-hot mixture."""
    return f.one_hot(spec.cells, len(spec.actions)) if isinstance(f, Selection) else f


def uniform_strategy(spec: PlayerSpec) -> BehavioralStrategy:
    m = len(spec.actions)
    w = tuple(Fraction(1, m) for _ in range(m))
    return BehavioralStrategy({cell.id: pack_pieces(cell, ((ONE, w),)) for cell in spec.cells})


def strategy_moments(spec: PlayerSpec, units: Sequence[Unit], f: Strategy):
    """``(D, rows)``: per unit and action, the integrals W0 of f and W1 of
    t*f over the unit, as integers over one positive denominator D in lowest
    terms, rows[unit] = (W0 * D, W1 * D).

    The one walk that integrates a strategy's pieces; payoffs read it too.
    The cell masses, unit ends, piece ends and weights go over one
    denominator E and each unit clips its cell's pieces in integers, so
    each W0 sums integers over E^3 and each W1 over 2E^4 (the halved
    midpoint); both are taken over 2E^4 and reduced by one gcd.
    """
    fb = as_behavioral(spec, f)
    m = len(spec.actions)
    plans = [fb.pieces(cell) for cell in spec.cells]
    E, flat = over_one_denominator(
        itertools.chain(
            ([cell.mass] for cell in spec.cells),
            ((u.lo, u.hi) for u in units),
            ((upto, *w) for pieces in plans for upto, w in pieces),
        )
    )
    it = iter(flat)
    masses = [mass for _, (mass,) in zip(spec.cells, it)]
    ends = [row for _, row in zip(units, it)]
    pieces = [[(upto, w) for _, (upto, *w) in zip(plan, it)] for plan in plans]
    rows = []
    for u, (lo, hi) in zip(units, ends):
        M = masses[u.cell_index]
        w0 = [0] * m
        w1 = [0] * m
        for a, b, w in clip_pieces(pieces[u.cell_index], lo, hi):
            d0 = 2 * E * M * (b - a)
            d1 = M * (b * b - a * a)
            for k, q in enumerate(w):
                if q:  # pure strategies are one-hot
                    w0[k] += d0 * q
                    w1[k] += d1 * q
        rows.append((w0, w1))
    N = 2 * E**4
    g = math.gcd(N, *(v for w0_w1 in rows for w in w0_w1 for v in w))
    return N // g, [([v // g for v in w0], [v // g for v in w1]) for w0, w1 in rows]


# -- interim and expected payoffs --------------------------------------------


def _moments(game: BayesianGame, profile: Sequence[Strategy], skip: int | None = None):
    """Each strategy's ``strategy_moments`` (None for player ``skip``), after
    checking that the profile has one strategy per player."""
    if len(profile) != len(game.players):
        raise SchemaError("profile", f"expected {len(game.players)} strategies, got {len(profile)}")
    return [
        None if j == skip else strategy_moments(game.players[j], game.units[j], s)
        for j, s in enumerate(profile)
    ]


def interim_affine(game: BayesianGame, i: int, moments) -> tuple[int, list[list[list[int]]]]:
    """``(D, forms)``: the interim payoff A + B*t of player i on every own
    unit and action, forms[own_unit][action] = [A * D, B * D], in one pass
    over player i's weighted table.

    ``moments[j]`` is opponent j's ``strategy_moments`` (``moments[i]`` is
    not read).  The sums run in integers over player i's table denominator
    times the opponents' moment denominators, and one gcd puts D and the
    forms in lowest terms.  The forms depend only on the opponents'
    strategies, so one set serves every own strategy of player i.
    """
    others = [j for j in range(len(game.players)) if j != i]
    den, table = game.weighted[i]
    m = len(game.players[i].actions)
    forms = [[[0, 0] for _ in range(m)] for _ in game.units[i]]
    # columns[j][a]: opponent j's W0 and W1 of action a, per unit of j
    columns = {
        j: [
            ([w0[a] for w0, _w1 in moments[j][1]], [w1[a] for _w0, w1 in moments[j][1]])
            for a in range(len(game.players[j].actions))
        ]
        for j in others
    }
    for x, row in table.items():
        cols = [(j, *columns[j][x[j]]) for j in others]
        a = x[i]
        for key, (c, s, coord) in row.items():
            if not (c or s):
                continue
            P0 = 1
            for j, w0, _w1 in cols:
                P0 *= w0[key[j]]
                if not P0:
                    break
            if not P0:  # W0 == 0 forces W1 == 0: the weights are nonnegative
                continue
            ab = forms[key[i]][a]
            ab[0] += c * P0
            if not s:
                continue
            if coord == i:
                ab[1] += s * P0
            else:  # the opponent's coordinate: its W1 in place of its W0
                partial = 1
                for j, w0, w1 in cols:
                    partial *= (w1 if j == coord else w0)[key[j]]
                ab[0] += s * partial
    D = den * math.prod(moments[j][0] for j in others)
    g = math.gcd(D, *(v for unit in forms for ab in unit for v in ab))
    return D // g, [[[A // g, B // g] for A, B in unit] for unit in forms]


def walk_profile(game: BayesianGame, profile: Sequence[Strategy]):
    """``(moments, forms)``: each strategy's ``strategy_moments`` (one check and
    one walk each), and every player's ``interim_affine`` built from them."""
    moments = _moments(game, profile)
    return moments, [interim_affine(game, i, moments) for i in range(len(game.players))]


def interim_payoff(
    game: BayesianGame,
    i: int,
    action: int,
    own_unit: int,
    profile: Sequence[Strategy],
    sub: tuple[Fraction, Fraction] | None = None,
) -> Fraction:
    """Average interim payoff of one action over an own unit (or sub-piece)."""
    unit = game.units[i][own_unit]
    D, forms = interim_affine(game, i, _moments(game, profile, i))
    A, B = forms[own_unit][action]
    lo, hi = sub if sub is not None else (unit.lo, unit.hi)
    return Fraction(2 * A + B * (lo + hi), 2 * D)


def player_payoff(
    game: BayesianGame, i: int, own: Strategy, profile: Sequence[Strategy]
) -> Fraction:
    """Ex-ante payoff of player i playing ``own`` against profile's others."""
    moments = strategy_moments(game.players[i], game.units[i], own)
    return moment_payoff(moments, interim_affine(game, i, _moments(game, profile, i)))


def moment_payoff(moments, forms) -> Fraction:
    """Sum of ``A*W0 + B*W1`` over a strategy's ``strategy_moments`` and an
    ``interim_affine`` form set: a payoff against interim forms, a payoff gap
    against their difference, summed in integers over the two denominators."""
    (D, rows), (L, unit_forms) = moments, forms
    total = 0
    for (w0, w1), unit in zip(rows, unit_forms):
        total += sum(A * W0 + B * W1 for W0, W1, (A, B) in zip(w0, w1, unit))
    return Fraction(total, L * D)


def expected_payoff(game: BayesianGame, profile: Sequence[Strategy]) -> tuple[Fraction, ...]:
    """Ex-ante payoffs, exact, from one ``walk_profile``."""
    moments, forms = walk_profile(game, profile)
    return tuple(map(moment_payoff, moments, forms))


# -- derived inter-player information ----------------------------------------


@dataclass(frozen=True)
class InfoPartition:
    blocks: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]  # per unit: "rich" | "saturated"
    block_of_unit: tuple[int, ...] = field(repr=False)  # derived from blocks, not reported
    block_masses: tuple[Fraction, ...]


@dataclass(frozen=True)
class CoarserCheck:
    passes: bool
    witness: str | None


def derive_interplayer_info(game: BayesianGame) -> tuple[InfoPartition, ...]:
    """Group each player's units by the opponents' payoff signature.

    Units whose opponent-relevant entries are affine in the player's own
    coordinate are saturated and sit in singleton blocks; the rest share a
    block exactly when every opponent entry agrees on them as tagged values.
    """
    n = len(game.players)
    partitions = []
    for i in range(n):
        # one pass per opponent table, in table, profile and unit-tuple order,
        # each entry appended to its own unit's signature: an entry's position
        # there carries its (j, x, opponents' units), and all of player j's
        # entries share one denominator, so equal rationals are equal triples
        sigs: list[list[tuple[int, int, int | None]]] = [[] for _ in game.units[i]]
        for j in range(n):
            if j == i:
                continue
            for row in game.weighted[j].entries.values():
                for key, entry in row.items():
                    sigs[key[i]].append(entry)
        blocks: list[list[int]] = []
        block_of: list[int] = []
        kinds: list[str] = []
        sig_index: dict[tuple, int] = {}
        for own_idx, sig in enumerate(map(tuple, sigs)):
            saturated = any(coord == i for _c, _s, coord in sig)  # constant entries name no coord
            b = len(blocks) if saturated else sig_index.setdefault(sig, len(blocks))
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(own_idx)
            block_of.append(b)
            kinds.append("saturated" if saturated else "rich")
        masses = tuple(sum((game.units[i][u].mass for u in b), ZERO) for b in blocks)
        partitions.append(
            InfoPartition(
                blocks=tuple(tuple(b) for b in blocks),
                kinds=tuple(kinds),
                block_of_unit=tuple(block_of),
                block_masses=masses,
            )
        )
    return tuple(partitions)


def coarser_info_check(game: BayesianGame) -> tuple[CoarserCheck, ...]:
    """Per player: no saturated unit and no point cell of positive mass."""
    out = []
    for i, part in enumerate(game.info):
        witness = None
        for idx, unit in enumerate(game.units[i]):
            if part.kinds[idx] == "saturated":
                witness = f"unit {unit.cell_id}[{unit.piece_index}] is saturated"
                break
            if unit.point:
                witness = f"cell {unit.cell_id} is a point mass"
                break
        out.append(CoarserCheck(witness is None, witness))
    return tuple(out)


def unit_plan(
    game: BayesianGame, i: int, unit_pieces: Callable[[int, Unit, TypeCell], Iterable]
) -> dict[str, object]:
    """Player i's per-cell stored entries, built in one pass over the units.

    ``unit_pieces(idx, unit, cell)`` gives unit ``idx``'s ``(upto, payload)``
    pieces over its span.  The units come in cell order, a cell's last one
    ending at 1, and equal neighbours merge across units too.
    """
    cells = game.players[i].cells
    plan: dict[str, object] = {}
    pieces: list[tuple[Fraction, object]] = []
    for idx, u in enumerate(game.units[i]):
        cell = cells[u.cell_index]
        for upto, payload in unit_pieces(idx, u, cell):
            append_piece(pieces, upto, payload)
        if u.hi == ONE:
            plan[cell.id] = pack_pieces(cell, pieces)
            pieces = []
    return plan


def block_totals(game: BayesianGame, i: int, moments) -> list[list[Fraction]]:
    """Per information block of player i and per action: the integral of
    a strategy of player i over the block, read from its ``strategy_moments``."""
    D, rows = moments
    actions = range(len(game.players[i].actions))
    return [
        [Fraction(sum(rows[u][0][a] for u in b), D) for a in actions] for b in game.info[i].blocks
    ]


def g_conditional(game: BayesianGame, i: int, f: Strategy) -> BehavioralStrategy:
    """Condition a strategy on the player's derived information blocks."""
    fb = as_behavioral(game.players[i], f)
    part = game.info[i]
    totals = block_totals(game, i, strategy_moments(game.players[i], game.units[i], fb))
    block_avg = [tuple(t / mass for t in row) for row, mass in zip(totals, part.block_masses)]

    def conditioned(idx, u, cell):
        if part.kinds[idx] == "saturated":
            return [(hi, tuple(w)) for _lo, hi, w in clip_pieces(fb.pieces(cell), u.lo, u.hi)]
        return ((u.hi, block_avg[part.block_of_unit[idx]]),)

    return BehavioralStrategy(unit_plan(game, i, conditioned))


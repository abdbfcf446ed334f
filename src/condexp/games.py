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
Interim forms sum integers over that denominator times the opponents' moment
denominators and become Fractions once per form, and the agent form sums its
coefficients the same way.

The inter-player information of player i is derived, never declared: units of
i are grouped by the full profile of opponents' density-weighted payoffs, and
a unit is saturated when some opponent-relevant entry is affine in i's own
coordinate.  The game derives it on first use, as ``BayesianGame.info``,
from the integer tables, where equal payoffs are equal integers.
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
        the density's integer rows over ``q_den`` in one loop over the tuples."""
        # marginals[i][k] = (a, b): player i's marginal a + b*t on own unit k,
        # times the unit's mass and q_den
        marginals = [[[ZERO, ZERO] for _ in us] for us in self.units]
        for key, e, (qc, qs) in zip(keys, density, q_rows):
            units = self.tuple_units(key)
            ends = (qc + qs * units[e.coord].lo, qc + qs * units[e.coord].hi) if qs else (qc,)
            if min(ends) < 0:
                raise SchemaError(f"density[{key}]", "density must be nonnegative")
            mass = math.prod(u.mass for u in units)
            weight = mass * sum(ends) / len(ends)
            for i, k in enumerate(key):
                ab = marginals[i][k]
                if qs and e.coord == i:
                    ab[0] += mass * qc
                    ab[1] += mass * qs
                else:
                    ab[0] += weight
        total = sum(a + b * u.mid for (a, b), u in zip(marginals[0], self.units[0]))
        if total != q_den:
            raise SchemaError("density", f"must integrate to 1, got {total / q_den}")
        for i, us in enumerate(self.units):
            for k, ((a, b), u) in enumerate(zip(marginals[i], us)):
                scale = q_den * u.mass
                if b or a != scale:
                    raise SchemaError(f"density marginal[player {i}, unit {k}]",
                                      f"must be identically 1, got {a / scale} + {b / scale}*t")

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


def _splice(i: int, own: int, rest: tuple[int, ...]) -> tuple[int, ...]:
    """The profile with ``own`` at position i and the others' ``rest`` in order."""
    return rest[:i] + (own,) + rest[i:]


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
    """Per unit and action: (W0, W1) = integrals of f and t*f over the unit.

    The one walk that integrates a strategy's pieces; payoffs read it too.
    """
    fb = as_behavioral(spec, f)
    m = len(spec.actions)
    out = []
    for u in units:
        cell = spec.cells[u.cell_index]
        w0 = [ZERO] * m
        w1 = [ZERO] * m
        for lo, hi, w in clip_pieces(fb.pieces(cell), u.lo, u.hi):
            d0 = cell.mass * (hi - lo)
            d1 = d0 * (hi + lo) / 2
            for a, wa in enumerate(w):
                if wa:  # pure strategies are one-hot
                    w0[a] += d0 * wa
                    w1[a] += d1 * wa
        out.append((w0, w1))
    return out


# -- interim and expected payoffs --------------------------------------------


def scaled_moments(moments) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """``(D, rows)``: a strategy's ``strategy_moments`` as integers over one
    positive denominator D, rows[unit] = (W0 * D, W1 * D)."""
    D, rows = over_one_denominator(w for w0_w1 in moments for w in w0_w1)
    return D, list(zip(rows[0::2], rows[1::2]))


def _opponent_moments(game: BayesianGame, i: int, profile: Sequence[Strategy]):
    return {
        j: scaled_moments(strategy_moments(game.players[j], game.units[j], profile[j]))
        for j in range(len(game.players))
        if j != i
    }


def interim_affine(
    game: BayesianGame,
    i: int,
    action: int,
    own_unit: int,
    profile: Sequence[Strategy],
    moments=None,
):
    """Coefficients (A, B) of the interim payoff A + B*t on one own unit.

    ``moments[j]``, when given, is opponent j's ``scaled_moments``.  The sum
    runs in integers over player i's table denominator times the opponents'
    moment denominators, and becomes two Fractions at the end.
    """
    others = [j for j in range(len(game.players)) if j != i]
    if moments is None:
        moments = _opponent_moments(game, i, profile)
    den, table = game.weighted[i]
    rows = [moments[j][1] for j in others]
    A = B = 0
    action_ranges = [range(len(game.players[j].actions)) for j in others]
    unit_ranges = [range(len(game.units[j])) for j in others]
    for x_rest in itertools.product(*action_ranges):
        entries = table[_splice(i, action, x_rest)]
        for mu in itertools.product(*unit_ranges):
            c, s, coord = entries[_splice(i, own_unit, mu)]
            if not (c or s):
                continue
            P0 = 1
            for row, k, a in zip(rows, mu, x_rest):
                P0 *= row[k][0][a]
                if not P0:
                    break
            if not P0:
                continue
            A += c * P0
            if not s:
                continue
            if coord == i:
                B += s * P0
            else:  # the opponent's coordinate: its W1 in place of its W0
                partial = 1
                for j, row, k, a in zip(others, rows, mu, x_rest):
                    partial *= row[k][1 if j == coord else 0][a]
                A += s * partial
    D = den * math.prod(moments[j][0] for j in others)
    return Fraction(A, D), Fraction(B, D)


def interim_forms(
    game: BayesianGame, i: int, profile: Sequence[Strategy], moments=None
) -> list[list[tuple[Fraction, Fraction]]]:
    """The (A, B) form of every own unit and action: forms[own_unit][action].

    The forms depend only on the opponents' strategies, so one set serves
    every own strategy of player i against the same opposing profile.
    ``moments[j]``, when given, is the ``strategy_moments`` of ``profile[j]``
    (``moments[i]`` is not read): one walk per strategy serves every player.
    Each opponent's moments are scaled to integers once per call.
    """
    if moments is None:
        scaled = _opponent_moments(game, i, profile)
    else:
        scaled = {j: scaled_moments(moments[j]) for j in range(len(game.players)) if j != i}
    m = len(game.players[i].actions)
    return [
        [interim_affine(game, i, a, idx, profile, scaled) for a in range(m)]
        for idx in range(len(game.units[i]))
    ]


def walk_profile(game: BayesianGame, profile: Sequence[Strategy]):
    """``(moments, forms)``: each strategy's ``strategy_moments`` (one check and
    one walk each), and every player's ``interim_forms`` built from them."""
    moments = [strategy_moments(game.players[i], game.units[i], s) for i, s in enumerate(profile)]
    return moments, [interim_forms(game, i, profile, moments) for i in range(len(game.players))]


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
    A, B = interim_affine(game, i, action, own_unit, profile)
    lo, hi = sub if sub is not None else (unit.lo, unit.hi)
    return A + B * (lo + hi) / 2


def player_payoff(
    game: BayesianGame,
    i: int,
    own: Strategy,
    profile: Sequence[Strategy],
    forms=None,
) -> Fraction:
    """Ex-ante payoff of player i playing ``own`` against profile's others.

    Pass the ``interim_forms`` of player i against the profile to amortize
    repeated evaluations against the same opposing strategies.
    """
    moments = strategy_moments(game.players[i], game.units[i], own)
    if forms is None:
        forms = interim_forms(game, i, profile)
    return moment_payoff(moments, forms)


def moment_payoff(moments, forms) -> Fraction:
    """Sum of ``A*W0 + B*W1`` over a strategy's ``strategy_moments`` and (A, B)
    forms: a payoff against interim forms, a payoff gap against their difference."""
    total = ZERO
    for (w0, w1), unit_forms in zip(moments, forms):
        for W0, W1, (A, B) in zip(w0, w1, unit_forms):
            if W0:  # W0 == 0 forces W1 == 0: the weights are nonnegative
                total += A * W0 if B == 0 else A * W0 + B * W1
    return total


def expected_payoff(game: BayesianGame, profile: Sequence[Strategy]) -> tuple[Fraction, ...]:
    """Ex-ante payoffs, exact."""
    return tuple(
        player_payoff(game, i, profile[i], profile)
        for i in range(len(game.players))
    )


# -- derived inter-player information ----------------------------------------


@dataclass(frozen=True)
class InfoPartition:
    blocks: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]  # per unit: "rich" | "saturated"
    block_of_unit: tuple[int, ...]
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
    profiles = list(game.action_profiles())
    partitions = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rests = list(itertools.product(*[range(len(game.units[j])) for j in others]))
        tables = [game.weighted[j].entries for j in others]
        blocks: list[list[int]] = []
        block_of: list[int] = []
        kinds: list[str] = []
        sig_index: dict[tuple, int] = {}
        for own_idx in range(len(game.units[i])):
            # an entry's position in the signature carries its (j, x, mu); all
            # of player j's entries share one denominator, so equal rationals
            # are equal integer triples
            sig = tuple(
                table[x][_splice(i, own_idx, mu)] for table in tables for x in profiles for mu in rests
            )
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
    actions = range(len(game.players[i].actions))
    return [[sum((moments[u][0][a] for u in b), ZERO) for a in actions] for b in game.info[i].blocks]


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


def substitute_conditioned(
    game: BayesianGame, profile: Sequence[Strategy], keep: int
) -> list[Strategy]:
    """Replace every opponent of ``keep`` by its conditioned strategy."""
    out = list(profile)
    for j in range(len(game.players)):
        if j != keep:
            out[j] = g_conditional(game, j, profile[j])
    return out

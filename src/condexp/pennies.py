"""Cyclic matching pennies under the triangular prior, in closed form.

The joint type distribution is uniform on the triangle 0 <= l1 <= l2 <= 1.
Its density against the product of its own marginals is 1/(2(1-l1)l2), and
the density-weighted interim integrals collapse to plain Lebesgue measures:
integrating the conditional density over a player-1 set E at a player-2 type
l2 gives measure(E intersect [0, l2]) / l2, and symmetrically
measure(E intersect [l1, 1]) / (1 - l1) on the other side.  (The cancellation
is literal: the conditional density times the opposing marginal density is
the indicator of the triangle.)  Everything downstream is therefore exact
piecewise-affine integration: deviation gains, balance defects, and the
profile search that certifies no pure profile is close to equilibrium.

On an r-grid strategy every value form has slope -1, 0 or 1 on each cell, in
units of 1/r, so two forms cross inside a cell only at its midpoint and the
search's gains are integers over 2r^2.  Its played values are float32 matrix
products whose partial sums stay within 2r^2 <= 8192, exact below 2^24; the
strategy family is one (S, r) array, its seeded sample unranked position by
position across all picks at once, and the minimising pair alone is
re-certified on Fraction rows.

Both variants, the type-irrelevant game with the triangular prior and the
independent-types game with density-weighted payoffs, share these integrals
entry for entry, so one arithmetic serves both.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BoundaryPoint, BudgetExceeded, SchemaError
from .factories import cyclic_payoff
from .piecewise import (
    affine_at,
    append_piece,
    check_index,
    check_pieces,
    check_weights,
    integrate_affine,
    integrate_envelope,
    intervals_clip,
    intervals_measure,
    merged_pieces,
    normalize_intervals,
    unit_vector,
)

ZERO = Fraction(0)
ONE = Fraction(1)

VARIANTS = ("type-irrelevant", "independent-types")


class TrianglePrior:
    """The uniform distribution on the triangle 0 <= l1 <= l2 <= 1."""

    @staticmethod
    def density(l1: Fraction, l2: Fraction) -> Fraction:
        return Fraction(2) if 0 <= l1 <= l2 <= 1 else ZERO

    @staticmethod
    def marginal1_density(l1: Fraction) -> Fraction:
        return 2 * (1 - l1)

    @staticmethod
    def marginal2_density(l2: Fraction) -> Fraction:
        return 2 * l2

    @staticmethod
    def conditional_density(l1: Fraction, l2: Fraction) -> Fraction:
        """Density of the prior against the product of its marginals."""
        if not (0 < l1 <= l2 < 1):
            return ZERO
        return Fraction(1) / (2 * (1 - l1) * l2)

    @staticmethod
    def reconstruction_identity(l1: Fraction, l2: Fraction) -> bool:
        """conditional * marginal1 * marginal2 == joint, pointwise."""
        lhs = (
            TrianglePrior.conditional_density(l1, l2)
            * TrianglePrior.marginal1_density(l1)
            * TrianglePrior.marginal2_density(l2)
        )
        return lhs == TrianglePrior.density(l1, l2) or not (0 < l1 <= l2 < 1)

    @staticmethod
    def total_mass() -> Fraction:
        # integral of the constant 2 over the triangle, exactly
        return Fraction(2) * Fraction(1, 2)

    @staticmethod
    def marginal_masses() -> tuple[Fraction, Fraction]:
        # polynomials 2(1-l) and 2l integrated over [0, 1]
        return ONE, ONE


@dataclass(frozen=True)
class PenniesGame:
    m: int = 2
    variant: str = "type-irrelevant"

    def __post_init__(self):
        if self.m < 2:
            raise SchemaError("m", "need at least two actions")
        if self.variant not in VARIANTS:
            raise SchemaError("variant", f"one of {VARIANTS}")

    def payoff(self, row: int, col: int) -> int:
        return cyclic_payoff(self.m, row, col)


@dataclass(frozen=True)
class IntervalUnionStrategy:
    """A pure strategy on [0, 1]: per action, a finite union of intervals.

    ``pieces`` holds the same strategy in ``(upto, action)`` step form, with
    adjacent pieces of one action merged.
    """

    actions: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    pieces: tuple[tuple[Fraction, int], ...] = field(init=False, compare=False)

    def __post_init__(self):
        spans = sorted(
            (lo, hi, a)
            for a, intervals in enumerate(self.actions)
            for lo, hi in intervals
            if lo != hi
        )
        pieces: list[tuple[Fraction, int]] = []
        prev = ZERO
        for lo, hi, a in spans:
            if lo != prev or hi < lo:
                raise SchemaError("actions", "interval unions must partition [0, 1]")
            append_piece(pieces, hi, a)
            prev = hi
        if prev != ONE:
            raise SchemaError("actions", "interval unions must partition [0, 1]")
        object.__setattr__(self, "pieces", tuple(pieces))

    @classmethod
    def from_pieces(cls, pieces: Sequence[tuple[Fraction, int]], m: int):
        """Build from [(upto, action)] step form: the uptos must increase to 1
        and every action must be in [0, m)."""
        check_pieces("pieces", pieces, lambda action: check_index("pieces", action, m, "action"))
        buckets: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(m)]
        lo = ZERO
        for upto, action in pieces:
            bucket = buckets[action]
            if bucket and bucket[-1][1] == lo:
                bucket[-1] = (bucket[-1][0], upto)
            else:
                bucket.append((lo, upto))
            lo = upto
        return cls(tuple(tuple(b) for b in buckets))

    @classmethod
    def from_grid(cls, assignment: Sequence[int], m: int):
        r = len(assignment)
        pieces: list[tuple[Fraction, int]] = []
        for k, a in enumerate(assignment):
            append_piece(pieces, Fraction(k + 1, r), a)
        return cls.from_pieces(pieces, m)

    def weight_rows(self) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
        """One-hot piecewise weights, [(upto, weights)]."""
        m = len(self.actions)
        return [(upto, unit_vector(m, a)) for upto, a in self.pieces]


BehavioralRows = Sequence[tuple[Fraction, tuple[Fraction, ...]]]


def uniform_rows(m: int) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    return ((ONE, tuple(Fraction(1, m) for _ in range(m))),)


def _as_rows(strategy) -> BehavioralRows:
    if isinstance(strategy, IntervalUnionStrategy):
        return strategy.weight_rows()
    return strategy


def _validate_rows(rows: BehavioralRows, m: int) -> None:
    check_pieces("strategy", rows, lambda w: check_weights("strategy", w, m))


def _opposing_segments(rows: BehavioralRows, m: int, side: int):
    """(lo, hi, forms) per piece: affine forms of the opposing measures that
    condition the player on ``side``.

    Player 2 at l2 sees eta_j(l2) = integral_0^l2 weight_j of player 1's rows;
    player 1 at l1 sees eta'_j(l1) = integral_l1^1 weight_j of player 2's.
    """
    if side not in (1, 2):
        raise SchemaError("side", "must be 1 or 2")
    segments = []
    acc = [ZERO] * m
    prev = ZERO
    for upto, w in rows:
        segments.append((prev, upto, tuple((acc[j] - w[j] * prev, w[j]) for j in range(m))))
        for j in range(m):
            acc[j] += w[j] * (upto - prev)
        prev = upto
    if side == 2:
        return segments
    return [
        (lo, hi, tuple((acc[j] - a, -b) for j, (a, b) in enumerate(forms)))
        for lo, hi, forms in segments
    ]


def _value_forms(forms, side: int):
    """Own action j's value against the opposing measures, scaled by the
    marginal density and halved: column c of player 2 earns eta_{c-1} - eta_c,
    row r of player 1 earns eta'_r - eta'_{r+1}."""
    m = len(forms)
    out = []
    for j in range(m):
        (a0, b0), (a1, b1) = forms[(j - side + 1) % m], forms[(j - side + 2) % m]
        out.append((a0 - a1, b0 - b1))
    return out


def interim_weight(
    intervals: Sequence[tuple[Fraction, Fraction]], point: Fraction, side: int = 2
) -> Fraction:
    """Conditional weight of a set of the opposing player's types.

    Side 2 conditions player 2 at l2 on player-1 sets; side 1 conditions
    player 1 at l1 on player-2 sets.  Exact via the triangular cancellation.
    """
    point = Fraction(point)
    if point <= 0 or point >= 1:
        raise BoundaryPoint(f"conditioning point {point} is on the boundary")
    ivs = normalize_intervals(intervals)
    if side == 2:
        return intervals_measure(intervals_clip(ivs, ZERO, point)) / point
    if side == 1:
        return intervals_measure(intervals_clip(ivs, point, ONE)) / (1 - point)
    raise SchemaError("side", "must be 1 or 2")


def _gain_side(game: PenniesGame, side: int, rows1: BehavioralRows, rows2: BehavioralRows):
    """(best-response value, played value) for the player on ``side``, exact:
    twice the integrals of the envelope and of the played mix of the value
    forms."""
    m = game.m
    own, opposing = (rows1, rows2) if side == 1 else (rows2, rows1)
    measures = [(hi, forms) for _lo, hi, forms in _opposing_segments(opposing, m, side)]
    best = ZERO
    played = ZERO
    for lo, hi, (w, forms) in merged_pieces(own, measures):
        values = _value_forms(forms, side)
        best += 2 * integrate_envelope(values, lo, hi)
        for j in range(m):
            if w[j]:
                played += 2 * w[j] * integrate_affine(values[j], lo, hi)
    return best, played


def _both_sides(game: PenniesGame, s1, s2):
    """_gain_side of player 1, then of player 2, on validated rows."""
    rows1, rows2 = _as_rows(s1), _as_rows(s2)
    _validate_rows(rows1, game.m)
    _validate_rows(rows2, game.m)
    return _gain_side(game, 1, rows1, rows2), _gain_side(game, 2, rows1, rows2)


def profile_values(game: PenniesGame, s1, s2) -> tuple[Fraction, Fraction]:
    """Ex-ante payoffs (U1, U2); the game is zero sum."""
    (_b1, played1), (_b2, played2) = _both_sides(game, s1, s2)
    if played1 != -played2:
        raise ArithmeticError(f"zero-sum check failed: U1 = {played1}, U2 = {played2}")
    return played1, played2


def behavioral_profile_gain(game: PenniesGame, s1, s2) -> tuple[Fraction, Fraction]:
    """Exact best-deviation gains of a (possibly behavioral) profile."""
    (best1, played1), (best2, played2) = _both_sides(game, s1, s2)
    return best1 - played1, best2 - played2


def pure_profile_gain(
    game: PenniesGame, f1: IntervalUnionStrategy, f2: IntervalUnionStrategy
) -> tuple[Fraction, Fraction]:
    return behavioral_profile_gain(game, f1, f2)


def cyclic_deviation(game: PenniesGame, opponent: IntervalUnionStrategy, side: int = 2):
    """The cyclic better-response against an opponent's interval strategy.

    Where the opponent's set for a_j carries strictly more conditional weight
    than the set for a_{j+1} (smallest such j), player 2 answers a_{j+1} and
    player 1 answers a_j; where no strict comparison holds, the first action.
    This guarantees a pointwise nonnegative payoff for the deviator.
    """
    m = game.m
    order = [(j + side - 1) % m for j in range(m)]
    pieces: list[tuple[Fraction, int]] = []
    for lo, hi, forms in _opposing_segments(_as_rows(opponent), m, side):
        values = _value_forms(forms, side)
        cuts = {lo, hi}
        for a, b in values:
            if b != 0:
                t = -a / b
                if lo < t < hi:
                    cuts.add(t)
        points = sorted(cuts)
        for s0, s1 in zip(points, points[1:]):
            mid = (s0 + s1) / 2
            action = next((c for c in order if affine_at(values[c], mid) > 0), 0)
            append_piece(pieces, s1, action)
    return IntervalUnionStrategy.from_pieces(pieces, m)


def balance_defect(partition, side: int = 2, m: int | None = None) -> Fraction:
    """L1 defect of the equal-conditional-weights identity, exact.

    Zero only when every set carries conditional weight 1/m at almost every
    opposing type, as under the uniform rows; for interval unions with m >= 2
    it is strictly positive because near the relevant endpoint each set has
    conditional weight 0 or 1.
    """
    if isinstance(partition, IntervalUnionStrategy):
        m = len(partition.actions)
    elif m is None:
        m = len(partition[0][1]) if partition else 0  # empty rows fail below
    rows = _as_rows(partition)
    _validate_rows(rows, m)
    ((_lo, _hi, uniform),) = _opposing_segments(uniform_rows(m), m, side)
    total = ZERO
    for lo, hi, forms in _opposing_segments(rows, m, side):
        abs_forms = []
        for (a, b), (base_a, base_b) in zip(forms, uniform):
            abs_forms.append((a - base_a, b - base_b))
            abs_forms.append((base_a - a, base_b - b))
        total += 2 * integrate_envelope(abs_forms, lo, hi)
    return total


# -- grid search --------------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    m: int
    variant: str
    budget: int
    grid: int
    epsilon: Fraction
    strategies: int
    pairs: int
    min_gain: Fraction
    argmin: tuple[tuple[int, ...], tuple[int, ...]]
    uniform_gains: tuple[Fraction, Fraction]
    passed: bool
    exhaustive: bool = True


def family_size(m: int, r: int, budget: int) -> int:
    """Number of r-grid step strategies with at most ``budget`` action changes."""
    return m * _tails(m, r - 1, budget)[r - 1][budget]


def _tails(m: int, n: int, budget: int) -> list[list[int]]:
    """tails[k][c]: continuations of length k after a fixed action with at
    most c changes."""
    tails = [[1] * (budget + 1)]
    for _ in range(n):
        prev = tails[-1]
        tails.append([prev[0]] + [prev[c] + (m - 1) * prev[c - 1] for c in range(1, budget + 1)])
    return tails


def grid_strategies(m: int, r: int, budget: int) -> np.ndarray:
    """All r-grid step strategies with at most ``budget`` action changes, as
    one (S, r) int64 array in lexicographic order."""
    tails = _tails(m, r - 1, budget)
    return _with_constants(m, r, budget, tails, range(m * tails[r - 1][budget] - m))


def _sampled_strategies(m: int, r: int, budget: int, count: int, seed: int) -> np.ndarray:
    """The m constant strategies and a seeded sample of count - m others, as
    one (count, r) int64 array in lexicographic order.

    random.sample draws only indices, so sampling range(n) and unranking
    picks exactly the strategies that sampling the built lexicographic list
    of the n non-constant strategies would pick.
    """
    tails = _tails(m, r - 1, budget)
    picks = _sample_indices(random.Random(seed), m * tails[r - 1][budget] - m, count - m)
    return _with_constants(m, r, budget, tails, picks)


def _sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """rng.sample(range(n), k), also for n past sys.maxsize, where a range
    has no len.  There random.sample would take its set branch: draw
    randrange(n), redrawing repeats, which this loop does with the same
    draws."""
    if n <= sys.maxsize:
        return rng.sample(range(n), k)
    picks: list[int] = []
    seen: set[int] = set()
    while len(picks) < k:
        j = rng.randrange(n)
        if j not in seen:
            seen.add(j)
            picks.append(j)
    return picks


def _with_constants(m: int, r: int, budget: int, tails, indices) -> np.ndarray:
    """The m constant strategies and the changing strategies at ``indices``,
    as one (S, r) int64 array in lexicographic order.

    Index order is lexicographic order among the changing strategies, so the
    sorted indices unrank to sorted rows.  Constant a goes after the changing
    strategies below it: a * (tails[r - 1][budget] - 1) start below a, and
    a * tails[rest][budget - 1] more start with a and first change down from
    it with ``rest`` positions to go.  The indices are int64 while the
    family fits, Python ints on an object array past that.
    """
    dtype = np.int64 if m * tails[r - 1][budget] <= sys.maxsize else object
    picks = np.sort(np.array(indices, dtype=dtype))
    rows = _unrank_changing(r, budget, tails, picks)
    step = tails[r - 1][budget] - 1 + sum(tails[rest][budget - 1] for rest in range(r - 1))
    ranks = [a * step if budget else 0 for a in range(m)]
    constant = np.repeat(np.arange(m, dtype=np.int64)[:, None], r, axis=1)
    return np.insert(rows, np.searchsorted(picks, ranks), constant, axis=0)


def _unrank_changing(r: int, budget: int, tails, indices: np.ndarray) -> np.ndarray:
    """The strategies at ``indices``, in lexicographic order among the grid
    strategies with between 1 and ``budget`` action changes, as (K, r) rows.

    One position at a time across all indices: the candidates come in
    action order, every action below the previous one (each a change), the
    previous action, every action above it.  A change leaves
    tails[rest][left - 1] continuations, none once no change is left;
    keeping the action leaves tails[rest][left], less the constant strategy
    while no change has happened yet.  Taken with the changes above it
    shifted down past the kept block, the u-th change is the u-th action
    other than the previous one.
    """
    change = np.array([[0] + row[:-1] for row in tails], dtype=indices.dtype)
    keep = np.array([row[:-1] + [row[-1] - 1] for row in tails], dtype=indices.dtype)
    width = tails[r - 1][budget] - 1
    prev, index = indices // width, indices % width
    rows = np.empty((len(indices), r), dtype=np.int64)
    rows[:, 0] = prev
    left = np.full(len(indices), budget)
    for p in range(1, r):
        rest = r - 1 - p
        diff = change[rest][left]
        below = prev * diff
        kept = keep[rest][left]
        down = index < below
        up = index >= below + kept
        changed = down | up
        shifted = index - up * kept
        u = shifted // np.maximum(diff, 1)
        index = np.where(changed, shifted - u * diff, index - below)
        prev = np.where(changed, u + (u >= prev), prev)
        left -= changed
        rows[:, p] = prev
    return rows


def _gain_matrices(m: int, r: int, strategies: np.ndarray):
    """gain1[i1, i2] and gain2[i1, i2] for all strategy pairs, as float32
    arrays holding integer numerators over 2r^2.

    Value forms are held as integer counts at the grid points (units of
    1/r), so on a cell each has slope -1, 0 or 1 and two of them can cross
    only at the midpoint: the envelope's twice-integral over the cell is
    (max lo + max(lo + hi) + max hi) / (2r^2).  The played values are
    one-hot products in float32 on integers: a form is at most k in size k
    cells from its zero end, so any partial sum is at most 2r^2 <= 8192,
    below 2^24, and the products are exact.  Each best-response value is at
    most 4r^2, so the gains are exact too.
    """
    S = len(strategies)
    # action-major, so that each max over the actions runs across whole slabs
    onehot = np.arange(m)[:, None, None] == strategies  # (m, S, r)
    cums = np.zeros((m, S, r + 1), dtype=np.float32)
    np.cumsum(onehot, axis=2, out=cums[:, :, 1:])
    # player-2 candidate c: eta_{c-1} - eta_c, from below
    G2 = np.roll(cums, 1, axis=0) - cums
    # player-1 candidate c: eta'_c - eta'_{c+1}, from above
    above = cums[:, :, -1:] - cums
    G1 = above - np.roll(above, -1, axis=0)

    def best_and_played(G):
        top = G.max(axis=0)  # the envelope at the grid points
        sums = G[:, :, :-1] + G[:, :, 1:]  # twice each form at the cell midpoints
        best = top[:, :-1].sum(axis=1) + top[:, 1:].sum(axis=1) + sums.max(axis=0).sum(axis=1)
        return best, (2 * sums).transpose(1, 0, 2).reshape(S, m * r)

    best2, played2 = best_and_played(G2)
    best1, played1 = best_and_played(G1)
    # the played value of a pair picks one form per cell
    OH = onehot.transpose(1, 0, 2).reshape(S, m * r).astype(np.float32)
    gain2 = played2 @ OH.T
    np.subtract(best2[:, None], gain2, out=gain2)
    gain1 = OH @ played1.T
    np.subtract(best1[None, :], gain1, out=gain1)
    return gain1, gain2


def no_pure_equilibrium_search(
    game: PenniesGame,
    budget: int = 2,
    grid: int = 8,
    epsilon: Fraction = Fraction(1, 100),
    max_strategies: int = 600,
    seed: int = 0,
) -> SearchReport:
    """Scan grid profiles and certify the minimum deviation gain.

    The scan is exhaustive while the strategy family fits max_strategies;
    beyond that a seeded sample is drawn (always keeping the constant
    strategies).  A budget, grid or max_strategies that is not an int (or is
    a bool), max_strategies below m, and an epsilon that is not a rational
    at least 0, are input errors.  An integer
    lane scans every pair: each gain is a numerator over 2r^2 (r the grid),
    exact because the value forms cross only at cell midpoints and the
    played products stay below 2^24 in float32.  The first
    minimum in row-major order is re-certified once, by pure_profile_gain on
    Fraction rows, and both of its gains must equal the lane's.  PASS means
    the minimum exceeds epsilon, witnessing that no scanned pure profile is
    close to equilibrium.
    """
    for name, value in (("budget", budget), ("grid", grid), ("max_strategies", max_strategies)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(name, f"expected an integer, got {value!r}")
    if budget > 8 or grid > 64:
        raise BudgetExceeded("supported desk scale: budget <= 8, grid <= 64")
    if budget < 0:
        raise SchemaError("budget", "must be at least 0")
    if grid < 1:
        raise SchemaError("grid", "must be at least 1")
    if max_strategies < game.m:
        raise SchemaError("max_strategies", f"must be at least m = {game.m}, for the constants")
    try:
        if isinstance(epsilon, bool):
            raise TypeError
        epsilon = Fraction(epsilon)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError("epsilon", f"expected a rational number, got {epsilon!r}") from None
    if epsilon < 0:
        raise SchemaError("epsilon", f"must be at least 0, got {epsilon}")
    size = family_size(game.m, grid, budget)
    exhaustive = size <= max_strategies
    if exhaustive:
        strategies = grid_strategies(game.m, grid, budget)
    else:
        strategies = _sampled_strategies(game.m, grid, budget, max_strategies, seed)
    gain1, gain2 = _gain_matrices(game.m, grid, strategies)
    # the first minimum in row-major order
    i1, i2 = np.unravel_index(np.argmin(np.maximum(gain1, gain2)), gain1.shape)
    denominator = 2 * grid * grid
    lane = (Fraction(int(gain1[i1, i2]), denominator), Fraction(int(gain2[i1, i2]), denominator))
    s1, s2 = tuple(strategies[i1].tolist()), tuple(strategies[i2].tolist())
    f1 = IntervalUnionStrategy.from_grid(s1, game.m)
    f2 = IntervalUnionStrategy.from_grid(s2, game.m)
    exact = pure_profile_gain(game, f1, f2)
    if exact != lane:
        raise ArithmeticError(
            f"integer lane disagrees on the pair {s1}, {s2}: "
            f"exact gains {exact[0]}, {exact[1]}, lane gains {lane[0]}, {lane[1]}"
        )
    min_gain = max(exact)
    uniform = behavioral_profile_gain(game, uniform_rows(game.m), uniform_rows(game.m))
    return SearchReport(
        m=game.m,
        variant=game.variant,
        budget=budget,
        grid=grid,
        epsilon=epsilon,
        strategies=len(strategies),
        pairs=len(strategies) ** 2,
        min_gain=min_gain,
        argmin=(s1, s2),
        uniform_gains=uniform,
        passed=min_gain > epsilon,
        exhaustive=exhaustive,
    )


def interim_weight_rows(
    f1: IntervalUnionStrategy, samples: int = 99
) -> list[tuple[float, list[float]]]:
    """(l2, conditional weights per action) rows for plotting."""
    m = len(f1.actions)
    out = []
    for k in range(1, samples + 1):
        l2 = Fraction(k, samples + 1)
        weights = [float(interim_weight(f1.actions[j], l2, side=2)) for j in range(m)]
        out.append((float(l2), weights))
    return out

"""Equilibrium computation for games with derived block information.

Block-constant behavioral strategies form a finite-dimensional product of
simplices, one per (player, information block) agent.  The solver works on
that agent form: an exact rational LP for two-player zero-sum games, damped
best-response iteration with rational snapping otherwise, and an exact
support-polish for two-player general-sum games.  The best-response
iteration takes whole-array float steps over every agent, with the scalar
loop's floats: terms are elementwise products taken left to right, values a
sequential ``np.add.accumulate`` from 0.0 in coefficient order (no pairwise
``sum``), best responses the first-index ``argmax`` (``vals.index(max(vals))``).
Verification is a separate code path: it integrates pointwise best-response
envelopes over the type space in exact arithmetic and never reuses the
solver's internal numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SchemaError
from .games import (
    BayesianGame,
    BehavioralStrategy,
    PureStrategy,
    Strategy,
    _moments,
    block_totals,
    coarser_info_check,
    interim_affine,
    moment_payoff,
    strategy_moments,
    unit_plan,
    walk_profile,
)
from .piecewise import argmax_segments, check_weights, integrate_envelope
from .purification import purification
from .rational_geometry import feasible_combination, simplex_min
from .rationals import over_one_denominator

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SolveOptions:
    epsilon: Fraction = Fraction(1, 10**9)
    max_iters: int = 4000
    method: str = "auto"  # auto | lp | br | enum


DAMPING = 0.1  # step of the damped best-response iteration
SNAP_DENOMINATOR = 64  # best-response mixtures snap to rationals with this bound


@dataclass(frozen=True)
class EquilibriumReport:
    mixtures: tuple[tuple[tuple[Fraction, ...], ...], ...]  # player -> block -> weights
    profile: tuple[BehavioralStrategy, ...]
    eps: tuple[Fraction, ...]
    iterations: int
    converged: bool
    method: str
    value: Fraction | None
    coarser: tuple[bool, ...]
    # walk: ``walk_profile(game, profile)`` as verified, set by
    # solve_behavioral only; None on a hand-built report and on a copy made
    # by dataclasses.replace, for which purify_equilibrium walks afresh
    # (repr=False keeps it out of the CLI report, see serialize.dump_report)
    walk: tuple | None = field(default=None, init=False, compare=False, repr=False)


class AgentForm:
    """Exact payoff tensors for the agents, one per (player, information
    block), and the layout every solver reads: ``counts[i]`` is player i's
    (agents, actions), ``agents`` every (i, b) in player-then-block order."""

    def __init__(self, game: BayesianGame):
        self.game = game
        info = game.info
        n = len(game.players)
        self.counts = [(len(part.blocks), len(p.actions)) for part, p in zip(info, game.players)]
        self.agents = [(i, b) for i, (B, _m) in enumerate(self.counts) for b in range(B)]
        self.others = [[j for j in range(n) if j != i] for i in range(n)]
        # coeff[i][(b, x_i)][(opp_blocks, opp_actions)] -> Fraction, summed in
        # integers: per unit tuple, M = (its mass, then its mass times the
        # midpoint of each player's unit) over one denominator L, against
        # player i's table entries over theirs
        keys = list(game.unit_tuples())
        weights = []
        for key in keys:
            units = game.tuple_units(key)
            mass = math.prod(u.mass for u in units)
            weights.append([mass] + [mass * u.mid for u in units])
        L, scaled = over_one_denominator(weights)
        self.coeff: list[dict] = []
        for i in range(n):
            others = self.others[i]
            den, table = game.weighted[i]
            own_blocks = [info[i].block_of_unit[key[i]] for key in keys]
            opp_blocks = [tuple(info[j].block_of_unit[key[j]] for j in others) for key in keys]
            sums: dict = {}
            for x in game.action_profiles():
                opp_actions = tuple(x[j] for j in others)
                entries = table[x]
                for key, M, b, ob in zip(keys, scaled, own_blocks, opp_blocks):
                    c, s, coord = entries[key]
                    val = c * M[0] + s * M[1 + coord] if s else c * M[0]
                    if val == 0:
                        continue
                    slot = sums.setdefault((b, x[i]), {})
                    opp = (ob, opp_actions)
                    slot[opp] = slot.get(opp, 0) + val
            D = den * L
            self.coeff.append(
                {k: {opp: Fraction(v, D) for opp, v in slot.items()} for k, slot in sums.items()}
            )


def mixtures_to_profile(game: BayesianGame, mixtures) -> tuple[BehavioralStrategy, ...]:
    """Expand block mixtures into per-cell behavioral strategies."""

    def expanded(i):
        rows = [tuple(w) for w in mixtures[i]]
        block_of = game.info[i].block_of_unit
        return unit_plan(game, i, lambda idx, u, _cell: ((u.hi, rows[block_of[idx]]),))

    return tuple(BehavioralStrategy(expanded(i)) for i in range(len(game.players)))


def verify_equilibrium(
    game: BayesianGame, profile: Sequence[Strategy], walk=None
) -> tuple[Fraction, ...]:
    """Exact per-player gain of the best pure deviation over the played profile.

    ``walk``, when given, is ``walk_profile(game, profile)``: the played
    payoffs read its moments and the envelopes its integer forms, each
    player's envelope sum divided by their denominator D once.
    """
    moments, forms = walk or walk_profile(game, profile)
    eps = []
    for i, (D, player_forms) in enumerate(forms):
        best = ZERO
        for unit, unit_forms in zip(game.units[i], player_forms):
            cell = game.players[i].cells[unit.cell_index]
            best += cell.mass * integrate_envelope(unit_forms, unit.lo, unit.hi)
        eps.append(best / D - moment_payoff(moments[i], forms[i]))
    return tuple(eps)


def improving_deviation(
    game: BayesianGame, profile: Sequence[Strategy], i: int
) -> tuple[PureStrategy, Fraction]:
    """Pointwise best-response strategy for player i and its exact gain."""
    moments = _moments(game, profile)
    forms = interim_affine(game, i, moments)

    def best(idx, u, _cell):
        return [(hi, w[0]) for _lo, hi, w in argmax_segments(forms[1][idx], u.lo, u.hi)]

    deviation = PureStrategy(unit_plan(game, i, best))
    # swapping i's own strategy leaves the forms against the others unchanged
    own = strategy_moments(game.players[i], game.units[i], deviation)
    return deviation, moment_payoff(own, forms) - moment_payoff(moments[i], forms)


# -- solvers ------------------------------------------------------------------


def _solve_lp_zero_sum(agent_form: AgentForm):
    """Exact minimax LP on the stacked block strategies of both players:
    each side maximises the sum of one value per opponent agent, each below
    its payoff against every action of that agent, over one simplex per own
    agent.  Player 2's side reads player 1's coefficients, negated and
    transposed."""
    counts, coeff = agent_form.counts, agent_form.coeff[0]

    def solve_side(i, payoff):
        (B, m), (nv, mc) = counts[i], counts[1 - i]
        ng, ns = B * m, nv * mc
        rows = [(b, a) for b in range(B) for a in range(m)]
        cost = [ZERO] * ng + [-ONE] * nv + [ONE] * nv + [ZERO] * ns
        A = []
        for ci, col in enumerate((cb, ca) for cb in range(nv) for ca in range(mc)):
            row = [payoff(r, col) for r in rows] + [ZERO] * (2 * nv + ns)
            row[ng + col[0]] = -ONE
            row[ng + nv + col[0]] = ONE
            row[ng + 2 * nv + ci] = -ONE
            A.append(row)
        for b in range(B):
            row = [ZERO] * len(cost)
            row[b * m : (b + 1) * m] = [ONE] * m
            A.append(row)
        value, x = simplex_min(cost, A, [ZERO] * ns + [ONE] * B)
        return -value, [x[b * m : (b + 1) * m] for b in range(B)]

    def entry(r, c):
        return coeff[r].get(((c[0],), (c[1],)), ZERO) if r in coeff else ZERO

    value1, mixtures1 = solve_side(0, entry)
    value2, mixtures2 = solve_side(1, lambda r, c: -entry(c, r))
    if value1 != -value2:
        raise ArithmeticError(f"zero-sum LP values disagree: {value1} vs {-value2}")
    return [mixtures1, mixtures2], value1


def _br_lane(agent_form: AgentForm):
    """The float payoffs of every agent (i, b), in info order, as arrays.

    ``coef[g, a]`` holds agent g's coefficients for action a in coeff's
    order after a leading 0.0, and ``gather[s][g, a]`` the flat index into
    the (agent, action) weights of each term's s-th opponent factor; padded
    actions and terms have coefficient 0.0.  Also returned: ``pad``, -inf on
    padded actions, and the uniform start, 0.0 on them.
    """
    counts, agents = agent_form.counts, agent_form.agents
    row = {agent: g for g, agent in enumerate(agents)}
    A = max(m for _B, m in counts)
    T = 1 + max((len(slot) for coeff in agent_form.coeff for slot in coeff.values()), default=0)
    pos, vals, idx = [], [], []
    for g, (i, b) in enumerate(agents):
        others = agent_form.others[i]
        for a in range(counts[i][1]):
            slot = agent_form.coeff[i].get((b, a), {})
            for at, (opp, c) in enumerate(slot.items(), (g * A + a) * T + 1):
                pos.append(at)
                vals.append(float(c))
                idx.append([row[j, bj] * A + aj for j, bj, aj in zip(others, *opp)])
    coef = np.zeros((len(agents), A, T))
    coef.flat[pos] = vals
    gather = np.zeros((len(counts) - 1, *coef.shape), dtype=np.intp)
    for s, opponent in enumerate(gather):
        opponent.flat[pos] = [f[s] for f in idx]
    m = np.array([counts[i][1] for i, _b in agents])[:, None]
    real = np.arange(A) < m
    return coef, gather, np.where(real, 0.0, -np.inf), np.where(real, 1.0 / m, 0.0)


def _lane_values(coef, gather, x):
    """Each agent's float payoff of each action against the weights ``x``."""
    flat, terms = x.ravel(), coef
    for g in gather:
        terms = terms * flat[g]
    return np.add.accumulate(terms, axis=2)[:, :, -1]


def _br_floats(agent_form: AgentForm, options: SolveOptions):
    """Damped best response in floats: the unsnapped block mixtures per
    player and the iteration count.

    A value sums finite terms (float coefficients times weights in [0, 1]):
    it may overflow to +-inf, silently as in Python, but is never nan, and
    ``argmax`` ties as ``max`` does.  A regret of inf - inf is nan, which
    neither the scalar ``max(worst, r)`` nor ``r >= 1e-12`` counts.
    """
    coef, gather, pad, x = _br_lane(agent_form)
    step = DAMPING * np.eye(x.shape[1])
    zero = np.zeros((x.shape[0], 1))
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, options.max_iters + 1):
            x = (1 - DAMPING) * x + step[(_lane_values(coef, gather, x) + pad).argmax(axis=1)]
            if iterations % 25 == 0:
                v = _lane_values(coef, gather, x)
                played = np.add.accumulate(np.hstack((zero, x * v)), axis=1)[:, -1]
                if not ((v + pad).max(axis=1) - played >= 1e-12).any():
                    break
    rows = iter(x.tolist())
    mixtures = [[next(rows)[:m] for _ in range(B)] for B, m in agent_form.counts]
    return mixtures, iterations


def _snap_mixtures(mixtures_float, denominator: int):
    out = []
    for rows in mixtures_float:
        block_rows = []
        for row in rows:
            snapped = [max(ZERO, Fraction(w).limit_denominator(denominator)) for w in row]
            total = sum(snapped, ZERO)
            if total == 0:
                snapped = [ONE] + [ZERO] * (len(row) - 1)
                total = ONE
            block_rows.append([w / total for w in snapped])
        out.append(block_rows)
    return out


def _solve_br(agent_form: AgentForm, options: SolveOptions):
    mixtures, iterations = _br_floats(agent_form, options)
    return _snap_mixtures(mixtures, SNAP_DENOMINATOR), iterations


def _support_polish(agent_form: AgentForm, supports):
    """Exact block mixtures matching given supports, or None (2 players)."""
    counts, agents = agent_form.counts, agent_form.agents
    # columns: the supported (player, block, action) weights, then one value
    # and one negated value per agent, then one slack per off-support
    # action, all in agent then action order
    gcol = {k: col for col, k in enumerate((p, b, a) for p, b in agents for a in supports[p][b])}
    nv = len(gcol) + 2 * len(agents)
    width = nv + sum(counts[p][1] - len(supports[p][b]) for p, b in agents)
    slack = nv
    rows = []
    for g, (i, b) in enumerate(agents):
        v = len(gcol) + g
        for a in range(counts[i][1]):
            row = [ZERO] * width
            for ((ob,), (oa,)), c in agent_form.coeff[i].get((b, a), {}).items():
                col = gcol.get((1 - i, ob, oa))
                if col is not None:
                    row[col] += c
            row[v] = -ONE
            row[v + len(agents)] = ONE
            if a not in supports[i][b]:
                row[slack] = ONE
                slack += 1
            rows.append(row)
    rhs = [ZERO] * len(rows) + [ONE] * len(agents)
    for p, b in agents:
        row = [ZERO] * width
        for a in supports[p][b]:
            row[gcol[(p, b, a)]] = ONE
        rows.append(row)
    sol = feasible_combination(rows, rhs)
    if sol is None:
        return None
    mixtures = [[[ZERO] * m for _ in range(B)] for B, m in counts]
    for (p, b, a), col in gcol.items():
        mixtures[p][b][a] = sol[col]
    return mixtures


def _solve_enum(agent_form: AgentForm, br_run):
    """Support search for two-player agent forms, seeded by the damped run
    ``br_run``; its count is that run's iterations plus the supports tried.
    The candidates stream: the seeded supports, then, on at most 4 agents,
    every support profile in agent order, until 3000 have been tried."""
    guess, iters = br_run
    counts, agents = agent_form.counts, agent_form.agents
    seeded = [
        [tuple(a for a in range(m) if row[a] > 0) or tuple(range(m)) for row in rows]
        for rows, (_B, m) in zip(guess, counts)
    ]
    candidates = iter([seeded])
    if len(agents) <= 4:
        subsets = [
            [s for size in range(m, 0, -1) for s in itertools.combinations(range(m), size)]
            for _B, m in counts
        ]
        B0 = counts[0][0]
        every = itertools.product(*(subsets[p] for p, _b in agents))
        candidates = itertools.chain(candidates, ((c[:B0], c[B0:]) for c in every))
    for tried, supports in enumerate(candidates, 1):
        if tried > 3000:
            break
        mixtures = _support_polish(agent_form, supports)
        if mixtures is not None:
            return mixtures, iters + tried
    return guess, iters + tried


def solve_behavioral(game: BayesianGame, options: SolveOptions | None = None) -> EquilibriumReport:
    """Find a block-constant behavioral profile with small verified gain.

    The exact LP handles two-player zero-sum agent forms; damped best response
    plus rational snapping handles the rest, with an exact support polish for
    two-player general-sum games.  Non-convergence is reported, not raised;
    a method that is unknown, or ``lp`` or ``enum`` on a game of three or
    more players, raises ``SchemaError``.
    """
    options = options or SolveOptions()
    method, n = options.method, len(game.players)
    if method not in ("auto", "lp", "br", "enum"):
        raise SchemaError("--method", f"unknown method {method!r} (auto, lp, br or enum)")
    if method in ("lp", "enum") and n != 2:
        raise SchemaError("--method", f"{method} needs two players, the game has {n}")
    coarser = tuple(c.passes for c in coarser_info_check(game))
    agent_form = AgentForm(game)
    if method == "auto":
        method = "br" if n != 2 else "lp" if game.is_zero_sum() else "enum"
    value = None
    iterations = 0
    if method == "lp":
        mixtures, value = _solve_lp_zero_sum(agent_form)
    elif method == "enum":
        mixtures, iterations = _solve_enum(agent_form, _solve_br(agent_form, options))
    else:
        mixtures, iterations = _solve_br(agent_form, options)
    profile, walk, eps = _verified(game, mixtures)
    if max(eps) > options.epsilon and method == "br" and n == 2:
        mixtures2, iterations = _solve_enum(agent_form, (mixtures, iterations))
        profile2, walk2, eps2 = _verified(game, mixtures2)
        if max(eps2) < max(eps):
            mixtures, profile, eps, walk = mixtures2, profile2, eps2, walk2
            method = "enum"
    report = EquilibriumReport(
        mixtures=tuple(tuple(tuple(w) for w in rows) for rows in mixtures),
        profile=profile,
        eps=eps,
        iterations=iterations,
        converged=max(eps) <= options.epsilon,
        method=method,
        value=value,
        coarser=coarser,
    )
    object.__setattr__(report, "walk", walk)
    return report


def _verified(game: BayesianGame, mixtures):
    """The profile of block mixtures, its ``walk_profile``, and its verified gains."""
    profile = mixtures_to_profile(game, mixtures)
    walk = walk_profile(game, profile)
    return profile, walk, verify_equilibrium(game, profile, walk)


# -- purification of solved equilibria ---------------------------------------


@dataclass(frozen=True)
class PurifiedEquilibrium:
    profile: tuple[PureStrategy, ...]
    eps: tuple[Fraction, ...]
    mixtures_preserved: bool
    payoffs_preserved: bool


def purify_equilibrium(
    game: BayesianGame, report: EquilibriumReport
) -> PurifiedEquilibrium:
    """Split each block mixture into a pure strategy with the same block
    conditional expectation, preserving everyone's payoffs exactly.

    Sub-intervals follow action order left to right; units whose interim
    payoff is affine in the own coordinate get the centroid-preserving
    symmetric split so the own payoff integral survives unchanged.  Mixtures
    that are not one row of weights per player, derived block and action
    raise SchemaError at ``mixtures[i]`` or ``mixtures[i][b]``, before
    ``purification`` checks that the information is coarser.
    """
    info = game.info
    n = len(game.players)
    if len(report.mixtures) != n:
        raise SchemaError("mixtures", f"expected {n} players")
    for i, rows in enumerate(report.mixtures):
        if len(rows) != len(info[i].blocks):
            raise SchemaError(f"mixtures[{i}]", f"expected {len(info[i].blocks)} blocks")
        for b, w in enumerate(rows):
            check_weights(f"mixtures[{i}][{b}]", w, len(game.players[i].actions))
    (moments, forms), pures, pure_walk = purification(game, report.profile, report.walk)
    pure_moments, pure_forms = pure_walk
    eps = verify_equilibrium(game, pures, pure_walk)
    # conditioning on coarser information keeps every block integral, so the
    # conditioned mixtures are the pure profile's block totals over the masses
    mixtures_ok = all(
        t / mass == report.mixtures[i][b][a]
        for i in range(n)
        for b, (totals, mass) in enumerate(
            zip(block_totals(game, i, pure_moments[i]), info[i].block_masses)
        )
        for a, t in enumerate(totals)
    )
    payoffs_ok = all(
        moment_payoff(pure_moments[i], pure_forms[i]) == moment_payoff(moments[i], forms[i])
        for i in range(n)
    )
    return PurifiedEquilibrium(
        profile=pures,
        eps=eps,
        mixtures_preserved=mixtures_ok,
        payoffs_preserved=payoffs_ok,
    )

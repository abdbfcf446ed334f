"""Equilibrium computation for games with derived block information.

Block-constant behavioral strategies form a finite-dimensional product of
simplices, one per (player, information block) agent.  The solver works on
that agent form: an exact rational LP for two-player zero-sum games, damped
best-response iteration with rational snapping otherwise, and an exact
support-polish for two-player general-sum games.  The best-response
iteration runs in floats, on coefficients converted once per agent form.  Verification is a separate
code path: it integrates pointwise best-response envelopes over the type
space in exact arithmetic and never reuses the solver's internal numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import SchemaError
from .games import (
    BayesianGame,
    BehavioralStrategy,
    PureStrategy,
    Strategy,
    block_totals,
    coarser_info_check,
    interim_forms,
    player_payoff,
    unit_plan,
)
from .piecewise import argmax_segments, check_weights, integrate_envelope
from .purification import purify_player, require_coarser
from .rational_geometry import feasible_combination, simplex_min

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
    # forms[i]: player i's interim_forms against ``profile``, as verified, set
    # by solve_behavioral only; None on a hand-built report and on a copy made
    # by dataclasses.replace, for which purify_equilibrium builds them afresh
    # (repr=False keeps them out of the CLI report, see serialize.dump_report)
    forms: tuple | None = field(default=None, init=False, compare=False, repr=False)


class AgentForm:
    """Exact payoff tensors for (player, block) agents of ``game.info``."""

    def __init__(self, game: BayesianGame):
        self.game = game
        info = game.info
        n = len(game.players)
        self.others = [[j for j in range(n) if j != i] for i in range(n)]
        # coeff[i][(b, x_i)][(opp_blocks, opp_actions)] -> Fraction
        self.coeff: list[dict] = [dict() for _ in range(n)]
        for i in range(n):
            others = self.others[i]
            for x in game.action_profiles():
                for key in game.unit_tuples():
                    units = game.tuple_units(key)
                    mass = math.prod(u.mass for u in units)
                    val = mass * game.weighted[i][x][key].average(units)
                    if val == 0:
                        continue
                    b = info[i].block_of_unit[key[i]]
                    opp_blocks = tuple(info[j].block_of_unit[key[j]] for j in others)
                    opp_actions = tuple(x[j] for j in others)
                    slot = self.coeff[i].setdefault((b, x[i]), {})
                    opp = (opp_blocks, opp_actions)
                    slot[opp] = slot.get(opp, ZERO) + val
        # the float lane of the best-response iteration, converted once:
        # terms[i][(b, x_i)] = [(float(c), ((j, b_j, x_j) per opponent)), ...]
        # in coeff's order
        self.terms: list[dict] = [
            {
                key: [
                    (float(c), tuple(zip(self.others[i], opp_blocks, opp_actions)))
                    for (opp_blocks, opp_actions), c in slot.items()
                ]
                for key, slot in self.coeff[i].items()
            }
            for i in range(n)
        ]

    def block_counts(self) -> list[int]:
        return [len(part.blocks) for part in self.game.info]

    def action_counts(self) -> list[int]:
        return [len(p.actions) for p in self.game.players]

    def agent_action_value_float(self, i: int, b: int, a: int, mixtures) -> float:
        total = 0.0
        for w, factors in self.terms[i].get((b, a), ()):
            for j, bj, aj in factors:
                w *= mixtures[j][bj][aj]
            total += w
        return total

    def agent_values_float(self, i: int, b: int, mixtures) -> list[float]:
        """Agent (i, b)'s float payoff of each action against ``mixtures``."""
        return [
            self.agent_action_value_float(i, b, a, mixtures)
            for a in range(len(self.game.players[i].actions))
        ]


def mixtures_to_profile(game: BayesianGame, mixtures) -> tuple[BehavioralStrategy, ...]:
    """Expand block mixtures into per-cell behavioral strategies."""

    def expanded(i):
        rows = [tuple(w) for w in mixtures[i]]
        block_of = game.info[i].block_of_unit
        return unit_plan(game, i, lambda idx, u, _cell: ((u.hi, rows[block_of[idx]]),))

    return tuple(BehavioralStrategy(expanded(i)) for i in range(len(game.players)))


def verify_equilibrium(
    game: BayesianGame, profile: Sequence[Strategy], forms=None
) -> tuple[Fraction, ...]:
    """Exact per-player gain of the best pure deviation over the played profile.

    ``forms[i]``, when given, are player i's ``interim_forms`` against the
    profile.
    """
    n = len(game.players)
    eps = []
    for i in range(n):
        player_forms = forms[i] if forms is not None else interim_forms(game, i, profile)
        best = ZERO
        for unit, unit_forms in zip(game.units[i], player_forms):
            cell = game.players[i].cells[unit.cell_index]
            best += cell.mass * integrate_envelope(unit_forms, unit.lo, unit.hi)
        eps.append(best - player_payoff(game, i, profile[i], profile, forms=player_forms))
    return tuple(eps)


def improving_deviation(
    game: BayesianGame, profile: Sequence[Strategy], i: int
) -> tuple[PureStrategy, Fraction]:
    """Pointwise best-response strategy for player i and its exact gain."""
    forms = interim_forms(game, i, profile)

    def best(idx, u, _cell):
        return [(hi, winners[0]) for _lo, hi, winners in argmax_segments(forms[idx], u.lo, u.hi)]

    deviation = PureStrategy(unit_plan(game, i, best))
    # swapping i's own strategy leaves the forms against the others unchanged
    played = player_payoff(game, i, profile[i], profile, forms=forms)
    return deviation, player_payoff(game, i, deviation, profile, forms=forms) - played


# -- solvers ------------------------------------------------------------------


def _solve_lp_zero_sum(agent_form: AgentForm):
    """Exact minimax LP on the stacked block strategies of both players."""
    m1, m2 = agent_form.action_counts()
    B1, B2 = agent_form.block_counts()
    pairs1 = [(b, a) for b in range(B1) for a in range(m1)]
    pairs2 = [(b, a) for b in range(B2) for a in range(m2)]
    M = {}
    for (b1, a1) in pairs1:
        slot = agent_form.coeff[0].get((b1, a1), {})
        for (b2, a2) in pairs2:
            M[(b1, a1, b2, a2)] = slot.get(((b2,), (a2,)), ZERO)

    def solve_side(rows, cols, payoff):
        # maximize sum_c v_c  s.t.  sum_r payoff[r, c] g_r >= v_c, per-block simplex
        col_blocks = sorted({c[0] for c in cols})
        nv = len(col_blocks)
        ng = len(rows)
        ns = len(cols)
        nvar = ng + 2 * nv + ns
        cost = [ZERO] * ng + [-ONE] * nv + [ONE] * nv + [ZERO] * ns
        A = []
        b = []
        for ci, (cb, ca) in enumerate(cols):
            row = [ZERO] * nvar
            for ri, r in enumerate(rows):
                row[ri] = payoff(r, (cb, ca))
            vi = col_blocks.index(cb)
            row[ng + vi] = -ONE
            row[ng + nv + vi] = ONE
            row[ng + 2 * nv + ci] = -ONE
            A.append(row)
            b.append(ZERO)
        row_blocks = sorted({r[0] for r in rows})
        for rb in row_blocks:
            row = [ZERO] * nvar
            for ri, r in enumerate(rows):
                if r[0] == rb:
                    row[ri] = ONE
            A.append(row)
            b.append(ONE)
        value, x = simplex_min(cost, A, b)
        g = {r: x[ri] for ri, r in enumerate(rows)}
        return -value, g

    value1, g1 = solve_side(pairs1, pairs2, lambda r, c: M[(r[0], r[1], c[0], c[1])])
    value2, g2 = solve_side(pairs2, pairs1, lambda r, c: -M[(c[0], c[1], r[0], r[1])])
    if value1 != -value2:
        raise ArithmeticError(f"zero-sum LP values disagree: {value1} vs {-value2}")
    mixtures = [
        [[g1[(b, a)] for a in range(m1)] for b in range(B1)],
        [[g2[(b, a)] for a in range(m2)] for b in range(B2)],
    ]
    return mixtures, value1


def _best_response(agent_form: AgentForm, mixtures_float):
    out = []
    for i, part in enumerate(agent_form.game.info):
        rows = []
        for b in range(len(part.blocks)):
            vals = agent_form.agent_values_float(i, b, mixtures_float)
            k = vals.index(max(vals))
            rows.append([1.0 if a == k else 0.0 for a in range(len(vals))])
        out.append(rows)
    return out


def _br_regret(agent_form: AgentForm, mixtures_float) -> float:
    worst = 0.0
    for i, part in enumerate(agent_form.game.info):
        for b in range(len(part.blocks)):
            vals = agent_form.agent_values_float(i, b, mixtures_float)
            played = sum(mixtures_float[i][b][a] * vals[a] for a in range(len(vals)))
            worst = max(worst, max(vals) - played)
    return worst


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
    mixtures = [
        [[1.0 / m for _ in range(m)] for _ in part.blocks]
        for part, m in zip(agent_form.game.info, agent_form.action_counts())
    ]
    iterations = 0
    for iterations in range(1, options.max_iters + 1):
        target = _best_response(agent_form, mixtures)
        new = [
            [
                [(1 - DAMPING) * w + DAMPING * t for w, t in zip(row, trow)]
                for row, trow in zip(rows, trows)
            ]
            for rows, trows in zip(mixtures, target)
        ]
        mixtures = new
        if iterations % 25 == 0 and _br_regret(agent_form, mixtures) < 1e-12:
            break
    snapped = _snap_mixtures(mixtures, SNAP_DENOMINATOR)
    return snapped, iterations


def _support_polish(agent_form: AgentForm, supports):
    """Exact block mixtures matching given supports, or None (2 players)."""
    counts = list(zip(agent_form.block_counts(), agent_form.action_counts()))
    # columns: the supported (player, block, action) weights, then one value
    # and one negated value per (player, block), then one slack per
    # off-support action, all in (player, block, action) order
    gcol: dict[tuple[int, int, int], int] = {}
    vcol: dict[tuple[int, int], int] = {}
    for p, (B, _m) in enumerate(counts):
        for b in range(B):
            vcol[(p, b)] = len(vcol)
            for a in supports[p][b]:
                gcol[(p, b, a)] = len(gcol)
    nv = len(gcol) + 2 * len(vcol)
    width = nv + sum(m - len(s) for p, (_B, m) in enumerate(counts) for s in supports[p])
    slack = nv
    rows = []
    for i, (B, m) in enumerate(counts):
        other = 1 - i
        for b in range(B):
            v = len(gcol) + vcol[(i, b)]
            for a in range(m):
                row = [ZERO] * width
                for ((ob,), (oa,)), c in agent_form.coeff[i].get((b, a), {}).items():
                    col = gcol.get((other, ob, oa))
                    if col is not None:
                        row[col] += c
                row[v] = -ONE
                row[v + len(vcol)] = ONE
                if a not in supports[i][b]:
                    row[slack] = ONE
                    slack += 1
                rows.append(row)
    rhs = [ZERO] * len(rows)
    for p, (B, _m) in enumerate(counts):
        for b in range(B):
            row = [ZERO] * width
            for a in supports[p][b]:
                row[gcol[(p, b, a)]] = ONE
            rows.append(row)
            rhs.append(ONE)
    sol = feasible_combination(rows, rhs)
    if sol is None:
        return None
    mixtures = [[[ZERO] * m for _ in range(B)] for B, m in counts]
    for (p, b, a), col in gcol.items():
        mixtures[p][b][a] = sol[col]
    return mixtures


def _solve_enum(agent_form: AgentForm, options: SolveOptions):
    """Support search for two-player agent forms, seeded by a float run."""
    guess, iters = _solve_br(agent_form, options)
    m1, m2 = agent_form.action_counts()
    supports_guess = [
        [tuple(a for a in range(m) if row[a] > 0) or tuple(range(m)) for row in rows]
        for rows, m in zip(guess, (m1, m2))
    ]
    tried = 0
    candidates = [supports_guess]
    all_subsets = [
        [
            tuple(sorted(s))
            for size in range(m, 0, -1)
            for s in itertools.combinations(range(m), size)
        ]
        for m in (m1, m2)
    ]
    agents = [(0, b) for b in range(agent_form.block_counts()[0])] + [
        (1, b) for b in range(agent_form.block_counts()[1])
    ]
    if len(agents) <= 4:
        per_agent = [all_subsets[p] for p, _b in agents]
        for combo in itertools.product(*per_agent):
            sup = [[], []]
            for (p, _b), s in zip(agents, combo):
                sup[p].append(s)
            candidates.append(sup)
    for supports in candidates:
        tried += 1
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
    two-player general-sum games.  Non-convergence is reported, not raised.
    """
    options = options or SolveOptions()
    coarser = tuple(c.passes for c in coarser_info_check(game))
    agent_form = AgentForm(game)
    method = options.method
    if method == "auto":
        if len(game.players) == 2 and game.is_zero_sum():
            method = "lp"
        elif len(game.players) == 2:
            method = "enum"
        else:
            method = "br"
    value = None
    iterations = 0
    if method == "lp":
        mixtures, value = _solve_lp_zero_sum(agent_form)
    elif method == "enum":
        mixtures, iterations = _solve_enum(agent_form, options)
    else:
        mixtures, iterations = _solve_br(agent_form, options)
    profile, forms, eps = _verified(game, mixtures)
    if max(eps) > options.epsilon and method == "br" and len(game.players) == 2:
        mixtures2, extra = _solve_enum(agent_form, options)
        profile2, forms2, eps2 = _verified(game, mixtures2)
        if max(eps2) < max(eps):
            mixtures, profile, eps, forms = mixtures2, profile2, eps2, forms2
            method = "enum"
        iterations += extra
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
    object.__setattr__(report, "forms", forms)
    return report


def _verified(game: BayesianGame, mixtures):
    """The profile of block mixtures, its interim forms, and its verified gains."""
    profile = mixtures_to_profile(game, mixtures)
    forms = tuple(interim_forms(game, i, profile) for i in range(len(game.players)))
    return profile, forms, verify_equilibrium(game, profile, forms)


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
    raise SchemaError at ``mixtures[i]`` or ``mixtures[i][b]``.
    """
    info = require_coarser(game)
    behavioral = report.profile
    n = len(game.players)
    if len(report.mixtures) != n:
        raise SchemaError("mixtures", f"expected {n} players")
    for i, rows in enumerate(report.mixtures):
        if len(rows) != len(info[i].blocks):
            raise SchemaError(f"mixtures[{i}]", f"expected {len(info[i].blocks)} blocks")
        for b, w in enumerate(rows):
            check_weights(f"mixtures[{i}][{b}]", w, len(game.players[i].actions))
    forms = report.forms
    if forms is None:
        forms = [interim_forms(game, i, behavioral) for i in range(n)]
    pures = tuple(purify_player(game, i, behavioral, forms[i]) for i in range(n))
    pure_forms = [interim_forms(game, i, pures) for i in range(n)]
    eps = verify_equilibrium(game, pures, pure_forms)
    # conditioning on coarser information keeps every block integral, so the
    # conditioned mixtures are the pure profile's block totals over the masses
    mixtures_ok = all(
        t / mass == report.mixtures[i][b][a]
        for i in range(n)
        for b, (totals, mass) in enumerate(
            zip(block_totals(game, i, pures[i]), info[i].block_masses)
        )
        for a, t in enumerate(totals)
    )
    payoffs_ok = all(
        player_payoff(game, i, pures[i], pures, forms=pure_forms[i])
        == player_payoff(game, i, behavioral[i], behavioral, forms=forms[i])
        for i in range(n)
    )
    return PurifiedEquilibrium(
        profile=pures,
        eps=eps,
        mixtures_preserved=mixtures_ok,
        payoffs_preserved=payoffs_ok,
    )

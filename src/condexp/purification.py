"""Strong purification of behavioral profiles and its equivalence audits.

Purifying player i replaces the mixture on each refinement piece by a
proportional split into pure actions.  Per piece this preserves the action
distribution, the support, and the played-payoff integral (symmetric splits
cover units whose interim payoff is affine in the own coordinate).  Because
opponents react to a strategy only through its block conditional expectation,
which the split preserves exactly, the purified profile is payoff equivalent
against every deviation, distribution equivalent, and belief consistent, with
all residuals exactly zero in rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .attainable import AtomObstruction
from .errors import AtomObstructionError
from .games import (
    BayesianGame,
    BehavioralStrategy,
    PureStrategy,
    Strategy,
    as_behavioral,
    block_totals,
    coarser_info_check,
    interim_forms,
    player_payoff,
    strategy_moments,
    unit_plan,
)
from .piecewise import merged_pieces, pack_pieces, split_pieces

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class BeliefViolation:
    player: int
    cell: str
    lo: Fraction
    hi: Fraction
    action: int


@dataclass(frozen=True)
class EquivalenceReport:
    payoff_residuals: tuple[Fraction, ...]
    distribution_defects: tuple[tuple[Fraction, ...], ...]
    strong_residuals: tuple[tuple[Fraction, ...], ...]  # per player, per deviation
    belief_violation_mass: tuple[Fraction, ...]
    belief_violations: tuple[BeliefViolation, ...]

    @property
    def all_zero(self) -> bool:
        return (
            all(r == 0 for r in self.payoff_residuals)
            and all(d == 0 for row in self.distribution_defects for d in row)
            and all(r == 0 for row in self.strong_residuals for r in row)
            and all(m == 0 for m in self.belief_violation_mass)
        )


@dataclass(frozen=True)
class PurificationCertificate:
    profile: tuple[PureStrategy, ...]
    report: EquivalenceReport
    block_identity: tuple[bool, ...]  # per player: E(g|blocks) == E(f|blocks)


def require_coarser(game: BayesianGame):
    """``game.info``, after checking every player's information is coarser.

    Raises AtomObstructionError naming the first player whose information
    has a saturated unit or a point cell: there a proportional split cannot
    keep the block conditional expectation.
    """
    for i, c in enumerate(coarser_info_check(game)):
        if not c.passes:
            raise AtomObstructionError(
                AtomObstruction(c.witness or f"player {i}", None, "coarser information fails")
            )
    return game.info


def purify_player(
    game: BayesianGame, i: int, behavioral: Sequence[BehavioralStrategy], forms
) -> PureStrategy:
    """Split player i's behavioral strategy into a pure one, piece by piece.

    Each piece of each unit is cut in proportion to its weights, in action
    order; units whose interim payoff is affine in the own coordinate get the
    centroid-preserving symmetric split, so the own payoff integral survives.
    ``forms`` are player i's ``interim_forms`` against ``behavioral``.
    """
    own = behavioral[i]

    def split(idx, u, cell):
        symmetric = any(B != 0 for _A, B in forms[idx])
        return split_pieces(own.pieces(cell), ((u.lo, u.hi, symmetric),))

    return PureStrategy(unit_plan(game, i, split))


def strong_purify(
    game: BayesianGame,
    profile: Sequence[Strategy],
    deviation_samples: int = 16,
    seed: int = 0,
) -> PurificationCertificate:
    """Purify a behavioral profile and certify the equivalences exactly."""
    require_coarser(game)
    behavioral = [as_behavioral(game.players[i], f) for i, f in enumerate(profile)]
    n = len(game.players)
    forms = [interim_forms(game, i, behavioral) for i in range(n)]
    pures = tuple(purify_player(game, i, behavioral, forms[i]) for i in range(n))
    rng = random.Random(seed)
    deviations = [
        [random_behavioral(game.players[i], rng) for _ in range(deviation_samples)]
        for i in range(n)
    ]
    report = audit_equivalence(game, behavioral, pures, deviations, forms_f=forms)
    block_identity = tuple(
        block_totals(game, i, behavioral[i]) == block_totals(game, i, pures[i])
        for i in range(n)
    )
    return PurificationCertificate(pures, report, block_identity)


def audit_equivalence(
    game: BayesianGame,
    f: Sequence[Strategy],
    g: Sequence[Strategy],
    deviations: Sequence[Sequence[Strategy]] | None = None,
    forms_f=None,
) -> EquivalenceReport:
    """Residuals for payoff, strong payoff, distribution, and belief clauses.

    Each player's interim forms are computed once against f (unless passed
    in as ``forms_f``) and once against g; the payoff residual and every
    deviation sample reuse them.
    """
    n = len(game.players)
    fb = [as_behavioral(game.players[i], s) for i, s in enumerate(f)]
    gb = [as_behavioral(game.players[i], s) for i, s in enumerate(g)]
    if forms_f is None:
        forms_f = [interim_forms(game, i, fb) for i in range(n)]
    forms_g = [interim_forms(game, i, gb) for i in range(n)]
    payoff_residuals = tuple(
        abs(
            player_payoff(game, i, fb[i], fb, forms=forms_f[i])
            - player_payoff(game, i, gb[i], gb, forms=forms_g[i])
        )
        for i in range(n)
    )

    def action_totals(i, s):
        moments = strategy_moments(game.players[i], game.units[i], s)
        return [sum(col, ZERO) for col in zip(*(w0 for w0, _w1 in moments))]

    dist_defects = tuple(
        tuple(abs(x - y) for x, y in zip(action_totals(i, fb[i]), action_totals(i, gb[i])))
        for i in range(n)
    )
    strong = []
    for i in range(n):
        devs = deviations[i] if deviations else ()
        strong.append(tuple(
            abs(
                player_payoff(game, i, h, fb, forms=forms_f[i])
                - player_payoff(game, i, h, gb, forms=forms_g[i])
            )
            for h in devs
        ))
    violation_mass = []
    violations: list[BeliefViolation] = []
    for i, spec in enumerate(game.players):
        strategy = g[i]
        total = ZERO
        if isinstance(strategy, PureStrategy):
            for cell in spec.cells:
                for lo, hi, (w, a) in merged_pieces(fb[i].pieces(cell), strategy.pieces(cell)):
                    if w[a] == 0:
                        total += cell.mass * (hi - lo)
                        violations.append(BeliefViolation(i, cell.id, lo, hi, a))
        violation_mass.append(total)
    return EquivalenceReport(
        payoff_residuals=payoff_residuals,
        distribution_defects=dist_defects,
        strong_residuals=tuple(strong),
        belief_violation_mass=tuple(violation_mass),
        belief_violations=tuple(violations),
    )


def random_behavioral(spec, rng: random.Random) -> BehavioralStrategy:
    """A seeded random behavioral strategy on a player's type space."""
    m = len(spec.actions)

    def random_weights():
        raw = [rng.randint(0, 4) for _ in range(m)]
        if sum(raw) == 0:
            raw[rng.randrange(m)] = 1
        total = sum(raw)
        w = [Fraction(x, total) for x in raw]
        w[-1] = 1 - sum(w[:-1])
        return tuple(w)

    plan = {}
    for cell in spec.cells:
        cuts = []
        if cell.has_inner:  # a point cell cannot be cut
            cuts = sorted(set(Fraction(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))))
        plan[cell.id] = pack_pieces(cell, [(u, random_weights()) for u in cuts + [ONE]])
    return BehavioralStrategy(plan)

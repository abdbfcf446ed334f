"""Strong purification of behavioral profiles and its equivalence audits.

Purifying player i replaces the mixture on each refinement piece by a
proportional split into pure actions.  Per piece this preserves the action
distribution, the support, and the played-payoff integral (symmetric splits
cover units whose interim payoff is affine in the own coordinate).  Because
opponents react to a strategy only through its block conditional expectation,
which the split preserves exactly, the purified profile is payoff equivalent
against every deviation, distribution equivalent, and belief consistent, with
all residuals exactly zero in rational arithmetic.

A deviation h of player i pays sum(A*W0 + B*W1) over h's moments (W0, W1)
and i's interim forms (A, B), so its payoff gap between profiles f and g is
linear in h's moments, with the difference forms (A_f - A_g, B_f - B_g) as
coefficients.  Under coarser information i's forms read each opponent only
through the opponent's block totals (i's entries agree across the block and
none is affine in the opponent's coordinate), which the split keeps; the
difference forms vanish: every deviation, sampled or not, has a zero gap, so
``strong_purify`` draws its samples only when some difference form is not 0.
"""

from __future__ import annotations

import dataclasses
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
    as_weights,
    block_totals,
    coarser_info_check,
    moment_payoff,
    strategy_moments,
    unit_plan,
    walk_profile,
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


def purification(game: BayesianGame, profile: Sequence[Strategy], walk=None):
    """``(walk_f, pures, walk_g)``: the split core of ``strong_purify`` and
    ``purify_equilibrium``.  After ``require_coarser``, the profile (walked,
    unless its ``walk_profile`` is given) is split by ``purify_player`` into
    ``pures``, which is walked too."""
    require_coarser(game)
    walk_f = walk or walk_profile(game, profile)
    behavioral = [as_weights(spec, f) for spec, f in zip(game.players, profile)]
    pures = tuple(purify_player(game, i, behavioral, forms) for i, forms in enumerate(walk_f[1]))
    return walk_f, pures, walk_profile(game, pures)


def strong_purify(
    game: BayesianGame,
    profile: Sequence[Strategy],
    deviation_samples: int = 16,
    seed: int = 0,
) -> PurificationCertificate:
    """Purify a behavioral profile and certify the equivalences exactly."""
    n = len(game.players)
    walk_f, pures, walk_g = purification(game, profile)
    if walk_f[1] == walk_g[1]:
        # every difference form is zero, so is every gap, sampled or not: the
        # samples would be drawn only to be skipped
        report = dataclasses.replace(
            audit_equivalence(game, profile, pures, walks=(walk_f, walk_g)),
            strong_residuals=((ZERO,) * deviation_samples,) * n,
        )
    else:
        rng = random.Random(seed)
        deviations = [
            [random_behavioral(game.players[i], rng) for _ in range(deviation_samples)]
            for i in range(n)
        ]
        report = audit_equivalence(game, profile, pures, deviations, walks=(walk_f, walk_g))
    block_identity = tuple(
        block_totals(game, i, walk_f[0][i]) == block_totals(game, i, walk_g[0][i])
        for i in range(n)
    )
    return PurificationCertificate(pures, report, block_identity)


def audit_equivalence(
    game: BayesianGame,
    f: Sequence[Strategy],
    g: Sequence[Strategy],
    deviations: Sequence[Sequence[Strategy]] | None = None,
    walks=None,
) -> EquivalenceReport:
    """Residuals for payoff, strong payoff, distribution, and belief clauses.

    f and g are walked once each (``walk_profile``, or ``walks`` from the
    caller), and every residual reads those moments.  A deviation's strong
    residual |sum((A_f - A_g)*W0 + (B_f - B_g)*W1)| is linear in its moments,
    so each sample is walked once, against the difference forms; where those
    are all zero, as after a split that keeps the block totals, every
    residual is exactly 0 and the samples are checked but not walked.
    """
    (mom_f, forms_f), (mom_g, forms_g) = walks or (walk_profile(game, f), walk_profile(game, g))
    n = len(game.players)
    payoff_residuals = tuple(
        abs(moment_payoff(mom_f[i], forms_f[i]) - moment_payoff(mom_g[i], forms_g[i]))
        for i in range(n)
    )

    def action_totals(moments):
        D, rows = moments
        return [Fraction(sum(col), D) for col in zip(*(w0 for w0, _w1 in rows))]

    dist_defects = tuple(
        tuple(abs(x - y) for x, y in zip(action_totals(mom_f[i]), action_totals(mom_g[i])))
        for i in range(n)
    )
    strong = []
    for i, spec in enumerate(game.players):
        devs = deviations[i] if deviations else ()
        diff = [
            [(Af - Ag, Bf - Bg) for (Af, Bf), (Ag, Bg) in zip(unit_f, unit_g)]
            for unit_f, unit_g in zip(forms_f[i], forms_g[i])
        ]
        if any(A or B for unit in diff for A, B in unit):
            strong.append(tuple(
                abs(moment_payoff(strategy_moments(spec, game.units[i], h), diff)) for h in devs
            ))
        else:
            for h in devs:
                as_behavioral(spec, h)  # checked, not walked: every gap is 0
            strong.append((ZERO,) * len(devs))
    violation_mass = []
    violations: list[BeliefViolation] = []
    for i, spec in enumerate(game.players):
        strategy = g[i]
        total = ZERO
        if isinstance(strategy, PureStrategy):
            fb = as_weights(spec, f[i])
            for cell in spec.cells:
                for lo, hi, (w, a) in merged_pieces(fb.pieces(cell), strategy.pieces(cell)):
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

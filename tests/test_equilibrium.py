import dataclasses
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condexp import equilibrium, purification
from condexp.equilibrium import (
    SolveOptions,
    improving_deviation,
    purify_equilibrium,
    solve_behavioral,
    verify_equilibrium,
)
from condexp.errors import AtomObstructionError, SchemaError
from condexp.factories import matching_pennies_game
from condexp.games import (
    BayesianGame,
    Entry,
    PlayerSpec,
    PureStrategy,
    TypeCell,
    derive_interplayer_info,
    expected_payoff,
    uniform_strategy,
    walk_profile,
)
from condexp.purification import purify_player
from condexp.serialize import load_game

from game_factories import (
    flip_first_piece,
    random_coarser_game,
    random_dominance_game,
    random_profile,
)
from helpers import reference_solve_br, reference_values
from test_games import pure, saturated_q_game

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def two_block_dominance_game():
    """Player 1 has two derived blocks with different dominant actions."""
    specs = (
        PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1, 2), F(1))),)),
        PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
    )
    keys = [(0, 0), (1, 0)]
    density = {k: Entry(F(1)) for k in keys}
    payoffs = []
    # player 1: action a dominant on unit 0, action b dominant on unit 1
    tables1 = {}
    tables2 = {}
    for x in itertools.product(range(2), range(2)):
        tables1[x] = {
            (0, 0): Entry(F(2) if x[0] == 0 else F(0)),
            (1, 0): Entry(F(2) if x[0] == 1 else F(0)),
        }
        # player 2's payoff distinguishes player 1's units so the derived
        # blocks split, and has a flat own component
        tables2[x] = {k: Entry(F(k[0] + 1, 2)) for k in keys}
    payoffs = (tables1, tables2)
    return BayesianGame(specs, density, payoffs)


class TestVerify:
    def test_uniform_matching_pennies_is_equilibrium(self):
        game = matching_pennies_game(2)
        profile = [uniform_strategy(s) for s in game.players]
        assert verify_equilibrium(game, profile) == (F(0), F(0))

    def test_both_pure_first_action(self):
        game = matching_pennies_game(2)
        profile = [pure(game, 0, 0), pure(game, 1, 0)]
        eps = verify_equilibrium(game, profile)
        assert eps == (F(0), F(2))

    def test_linearity_in_mistake_mass(self):
        # shifting probability delta onto a strictly worse action with gap g
        # costs exactly delta * g
        game = two_block_dominance_game()
        from condexp.games import BehavioralStrategy

        delta = F(1, 8)
        plan = {
            "t1": (
                (F(1, 2), (1 - delta, delta)),
                (F(1), (F(0), F(1))),
            )
        }
        profile = [BehavioralStrategy(plan), pure(game, 1, 0)]
        eps = verify_equilibrium(game, profile)
        assert eps[0] == delta * F(2) * F(1, 2)  # gap 2 on the left half


class TestImprovingDeviation:
    def test_zero_gain_at_equilibrium(self):
        game = matching_pennies_game(2)
        profile = [uniform_strategy(s) for s in game.players]
        _dev, gain = improving_deviation(game, profile, 1)
        assert gain == 0

    def test_pure_first_action_deviation(self):
        game = matching_pennies_game(2)
        profile = [pure(game, 0, 0), pure(game, 1, 0)]
        dev, gain = improving_deviation(game, profile, 1)
        assert gain == 2
        assert dev.plan["t2"] == ((F(1), 1),)

    def test_blockwise_punishing_action(self):
        # opponent plays a on block 1, b on block 2; deviator matches per block
        game = matching_pennies_game(2)
        from condexp.games import BehavioralStrategy

        p1 = PureStrategy({"t1": ((F(1, 2), 0), (F(1), 1))})
        profile = [p1, uniform_strategy(game.players[1])]
        dev, gain = improving_deviation(game, profile, 1)
        # player 2 wants to mismatch: against a (=0) play 1, against b play 0
        assert dev.plan["t2"] == ((F(1), 1),) or dev.plan["t2"] == ((F(1), 0),)
        assert gain == 0  # uniform over halves makes both columns equal

    def test_deviation_gain_matches_verifier(self):
        rng = random.Random(12)
        for _ in range(5):
            game = random_coarser_game(rng, 2)
            from game_factories import random_profile

            profile = random_profile(rng, game)
            eps = verify_equilibrium(game, profile)
            for i in range(2):
                _dev, gain = improving_deviation(game, profile, i)
                assert gain == eps[i]


class TestSolve:
    def test_matching_pennies_lp(self):
        game = matching_pennies_game(2)
        report = solve_behavioral(game)
        assert report.method == "lp"
        assert report.value == 0
        assert report.converged
        assert report.eps == (F(0), F(0))
        assert report.mixtures[0][0] == (F(1, 2), F(1, 2))
        assert report.mixtures[1][0] == (F(1, 2), F(1, 2))

    def test_matching_pennies_m3(self):
        game = matching_pennies_game(3)
        report = solve_behavioral(game)
        assert report.converged
        assert report.value == 0
        assert report.mixtures[0][0] == (F(1, 3), F(1, 3), F(1, 3))

    def test_dominant_action(self):
        game = two_block_dominance_game()
        report = solve_behavioral(game)
        assert report.converged
        assert report.eps == (F(0), F(0))
        assert report.mixtures[0][0] == (F(1), F(0))
        assert report.mixtures[0][1] == (F(0), F(1))

    def test_br_on_dominance_games(self):
        rng = random.Random(3)
        game = random_dominance_game(rng, 3)
        report = solve_behavioral(game, SolveOptions(method="br"))
        assert report.converged
        assert max(report.eps) == 0

    def test_zero_sum_lp_value_identity(self):
        rng = random.Random(4)
        for _ in range(5):
            game = random_coarser_game(rng, 2, zero_sum=True)
            report = solve_behavioral(game)
            assert report.method == "lp"
            assert report.converged
            u = expected_payoff(game, report.profile)
            assert u[0] == report.value
            assert u[1] == -report.value

    def test_general_sum_enum(self):
        rng = random.Random(5)
        for _ in range(5):
            game = random_coarser_game(rng, 2, max_blocks=2)
            report = solve_behavioral(game)
            assert report.converged, report.eps
            assert max(report.eps) <= F(1, 10**9)


class TestPurify:
    def test_matching_pennies_split(self):
        game = matching_pennies_game(2)
        report = solve_behavioral(game)
        purified = purify_equilibrium(game, report)
        assert purified.eps == (F(0), F(0))
        assert purified.mixtures_preserved
        assert purified.payoffs_preserved
        assert purified.profile[0].plan["t1"] == ((F(1, 2), 0), (F(1), 1))

    def test_mixtures_not_preserved_when_a_block_integral_moves(self, monkeypatch):
        monkeypatch.setattr(purification, "purify_player", flip_first_piece(purify_player))
        game = matching_pennies_game(2)
        purified = purify_equilibrium(game, solve_behavioral(game))
        assert purified.profile[0].plan["t1"] == ((F(1, 2), 1), (F(1), 1))
        assert not purified.mixtures_preserved

    @pytest.mark.parametrize(
        "cut, err",
        [
            # was a bare IndexError (tuple index out of range)
            (lambda rows: (), r"mixtures\[0\]: expected 1 blocks"),
            # was read nowhere, and mixtures_preserved said True
            (lambda rows: ((*rows[0], F(0)),), r"mixtures\[0\]\[0\]: expected 2 weights"),
        ],
        ids=["no-block-rows", "extra-weight"],
    )
    def test_hand_built_mixtures_are_checked(self, cut, err):
        game = matching_pennies_game(2)
        report = solve_behavioral(game)
        bad = dataclasses.replace(report, mixtures=(cut(report.mixtures[0]), *report.mixtures[1:]))
        with pytest.raises(SchemaError, match=err):
            purify_equilibrium(game, bad)

    def test_dominant_profile_unchanged(self):
        game = two_block_dominance_game()
        report = solve_behavioral(game)
        purified = purify_equilibrium(game, report)
        assert purified.eps == (F(0), F(0))
        assert purified.profile[0].plan["t1"] == ((F(1, 2), 0), (F(1), 1))

    def test_third_two_thirds_split(self):
        # block mixture (1/3, 2/3) over two indifferent actions
        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1),)),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        density = {(0, 0): Entry(F(1))}
        payoffs = tuple(
            {x: {(0, 0): Entry(F(0))} for x in itertools.product(range(2), range(2))}
            for _ in range(2)
        )
        game = BayesianGame(specs, density, payoffs)
        from condexp.equilibrium import EquilibriumReport, mixtures_to_profile

        mixtures = (((F(1, 3), F(2, 3)),), ((F(1, 2), F(1, 2)),))
        profile = mixtures_to_profile(game, mixtures)
        report = EquilibriumReport(
            mixtures=mixtures,
            profile=profile,
            eps=(F(0), F(0)),
            iterations=0,
            converged=True,
            method="manual",
            value=None,
            coarser=(True, True),
        )
        purified = purify_equilibrium(game, report)
        assert purified.profile[0].plan["t1"] == ((F(1, 3), 0), (F(1), 1))
        assert purified.mixtures_preserved

    def test_splits_the_solved_profile(self):
        # the solved profile is constant on each unit, so splitting it piece by
        # piece is splitting the block mixtures
        rng = random.Random(13)
        for own_affine in (False, True):
            game = random_coarser_game(rng, 2, own_affine=own_affine)
            report = solve_behavioral(game)
            purified = purify_equilibrium(game, report)
            _moments, forms = walk_profile(game, report.profile)
            assert purified.profile == tuple(
                purify_player(game, i, report.profile, forms[i]) for i in range(2)
            )
            assert purified.mixtures_preserved

    def test_refuses_on_saturated_info(self):
        game = saturated_q_game()
        report = solve_behavioral(game, SolveOptions(method="lp"))
        with pytest.raises(AtomObstructionError):
            purify_equilibrium(game, report)

    def test_random_games_purify_exactly(self):
        rng = random.Random(9)
        for trial in range(6):
            if trial % 2:
                game = random_coarser_game(rng, 2, zero_sum=True)
            else:
                game = random_coarser_game(rng, 2, max_blocks=2)
            report = solve_behavioral(game)
            assert report.converged
            purified = purify_equilibrium(game, report)
            assert purified.mixtures_preserved
            assert purified.payoffs_preserved
            assert max(purified.eps) <= max(report.eps)


class TestMultiCellAndPointCells:
    def test_solver_spans_cells(self):
        # player 1's two cells, same opponent-facing signature, one block
        specs = (
            PlayerSpec(
                ("a", "b"),
                (
                    TypeCell("u", F(1, 2), (F(1),)),
                    TypeCell("v", F(1, 2), (F(1),)),
                ),
            ),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        keys = [(0, 0), (1, 0)]
        density = {k: Entry(F(1)) for k in keys}
        from condexp.factories import cyclic_payoff

        payoffs = []
        for i in range(2):
            tables = {}
            for x in itertools.product(range(2), range(2)):
                sign = 1 if i == 0 else -1
                tables[x] = {
                    k: Entry(F(sign * cyclic_payoff(2, x[0], x[1]))) for k in keys
                }
            payoffs.append(tables)
        game = BayesianGame(specs, density, tuple(payoffs))
        info = derive_interplayer_info(game)
        assert info[0].blocks == ((0, 1),)
        report = solve_behavioral(game)
        assert report.converged
        assert report.profile[0].plan["u"] == ((F(1), (F(1, 2), F(1, 2))),)
        assert report.profile[0].plan["v"] == ((F(1), (F(1, 2), F(1, 2))),)
        purified = purify_equilibrium(game, report)
        assert purified.eps == (F(0), F(0))

    def test_verifier_handles_point_cells(self):
        specs = (
            PlayerSpec(
                ("a", "b"),
                (
                    TypeCell("t1", F(1, 2), (F(1),)),
                    TypeCell("p1", F(1, 2), (), True),
                ),
            ),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        keys = [(0, 0), (1, 0)]
        density = {k: Entry(F(1)) for k in keys}
        payoffs = []
        for i in range(2):
            tables = {}
            for x in itertools.product(range(2), range(2)):
                # player 1 strictly prefers action b everywhere
                v = F(1) if (i == 0 and x[0] == 1) else F(0)
                tables[x] = {k: Entry(v) for k in keys}
            payoffs.append(tables)
        game = BayesianGame(specs, density, tuple(payoffs))
        from condexp.games import uniform_strategy

        profile = [uniform_strategy(s) for s in game.players]
        eps = verify_equilibrium(game, profile)
        assert eps[0] == F(1, 2)  # half the gap of 1, over full mass
        dev, gain = improving_deviation(game, profile, 0)
        assert gain == F(1, 2)
        assert dev.plan["p1"] == 1


def cycling_three_player_game():
    """Players 0 and 1 want to match their successor, player 2 wants to
    mismatch player 0; best-response dynamics cycle around the interior
    equilibrium."""
    specs = tuple(
        PlayerSpec(("a", "b"), (TypeCell(f"t{i + 1}", F(1), (F(1),)),))
        for i in range(3)
    )
    density = {(0, 0, 0): Entry(F(1))}
    payoffs = []
    for i in range(3):
        tables = {}
        for x in itertools.product(range(2), range(2), range(2)):
            if i < 2:
                v = F(1) if x[i] == x[(i + 1) % 3] else F(-1)
            else:
                v = F(1) if x[2] != x[0] else F(-1)
            tables[x] = {(0, 0, 0): Entry(v)}
        payoffs.append(tables)
    return BayesianGame(specs, density, tuple(payoffs))


class TestNonConvergenceReporting:
    def test_cycling_game_reports_honestly(self):
        game = cycling_three_player_game()
        report = solve_behavioral(
            game, SolveOptions(method="br", max_iters=300, epsilon=F(1, 10**9))
        )
        # the report never lies: either the profile verifies, or the
        # converged flag is down and eps carries the exact defect
        recheck = verify_equilibrium(game, report.profile)
        assert recheck == report.eps
        assert report.converged == (max(report.eps) <= F(1, 10**9))
        # uniform is the actual equilibrium of this game
        from condexp.games import uniform_strategy

        uniform = [uniform_strategy(s) for s in game.players]
        assert verify_equilibrium(game, uniform) == (F(0), F(0), F(0))


class TestImprovingDeviationGain:
    def test_gain_is_the_expected_payoff_difference(self):
        rng = random.Random(23)
        for n in (2, 2, 3):
            game = random_coarser_game(rng, n, max_actions=2 if n == 3 else 3)
            profile = random_profile(rng, game)
            for i in range(n):
                dev, gain = improving_deviation(game, profile, i)
                swapped = list(profile)
                swapped[i] = dev
                old = expected_payoff(game, swapped)[i] - expected_payoff(game, profile)[i]
                assert gain == old
                assert gain >= 0


def float_hex(mixtures):
    return [[[w.hex() for w in row] for row in rows] for rows in mixtures]


def assert_matches_the_scalar_loop(agent_form, max_iters):
    """The lane's unsnapped floats and iteration count, once they are the
    scalar loop's bit for bit."""
    options = SolveOptions(max_iters=max_iters)
    got, iterations = equilibrium._br_floats(agent_form, options)
    want, want_iterations = reference_solve_br(agent_form, options)
    assert (float_hex(got), iterations) == (float_hex(want), want_iterations)
    return got, iterations


def unequal_action_game(rng, n):
    """A coarser game of n players whose action counts are not all equal."""
    sizes = {2: {"max_actions": 4}, 3: {}, 4: {"max_actions": 3, "max_units": 2, "max_blocks": 2}}
    while True:
        game = random_coarser_game(rng, n, **sizes[n])
        if len({len(p.actions) for p in game.players}) > 1:
            return game


def overflowing_game():
    """A two-player coarser game with payoffs past the float64 range: player
    0's all positive and player 1's all negative, scaled so the largest
    agent-form coefficient is the largest float."""
    game = random_coarser_game(random.Random(3), 2, max_blocks=3)

    def payoffs(scale):
        return tuple(
            {x: {key: Entry(sign * scale * (3 + e.const)) for key, e in table.items()}
             for x, table in payoff.items()}
            for sign, payoff in zip((1, -1), game.payoffs)
        )

    unit = equilibrium.AgentForm(BayesianGame(game.players, game.density, payoffs(F(1))))
    top = max(abs(c) for coeff in unit.coeff for slot in coeff.values() for c in slot.values())
    return BayesianGame(game.players, game.density, payoffs(F(sys.float_info.max) / top))


class TestArrayLane:
    """The array lane of the damped best response gives the unsnapped floats
    and the iteration count of the scalar loop (``reference_solve_br``) bit
    for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=4),
        st.sampled_from([0, 1, 25, 26, 300]),
    )
    def test_matches_the_scalar_loop(self, seed, n, max_iters):
        assert_matches_the_scalar_loop(
            equilibrium.AgentForm(unequal_action_game(random.Random(seed), n)), max_iters
        )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=4))
    def test_values_match_the_scalar_loop(self, seed, n):
        # the values themselves, bit for bit at random weights: an order
        # change that flips no argmax still shows here
        rng = random.Random(seed)
        agent_form = equilibrium.AgentForm(unequal_action_game(rng, n))
        coef, gather, pad, _x = equilibrium._br_lane(agent_form)
        x = np.array([[rng.random() if p == 0 else 0.0 for p in row] for row in pad.tolist()])
        x /= x.sum(axis=1, keepdims=True)
        rows = iter(x.tolist())
        mixtures = [[next(rows)[:m] for _ in range(B)] for B, m in agent_form.counts]
        got = iter(equilibrium._lane_values(coef, gather, x).tolist())
        values = reference_values(agent_form)
        for i, part in enumerate(agent_form.game.info):
            for b, mixture in enumerate(mixtures[i]):
                lane = next(got)[: len(mixture)]
                assert [v.hex() for v in lane] == [v.hex() for v in values(i, b, mixtures)]

    @pytest.mark.parametrize(
        "make_game, max_iters, ends",
        [
            (lambda: random_dominance_game(random.Random(5), 3), 0, "start"),
            (lambda: random_dominance_game(random.Random(5), 3), 300, "regret"),
            (cycling_three_player_game, 300, "cap"),
        ],
        ids=["no-iterations", "regret-exit", "cap"],
    )
    def test_each_way_out_of_the_loop(self, make_game, max_iters, ends):
        agent_form = equilibrium.AgentForm(make_game())
        got, iterations = assert_matches_the_scalar_loop(agent_form, max_iters)
        if ends == "start":
            assert iterations == 0
            assert got == [[[1.0 / len(row)] * len(row) for row in rows] for rows in got]
        elif ends == "regret":
            assert iterations < max_iters and iterations % 25 == 0
        else:
            assert iterations == max_iters

    @pytest.mark.parametrize("max_iters", [1, 25, 300])
    def test_values_past_the_float_range(self, max_iters):
        agent_form = equilibrium.AgentForm(overflowing_game())
        biggest = F(sys.float_info.max)
        counts = [m for _B, m in agent_form.counts]
        # at the uniform start some action value is above the float range on
        # player 0 and below it on player 1, so the lane sums to +inf and -inf
        # (and its regrets read inf - inf)
        for i, sign in ((0, 1), (1, -1)):
            starts = [
                sign * sum(c for c in slot.values()) / counts[1 - i]
                for slot in agent_form.coeff[i].values()
            ]
            assert max(starts) > biggest
        assert_matches_the_scalar_loop(agent_form, max_iters)


class TestBrFallback:
    def test_two_player_br_runs_the_iteration_once(self, monkeypatch):
        # a two-player br result that fails verification falls back to the
        # support search, which reuses the first run; the reported count is
        # that run once plus the one support tried
        doc = json.loads((FIXTURES / "saturated_game.json").read_text())
        game = load_game(doc["game"])
        calls = []
        solve_br = equilibrium._solve_br

        def counted(agent_form, options):
            calls.append(options.max_iters)
            return solve_br(agent_form, options)

        monkeypatch.setattr(equilibrium, "_solve_br", counted)
        report = solve_behavioral(game, SolveOptions(method="br", max_iters=300))
        assert calls == [300]
        assert (report.method, report.iterations, report.converged) == ("enum", 301, True)


class TestMethodCheck:
    def test_unknown_method_is_a_schema_error(self, monkeypatch):
        # was a silent br run, reported under the unknown name; the check
        # comes before the agent form is built
        monkeypatch.setattr(equilibrium, "AgentForm", None)
        with pytest.raises(SchemaError, match=r"^--method: unknown method 'newton'"):
            solve_behavioral(matching_pennies_game(), SolveOptions(method="newton"))

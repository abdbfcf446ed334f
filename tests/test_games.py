import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condexp.errors import SchemaError
from condexp.factories import matching_pennies_game
from condexp.games import (
    BayesianGame,
    BehavioralStrategy,
    Entry,
    PlayerSpec,
    PureStrategy,
    TypeCell,
    coarser_info_check,
    derive_interplayer_info,
    expected_payoff,
    g_conditional,
    interim_affine,
    interim_payoff,
    moment_payoff,
    player_payoff,
    strategy_moments,
    substitute_conditioned,
    uniform_strategy,
    walk_profile,
)

from condexp.purification import random_behavioral
from condexp.serialize import dump_game, load_game
from game_factories import random_coarser_game, random_profile
from helpers import (
    entry_product,
    reference_agent_coeff,
    reference_info,
    reference_interim_affine,
)

F = Fraction


def saturated_q_game(m: int = 2) -> BayesianGame:
    """Two players; density affine in player 1's coordinate on every tuple,
    so all of player 1's units are saturated while player 2 stays rich."""
    actions = tuple(f"a{j + 1}" for j in range(m))
    specs = (
        PlayerSpec(actions, (TypeCell("t1", F(1), (F(1, 2), F(1))),)),
        PlayerSpec(actions, (TypeCell("t2", F(1), (F(1, 2), F(1))),)),
    )
    density = {
        (0, 0): Entry(F(1, 2), F(1), 0),
        (1, 0): Entry(F(1, 2), F(1), 0),
        (0, 1): Entry(F(3, 2), F(-1), 0),
        (1, 1): Entry(F(3, 2), F(-1), 0),
    }
    from condexp.factories import cyclic_payoff

    payoffs = []
    for i in range(2):
        tables = {}
        for x0 in range(m):
            for x1 in range(m):
                sign = 1 if i == 0 else -1
                v = F(sign * cyclic_payoff(m, x0, x1))
                tables[(x0, x1)] = {key: Entry(v) for key in density}
        payoffs.append(tables)
    return BayesianGame(specs, density, tuple(payoffs))


def pure(game, i, action):
    spec = game.players[i]
    plan = {}
    for cell in spec.cells:
        plan[cell.id] = action if cell.point else ((F(1), action),)
    return PureStrategy(plan)


class TestValidation:
    def test_density_must_integrate_to_one(self):
        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1),)),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        density = {(0, 0): Entry(F(2))}
        payoffs = tuple(
            {x: {(0, 0): Entry(F(0))} for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
            for _ in range(2)
        )
        with pytest.raises(SchemaError) as exc:
            BayesianGame(specs, density, payoffs)
        assert exc.value.path == "density"
        assert str(exc.value) == "density: must integrate to 1, got 2"

    def test_marginal_condition_rejected(self):
        # q = 2*t1 integrates to 1 but the player-1 marginal is not constant
        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1),)),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        density = {(0, 0): Entry(F(0), F(2), 0)}
        payoffs = tuple(
            {x: {(0, 0): Entry(F(0))} for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
            for _ in range(2)
        )
        with pytest.raises(SchemaError) as exc:
            BayesianGame(specs, density, payoffs)
        path = "density marginal[player 0, unit 0]"
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: must be identically 1, got 0 + 2*t"

    def test_double_affine_rejected(self):
        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1, 2), F(1))),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1, 2), F(1))),)),
        )
        density = {
            (0, 0): Entry(F(1, 2), F(1), 0),
            (1, 0): Entry(F(1, 2), F(1), 0),
            (0, 1): Entry(F(3, 2), F(-1), 0),
            (1, 1): Entry(F(3, 2), F(-1), 0),
        }
        bad = {key: Entry(F(0), F(1), 0) for key in density}
        payoffs = tuple(
            {x: dict(bad) for x in [(0, 0), (0, 1), (1, 0), (1, 1)]} for _ in range(2)
        )
        with pytest.raises(SchemaError) as exc:
            BayesianGame(specs, density, payoffs)
        path = "payoffs[0][(0, 0)][(0, 0)]"
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: payoff and density are both affine on this tuple"

    def test_saturated_q_game_is_valid(self):
        game = saturated_q_game()
        assert game.is_zero_sum()


def fault_game_tables():
    """Tables of a valid two-player game: player 0 has the interval units
    t[0], t[1] of mass 1/4 and the point unit p of mass 1/2, player 1 one
    interval unit; every entry is constant."""
    density = {(k, 0): Entry(F(1)) for k in range(3)}
    payoffs = [
        {x: {key: Entry(F(0)) for key in density} for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        for _ in range(2)
    ]
    return density, payoffs


def fault_game(density, payoffs):
    specs = (
        PlayerSpec(("a", "b"), (
            TypeCell("t", F(1, 2), (F(1, 2), F(1))), TypeCell("p", F(1, 2), (), point=True),
        )),
        PlayerSpec(("a", "b"), (TypeCell("s", F(1), (F(1),)),)),
    )
    return BayesianGame(specs, density, tuple(payoffs))


def affine_density(d, c0, s):
    """Density c0 + s*t1 on (0, 0) and c0 + s - s*t1 on (1, 0), t1 player 1's
    coordinate: every marginal stays identically 1."""
    d[(0, 0)] = Entry(F(c0), F(s), 1)
    d[(1, 0)] = Entry(F(c0) + F(s), -F(s), 1)


class TestConstructionFaults:
    """Each single-fault table is a SchemaError at its path, with its message."""

    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda d, u: d.pop((1, 0)), "density[(1, 0)]", "missing entry"),
            (
                lambda d, u: u[0][(0, 0)].update({(0, 0): Entry(F(0), F(1), 5)}),
                "payoffs[0][(0, 0)][(0, 0)]", "bad affine coordinate",
            ),
            (
                lambda d, u: u[0][(0, 0)].update({(2, 0): Entry(F(0), F(1), 0)}),
                "payoffs[0][(0, 0)][(2, 0)]", "affine coordinate points at a point cell",
            ),
            (lambda d, u: u[1].pop((1, 1)), "payoffs[1][(1, 1)]", "missing action profile"),
            (lambda d, u: u[1][(0, 1)].pop((2, 0)), "payoffs[1][(0, 1)][(2, 0)]", "missing entry"),
            (
                lambda d, u: (
                    affine_density(d, F(1, 2), 1),
                    u[0][(0, 1)].update({(0, 0): Entry(F(0), F(1), 0)}),
                ),
                "payoffs[0][(0, 1)][(0, 0)]", "payoff and density are both affine on this tuple",
            ),
            (
                lambda d, u: (
                    u[0][(0, 0)].update({(1, 0): Entry(F(0), F(1), 0)}),
                    u[1][(1, 0)].update({(1, 0): Entry(F(0), F(1), 1)}),
                ),
                "tuple (1, 0)", "at most one affine coordinate per unit tuple",
            ),
            (
                lambda d, u: affine_density(d, F(-1, 2), 3),
                "density[(0, 0)]", "density must be nonnegative",
            ),
            (
                # 1/2 - 3*t1 is negative at the unit's upper end only
                lambda d, u: affine_density(d, F(1, 2), -3),
                "density[(0, 0)]", "density must be nonnegative",
            ),
            (
                lambda d, u: d.update({(2, 0): Entry(F(2))}),
                "density", "must integrate to 1, got 3/2",
            ),
            (
                lambda d, u: d.update({(0, 0): Entry(F(2)), (1, 0): Entry(F(0))}),
                "density marginal[player 0, unit 0]", "must be identically 1, got 2 + 0*t",
            ),
            (
                lambda d, u: d.update({(0, 0): Entry(F(0), F(2), 1)}),
                "density marginal[player 1, unit 0]", "must be identically 1, got 3/4 + 1/2*t",
            ),
        ],
        ids=[
            "missing-density-entry", "bad-coordinate", "coordinate-on-point-cell",
            "missing-profile", "missing-payoff-entry", "payoff-and-density-affine",
            "two-affine-coordinates", "negative-density", "negative-density-at-upper-end",
            "total-not-one",
            "marginal-not-one", "marginal-affine",
        ],
    )
    def test_single_fault(self, edit, path, message):
        density, payoffs = fault_game_tables()
        fault_game(density, payoffs)  # valid before the edit
        edit(density, payoffs)
        with pytest.raises(SchemaError) as exc:
            fault_game(density, payoffs)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda d, u: d.update({(7, 7): Entry(F(0))}), "density[(7, 7)]", "not a unit tuple"),
            (lambda d, u: d.update({(0,): Entry(F(0))}), "density[(0,)]", "not a unit tuple"),
            (
                lambda d, u: u[1][(0, 1)].update({(0, 5): Entry(F(0))}),
                "payoffs[1][(0, 1)][(0, 5)]", "not a unit tuple",
            ),
            (
                lambda d, u: u[0].update({(9, 9): u[0][(0, 0)]}),
                "payoffs[0][(9, 9)]", "not an action profile",
            ),
        ],
        ids=["density-out-of-grid", "density-short-key", "payoff-entry-out-of-grid",
             "profile-out-of-grid"],
    )
    def test_stray_key(self, edit, path, message):
        # were accepted, and never read
        density, payoffs = fault_game_tables()
        edit(density, payoffs)
        with pytest.raises(SchemaError) as exc:
            fault_game(density, payoffs)
        assert str(exc.value) == f"{path}: {message}"

    def test_affine_entry_without_coordinate(self):
        # the game owns the coordinate rule; Entry itself no longer checks it
        density, payoffs = fault_game_tables()
        payoffs[0][(0, 1)][(1, 0)] = Entry(F(0), F(1))
        with pytest.raises(SchemaError) as exc:
            fault_game(density, payoffs)
        assert str(exc.value) == "payoffs[0][(0, 1)][(1, 0)]: bad affine coordinate"

    def test_affine_density_is_valid(self):
        density, payoffs = fault_game_tables()
        affine_density(density, F(1, 2), 1)
        fault_game(density, payoffs)


class TestDeriveInfo:
    def test_type_irrelevant_trivial_info(self):
        game = matching_pennies_game(2)
        info = derive_interplayer_info(game)
        for part in info[:2]:
            assert len(part.blocks) == 1
            assert all(k == "rich" for k in part.kinds)

    def test_affine_density_saturates_every_unit(self):
        game = saturated_q_game()
        info = derive_interplayer_info(game)
        assert all(k == "saturated" for k in info[0].kinds)
        assert len(info[0].blocks) == 2  # singleton blocks
        assert all(k == "rich" for k in info[1].kinds)

    def test_grouping_by_signature(self):
        # three units of player 1; opponent payoff separates only the third
        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1, 3), F(2, 3), F(1))),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        keys = [(u, 0) for u in range(3)]
        density = {k: Entry(F(1)) for k in keys}
        bonus = {0: F(0), 1: F(0), 2: F(1)}
        payoffs = []
        for i in range(2):
            tables = {}
            for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                tables[x] = {
                    k: Entry(F(x[i]) + (bonus[k[0]] if i == 1 else F(0))) for k in keys
                }
            payoffs.append(tables)
        game = BayesianGame(specs, density, tuple(payoffs))
        info = derive_interplayer_info(game)
        assert info[0].blocks == ((0, 1), (2,))


class TestCoarserCheck:
    def test_type_irrelevant_passes(self):
        checks = coarser_info_check(matching_pennies_game(3))
        assert all(c.passes for c in checks)

    def test_saturated_q_fails_player_one(self):
        checks = coarser_info_check(saturated_q_game())
        assert not checks[0].passes
        assert "saturated" in checks[0].witness
        assert checks[1].passes

    def test_point_cell_fails(self):
        specs = (
            PlayerSpec(
                ("a", "b"),
                (TypeCell("t1", F(1, 2), (F(1),)), TypeCell("p1", F(1, 2), (), True)),
            ),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        keys = [(0, 0), (1, 0)]
        density = {k: Entry(F(1)) for k in keys}
        payoffs = tuple(
            {x: {k: Entry(F(0)) for k in keys} for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
            for _ in range(2)
        )
        game = BayesianGame(specs, density, tuple(payoffs))
        checks = coarser_info_check(game)
        assert not checks[0].passes
        assert "point mass" in checks[0].witness
        assert checks[1].passes


class TestInterimPayoff:
    def test_uniform_opponent_zeroes_every_action(self):
        game = matching_pennies_game(2)
        profile = [None, uniform_strategy(game.players[1])]
        for a in range(2):
            assert interim_payoff(game, 0, a, 0, profile) == 0

    def test_pure_opponent_row(self):
        game = matching_pennies_game(2)
        profile = [None, pure(game, 1, 0)]
        assert interim_payoff(game, 0, 0, 0, profile) == 1
        assert interim_payoff(game, 0, 1, 0, profile) == -1

    def test_mixed_opponent_blend(self):
        game = matching_pennies_game(2)
        w = ((F(1), (F(3, 4), F(1, 4))),)
        profile = [None, BehavioralStrategy({"t2": w})]
        assert interim_payoff(game, 0, 0, 0, profile) == F(1, 2)


class TestExpectedPayoff:
    def test_uniform_profile_is_zero_sum_zero(self):
        game = matching_pennies_game(2)
        profile = [uniform_strategy(s) for s in game.players]
        assert expected_payoff(game, profile) == (F(0), F(0))

    def test_pure_corner(self):
        game = matching_pennies_game(2)
        profile = [pure(game, 0, 0), pure(game, 1, 0)]
        assert expected_payoff(game, profile) == (F(1), F(-1))

    def test_pure_vs_uniform(self):
        game = matching_pennies_game(2)
        profile = [pure(game, 0, 0), uniform_strategy(game.players[1])]
        assert expected_payoff(game, profile) == (F(0), F(0))

    def test_zero_sum_identity_random(self):
        rng = random.Random(5)
        for _ in range(5):
            game = random_coarser_game(rng, 2, zero_sum=True)
            profile = random_profile(rng, game)
            u = expected_payoff(game, profile)
            assert u[0] + u[1] == 0

    def test_matches_interim_blend(self):
        rng = random.Random(6)
        game = random_coarser_game(rng, 2)
        profile = random_profile(rng, game)
        u = expected_payoff(game, profile)
        # independent path: integrate interim payoffs against own weights
        from condexp.games import as_behavioral, _moments
        from helpers import breakpoints, common_refinement, payload_at

        for i in range(2):
            spec = game.players[i]
            fb = as_behavioral(spec, profile[i])
            D, unit_forms = interim_affine(game, i, _moments(game, profile, i))
            total = F(0)
            for idx, unit in enumerate(game.units[i]):
                cell = spec.cells[unit.cell_index]
                forms = [(F(A, D), F(B, D)) for A, B in unit_forms[idx]]
                bounds = [unit.lo, unit.hi] if unit.lo > 0 else [unit.hi]
                prev = F(0)
                for hi in common_refinement(breakpoints(fb, cell), bounds):
                    lo = prev
                    prev = hi
                    if hi <= unit.lo or lo >= unit.hi:
                        continue
                    w = payload_at(fb, cell, lo)
                    mid = (lo + hi) / 2
                    total += cell.mass * (hi - lo) * sum(
                        w[a] * (forms[a][0] + forms[a][1] * mid)
                        for a in range(len(forms))
                    )
            assert total == u[i]


class TestSubstitutionIdentity:
    def test_conditioning_opponents_preserves_payoff(self):
        rng = random.Random(7)
        for trial in range(8):
            game = random_coarser_game(rng, 2 if trial % 2 else 3)
            profile = random_profile(rng, game)
            u = expected_payoff(game, profile)
            for i in range(len(game.players)):
                subbed = substitute_conditioned(game, profile, i)
                assert expected_payoff(game, subbed)[i] == u[i]

    def test_conditioning_keeps_saturated_units(self):
        # every unit of player 0 is saturated: conditioning keeps the
        # strategy's pieces inside each unit instead of the block average
        doc = json.loads((Path(__file__).parent / "fixtures" / "saturated_game.json").read_text())
        game = load_game(doc["game"])
        assert set(game.info[0].kinds) == {"saturated"}
        f = PureStrategy({"t1": ((F(1, 4), 0), (F(3, 4), 1), (F(1), 0))})
        one, two = (F(1), F(0)), (F(0), F(1))
        assert g_conditional(game, 0, f).plan == {
            "t1": ((F(1, 4), one), (F(3, 4), two), (F(1), one))
        }

    def test_conditioning_is_block_average(self):
        rng = random.Random(8)
        game = random_coarser_game(rng, 2)
        info = derive_interplayer_info(game)
        profile = random_profile(rng, game)
        cond = g_conditional(game, 0, profile[0])
        from condexp.games import strategy_moments

        spec = game.players[0]
        D_f, mom_f = strategy_moments(spec, game.units[0], profile[0])
        D_c, mom_c = strategy_moments(spec, game.units[0], cond)
        part = info[0]
        for b, block in enumerate(part.blocks):
            for a in range(len(spec.actions)):
                raw = F(sum(mom_f[u][0][a] for u in block), D_f)
                averaged = F(sum(mom_c[u][0][a] for u in block), D_c)
                assert raw == averaged


class TestDummyPlayers:
    def test_dummy_padding_leaves_payoffs_unchanged(self):
        base = matching_pennies_game(2)
        padded = matching_pennies_game(2, dummy_players=1)
        profile2 = [pure(base, 0, 0), uniform_strategy(base.players[1])]
        profile3 = [
            pure(padded, 0, 0),
            uniform_strategy(padded.players[1]),
            pure(padded, 2, 0),
        ]
        assert expected_payoff(base, profile2) == expected_payoff(padded, profile3)[:2]
        checks = coarser_info_check(padded)
        assert all(c.passes for c in checks)


def assert_tables_match_entry_product(game):
    """Every player's integer table entry is the Fraction product, exactly."""
    for i in range(len(game.players)):
        den, entries = game.weighted[i]
        assert den > 0
        for x in game.action_profiles():
            for key in game.unit_tuples():
                c, s, coord = entries[x][key]
                e = entry_product(game.payoffs[i][x][key], game.density[key])
                assert (F(c, den), F(s, den), coord) == (e.const, e.slope, e.coord)


class TestCompiledTables:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=3),
        st.booleans(),
    )
    def test_weighted_tables_and_reused_forms(self, seed, n, own_affine):
        rng = random.Random(seed)
        game = random_coarser_game(
            rng, n, own_affine=own_affine, max_actions=2 if n == 3 else 3
        )
        assert_tables_match_entry_product(game)
        profile = random_profile(rng, game)
        _moments, forms = walk_profile(game, profile)
        for i, spec in enumerate(game.players):
            # one form set serves every own strategy of player i
            for own in (profile[i], random_behavioral(spec, rng)):
                assert moment_payoff(
                    strategy_moments(spec, game.units[i], own), forms[i]
                ) == player_payoff(game, i, own, profile)


class TestInterimSubPiece:
    def test_sub_piece_average_of_affine_payoff(self):
        # own payoff affine in own coordinate: the interim value over a
        # sub-piece is the affine form at the sub-piece midpoint
        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1),)),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1),)),)),
        )
        density = {(0, 0): Entry(F(1))}
        payoffs = []
        for i in range(2):
            tables = {}
            for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                if i == 0 and x[0] == 0:
                    tables[x] = {(0, 0): Entry(F(0), F(2), 0)}  # 2 * t1
                else:
                    tables[x] = {(0, 0): Entry(F(x[i]))}
            payoffs.append(tables)
        game = BayesianGame(specs, density, tuple(payoffs))
        profile = [None, uniform_strategy(game.players[1])]
        assert interim_payoff(game, 0, 0, 0, profile) == 1  # 2 * midpoint 1/2
        assert interim_payoff(game, 0, 0, 0, profile, sub=(F(0), F(1, 4))) == F(1, 4)
        assert interim_payoff(game, 0, 0, 0, profile, sub=(F(1, 2), F(1))) == F(3, 2)


def both_saturated_game():
    """Density affine in player 1's coordinate on the first row of tuples and
    in player 2's coordinate elsewhere, with slopes cancelling in both
    marginals; every player ends up with a saturated unit."""
    m = 2
    actions = tuple(f"a{j + 1}" for j in range(m))
    specs = (
        PlayerSpec(actions, (TypeCell("t1", F(1), (F(1, 3), F(2, 3), F(1))),)),
        PlayerSpec(actions, (TypeCell("t2", F(1), (F(1, 2), F(1))),)),
    )
    beta = gamma = F(1, 2)
    mid1 = [F(1, 6), F(1, 2), F(5, 6)]
    mid2 = [F(1, 4), F(3, 4)]
    density = {
        (0, 0): Entry(1 - beta * mid1[0], beta, 0),
        (0, 1): Entry(1 + beta * mid1[0], -beta, 0),
        (1, 0): Entry(1 - gamma * mid2[0], gamma, 1),
        (1, 1): Entry(1 + gamma * mid2[1], -gamma, 1),
        (2, 0): Entry(1 + gamma * mid2[0], -gamma, 1),
        (2, 1): Entry(1 - gamma * mid2[1], gamma, 1),
    }
    from condexp.factories import cyclic_payoff

    payoffs = []
    for i in range(2):
        tables = {}
        for x0 in range(m):
            for x1 in range(m):
                sign = 1 if i == 0 else -1
                v = F(sign * cyclic_payoff(m, x0, x1))
                tables[(x0, x1)] = {key: Entry(v) for key in density}
        payoffs.append(tables)
    return BayesianGame(specs, density, tuple(payoffs))


class TestBothPlayersFail:
    def test_lab_structure_fails_everyone(self):
        game = both_saturated_game()
        checks = coarser_info_check(game)
        assert not checks[0].passes
        assert not checks[1].passes
        info = derive_interplayer_info(game)
        assert info[0].kinds[0] == "saturated"
        assert all(k == "saturated" for k in info[1].kinds)


class TestSymbolicOracle:
    def test_expected_payoff_against_sympy_integration(self):
        # fully independent oracle: build the integrand symbolically and let
        # sympy integrate it piece by piece over both type coordinates
        import sympy

        specs = (
            PlayerSpec(("a", "b"), (TypeCell("t1", F(1), (F(1, 3), F(2, 3), F(1))),)),
            PlayerSpec(("a", "b"), (TypeCell("t2", F(1), (F(1, 2), F(1))),)),
        )
        beta = F(1, 2)
        # density affine in t2 on player-1 rows 0/1 with cancelling slopes,
        # constant on row 2 (which hosts the own-affine payoff entries)
        density = {
            (0, 0): Entry(F(3, 4), beta, 1),
            (0, 1): Entry(F(3, 4), beta, 1),
            (1, 0): Entry(F(5, 4), -beta, 1),
            (1, 1): Entry(F(5, 4), -beta, 1),
            (2, 0): Entry(F(1)),
            (2, 1): Entry(F(1)),
        }
        payoffs = []
        for i in range(2):
            tables = {}
            for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                table = {}
                for key in density:
                    base = F(1 + 2 * x[i] - x[1 - i], 2) + F(key[i], 4)
                    if i == 0 and x == (0, 1) and key[0] == 2:
                        # own-coordinate affine entry on the constant-q row
                        table[key] = Entry(base, F(1, 2), 0)
                    else:
                        table[key] = Entry(base)
                tables[x] = table
            payoffs.append(tables)
        game = BayesianGame(specs, density, tuple(payoffs))

        f1 = BehavioralStrategy(
            {"t1": ((F(1, 4), (F(1, 3), F(2, 3))), (F(1), (F(3, 4), F(1, 4))))}
        )
        f2 = BehavioralStrategy(
            {"t2": ((F(2, 3), (F(1, 2), F(1, 2))), (F(1), (F(0), F(1))))}
        )
        got = expected_payoff(game, [f1, f2])

        t1, t2 = sympy.symbols("t1 t2")

        def sym_entry(e):
            expr = sympy.Rational(e.const)
            if e.slope:
                expr += sympy.Rational(e.slope) * (t1 if e.coord == 0 else t2)
            return expr

        def weight_segments(strategy, cell_id, action):
            rows = strategy.plan[cell_id]
            lo = F(0)
            out = []
            for upto, w in rows:
                out.append((lo, upto, w[action]))
                lo = upto
            return out

        unit_edges1 = [F(0), F(1, 3), F(2, 3), F(1)]
        unit_edges2 = [F(0), F(1, 2), F(1)]

        def segments(strategy, cell_id, action, unit_edges):
            # refine strategy pieces with unit boundaries
            out = []
            for lo, hi, w in weight_segments(strategy, cell_id, action):
                cuts = sorted({lo, hi} | {e for e in unit_edges if lo < e < hi})
                for a, b in zip(cuts, cuts[1:]):
                    out.append((a, b, w))
            return out

        def unit_of(point, unit_edges):
            for k, (a, b) in enumerate(zip(unit_edges, unit_edges[1:])):
                if a <= point < b:
                    return k
            return len(unit_edges) - 2

        for i in range(2):
            total = sympy.Integer(0)
            for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                for lo1, hi1, w1 in segments(f1, "t1", x[0], unit_edges1):
                    for lo2, hi2, w2 in segments(f2, "t2", x[1], unit_edges2):
                        key = (unit_of(lo1, unit_edges1), unit_of(lo2, unit_edges2))
                        integrand = (
                            sym_entry(game.payoffs[i][x][key])
                            * sym_entry(game.density[key])
                            * sympy.Rational(w1)
                            * sympy.Rational(w2)
                        )
                        inner = sympy.integrate(
                            integrand, (t1, sympy.Rational(lo1), sympy.Rational(hi1))
                        )
                        total += sympy.integrate(
                            inner, (t2, sympy.Rational(lo2), sympy.Rational(hi2))
                        )
            assert F(str(total)) == got[i]


class TestIntegerTables:
    """Interim forms, derived information and the agent form, read from the
    integer tables, against Fraction references over ``entry_product``."""

    @staticmethod
    def check_against_references(game, profile):
        from condexp.equilibrium import AgentForm

        assert_tables_match_entry_product(game)
        _moments, walked = walk_profile(game, profile)
        for i, spec in enumerate(game.players):
            D, forms = walked[i]
            for idx in range(len(game.units[i])):
                for a in range(len(spec.actions)):
                    A, B = forms[idx][a]
                    assert type(A) is int and type(B) is int
                    assert (F(A, D), F(B, D)) == reference_interim_affine(game, i, a, idx, profile)
        info = derive_interplayer_info(game)
        assert [(part.blocks, part.kinds) for part in info] == reference_info(game)
        coeff = AgentForm(game).coeff
        reference = reference_agent_coeff(game)
        # same values and the same insertion order, which the float lane keeps
        assert [[(k, list(slot.items())) for k, slot in c.items()] for c in coeff] == [
            [(k, list(slot.items())) for k, slot in c.items()] for c in reference
        ]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=4),
        st.booleans(),
    )
    def test_random_coarser_games(self, seed, n, own_affine):
        rng = random.Random(seed)
        game = random_coarser_game(
            rng, n, own_affine=own_affine, max_actions=3 if n == 2 else 2
        )
        self.check_against_references(game, random_profile(rng, game))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "make", [saturated_q_game, lambda: saturated_q_game(3), both_saturated_game],
        ids=["saturated-q", "saturated-q-3", "both-saturated"],
    )
    def test_affine_densities(self, make, seed):
        # entries affine in an opponent's coordinate, which coarser games lack
        game = make()
        self.check_against_references(game, random_profile(random.Random(seed), game))


def point_cell_game(rng):
    """Player 1 with two interval units and a point cell, player 2 with two
    interval units and three actions; every payoff entry affine in player
    2's coordinate or constant, so player 1 reads an opponent's W1."""
    specs = (
        PlayerSpec(("a", "b"), (
            TypeCell("t", F(1, 2), (F(1, 2), F(1))), TypeCell("p", F(1, 2), (), point=True),
        )),
        PlayerSpec(("a", "b", "c"), (TypeCell("s", F(1), (F(1, 3), F(1))),)),
    )
    keys = [(k, l) for k in range(3) for l in range(2)]
    payoffs = tuple(
        {
            (x0, x1): {
                key: Entry(F(rng.randint(-3, 3), 2), F(rng.randint(-2, 2)), 1) for key in keys
            }
            for x0 in range(2)
            for x1 in range(3)
        }
        for _ in range(2)
    )
    return BayesianGame(specs, {key: Entry(F(1)) for key in keys}, payoffs)


def permuted_signature_game():
    """Player 1's two units see player 2's payoffs (1, 2) and (2, 1) over
    player 2's units: the same entries in another order, so two blocks."""
    cell = (F(1, 2), F(1))
    specs = tuple(PlayerSpec(("a", "b"), (TypeCell(f"t{i + 1}", F(1), cell),)) for i in range(2))
    keys = [(k, l) for k in range(2) for l in range(2)]
    profiles = [(x0, x1) for x0 in range(2) for x1 in range(2)]
    payoffs = (
        {x: {key: Entry(F(0)) for key in keys} for x in profiles},
        {x: {(k, l): Entry(F(1 if k == l else 2)) for k, l in keys} for x in profiles},
    )
    return BayesianGame(specs, {key: Entry(F(1)) for key in keys}, payoffs)


def random_pure(spec, rng):
    """A pure strategy with up to two cuts per interval cell."""
    m = len(spec.actions)
    plan = {}
    for cell in spec.cells:
        if cell.point:
            plan[cell.id] = rng.randrange(m)
        else:
            cuts = sorted({F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))})
            plan[cell.id] = tuple((u, rng.randrange(m)) for u in cuts + [F(1)])
    return PureStrategy(plan)


@st.composite
def walk_cases(draw):
    """A game and a profile mixing behavioral and one-hot pure strategies:
    coarser games of 2-4 players with own-affine terms on or off, a density
    affine in an opponent's coordinate, point cells, or two units whose
    signatures hold the same entries in another order."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    family = draw(st.sampled_from(["coarser", "saturated-q", "point-cells", "permuted"]))
    if family == "coarser":
        n = draw(st.integers(2, 4))
        if n == 4:
            game = random_coarser_game(rng, 4, own_affine=draw(st.booleans()), max_actions=2,
                                       max_units=2)
        else:
            game = random_coarser_game(rng, n, own_affine=draw(st.booleans()),
                                       max_actions=3 if n == 2 else 2)
    elif family == "saturated-q":
        game = saturated_q_game(draw(st.integers(2, 3)))
    elif family == "point-cells":
        game = point_cell_game(rng)
    else:
        game = permuted_signature_game()
    pures = draw(st.lists(st.booleans(), min_size=len(game.players), max_size=len(game.players)))
    profile = tuple(
        random_pure(spec, rng) if p else random_behavioral(spec, rng)
        for spec, p in zip(game.players, pures)
    )
    return game, profile


class TestOnePassWalk:
    """``strategy_moments``, ``interim_affine`` and ``derive_interplayer_info``
    read each strategy and each compiled table in one pass; they equal the
    Fraction moments, the spliced per-form sums and the spliced signatures."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(walk_cases())
    def test_kernels_match_the_spliced_references(self, case):
        from condexp.games import block_totals
        from helpers import (
            reference_scaled_moments,
            reference_spliced_affine,
            reference_spliced_info,
            reference_strategy_moments,
        )

        game, profile = case
        n = len(game.players)
        moments = [strategy_moments(game.players[j], game.units[j], profile[j]) for j in range(n)]
        scaled = []
        for j, (D, rows) in enumerate(moments):
            spec, units = game.players[j], game.units[j]
            assert (D, rows) == reference_scaled_moments(spec, units, profile[j])
            assert all(type(v) is int for w0_w1 in rows for w in w0_w1 for v in w)
            fractions = reference_strategy_moments(spec, units, profile[j])
            assert [([F(v, D) for v in w0], [F(v, D) for v in w1]) for w0, w1 in rows] == fractions
            scaled.append(reference_scaled_moments(spec, units, profile[j]))
        for i in range(n):
            D, forms = interim_affine(game, i, moments)
            # lowest terms: D and the entries share no factor
            assert D > 0 and math.gcd(D, *(v for unit in forms for ab in unit for v in ab)) == 1
            want = [
                [reference_spliced_affine(game, i, a, idx, scaled)
                 for a in range(len(game.players[i].actions))]
                for idx in range(len(game.units[i]))
            ]
            assert [[(F(A, D), F(B, D)) for A, B in unit] for unit in forms] == want
            assert walk_profile(game, profile)[1][i] == (D, forms)
            # a payoff and the block integrals against the Fraction moments
            fractions = reference_strategy_moments(game.players[i], game.units[i], profile[i])
            assert moment_payoff(moments[i], (D, forms)) == sum(
                (A * W0 + B * W1 for (w0, w1), unit in zip(fractions, want)
                 for W0, W1, (A, B) in zip(w0, w1, unit)),
                F(0),
            )
            assert block_totals(game, i, moments[i]) == [
                [sum((fractions[u][0][a] for u in b), F(0))
                 for a in range(len(game.players[i].actions))]
                for b in game.info[i].blocks
            ]
        info = derive_interplayer_info(game)
        assert [(part.blocks, part.kinds) for part in info] == reference_spliced_info(game)
        assert reference_spliced_info(game) == reference_info(game)

    def test_permuted_signatures_stay_apart(self):
        game = permuted_signature_game()
        assert game.info[0].blocks == ((0,), (1,))
        assert game.info[1].blocks == ((0, 1),)


class TestLowestTermsForms:
    """``interim_affine`` returns its forms in lowest terms, so two walks give
    equal ``(D, forms)`` exactly when their Fraction forms are equal."""

    @staticmethod
    def reference_forms(game, profile):
        return [
            [
                [reference_interim_affine(game, i, a, idx, profile) for a in range(m)]
                for idx in range(len(game.units[i]))
            ]
            for i, m in enumerate(len(spec.actions) for spec in game.players)
        ]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=3),
        st.booleans(),
        st.sampled_from(["random", "purified", "conditioned"]),
    )
    def test_equal_forms_are_equal_integers(self, seed, n, own_affine, pair):
        from condexp.purification import purification

        rng = random.Random(seed)
        game = random_coarser_game(
            rng, n, own_affine=own_affine, max_actions=3 if n == 2 else 2
        )
        f = random_profile(rng, game)
        if pair == "random":
            g = random_profile(rng, game)
        elif pair == "purified":
            g = purification(game, f)[1]
        else:
            g = substitute_conditioned(game, f, 0)
        forms_f, forms_g = walk_profile(game, f)[1], walk_profile(game, g)[1]
        ref_f, ref_g = self.reference_forms(game, f), self.reference_forms(game, g)
        for i in range(n):
            assert (forms_f[i] == forms_g[i]) == (ref_f[i] == ref_g[i])
        if pair == "purified":
            # the split keeps every block total: no player's forms move
            assert forms_f == forms_g
        elif pair == "conditioned":
            assert forms_f[0] == forms_g[0]


@st.composite
def loadable_games(draw):
    """A random coarser game, own-affine or not, or a game whose density is
    affine in an opponent's coordinate."""
    family = draw(st.sampled_from(["coarser", "saturated-q", "both-saturated"]))
    if family == "saturated-q":
        return saturated_q_game(draw(st.integers(2, 3)))
    if family == "both-saturated":
        return both_saturated_game()
    n = draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_coarser_game(rng, n, own_affine=draw(st.booleans()), max_actions=3 if n == 2 else 2)


class TestSharedEntries:
    """``load_game`` keeps one Entry per distinct (const, slope, coord) of
    the document and the game converts each distinct Entry once: a loaded
    game compiles as the same game built from a fresh Entry per key."""

    @staticmethod
    def fresh(game):
        def copy(table):
            return {key: Entry(e.const, e.slope, e.coord) for key, e in table.items()}

        payoffs = tuple({x: copy(t) for x, t in tables.items()} for tables in game.payoffs)
        return BayesianGame(game.players, copy(game.density), payoffs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(loadable_games())
    def test_loaded_game_compiles_as_fresh_entries(self, game):
        self.check(game)

    def test_entries_apart_by_coord_alone(self):
        # every payoff is t0 while player 0 is on its first unit and t1 on
        # its second: two entries of one const and one slope, apart by coord
        cells = (TypeCell("t", F(1), (F(1, 2), F(1))),)
        specs = (PlayerSpec(("a", "b"), cells), PlayerSpec(("a", "b"), cells))
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]  # the unit tuples and the action profiles
        density = {key: Entry(F(1)) for key in pairs}
        payoffs = tuple(
            {x: {key: Entry(F(0), F(1), key[0]) for key in pairs} for x in pairs} for _ in specs
        )
        loaded = self.check(BayesianGame(specs, density, payoffs))
        assert [loaded.payoffs[0][(0, 0)][key].coord for key in pairs] == [0, 0, 1, 1]

    @classmethod
    def check(cls, game):
        from condexp.equilibrium import AgentForm

        loaded = load_game(json.loads(json.dumps(dump_game(game))))
        fresh = cls.fresh(game)
        entries = list(loaded.density.values())
        entries += [e for tables in loaded.payoffs for t in tables.values() for e in t.values()]
        # dump_game writes each value one way, so equal entries are one object
        assert len({id(e) for e in entries}) == len(set(entries))
        assert loaded.weighted == fresh.weighted
        assert loaded.info == fresh.info

        def ordered(coeff):
            return [[(k, list(slot.items())) for k, slot in c.items()] for c in coeff]

        assert ordered(AgentForm(loaded).coeff) == ordered(AgentForm(fresh).coeff)
        assert_tables_match_entry_product(loaded)
        return loaded

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condexp import games, purification
from condexp.equilibrium import (
    improving_deviation,
    purify_equilibrium,
    solve_behavioral,
    verify_equilibrium,
)
from condexp.errors import AtomObstructionError, SchemaError
from condexp.factories import matching_pennies_game
from condexp.games import BehavioralStrategy, PureStrategy, uniform_strategy
from condexp.purification import (
    audit_equivalence,
    purify_player,
    random_behavioral,
    strong_purify,
)

from game_factories import flip_first_piece, random_coarser_game, random_profile
from helpers import reference_residuals
from test_games import pure, saturated_q_game

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


class TestStrongPurify:
    def test_three_quarters_split(self):
        game = matching_pennies_game(2)
        f1 = BehavioralStrategy({"t1": ((F(1), (F(3, 4), F(1, 4))),)})
        profile = [f1, uniform_strategy(game.players[1])]
        cert = strong_purify(game, profile)
        assert cert.profile[0].plan["t1"] == ((F(3, 4), 0), (F(1), 1))
        assert cert.report.all_zero

    def test_pure_profile_unchanged(self):
        game = matching_pennies_game(2)
        profile = [pure(game, 0, 0), pure(game, 1, 1)]
        cert = strong_purify(game, profile)
        assert cert.profile[0].plan["t1"] == ((F(1), 0),)
        assert cert.profile[1].plan["t2"] == ((F(1), 1),)
        assert cert.report.all_zero

    def test_piecewise_split_respects_support(self):
        game = matching_pennies_game(2)
        f1 = BehavioralStrategy(
            {"t1": ((F(1, 2), (F(1, 2), F(1, 2))), (F(1), (F(0), F(1))))}
        )
        profile = [f1, uniform_strategy(game.players[1])]
        cert = strong_purify(game, profile)
        assert cert.profile[0].plan["t1"] == ((F(1, 4), 0), (F(1), 1))
        assert cert.report.belief_violation_mass == (F(0), F(0))

    def test_block_identity_fails_when_a_block_integral_moves(self, monkeypatch):
        monkeypatch.setattr(purification, "purify_player", flip_first_piece(purify_player))
        game = matching_pennies_game(2)
        f1 = BehavioralStrategy({"t1": ((F(1), (F(3, 4), F(1, 4))),)})
        cert = strong_purify(game, [f1, uniform_strategy(game.players[1])])
        assert cert.profile[0].plan["t1"] == ((F(3, 4), 1), (F(1), 1))
        assert cert.block_identity == (False, True)

    def test_vanishing_difference_forms_draw_no_deviations(self, monkeypatch):
        game = random_coarser_game(random.Random(9), 3)
        profile = random_profile(random.Random(10), game)
        drawn = []
        monkeypatch.setattr(
            purification, "random_behavioral", lambda spec, rng: drawn.append(spec)
        )
        cert = strong_purify(game, profile, deviation_samples=16, seed=4)
        assert drawn == []
        assert cert.report.strong_residuals == ((F(0),) * 16,) * 3
        assert cert.report.all_zero

    def test_nonzero_difference_forms_draw_every_sample_in_seeded_order(self, monkeypatch):
        # a split that moves a block integral changes the opponent's forms:
        # every player's samples are drawn, as before, and audited exactly
        monkeypatch.setattr(purification, "purify_player", flip_first_piece(purify_player))
        game = matching_pennies_game(2)
        f = [BehavioralStrategy({"t1": ((F(1), (F(3, 4), F(1, 4))),)}),
             uniform_strategy(game.players[1])]
        cert = strong_purify(game, f, deviation_samples=5, seed=3)
        rng = random.Random(3)
        deviations = [[random_behavioral(s, rng) for _ in range(5)] for s in game.players]
        strong = reference_residuals(game, f, cert.profile, deviations)[2]
        assert cert.report.strong_residuals == strong
        assert strong[0] == (F(0),) * 5 and any(strong[1])

    def test_obstruction_without_coarser_info(self):
        game = saturated_q_game()
        profile = [uniform_strategy(s) for s in game.players]
        with pytest.raises(AtomObstructionError):
            strong_purify(game, profile)

    def test_random_profiles_all_residuals_zero(self):
        rng = random.Random(21)
        for trial in range(8):
            game = random_coarser_game(
                rng, 2 if trial % 2 else 3, own_affine=trial % 3 == 0
            )
            profile = random_profile(rng, game)
            cert = strong_purify(game, profile, deviation_samples=4, seed=trial)
            assert cert.report.all_zero
            assert all(cert.block_identity)

    def test_permutation_equivariance(self):
        # relabeling the two actions permutes the purified actions
        game = matching_pennies_game(2)
        f1 = BehavioralStrategy({"t1": ((F(1), (F(1, 4), F(3, 4))),)})
        profile = [f1, uniform_strategy(game.players[1])]
        cert = strong_purify(game, profile)

        swapped = matching_pennies_game(2)
        # swap player 1's weights; payoff symmetry of the uniform opponent
        # makes interim payoffs identical, so the split mirrors exactly
        f1s = BehavioralStrategy({"t1": ((F(1), (F(3, 4), F(1, 4))),)})
        cert_s = strong_purify(swapped, [f1s, uniform_strategy(game.players[1])])
        seg = cert.profile[0].plan["t1"]
        seg_s = cert_s.profile[0].plan["t1"]
        assert seg == ((F(1, 4), 0), (F(1), 1))
        assert seg_s == ((F(3, 4), 0), (F(1), 1))


class TestInterimFormReuse:
    @staticmethod
    def count_interim_affine(monkeypatch):
        original = games.interim_affine
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[:4])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "condexp" or name.startswith("condexp."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    @staticmethod
    def two_by_two_game():
        rng = random.Random(3)
        game = random_coarser_game(rng, 2, max_actions=2, max_units=2)
        assert [len(p.actions) for p in game.players] == [2, 2]
        assert [len(us) for us in game.units] == [2, 2]
        return rng, game

    def test_strong_purify_builds_two_form_sets(self, monkeypatch):
        # one set of forms per player against f, shared by the split and the
        # audit, and one against g; deviation samples reuse them.  Each
        # interim_affine call builds one player's whole set
        calls = self.count_interim_affine(monkeypatch)
        rng, game = self.two_by_two_game()
        profile = random_profile(rng, game)
        cert = strong_purify(game, profile, deviation_samples=16)
        assert cert.report.all_zero
        assert len(cert.report.strong_residuals[0]) == 16
        assert 0 < len(calls) <= 2 * 2

    @staticmethod
    def count_strategy_moments(monkeypatch):
        original = games.strategy_moments
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "condexp" or name.startswith("condexp."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize("n_players", [2, 3])
    def test_strong_purify_walks_each_profile_once(self, monkeypatch, n_players):
        # the split keeps every block total, so the difference forms vanish
        # and the 16 deviations per player are checked but never walked
        calls = self.count_strategy_moments(monkeypatch)
        rng = random.Random(5)
        game = random_coarser_game(rng, n_players)
        profile = random_profile(rng, game)
        cert = strong_purify(game, profile, deviation_samples=16)
        assert cert.report.all_zero and all(cert.block_identity)
        assert [len(row) for row in cert.report.strong_residuals] == [16] * n_players
        assert 0 < len(calls) <= 2 * n_players

    def test_nonzero_difference_forms_walk_each_deviation_once(self, monkeypatch):
        rng = random.Random(7)
        game = matching_pennies_game(2)
        f = [uniform_strategy(spec) for spec in game.players]
        g = (f[0], pure(game, 1, 0))
        deviations = [[random_behavioral(s, rng) for _ in range(5)] for s in game.players]
        calls = self.count_strategy_moments(monkeypatch)
        report = audit_equivalence(game, f, g, deviations)
        # player 0 sees player 1 move; player 1 sees the same player 0
        assert any(report.strong_residuals[0])
        assert report.strong_residuals[1] == (F(0),) * 5
        assert len(calls) == 2 * 2 + 5
        assert calls[4:] == deviations[0]

    def test_purify_equilibrium_builds_two_form_sets(self, monkeypatch):
        # across solve and purify: one set per player against the solved
        # profile (verification, split and payoff check, handed over in the
        # report) and one against the purified one (verification and payoff
        # check), each one interim_affine call per player for its 2 x 2
        # (unit, action) forms
        _rng, game = self.two_by_two_game()
        calls = self.count_interim_affine(monkeypatch)
        report = solve_behavioral(game)
        assert len(calls) == 2
        purified = purify_equilibrium(game, report)
        assert purified.payoffs_preserved and purified.mixtures_preserved
        assert len(calls) == 2 + 2

    def test_improving_deviation_builds_one_form_set(self, monkeypatch):
        # the deviator's forms need every opponent's moments but no other
        # player's forms: one interim_affine call, not one per player.  Its
        # gain is the one the whole walk's forms give
        rng = random.Random(3)
        game = random_coarser_game(rng, 3, max_actions=2)
        profile = random_profile(rng, game)
        moments, forms = games.walk_profile(game, profile)
        calls = self.count_interim_affine(monkeypatch)
        dev, gain = improving_deviation(game, profile, 1)
        assert len(calls) == 1
        own = games.strategy_moments(game.players[1], game.units[1], dev)
        assert gain == games.moment_payoff(own, forms[1]) - games.moment_payoff(moments[1], forms[1])
        assert gain == verify_equilibrium(game, profile)[1]

    def test_solve_and_purify_walk_each_strategy_once(self, monkeypatch):
        # solve verifies from one walk of the solved profile and hands it
        # over in the report; purify walks only the purified profile, whose
        # moments also give the played payoffs of its verification
        from condexp.serialize import load_game

        doc = json.loads((FIXTURES / "mp_game.json").read_text())
        game = load_game(doc.get("game", doc))
        n = len(game.players)
        calls = self.count_strategy_moments(monkeypatch)
        report = solve_behavioral(game)
        assert report.converged and len(calls) == n
        purified = purify_equilibrium(game, report)
        assert purified.payoffs_preserved and purified.mixtures_preserved
        assert 0 < len(calls) <= 2 * n
        assert list(calls[n:]) == list(purified.profile)

    @pytest.mark.parametrize("seed", range(4))
    def test_replaced_report_builds_fresh_forms(self, seed):
        # the solved forms belong to the solved profile: a copy with other
        # mixtures must not check its purification against them
        game = random_coarser_game(random.Random(seed), 2)
        report = solve_behavioral(game)
        assert report.converged and report.walk is not None
        mixtures = tuple(
            tuple(tuple(F(1, len(row)) for _ in row) for row in rows) for rows in report.mixtures
        )
        profile = tuple(uniform_strategy(spec) for spec in game.players)
        replaced = dataclasses.replace(report, mixtures=mixtures, profile=profile)
        purified = purify_equilibrium(game, replaced)
        assert purified.payoffs_preserved and purified.mixtures_preserved
        assert replaced.walk is None


class TestAuditEquivalence:
    def test_profile_against_itself(self):
        game = matching_pennies_game(2)
        profile = [uniform_strategy(s) for s in game.players]
        report = audit_equivalence(game, profile, profile)
        assert report.all_zero

    def test_purified_profile_audits_clean(self):
        rng = random.Random(31)
        game = random_coarser_game(rng, 2)
        profile = random_profile(rng, game)
        cert = strong_purify(game, profile, deviation_samples=6, seed=1)
        deviations = [
            [random_behavioral(spec, rng) for _ in range(3)] for spec in game.players
        ]
        report = audit_equivalence(game, profile, cert.profile, deviations)
        assert report.all_zero

    def test_belief_violation_reported_with_mass(self):
        game = matching_pennies_game(2)
        f1 = BehavioralStrategy({"t1": ((F(1), (F(1), F(0))),)})  # plays a only
        g1 = PureStrategy({"t1": ((F(1, 4), 1), (F(1), 0))})  # plays b on [0, 1/4)
        profile_f = [f1, uniform_strategy(game.players[1])]
        profile_g = [g1, uniform_strategy(game.players[1])]
        report = audit_equivalence(game, profile_f, profile_g)
        assert report.belief_violation_mass[0] == F(1, 4)
        assert report.belief_violations[0].action == 1


class TestAuditOracle:
    """The audit against the per-deviation oracle in ``helpers``: each
    payoff a separate ``player_payoff`` call with forms built afresh."""

    @staticmethod
    def residuals(report):
        return report.payoff_residuals, report.distribution_defects, report.strong_residuals

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([2, 3]),
        st.booleans(),
        st.integers(0, 5),
    )
    def test_matches_per_deviation_oracle(self, seed, n_players, own_affine, samples):
        rng = random.Random(seed)
        game = random_coarser_game(rng, n_players, own_affine=own_affine, max_units=2)
        f = random_profile(rng, game)
        # g purified: zero difference forms, residuals 0 without a walk
        cert = strong_purify(game, f, deviation_samples=samples, seed=seed)
        draws = random.Random(seed)
        deviations = [
            [random_behavioral(spec, draws) for _ in range(samples)] for spec in game.players
        ]
        oracle = reference_residuals(game, f, cert.profile, deviations)
        assert self.residuals(cert.report) == oracle
        assert self.residuals(audit_equivalence(game, f, cert.profile, deviations)) == oracle
        # g unrelated: nonzero difference forms, one walk per deviation
        g = random_profile(rng, game)
        report = audit_equivalence(game, f, g, deviations)
        assert self.residuals(report) == reference_residuals(game, f, g, deviations)


class TestPermutationEquivariance:
    def test_relabeling_actions_preserves_certificates(self):
        # relabeling a player's actions permutes the purified action
        # distribution and leaves payoffs and residuals untouched (pointwise
        # layout may differ because sub-pieces follow declaration order)
        import itertools

        from condexp.games import BayesianGame, PlayerSpec, strategy_moments

        rng = random.Random(41)
        game = random_coarser_game(rng, 2)
        profile = random_profile(rng, game)
        m0 = len(game.players[0].actions)
        perm = list(range(m0))
        rng.shuffle(perm)

        def permute_profile_index(x):
            return (perm[x[0]],) + tuple(x[1:])

        specs = (
            PlayerSpec(
                tuple(game.players[0].actions[perm[a]] for a in range(m0)),
                game.players[0].cells,
            ),
            game.players[1],
        )
        payoffs = []
        for i in range(2):
            tables = {}
            for x in game.action_profiles():
                tables[x] = game.payoffs[i][permute_profile_index(x)]
            payoffs.append(tables)
        permuted_game = BayesianGame(specs, game.density, tuple(payoffs))

        def permute_strategy(f):
            plan = {}
            for cell in game.players[0].cells:
                rows = f.plan[cell.id]
                plan[cell.id] = tuple(
                    (upto, tuple(w[perm[a]] for a in range(m0))) for upto, w in rows
                )
            return BehavioralStrategy(plan)

        permuted_profile = (permute_strategy(profile[0]), profile[1])
        cert = strong_purify(game, profile, deviation_samples=4, seed=3)
        cert_p = strong_purify(permuted_game, permuted_profile, deviation_samples=4, seed=3)
        assert cert.report.all_zero and cert_p.report.all_zero

        from condexp.games import expected_payoff

        u = expected_payoff(game, cert.profile)
        u_p = expected_payoff(permuted_game, cert_p.profile)
        assert u == u_p

        D, mom = strategy_moments(game.players[0], game.units[0], cert.profile[0])
        D_p, mom_p = strategy_moments(
            permuted_game.players[0], permuted_game.units[0], cert_p.profile[0]
        )
        for unit in range(len(game.units[0])):
            for a in range(m0):
                assert F(mom_p[unit][0][a], D_p) == F(mom[unit][0][perm[a]], D)


class TestProfileLength:
    """A profile or a deviation list of the wrong length is a typed error."""

    def test_wrong_lengths_raise_schema_errors(self):
        from condexp.games import expected_payoff

        game = matching_pennies_game(2)
        f = [uniform_strategy(spec) for spec in game.players]
        deviations = [[uniform_strategy(game.players[0])]]
        one = ("profile", "expected 2 strategies, got 1")
        calls = [
            (lambda: verify_equilibrium(game, f[:1]), one),
            (lambda: verify_equilibrium(game, f + f[:1]), ("profile", "expected 2 strategies, got 3")),
            (lambda: expected_payoff(game, f[:1]), one),
            (lambda: strong_purify(game, f[:1]), one),
            (lambda: audit_equivalence(game, f, f, deviations), ("deviations", "expected 2 rows, got 1")),
        ]
        for call, want in calls:
            with pytest.raises(SchemaError) as exc:
                call()
            assert (exc.value.path, exc.value.message) == want

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from condexp import pennies
from condexp.errors import BoundaryPoint, BudgetExceeded, SchemaError
from condexp.pennies import (
    IntervalUnionStrategy,
    PenniesGame,
    ROW_BLOCK,
    TrianglePrior,
    _block_gains,
    _gain_lane,
    _sample_indices,
    _sampled_strategies,
    _tails,
    _unrank_changing,
    balance_defect,
    behavioral_profile_gain,
    cyclic_deviation,
    family_size,
    grid_strategies,
    interim_weight,
    no_pure_equilibrium_search,
    profile_values,
    pure_profile_gain,
    uniform_rows,
)
from condexp.piecewise import unit_vector
from helpers import (
    reference_balance_defect,
    reference_cyclic_deviation,
    reference_gain_side,
    reference_interim_weight,
    reference_opposing_segments,
    reference_unrank_changing,
)

F = Fraction


def iv(*pairs):
    return tuple((F(a), F(b)) for a, b in pairs)


def strategy(m, *steps):
    return IntervalUnionStrategy(tuple((F(upto), action) for upto, action in steps), m)


class TestTrianglePrior:
    def test_total_mass(self):
        assert TrianglePrior.total_mass() == 1

    def test_marginals_integrate_to_one(self):
        assert TrianglePrior.marginal_masses() == (F(1), F(1))

    def test_reconstruction_identity_on_rationals(self):
        rng = random.Random(2)
        for _ in range(50):
            l1 = F(rng.randint(1, 19), 20)
            l2 = F(rng.randint(1, 19), 20)
            assert TrianglePrior.reconstruction_identity(l1, l2)

    def test_conditional_density_value(self):
        # 1 / (2 * (1 - 1/4) * 1/2) = 4/3
        assert TrianglePrior.conditional_density(F(1, 4), F(1, 2)) == F(4, 3)


class TestInterimWeight:
    def test_full_set(self):
        assert interim_weight(iv((0, 1)), F(1, 3), side=2) == 1
        assert interim_weight(iv((0, 1)), F(2, 3), side=1) == 1

    def test_half_set_at_three_quarters(self):
        assert interim_weight(iv((0, "1/2")), F(3, 4), side=2) == F(2, 3)

    def test_saturating_clip(self):
        assert interim_weight(iv((0, "1/2")), F(1, 4), side=2) == 1

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryPoint):
            interim_weight(iv((0, 1)), F(0), side=2)
        with pytest.raises(BoundaryPoint):
            interim_weight(iv((0, 1)), F(1), side=1)

    def test_closed_form_matches_quadrature(self):
        # oracle: integrate conditional density against the player-1 marginal
        rng = random.Random(7)
        for _ in range(25):
            a = rng.randint(0, 6)
            b = rng.randint(a + 1, 8)
            E = iv((F(a, 8), F(b, 8)))
            l2 = F(rng.randint(1, 15), 16)

            def integrand(l1, l2f=float(l2)):
                if not 0 < l1 <= l2f:
                    return 0.0
                cond = 1.0 / (2.0 * (1.0 - l1) * l2f)
                return cond * 2.0 * (1.0 - l1)

            expected, _err = integrate.quad(
                integrand, float(E[0][0]), float(E[0][1]), limit=200
            )
            got = interim_weight(E, l2, side=2)
            assert abs(float(got) - expected) < 1e-10

    def test_player1_side_quadrature(self):
        rng = random.Random(8)
        for _ in range(25):
            a = rng.randint(0, 6)
            b = rng.randint(a + 1, 8)
            E = iv((F(a, 8), F(b, 8)))
            l1 = F(rng.randint(1, 15), 16)

            def integrand(l2, l1f=float(l1)):
                if not l1f <= l2 < 1:
                    return 0.0
                cond = 1.0 / (2.0 * (1.0 - l1f) * l2)
                return cond * 2.0 * l2

            expected, _err = integrate.quad(
                integrand, float(E[0][0]), float(E[0][1]), limit=200
            )
            got = interim_weight(E, l1, side=1)
            assert abs(float(got) - expected) < 1e-10

    # sets of types as unsorted interval lists on the grid of eighths: empty,
    # reversed, overlapping, nested and touching intervals all occur
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(*[st.integers(0, 8).map(lambda k: F(k, 8))] * 2), max_size=6),
        st.integers(1, 15).map(lambda k: F(k, 16)),
        st.sampled_from([1, 2]),
    )
    @example(iv(("1/2", "3/4"), (0, "1/4"), ("1/4", "1/2")), F(5, 8), 2)  # touching, unsorted
    @example(iv((0, "3/4"), ("1/4", "1/2"), ("1/8", 1)), F(1, 3), 1)  # nested, overlapping
    @example(iv(("3/4", "1/4"), ("1/2", "1/2")), F(1, 2), 2)  # reversed, empty
    @example((), F(1, 2), 1)
    def test_one_sweep_matches_the_interval_union_reference(self, intervals, point, side):
        got = interim_weight(intervals, point, side)
        assert got == reference_interim_weight(intervals, point, side)
        assert type(got) is Fraction

    def test_errors_keep_their_order(self):
        # a boundary point is named before a bad side, as in the reference
        for fn in (interim_weight, reference_interim_weight):
            with pytest.raises(BoundaryPoint):
                fn(iv((0, 1)), F(1), side=3)
            with pytest.raises(SchemaError, match="side"):
                fn(iv((0, 1)), F(1, 2), side=3)


class TestIntervalUnionStrategy:
    def test_pieces_merge_adjacent_intervals_of_one_action(self):
        part = strategy(2, ("1/4", 0), ("1/2", 0), ("3/4", 0), (1, 1))
        assert part.pieces == ((F(3, 4), 0), (F(1), 1))
        assert part.actions == (iv((0, "3/4")), iv(("3/4", 1)))
        assert pennies._integer_rows(2, part) == (4, [[(3, (4, 0)), (4, (0, 4))]])

    def test_from_grid_round_trips_through_pieces(self):
        part = IntervalUnionStrategy.from_grid([1, 1, 0, 2], 3)
        assert part.pieces == ((F(1, 2), 1), (F(3, 4), 0), (F(1), 2))
        assert part.actions == (iv(("1/2", "3/4")), iv((0, "1/2")), iv(("3/4", 1)))
        assert IntervalUnionStrategy(part.pieces, 3) == part

    @pytest.mark.parametrize(
        "pieces",
        [
            [(F(1), 2)],  # past the last action: was a bare IndexError
            [(F(1, 2), -1), (F(1), 0)],  # negative: was accepted as action 1
        ],
    )
    def test_from_pieces_rejects_actions_out_of_range(self, pieces):
        with pytest.raises(SchemaError, match=r"pieces: action -?\d+ is not in range\(2\)"):
            IntervalUnionStrategy(pieces, 2)

    @pytest.mark.parametrize(
        "pieces",
        [
            # a falling upto: once read as "action 0 on [0, 1)", the reversed
            # action-1 interval dropped and the overlap absorbed
            [(F(1, 2), 0), (F(1, 4), 1), (F(1), 0)],
            [(F(1, 2), 0), (F(1, 2), 1), (F(1), 0)],  # an empty piece, likewise
        ],
    )
    def test_from_pieces_rejects_broken_breakpoints(self, pieces):
        with pytest.raises(SchemaError, match="pieces: breakpoints must increase"):
            IntervalUnionStrategy(pieces, 2)

    def test_from_pieces_rejects_pieces_short_of_one(self):
        with pytest.raises(SchemaError, match="pieces: pieces must end at 1"):
            IntervalUnionStrategy(((F(1, 2), 0),), 2)


class TestBalanceDefect:
    def test_halves_for_two_actions(self):
        part = strategy(2, ("1/2", 0), (1, 1))
        assert balance_defect(part, side=2) == F(1, 4)

    def test_halves_side_one(self):
        # mirror computation: integrand 2*max|eta'_j - (1-l)/2| gives l/2 on
        # the left half and (1-l)/2 on the right, total 1/4
        part = strategy(2, ("1/2", 0), (1, 1))
        assert balance_defect(part, side=1) == F(1, 4)

    def test_degenerate_single_action(self):
        part = strategy(1, (1, 0))
        assert balance_defect(part, side=2) == 0
        assert balance_defect(part, side=1) == 0

    def test_side_other_than_one_or_two_raises(self):
        part = strategy(2, ("1/2", 0), (1, 1))
        with pytest.raises(SchemaError, match="side"):
            balance_defect(part, side=3)
        with pytest.raises(SchemaError, match="side"):
            cyclic_deviation(PenniesGame(2), part, side=3)

    def test_empty_rows_raise(self):
        with pytest.raises(SchemaError):
            balance_defect([])

    def test_strict_positivity_random(self):
        rng = random.Random(12)
        for _ in range(40):
            m = rng.choice([2, 3])
            r = 8
            arr = [rng.randrange(m) for _ in range(r)]
            part = IntervalUnionStrategy.from_grid(arr, m)
            assert balance_defect(part, side=2) > 0
            assert balance_defect(part, side=1) > 0


class TestGains:
    def test_all_first_action_pair(self):
        game = PenniesGame(2)
        f1 = strategy(2, (1, 0))
        f2 = strategy(2, (1, 0))
        g1, g2 = pure_profile_gain(game, f1, f2)
        assert g2 == 2
        assert g1 == 0  # player 1 is already matching everywhere

    def test_values_zero_sum(self):
        game = PenniesGame(3)
        rng = random.Random(3)
        for _ in range(10):
            a1 = [rng.randrange(3) for _ in range(8)]
            a2 = [rng.randrange(3) for _ in range(8)]
            f1 = IntervalUnionStrategy.from_grid(a1, 3)
            f2 = IntervalUnionStrategy.from_grid(a2, 3)
            u1, u2 = profile_values(game, f1, f2)
            assert u1 + u2 == 0

    def test_uniform_behavioral_profile_has_zero_gains(self):
        for m in (2, 3):
            for variant in ("type-irrelevant", "independent-types"):
                game = PenniesGame(m, variant)
                gains = behavioral_profile_gain(
                    game, uniform_rows(m), uniform_rows(m)
                )
                assert gains == (F(0), F(0))

    def test_caller_rows_are_checked(self):
        # raw rows with falling breakpoints or unsummed weights, and a
        # strategy with the wrong action count, fail on either side
        game = PenniesGame(2)
        good = uniform_rows(2)
        falling = ((F(1, 2), (F(1), F(0))), (F(1, 4), (F(0), F(1))), (F(1), (F(1), F(0))))
        unsummed = ((F(1), (F(1, 2), F(1, 4))),)
        three = strategy(3, (1, 0))
        for bad, message in (
            (falling, "strategy: breakpoints must increase"),
            (unsummed, "strategy: weights must be >= 0 and sum to 1"),
            (three, "strategy: expected 2 weights"),
        ):
            for profile in ((bad, good), (good, bad)):
                with pytest.raises(SchemaError, match=message):
                    behavioral_profile_gain(game, *profile)
            with pytest.raises(SchemaError, match=message):
                cyclic_deviation(game, bad)
        # a 2-action opponent in a 3-action game: was a bare IndexError
        with pytest.raises(SchemaError, match="strategy: expected 3 weights"):
            cyclic_deviation(PenniesGame(3), strategy(2, (1, 0)))

    def test_best_response_gain_is_zero(self):
        game = PenniesGame(2)
        rng = random.Random(5)
        for _ in range(10):
            arr = [rng.randrange(2) for _ in range(8)]
            f1 = IntervalUnionStrategy.from_grid(arr, 2)
            dev = cyclic_deviation(game, f1, side=2)
            g1, g2 = pure_profile_gain(game, f1, dev)
            assert g2 >= 0
            # the cyclic deviation is the exact pointwise best response here,
            # so the deviator's remaining gain vanishes
            assert g2 == 0

    def test_cyclic_deviation_payoff_nonnegative(self):
        rng = random.Random(6)
        for m in (2, 3):
            game = PenniesGame(m)
            for _ in range(10):
                arr = [rng.randrange(m) for _ in range(8)]
                f1 = IntervalUnionStrategy.from_grid(arr, m)
                dev = cyclic_deviation(game, f1, side=2)
                _u1, u2 = profile_values(game, f1, dev)
                assert u2 >= 0
                arr2 = [rng.randrange(m) for _ in range(8)]
                f2 = IntervalUnionStrategy.from_grid(arr2, m)
                dev1 = cyclic_deviation(game, f2, side=1)
                u1, _u2 = profile_values(game, dev1, f2)
                assert u1 >= 0


class TestSearch:
    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            no_pure_equilibrium_search(PenniesGame(2), budget=9)

    def test_grid_strategy_count(self):
        assert len(grid_strategies(2, 8, 2)) == 2 + 7 * 2 + 21 * 2
        assert len(grid_strategies(3, 8, 1)) == 3 + 7 * 6

    def test_m2_exhaustive_pass(self):
        report = no_pure_equilibrium_search(PenniesGame(2), budget=2, grid=8)
        assert report.passed
        assert report.min_gain > F(1, 100)
        assert report.uniform_gains == (F(0), F(0))

    def test_float_matches_exact_on_sample(self):
        game = PenniesGame(2)
        strategies = grid_strategies(2, 8, 1)
        gain1, gain2 = lane_gain_matrices(2, 8, strategies)
        rng = random.Random(9)
        for _ in range(15):
            i1 = rng.randrange(len(strategies))
            i2 = rng.randrange(len(strategies))
            f1 = IntervalUnionStrategy.from_grid(strategies[i1].tolist(), 2)
            f2 = IntervalUnionStrategy.from_grid(strategies[i2].tolist(), 2)
            g1, g2 = pure_profile_gain(game, f1, f2)
            assert g1 == F(int(gain1[i1, i2]), 2 * 8**2)
            assert g2 == F(int(gain2[i1, i2]), 2 * 8**2)


class TestSampledSearch:
    def test_large_budget_samples_and_passes(self):
        report = no_pure_equilibrium_search(
            PenniesGame(2), budget=3, grid=16, epsilon=F(1, 100), max_strategies=220
        )
        assert not report.exhaustive
        assert report.strategies == 220
        assert report.passed  # sampled family still has no near-equilibrium
        assert report.min_gain > F(1, 100)

    def test_max_strategies_below_m_is_an_input_error(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the family was counted before the input check")

        monkeypatch.setattr(pennies, "family_size", no_work)
        with pytest.raises(SchemaError) as raised:
            no_pure_equilibrium_search(PenniesGame(3), budget=3, grid=16, max_strategies=2)
        assert raised.value.path == "max_strategies"

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("max_strategies", {"budget": 3, "grid": 16, "max_strategies": 600.5}),
            ("budget", {"budget": 2.5}),
            ("grid", {"grid": 8.0}),
            ("grid", {"grid": "8"}),
            ("budget", {"budget": True}),
        ],
        ids=["max-strategies-float", "budget-float", "grid-float", "grid-str", "budget-bool"],
    )
    def test_non_int_inputs_are_input_errors(self, monkeypatch, name, kwargs):
        def no_work(*args):
            raise AssertionError("the family was counted before the input check")

        monkeypatch.setattr(pennies, "family_size", no_work)
        with pytest.raises(SchemaError, match="expected an integer") as raised:
            no_pure_equilibrium_search(PenniesGame(3), **kwargs)
        assert raised.value.path == name

    @pytest.mark.parametrize(
        "epsilon, message",
        [
            ("x", "expected a rational number"),
            (None, "expected a rational number"),
            (True, "expected a rational number"),
            (-1, "must be at least 0"),
        ],
        ids=["str", "none", "bool", "negative"],
    )
    def test_bad_epsilon_is_an_input_error(self, monkeypatch, epsilon, message):
        def no_work(*args):
            raise AssertionError("the family was counted before the input check")

        monkeypatch.setattr(pennies, "family_size", no_work)
        with pytest.raises(SchemaError, match=message) as raised:
            no_pure_equilibrium_search(PenniesGame(2), epsilon=epsilon)
        assert raised.value.path == "epsilon"

    def test_sampling_deterministic(self):
        a = no_pure_equilibrium_search(
            PenniesGame(2), budget=3, grid=16, max_strategies=150, seed=5
        )
        b = no_pure_equilibrium_search(
            PenniesGame(2), budget=3, grid=16, max_strategies=150, seed=5
        )
        assert a == b


def rect_triangle_area(a, b, c, d):
    """Exact area of [a,b) x [c,d) intersected with {l1 <= l2}."""
    # integrate over l2 in [c,d): max(0, min(b, l2) - a)
    total = F(0)
    # breakpoints of the integrand at l2 = a and l2 = b
    points = sorted({c, d, min(max(a, c), d), min(max(b, c), d)})
    for lo, hi in zip(points, points[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2
        if mid <= a:
            continue
        if mid >= b:
            total += (b - a) * (hi - lo)
        else:
            # integrand l2 - a, affine
            total += (hi - lo) * ((lo + hi) / 2 - a)
    return total


class TestTriangleGeometryOracle:
    def test_profile_values_against_direct_double_integral(self):
        # independent oracle: U2 = sum over grid boxes of u2 * 2 * area of
        # the box under the diagonal; no cumulative machinery involved
        rng = random.Random(17)
        r = 8
        for m in (2, 3):
            game = PenniesGame(m)
            for _ in range(12):
                a1 = [rng.randrange(m) for _ in range(r)]
                a2 = [rng.randrange(m) for _ in range(r)]
                f1 = IntervalUnionStrategy.from_grid(a1, m)
                f2 = IntervalUnionStrategy.from_grid(a2, m)
                u2_direct = F(0)
                for i in range(r):
                    for j in range(r):
                        area = rect_triangle_area(
                            F(i, r), F(i + 1, r), F(j, r), F(j + 1, r)
                        )
                        u2_direct += -F(game.payoff(a1[i], a2[j])) * 2 * area
                _u1, u2 = profile_values(game, f1, f2)
                assert u2 == u2_direct

    def test_behavioral_values_against_direct_double_integral(self):
        rng = random.Random(18)
        m, r = 2, 4
        game = PenniesGame(m)
        for _ in range(8):
            def rows():
                out = []
                for k in range(r):
                    w = F(rng.randint(0, 3), 3)
                    w = min(w, F(1))
                    out.append((F(k + 1, r), (w, 1 - w)))
                return tuple(out)

            rows1, rows2 = rows(), rows()
            u2_direct = F(0)
            for i in range(r):
                for j in range(r):
                    area = rect_triangle_area(F(i, r), F(i + 1, r), F(j, r), F(j + 1, r))
                    w1 = rows1[i][1]
                    w2 = rows2[j][1]
                    blend = sum(
                        -F(game.payoff(x1, x2)) * w1[x1] * w2[x2]
                        for x1 in range(m)
                        for x2 in range(m)
                    )
                    u2_direct += blend * 2 * area
            _u1, u2 = profile_values(game, rows1, rows2)
            assert u2 == u2_direct


# -- strategy family and integer lane against reference constructions ---------


def reference_family(m, r, budget):
    """Every cut combination times every changing action sequence, sorted."""
    out = []
    for nb in range(budget + 1):
        for cuts in itertools.combinations(range(1, r), nb):
            bounds = (0,) + cuts + (r,)
            for seq in itertools.product(range(m), repeat=nb + 1):
                if any(seq[i] == seq[i + 1] for i in range(nb)):
                    continue
                arr = []
                for (a, b), action in zip(zip(bounds, bounds[1:]), seq):
                    arr.extend([action] * (b - a))
                out.append(tuple(arr))
    return sorted(set(out))


def reference_env01(lo_vals, hi_vals):
    """Integral over [0, 1] of the max of affine forms, one cell at a time."""
    n = len(lo_vals)
    cuts = {0.0, 1.0}
    for a in range(n):
        for b in range(a + 1, n):
            d0 = lo_vals[a] - lo_vals[b]
            d1 = hi_vals[a] - hi_vals[b]
            if d0 * d1 < 0:
                cuts.add(d0 / (d0 - d1))
    pts = sorted(cuts)
    total = 0.0
    for s0, s1 in zip(pts, pts[1:]):
        smid = (s0 + s1) / 2
        vals = lo_vals + smid * (hi_vals - lo_vals)
        k = int(np.argmax(vals))
        v0 = lo_vals[k] + s0 * (hi_vals[k] - lo_vals[k])
        v1 = lo_vals[k] + s1 * (hi_vals[k] - lo_vals[k])
        total += (s1 - s0) * (v0 + v1) / 2
    return float(total)


def reference_gain_matrices(m, r, strategies):
    """The gain matrices in floats, as scalar loops over strategies, cells
    and pairs, with every pairwise crossing of the forms as a cut."""
    S = len(strategies)
    arrs = np.array(strategies, dtype=np.int64)
    onehot = np.zeros((S, r, m))
    for j in range(m):
        onehot[:, :, j] = arrs == j
    cums = np.zeros((S, r + 1, m))
    cums[:, 1:, :] = np.cumsum(onehot, axis=1) / r
    above = cums[:, -1:, :] - cums
    G2 = np.stack([cums[:, :, (c - 1) % m] - cums[:, :, c] for c in range(m)], axis=2)
    G1 = np.stack([above[:, :, c] - above[:, :, (c + 1) % m] for c in range(m)], axis=2)

    def best_and_avg(G):
        brv = np.zeros(S)
        for s in range(S):
            total = 0.0
            for cell in range(r):
                total += reference_env01(G[s, cell], G[s, cell + 1]) / r
            brv[s] = 2.0 * total
        return brv, (G[:, :-1, :] + G[:, 1:, :]) / 2.0

    brv2, g2_avg = best_and_avg(G2)
    brv1, g1_avg = best_and_avg(G1)
    cells = np.arange(r)
    gain1 = np.empty((S, S))
    gain2 = np.empty((S, S))
    for i1 in range(S):
        gain2[i1, :] = brv2[i1] - (2.0 / r) * g2_avg[i1][cells[None, :], arrs].sum(axis=1)
    for i2 in range(S):
        gain1[:, i2] = brv1[i2] - (2.0 / r) * g1_avg[i2][cells[None, :], arrs].sum(axis=1)
    return gain1, gain2


def lane_gain_matrices(m, r, strategies):
    """gain1 and gain2 for every pair, stacked from the lane's row blocks."""
    parts = _gain_lane(m, r, strategies)
    blocks = [
        _block_gains(parts, slice(lo, lo + ROW_BLOCK)) for lo in range(0, len(strategies), ROW_BLOCK)
    ]
    return tuple(np.concatenate(side) for side in zip(*blocks))


def changes(strategy):
    return sum(a != b for a, b in zip(strategy, strategy[1:]))


def as_tuples(strategies):
    """An (S, r) strategy array as its list of rows, each a tuple of ints."""
    return [tuple(s) for s in strategies.tolist()]


@st.composite
def family_shapes(draw):
    return draw(st.integers(2, 3)), draw(st.integers(1, 8)), draw(st.integers(0, 4))


@st.composite
def strategy_subsets(draw, max_size):
    m, r, budget = draw(family_shapes())
    family = grid_strategies(m, r, budget)
    picks = draw(
        st.lists(st.integers(0, len(family) - 1), min_size=1, max_size=max_size, unique=True)
    )
    return m, r, family[sorted(picks)]


FAMILY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class TestStrategyFamily:
    @FAMILY_SETTINGS
    @given(family_shapes())
    def test_lexicographic_family_of_the_counted_size(self, shape):
        m, r, budget = shape
        family = as_tuples(grid_strategies(m, r, budget))
        assert len(family) == family_size(m, r, budget)
        assert all(a < b for a, b in zip(family, family[1:]))
        assert all(len(s) == r and changes(s) <= budget for s in family)
        assert family == reference_family(m, r, budget)

    @FAMILY_SETTINGS
    @given(family_shapes())
    def test_unranking_every_index_lists_the_changing_strategies(self, shape):
        m, r, budget = shape
        rest = [s for s in reference_family(m, r, budget) if len(set(s)) > 1]
        tails = _tails(m, r - 1, budget)
        assert [reference_unrank_changing(m, r, budget, tails, j) for j in range(len(rest))] == rest
        rows = _unrank_changing(r, budget, tails, np.arange(len(rest), dtype=np.int64))
        assert rows.dtype == np.int64 and rows.shape == (len(rest), r)
        assert as_tuples(rows) == rest

    @FAMILY_SETTINGS
    @given(family_shapes(), st.integers(0, 2**32), st.data())
    def test_sample_equals_sampling_the_built_family(self, shape, seed, data):
        m, r, budget = shape
        family = reference_family(m, r, budget)
        count = data.draw(st.integers(m, len(family)))
        constant = [s for s in family if len(set(s)) == 1]
        rest = [s for s in family if len(set(s)) > 1]
        sampled = random.Random(seed).sample(rest, count - len(constant))
        expected = sorted(set(constant + sampled))
        assert as_tuples(_sampled_strategies(m, r, budget, count, seed)) == expected

    def test_sample_from_a_family_past_sys_maxsize(self):
        # m=16, budget 8 on the 64-grid: about 1.6e20 strategies, so the
        # indices are unranked as Python ints on an object array
        assert family_size(16, 64, 8) > sys.maxsize
        sampled = as_tuples(_sampled_strategies(16, 64, 8, 600, 0))
        assert sampled == as_tuples(_sampled_strategies(16, 64, 8, 600, 0))
        tails = _tails(16, 63, 8)
        picks = _sample_indices(random.Random(0), family_size(16, 64, 8) - 16, 600 - 16)
        expected = [(a,) * 64 for a in range(16)]
        expected += [reference_unrank_changing(16, 64, 8, tails, j) for j in picks]
        assert sampled == sorted(expected)
        assert all(a < b for a, b in zip(sampled, sampled[1:]))
        assert len(sampled) == 600
        assert all(len(s) == 64 and changes(s) <= 8 for s in sampled)
        assert [s for s in sampled if len(set(s)) == 1] == [(a,) * 64 for a in range(16)]


def assert_every_pair_exact(m, r, strategies):
    """Every pair's integer-lane gains over 2r^2 equal pure_profile_gain."""
    game = PenniesGame(m)
    gain1, gain2 = lane_gain_matrices(m, r, strategies)
    rows = strategies.tolist()
    for i1, s1 in enumerate(rows):
        f1 = IntervalUnionStrategy.from_grid(s1, m)
        for i2, s2 in enumerate(rows):
            f2 = IntervalUnionStrategy.from_grid(s2, m)
            lane = (F(int(gain1[i1, i2]), 2 * r * r), F(int(gain2[i1, i2]), 2 * r * r))
            assert pure_profile_gain(game, f1, f2) == lane


class TestIntegerLane:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(strategy_subsets(max_size=40))
    def test_matches_scalar_float_reference(self, case):
        m, r, strategies = case
        got = lane_gain_matrices(m, r, strategies)
        want = reference_gain_matrices(m, r, strategies)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.dtype == np.float32
            assert np.array_equal(g, np.rint(g))
            assert np.max(np.abs(g.astype(np.float64) / (2 * r * r) - w)) < 1e-12

    # m=8 and m=12 have 28 and 66 pairwise crossings per cell for the
    # reference to cut at
    @pytest.mark.parametrize(
        "m, r, budget, count, seed", [(8, 6, 3, 60, 4), (12, 5, 3, 40, 2)], ids=["m8", "m12"]
    )
    def test_matches_scalar_float_reference_for_many_actions(self, m, r, budget, count, seed):
        strategies = _sampled_strategies(m, r, budget, count, seed)
        got = lane_gain_matrices(m, r, strategies)
        want = reference_gain_matrices(m, r, strategies)
        for g, w in zip(got, want):
            assert np.max(np.abs(g.astype(np.float64) / (2 * r * r) - w)) < 1e-12

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(strategy_subsets(max_size=30))
    def test_every_pair_matches_exact_gains(self, case):
        assert_every_pair_exact(*case)

    def test_every_pair_matches_exact_gains_on_the_largest_grid(self):
        # r = 64, where the partial sums of the one difference product per
        # row block are bounded by 4r^2 = 16384
        assert_every_pair_exact(4, 64, _sampled_strategies(4, 64, 8, 14, 1))
        # the constant strategies 0 and 1 reach the bound: against player 1's
        # constant 0, player 2's forms for 1 and 0 are k and -k at grid point
        # k, so their difference row is 4(2k + 1) in cell k, and player 2's
        # constant 1 sums it over every cell to 4r^2
        strategies = _sampled_strategies(16, 64, 8, 18, 2)
        assert {(a,) * 64 for a in range(16)} <= set(as_tuples(strategies))
        assert_every_pair_exact(16, 64, strategies)

    def test_search_reports_the_first_minimum_in_row_major_order(self):
        game = PenniesGame(3)
        strategies = as_tuples(grid_strategies(3, 3, 2))
        assert len(strategies) ** 2 == 729
        best = None
        for s1, s2 in itertools.product(strategies, repeat=2):
            f1 = IntervalUnionStrategy.from_grid(s1, 3)
            f2 = IntervalUnionStrategy.from_grid(s2, 3)
            gain = max(pure_profile_gain(game, f1, f2))
            if best is None or gain < best[0]:
                best = (gain, (s1, s2))
        report = no_pure_equilibrium_search(game, budget=2, grid=3)
        assert report.exhaustive and report.pairs == 729
        assert (report.min_gain, report.argmin) == best

    # 1000 sampled strategies are 15 blocks of ROW_BLOCK = 64 rows and one of
    # 40; at seed 0 the minimum of (2, 16, 3) and of (3, 16, 2) repeats in a
    # later block than its first one, and that of (3, 32, 4) is unique
    @pytest.mark.parametrize(
        "m, grid, budget, repeats", [(2, 16, 3, True), (3, 16, 2, True), (3, 32, 4, False)]
    )
    def test_block_walk_reports_the_first_minimum_of_the_full_matrices(
        self, monkeypatch, m, grid, budget, repeats
    ):
        strategies = _sampled_strategies(m, grid, budget, 1000, 0)
        assert len(strategies) % ROW_BLOCK
        gain1, gain2 = lane_gain_matrices(m, grid, strategies)
        worst = np.maximum(gain1, gain2)
        i1, i2 = np.unravel_index(np.argmin(worst), worst.shape)
        later = worst[(i1 // ROW_BLOCK + 1) * ROW_BLOCK :]
        assert (later == worst[i1, i2]).any() == repeats
        visited = []

        def recording(parts, rows):
            visited.extend(range(len(strategies))[rows])
            return _block_gains(parts, rows)

        monkeypatch.setattr(pennies, "_block_gains", recording)
        game = PenniesGame(m)
        report = no_pure_equilibrium_search(game, budget, grid, max_strategies=1000)
        # every row once, in order, then the chosen row again for its gains
        assert visited == [*range(len(strategies)), i1]
        assert report.argmin == (tuple(strategies[i1].tolist()), tuple(strategies[i2].tolist()))
        lane = (F(int(gain1[i1, i2]), 2 * grid**2), F(int(gain2[i1, i2]), 2 * grid**2))
        assert report.min_gain == max(lane)
        f1, f2 = (IntervalUnionStrategy.from_grid(s, m) for s in report.argmin)
        assert pure_profile_gain(game, f1, f2) == lane

    def test_search_holds_no_pair_matrix(self):
        # one 2000 x 2000 float32 matrix alone is 16 MB
        tracemalloc.start()
        try:
            no_pure_equilibrium_search(PenniesGame(2), budget=3, grid=64, max_strategies=2000)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 4

    def test_lane_drops_its_temporaries(self):
        # at m = 16 each (m, S, r + 1) float32 array of the lane is 8.3 MB;
        # holding all six of them to the end peaked at 70.0 MB
        tracemalloc.start()
        try:
            report = no_pure_equilibrium_search(
                PenniesGame(16), budget=8, grid=64, max_strategies=2000
            )
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45_000_000
        assert report.min_gain == F(891, 4096)


# -- exact recheck on integer rows against the Fraction reference -------------


@st.composite
def weight_rows(draw, m):
    """m weights summing to 1: uniform, one-hot, or over a denominator 2-12."""
    kind = draw(st.sampled_from(("uniform", "one-hot", "random")))
    if kind == "uniform":
        return (F(1, m),) * m
    if kind == "one-hot":
        k = draw(st.integers(0, m - 1))
        return tuple(F(int(j == k)) for j in range(m))
    d = draw(st.integers(2, 12))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=m - 1, max_size=m - 1)))
    bounds = [0, *cuts, d]
    return tuple(F(b - a, d) for a, b in zip(bounds, bounds[1:]))


@st.composite
def behavioral_rows(draw, m):
    """Rows with uptos and weights over unlike denominators; one-piece rows
    and repeated weights (coinciding forms) come up often."""
    inner = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda t: 0 < t < 1)
    uptos = sorted(draw(st.sets(inner, max_size=4))) + [F(1)]
    rows = []
    for upto in uptos:
        repeat = rows and draw(st.booleans())
        rows.append((upto, rows[-1][1] if repeat else draw(weight_rows(m))))
    return tuple(rows)


@st.composite
def behavioral_profiles(draw):
    m = draw(st.integers(2, 5))
    return m, draw(behavioral_rows(m)), draw(behavioral_rows(m))


RECHECK_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def grid_rows(assignment, m):
    """The one-hot rows of a grid strategy, equal neighbours merged."""
    pieces = IntervalUnionStrategy.from_grid(assignment, m).pieces
    return tuple((upto, unit_vector(m, a)) for upto, a in pieces)


# pure grid rows: the value forms cross at cell midpoints, strictly inside
GRID_PROFILE = (3, grid_rows((0, 2, 2, 1), 3), grid_rows((1, 1, 0, 2), 3))


class TestIntegerRecheck:
    @RECHECK_SETTINGS
    @given(behavioral_profiles())
    @example(GRID_PROFILE)
    def test_gain_side_matches_the_fraction_reference(self, case):
        m, rows1, rows2 = case
        game = PenniesGame(m)
        D, (int1, int2) = pennies._integer_rows(m, rows1, rows2)
        for side in (1, 2):
            got = pennies._gain_side(game, side, D, int1, int2)
            assert got == reference_gain_side(game, side, rows1, rows2)
            assert all(type(v) is Fraction for v in got)

    @RECHECK_SETTINGS
    @given(behavioral_profiles(), st.sampled_from((1, 2)))
    @example(GRID_PROFILE, 1)
    def test_opposing_segments_are_the_reference_over_one_denominator(self, case, side):
        m, rows1, rows2 = case
        D, (int1, _int2) = pennies._integer_rows(m, rows1, rows2)
        values = [v for rows in (rows1, rows2) for upto, w in rows for v in (upto, *w)]
        assert D == math.lcm(*(v.denominator for v in values))
        got = pennies._opposing_segments(int1, m, side)
        want = reference_opposing_segments(rows1, m, side)
        assert len(got) == len(want)
        for (lo, hi, forms), (flo, fhi, fforms) in zip(got, want):
            assert all(type(v) is int for v in (lo, hi, *itertools.chain(*forms)))
            assert (lo, hi) == (flo * D, fhi * D)
            # (a + b*x) / D^2 at x = t*D is A + B*t
            assert forms == tuple((a * D * D, b * D) for a, b in fforms)

    @RECHECK_SETTINGS
    @given(behavioral_profiles(), st.sampled_from((1, 2)))
    @example(GRID_PROFILE, 2)
    def test_balance_defect_and_cyclic_deviation_match_the_reference(self, case, side):
        m, rows, _ = case
        assert balance_defect(rows, side=side) == reference_balance_defect(rows, m, side)
        deviation = cyclic_deviation(PenniesGame(m), rows, side=side)
        assert deviation.pieces == tuple(reference_cyclic_deviation(m, rows, side))
        assert all(type(upto) is Fraction for upto, _ in deviation.pieces)


OPTIMIZED_CHECKS = """
from condexp import pennies

if __debug__:
    raise SystemExit("expected to run under python -O")
original = pennies._block_gains
pennies._block_gains = lambda parts, rows: [g + 1 for g in original(parts, rows)]
try:
    pennies.no_pure_equilibrium_search(pennies.PenniesGame(2), budget=1, grid=4)
except ArithmeticError as exc:
    print("search:", exc)
pennies._block_gains = original

gain_side = pennies._gain_side

def broken_side(game, side, *rows):
    best, played = gain_side(game, side, *rows)
    return best, played + (side == 1)  # only player 1's played value is off

pennies._gain_side = broken_side
rows = pennies.uniform_rows(2)
try:
    pennies.profile_values(pennies.PenniesGame(2), rows, rows)
except ArithmeticError as exc:
    print("values:", exc)
"""


class TestChecksSurviveOptimize:
    def test_cross_checks_raise_under_dash_o(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        search, values = done.stdout.splitlines()
        assert search.startswith("search: integer lane disagrees on the pair (")
        assert "exact gains" in search and "lane gains" in search
        assert values.startswith("values: zero-sum check failed: U1 = 1, U2 = 0")

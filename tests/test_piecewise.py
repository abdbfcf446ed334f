"""Piece-list helpers against a brute-force oracle built from the common
refinement and point lookups (the test-only reference code in ``helpers``)."""

from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condexp import games
from condexp.correspondences import FiniteIndexedCorrespondence, MixedSelection, Selection, one_hot
from condexp.errors import IndexOutOfRange, SchemaError, WeightInvalid
from condexp.factories import matching_pennies_game
from condexp.games import BehavioralStrategy, PlayerSpec, PureStrategy, TypeCell, as_behavioral
from condexp.measure import Cell, CellKind, StepFunction
from condexp.pennies import IntervalUnionStrategy, _validate_rows
from condexp.piecewise import (
    append_piece,
    check_index,
    check_pieces,
    check_weights,
    clip_pieces,
    merged_pieces,
    pack_pieces,
    proportional_subintervals,
    split_pieces,
    unit_vector,
)

from helpers import (
    binary_F,
    branch_values,
    breakpoints,
    common_refinement,
    constant_branches,
    piece_bounds,
    piece_payload,
    point_cell,
    refinement_on,
    rich_cell,
    space,
    step,
)

F = Fraction

grid = st.integers(min_value=0, max_value=24).map(lambda k: F(k, 24))


@st.composite
def piece_lists(draw):
    """Valid [(upto, payload)] lists on [0, 1]; small payloads repeat often."""
    cuts = sorted(draw(st.sets(grid.filter(lambda t: 0 < t < 1), max_size=6)))
    return [(u, draw(st.integers(min_value=0, max_value=2))) for u in cuts + [F(1)]]


@st.composite
def sub_intervals(draw):
    lo, hi = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    return lo, hi


def oracle_clip(pieces, lo, hi):
    cuts = common_refinement([u for u, _ in pieces], [lo, hi] if lo > 0 else [hi])
    out = []
    prev = F(0)
    for b in cuts:
        a, prev = prev, b
        if b <= lo or a >= hi:
            continue
        out.append((a, b, piece_payload(pieces, a)))
    return out


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


class TestClipPieces:
    @SETTINGS
    @given(piece_lists(), sub_intervals())
    def test_matches_refinement(self, pieces, bounds):
        lo, hi = bounds
        assert list(clip_pieces(pieces, lo, hi)) == oracle_clip(pieces, lo, hi)

    @SETTINGS
    @given(piece_lists(), sub_intervals())
    def test_tuple_input_and_partition(self, pieces, bounds):
        lo, hi = bounds
        clipped = list(clip_pieces(tuple(pieces), lo, hi))
        assert clipped[0][0] == lo and clipped[-1][1] == hi
        assert all(a < b for a, b, _ in clipped)
        assert all(b == a2 for (_, b, _), (a2, _, _) in zip(clipped, clipped[1:]))

    def test_empty_interval_yields_nothing(self):
        assert list(clip_pieces([(F(1), 0)], F(1, 2), F(1, 2))) == []


class TestAppendPiece:
    @SETTINGS
    @given(piece_lists())
    def test_merges_and_preserves_function(self, pieces):
        merged = []
        for upto, payload in pieces:
            append_piece(merged, upto, payload)
        assert all(p[1] != q[1] for p, q in zip(merged, merged[1:]))
        assert {u for u, _ in merged} <= {u for u, _ in pieces}
        assert merged[-1][0] == 1
        for a, _b, payload in oracle_clip(pieces, F(0), F(1)):
            assert piece_payload(merged, a) == payload


class TestMergedPieces:
    """The one multi-list walk against the breakpoint union and point lookups."""

    @staticmethod
    def oracle(*lists):
        cuts = common_refinement(*[[u for u, _ in pl] for pl in lists])
        return [
            (lo, hi, tuple(piece_payload(pl, lo) for pl in lists)) for lo, hi in piece_bounds(cuts)
        ]

    @SETTINGS
    @given(st.lists(piece_lists(), min_size=1, max_size=4))
    def test_matches_refinement(self, lists):
        assert list(merged_pieces(*lists)) == self.oracle(*lists)

    @SETTINGS
    @given(piece_lists(), st.integers(min_value=0, max_value=2))
    def test_single_piece_list(self, pieces, k):
        point = [(F(1), k)]  # a point cell's one piece
        assert list(merged_pieces(point)) == [(F(0), F(1), (k,))]
        assert list(merged_pieces(pieces, point)) == self.oracle(pieces, point)
        assert list(merged_pieces(point, pieces)) == self.oracle(point, pieces)


@st.composite
def walked_correspondences(draw):
    """A correspondence on a rich and a point cell, plus extra piece lists for
    one of the cells (one piece on the point cell)."""
    sp = space(rich_cell("r", F(1, 2), "g"), point_cell("p", F(1, 2), "g"))
    dim = draw(st.integers(min_value=1, max_value=2))

    def entry(cell):
        vecs = st.tuples(*[st.integers(-2, 2)] * dim)
        if not cell.has_inner:
            return draw(vecs)
        return [(u, draw(vecs)) for u, _ in draw(piece_lists())]

    branches = tuple(
        step(sp, {c.id: entry(c) for c in sp.cells}, dim)
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    Fc = FiniteIndexedCorrespondence(sp, branches)
    cell = draw(st.sampled_from(sp.cells))
    if cell.has_inner:
        extras = draw(st.lists(piece_lists(), max_size=2))
    else:
        extras = [[(F(1), draw(st.integers(0, 2)))] for _ in range(draw(st.integers(0, 2)))]
    return Fc, cell, extras


class TestWalk:
    @SETTINGS
    @given(walked_correspondences())
    def test_matches_refinement_and_lookups(self, case):
        Fc, cell, extras = case
        want = [
            (lo, hi, tuple(branch_values(Fc, cell, lo)), *(piece_payload(e, lo) for e in extras))
            for lo, hi in refinement_on(Fc, cell, *[[u for u, _ in e] for e in extras])
        ]
        assert list(Fc.walk(cell, *extras)) == want

    def test_branch_values_are_tuples(self):
        sp = space(rich_cell("r"))
        listed = StepFunction(1, {"r": ((F(1, 2), [F(0)]), (F(1), [F(1)]))})
        Fc = FiniteIndexedCorrespondence(sp, (listed, listed))
        values = [v for _lo, _hi, v in Fc.walk(sp.cells[0])]
        assert values == [((F(0),), (F(0),)), ((F(1),), (F(1),))]


class TestCheckPieces:
    @SETTINGS
    @given(piece_lists())
    def test_valid_lists_pass_and_see_every_payload(self, pieces):
        seen = []
        check_pieces("p", pieces, seen.append)
        assert seen == [payload for _, payload in pieces]

    @SETTINGS
    @given(piece_lists().filter(lambda p: len(p) >= 2))
    def test_unsorted_uptos_raise(self, pieces):
        with pytest.raises(SchemaError, match="breakpoints must increase"):
            check_pieces("p", pieces[::-1])
        repeated = pieces[:1] + pieces
        with pytest.raises(SchemaError, match="breakpoints must increase"):
            check_pieces("p", repeated)

    @SETTINGS
    @given(piece_lists())
    def test_uptos_must_end_at_one(self, pieces):
        with pytest.raises(SchemaError, match="pieces must end at 1"):
            check_pieces("p", [(u / 2, x) for u, x in pieces])
        with pytest.raises(SchemaError, match="pieces must end at 1"):
            check_pieces("p", [])

    def test_faults_reported_in_piece_order(self):
        def reject_negative(payload):
            if payload < 0:
                raise ValueError("bad payload")

        payload_first = [(F(1, 2), -1), (F(1, 4), 0), (F(1), 0)]
        with pytest.raises(ValueError):
            check_pieces("p", payload_first, reject_negative)
        upto_first = [(F(1, 2), 0), (F(1, 4), -1), (F(1), 0)]
        with pytest.raises(SchemaError, match="breakpoints must increase"):
            check_pieces("p", upto_first, reject_negative)
        with pytest.raises(SchemaError) as info:
            check_pieces("values[c]", [(F(1, 2), 0)])
        assert info.value.path == "values[c]"


# -- the one splitter against the per-caller loops it replaced -----------------


@st.composite
def weight_vectors(draw, k, one_hot=False):
    if one_hot:
        hot = draw(st.integers(0, k - 1))
        return tuple(F(int(j == hot)) for j in range(k))
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    return tuple(F(x, sum(raw)) for x in raw)


@st.composite
def mixture_pieces(draw, one_hot=False):
    """[(upto, weights)] on the 24ths grid, one to three indices."""
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(grid.filter(lambda t: 0 < t < 1), max_size=4)))
    return [(u, draw(weight_vectors(k, one_hot))) for u in cuts + [F(1)]]


@st.composite
def off_grid_spans(draw):
    """A left-to-right partition of [0, 1) on the 35ths, each span with a mode."""
    cuts = sorted(draw(st.sets(st.integers(1, 34).map(lambda k: F(k, 35)), max_size=4)))
    return [(lo, hi, draw(st.booleans())) for lo, hi in piece_bounds(cuts + [F(1)])]


def reference_unit_split(pieces, spans):
    """purify_player's loop: clip the strategy to each unit, cut each clipped piece."""
    out = []
    for lo, hi, symmetric in spans:
        for a, b, weights in clip_pieces(pieces, lo, hi):
            for _a, upto, k in proportional_subintervals(a, b, weights, symmetric):
                append_piece(out, upto, k)
    return out


def reference_refinement_split(pieces, bounds, one_hot):
    """derandomize_selection's loop: the weights at each refinement piece's left
    end, taken whole where only one-hot weights are allowed."""
    out = []
    for lo, hi in bounds:
        weights = piece_payload(pieces, lo)
        if one_hot:
            (k,) = [k for k, x in enumerate(weights) if x > 0]
            append_piece(out, hi, k)
            continue
        for _a, upto, k in proportional_subintervals(lo, hi, weights):
            append_piece(out, upto, k)
    return out


def reference_block_split(bounds, mixture):
    """_mixed_block_blend's loop: one weight vector per refinement piece, in order."""
    out = []
    for (lo, hi), weights in zip(bounds, mixture):
        for _a, upto, k in proportional_subintervals(lo, hi, weights):
            append_piece(out, upto, k)
    return out


def index_moments(pieces, k, lo, hi):
    """Measure and first moment of index k's part of [lo, hi)."""
    parts = [(a, b) for a, b, j in clip_pieces(pieces, lo, hi) if j == k]
    return sum((b - a for a, b in parts), F(0)), sum(((b * b - a * a) / 2 for a, b in parts), F(0))


class TestSplitPieces:
    @SETTINGS
    @given(mixture_pieces(), off_grid_spans())
    def test_matches_unit_loop(self, pieces, spans):
        assert split_pieces(pieces, spans) == reference_unit_split(pieces, spans)

    @SETTINGS
    @given(
        st.booleans().flatmap(lambda hot: st.tuples(st.just(hot), mixture_pieces(hot))),
        st.sets(grid.filter(lambda t: 0 < t < 1), max_size=4),
    )
    def test_matches_refinement_loop(self, case, extra):
        one_hot, pieces = case
        bounds = piece_bounds(common_refinement([u for u, _ in pieces], extra, [F(1)]))
        spans = [(lo, hi, False) for lo, hi in bounds]
        assert split_pieces(pieces, spans) == reference_refinement_split(pieces, bounds, one_hot)

    @SETTINGS
    @given(mixture_pieces())
    def test_matches_block_loop(self, pieces):
        bounds = piece_bounds([u for u, _ in pieces])
        mixture = [w for _u, w in pieces]
        whole = [(F(0), F(1), False)]
        assert split_pieces(pieces, whole) == reference_block_split(bounds, mixture)

    @SETTINGS
    @given(mixture_pieces(one_hot=True), off_grid_spans())
    def test_one_hot_pieces_split_into_themselves(self, pieces, spans):
        merged = []
        for upto, weights in pieces:
            append_piece(merged, upto, weights.index(1))
        assert split_pieces(pieces, spans) == merged

    @SETTINGS
    @given(mixture_pieces(), off_grid_spans())
    def test_keeps_measure_and_symmetric_centroid(self, pieces, spans):
        out = split_pieces(pieces, spans)
        check_pieces("out", out)
        for lo, hi, symmetric in spans:
            clipped = list(clip_pieces(pieces, lo, hi))
            for k in range(len(pieces[0][1])):
                want = sum(((b - a) * w[k] for a, b, w in clipped), F(0))
                assert index_moments(out, k, lo, hi)[0] == want
                if not symmetric:
                    continue
                for a, b, w in clipped:  # each clipped piece keeps its centroid
                    measure, moment = index_moments(out, k, a, b)
                    assert measure == (b - a) * w[k]
                    assert moment == measure * (a + b) / 2


class TestPiecePlan:
    RICH = Cell("r", F(1, 2), CellKind.RICH, "g")
    POINT = Cell("p", F(1, 2), CellKind.POINT_MASS, "g")

    @given(piece_lists(), st.integers(min_value=0, max_value=2))
    def test_pieces_and_pack_invert_each_other(self, pieces, k):
        plan = Selection({"r": tuple(pieces), "p": k})
        assert plan.pieces(self.POINT) == ((F(1), k),)
        assert plan.pieces(self.RICH) == tuple(pieces)
        for cell in (self.RICH, self.POINT):
            assert pack_pieces(cell, plan.pieces(cell)) == plan.plan[cell.id]
            walked = list(merged_pieces(plan.pieces(cell)))
            assert [hi for _lo, hi, _p in walked] == breakpoints(plan, cell)
            for t in (F(0), F(1, 3), F(23, 24)):
                (at_t,) = [p for lo, hi, (p,) in walked if lo <= t < hi]
                assert at_t == piece_payload(plan.pieces(cell), t)

    def test_type_cells_follow_the_same_rule(self):
        point, interval = TypeCell("p", F(1, 2), (), True), TypeCell("t", F(1, 2), (F(1),))
        plan = PureStrategy({"p": 1, "t": ((F(1, 2), 0), (F(1), 1))})
        assert plan.pieces(point) == ((F(1), 1),)
        assert plan.mapped(point, lambda a: a + 1) == 2
        assert plan.mapped(interval, lambda a: a + 1) == ((F(1, 2), 1), (F(1), 2))

    def test_point_cell_packs_only_one_piece(self):
        with pytest.raises(ValueError):
            pack_pieces(self.POINT, [(F(1, 2), 0), (F(1), 1)])

    @pytest.mark.parametrize("entry", [0, (), (F(1), 0)])
    def test_malformed_piece_list_is_a_schema_error(self, entry):
        F01 = binary_F(space(self.RICH, self.POINT))
        with pytest.raises(SchemaError, match=r"selection\[r\]: expected a piece list"):
            Selection({"r": entry, "p": 0}).validate(F01.space.cells, F01.branch_count)


# -- payload rules -------------------------------------------------------------
#
# The six payload checks that check_weights and check_index replaced, kept as
# references with their conditions as they stood.  Each raised its own error
# type (WeightInvalid, SchemaError or IndexOutOfRange); here that is Rejected.


class Rejected(Exception):
    pass


def old_mixed_selection_weights(w, K):  # correspondences.MixedSelection.validate
    if len(w) != K:
        raise Rejected
    if any(x < 0 for x in w) or sum(w) != 1:
        raise Rejected


def old_behavioral_weights(w, m):  # games.BehavioralStrategy.validate
    if len(w) != m:
        raise Rejected
    if any(x < 0 for x in w) or sum(w) != 1:
        raise Rejected


def old_pennies_weights(w, m):  # pennies._validate_rows
    if len(w) != m or any(x < 0 for x in w) or sum(w) != 1:
        raise Rejected


def old_selection_index(k, K):  # correspondences.Selection.validate
    if not 0 <= k < K:
        raise Rejected


def old_pure_action(k, m):  # games.PureStrategy.validate
    if not 0 <= k < m:
        raise Rejected


def old_pennies_action(action, m):  # pennies.IntervalUnionStrategy.from_pieces
    if not 0 <= action < m:
        raise Rejected


POINT_CELL = Cell("p", F(1), CellKind.POINT_MASS, "g")
POINT_TYPE = TypeCell("p", F(1), (), True)


def player(m):
    return PlayerSpec(("a", "b", "c")[:m], (POINT_TYPE,))


WEIGHT_CHECKS = [
    (old_mixed_selection_weights, lambda w, m: MixedSelection({"p": w}).validate([POINT_CELL], m)),
    (old_behavioral_weights, lambda w, m: as_behavioral(player(m), BehavioralStrategy({"p": w}))),
    (old_pennies_weights, lambda w, m: _validate_rows([(F(1), w)], m)),
]
INDEX_CHECKS = [
    (old_selection_index, lambda k, m: Selection({"p": k}).validate([POINT_CELL], m)),
    (old_pure_action, lambda k, m: as_behavioral(player(m), PureStrategy({"p": k}))),
    (old_pennies_action, lambda k, m: IntervalUnionStrategy.from_pieces([(F(1), k)], m)),
]

numbers = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=4),
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([0.0, 0.5, 1.0, -0.5, float("nan"), True, False]),
)
non_numbers = st.sampled_from([None, "a", (F(1),), [0]])


distributions = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).filter(
    any
).map(lambda raw: tuple(F(x, sum(raw)) for x in raw))
weight_payloads = st.one_of(
    distributions,
    st.builds(
        lambda kind, xs: kind(xs),
        st.sampled_from([tuple, list]),
        st.lists(st.one_of(numbers, numbers, non_numbers), max_size=4),
    ),
    st.sampled_from([None, 1, "ab", "abc", F(1)]),
)
index_payloads = st.one_of(
    st.integers(min_value=-2, max_value=4),
    st.booleans(),
    st.sampled_from([None, "", "a", (1,), [0], (0, 1)]),
)


def old_outcome(check, payload, m):
    try:
        check(payload, m)
    except Rejected:
        return "rejected"
    except TypeError:
        return "crashed"
    return "accepted"


def rational_weights(w):
    return all(isinstance(x, Rational) for x in w)


class TestPayloadRules:
    """check_weights and check_index accept exactly what the old checks
    accepted, and raise their SchemaError subclass wherever an old check
    rejected a payload or crashed on it with a TypeError.

    One difference is deliberate: the old checks passed float weights, which
    put floats into exact payoffs; check_weights rejects them with
    WeightInvalid."""

    @SETTINGS
    @given(weight_payloads, st.integers(min_value=1, max_value=3))
    @example((0.5, 0.5), 2)
    @example([1.0, F(0)], 2)
    def test_weights_rule_matches_the_old_checks(self, w, m):
        for old, new in WEIGHT_CHECKS:
            if old_outcome(old, w, m) == "accepted" and rational_weights(w):
                new(w, m)
            else:
                with pytest.raises(WeightInvalid):
                    new(w, m)

    def test_float_weights_are_rejected(self):
        assert old_outcome(old_behavioral_weights, (0.5, 0.5), 2) == "accepted"
        game = matching_pennies_game(2)
        half = BehavioralStrategy({"t1": ((F(1), (0.5, 0.5)),)}), BehavioralStrategy(
            {"t2": ((F(1), (0.5, 0.5)),)}
        )
        # the old checks let player_payoff return the float 0.0
        with pytest.raises(WeightInvalid, match=r"^strategy\[t1\]: weights must be >= 0"):
            games.player_payoff(game, 0, half[0], half)

    @SETTINGS
    @given(index_payloads, st.integers(min_value=1, max_value=3))
    def test_index_rule_matches_the_old_checks(self, k, m):
        for old, new in INDEX_CHECKS:
            if old_outcome(old, k, m) == "accepted":
                new(k, m)
            else:
                with pytest.raises(IndexOutOfRange):
                    new(k, m)

    def test_old_crashes_are_schema_errors_with_paths(self):
        # a bare int as a behavioral point payload: "object of type 'int' has no len()"
        assert old_outcome(old_behavioral_weights, 1, 2) == "crashed"
        with pytest.raises(WeightInvalid, match=r"strategy\[p\]: expected 2 weights"):
            as_behavioral(player(2), BehavioralStrategy({"p": 1}))
        # a tuple as an index: "'<=' not supported"
        assert old_outcome(old_pure_action, (1,), 2) == "crashed"
        with pytest.raises(IndexOutOfRange, match=r"strategy\[p\]: index \(1,\) is not in range\(2\)"):
            as_behavioral(player(2), PureStrategy({"p": (1,)}))
        assert issubclass(WeightInvalid, SchemaError) and issubclass(IndexOutOfRange, SchemaError)

    @pytest.mark.parametrize(
        "payload, m, old, rule",
        [
            # non-integral indices: the one-hot row of 1/2 was all zeros
            (F(1, 2), 2, old_pure_action, lambda k, m: check_index("p", k, m)),
            (1.0, 2, old_selection_index, lambda k, m: check_index("p", k, m)),
            # a dict passed on its keys 0 and 1
            ({0: "x", 1: "y"}, 2, old_mixed_selection_weights, lambda w, m: check_weights("p", w, m)),
        ],
        ids=["index-half", "index-float", "weights-dict"],
    )
    def test_wrongly_typed_payloads_the_old_checks_passed(self, payload, m, old, rule):
        assert old_outcome(old, payload, m) == "accepted"
        with pytest.raises(SchemaError, match="^p: "):
            rule(payload, m)

    @SETTINGS
    @given(piece_lists(), st.integers(min_value=0, max_value=2))
    def test_one_hot_matches_the_old_expansions(self, pieces, k):
        rich, point = TestPiecePlan.RICH, TestPiecePlan.POINT
        cells = (rich, point)
        plan = Selection({"r": tuple(pieces), "p": k})

        def old_to_behavioral_unit(a):  # games.PureStrategy.to_behavioral
            return tuple(F(1) if j == a else F(0) for j in range(3))

        def old_one_hot_unit(a):  # correspondences.one_hot
            return tuple(F(1 if j == a else 0) for j in range(3))

        expanded = plan.one_hot(cells, 3)
        assert isinstance(expanded, MixedSelection)
        for unit in (old_to_behavioral_unit, old_one_hot_unit):
            assert expanded.plan == {c.id: plan.mapped(c, unit) for c in cells}
        three = constant_branches(space(rich, point), [0, 1, 2])
        assert one_hot(three, plan) == expanded
        assert as_behavioral(player(3), PureStrategy({"p": k})).plan == {"p": unit_vector(3, k)}

    def test_strategy_names_are_the_selection_types(self):
        assert games.BehavioralStrategy is MixedSelection
        assert games.PureStrategy is Selection

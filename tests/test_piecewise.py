"""Piece-list helpers against a brute-force oracle built from the common
refinement and point lookups."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condexp.correspondences import Selection
from condexp.errors import SchemaError
from condexp.games import PureStrategy, TypeCell
from condexp.measure import Cell, CellKind
from condexp.piecewise import (
    append_piece,
    check_pieces,
    clip_pieces,
    common_refinement,
    pack_pieces,
    piece_bounds,
    piece_payload,
    proportional_subintervals,
    split_pieces,
)

from helpers import binary_F, space

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
            assert pack_pieces(cell, plan.pieces(cell)) == plan.assignments[cell.id]
            assert plan.breakpoints(cell) == [u for u, _ in plan.pieces(cell)]
            for t in (F(0), F(1, 3), F(23, 24)):
                assert plan.payload_at(cell, t) == piece_payload(plan.pieces(cell), t)

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
            Selection({"r": entry, "p": 0}).validate(F01)

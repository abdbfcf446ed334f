from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condexp.errors import DimensionMismatch, SchemaError
from condexp.measure import (
    Cell,
    CellKind,
    MeasureSpaceModel,
    StepFunction,
    constant_function,
    functions_equal,
    indicator_of_cells,
    linear_combination,
    scalar_product,
)

from helpers import point_cell, rich_cell, saturated_cell, space, step, unit_rich_space

F = Fraction


class TestSpaceValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(SchemaError):
            space(rich_cell("a", F(1, 2)))

    def test_positive_mass(self):
        with pytest.raises(SchemaError):
            space(Cell("a", F(0), CellKind.RICH, "a"), rich_cell("b", F(1)))

    def test_saturated_cell_needs_singleton_block(self):
        with pytest.raises(SchemaError):
            space(
                Cell("a", F(1, 2), CellKind.SATURATED, "g"),
                Cell("b", F(1, 2), CellKind.RICH, "g"),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError):
            space(rich_cell("a", F(1, 2)), rich_cell("a", F(1, 2)))


class TestIntegrate:
    def test_constant_one(self):
        sp = unit_rich_space()
        f = step(sp, {"c": 1})
        assert sp.integrate(f) == (F(1),)

    def test_quarter_support(self):
        sp = unit_rich_space()
        f = step(sp, {"c": [(F(1, 4), 1), (1, 0)]})
        assert sp.integrate(f) == (F(1, 4),)

    def test_two_cells_average(self):
        sp = space(rich_cell("a", F(1, 2)), rich_cell("b", F(1, 2)))
        f = step(sp, {"a": 0, "b": 1})
        assert sp.integrate(f) == (F(1, 2),)

    def test_dimension_mismatch(self):
        sp = unit_rich_space()
        f = step(sp, {"c": (1, 2)}, dim=2)
        bad = step(sp, {"c": 1})
        assert sp.integrate(f) == (F(1), F(2))
        with pytest.raises(DimensionMismatch):
            linear_combination(sp, [(F(1), f), (F(1), bad)])


class TestConditionalExpectation:
    def test_single_rich_block_averages(self):
        sp = unit_rich_space()
        f = step(sp, {"c": [(F(1, 4), 1), (1, 0)]})
        e = sp.conditional_expectation(f)
        assert functions_equal(sp, e, step(sp, {"c": F(1, 4)}))

    def test_saturated_cell_is_identity(self):
        sp = space(saturated_cell("D"))
        f = step(sp, {"D": [(F(1, 3), 5), (1, 2)]})
        assert functions_equal(sp, sp.conditional_expectation(f), f)

    def test_mixed_block_weighted_average(self):
        sp = space(
            rich_cell("r", F(1, 2), block="g"),
            point_cell("p", F(1, 2), block="g"),
        )
        f = step(sp, {"r": 0, "p": 1})
        e = sp.conditional_expectation(f)
        assert functions_equal(sp, e, step(sp, {"r": F(1, 2), "p": F(1, 2)}))

    def test_law_of_total_expectation(self):
        sp = space(
            rich_cell("a", F(1, 3), block="g"),
            rich_cell("b", F(1, 3), block="g"),
            saturated_cell("D", F(1, 3)),
        )
        f = step(sp, {"a": [(F(1, 2), 3), (1, 1)], "b": 2, "D": [(F(1, 4), 7), (1, 0)]})
        assert sp.integrate(sp.conditional_expectation(f)) == sp.integrate(f)

    def test_idempotent(self):
        sp = space(rich_cell("a", F(2, 5), block="g"), rich_cell("b", F(3, 5), block="g"))
        f = step(sp, {"a": [(F(1, 2), 1), (1, 4)], "b": 2})
        e1 = sp.conditional_expectation(f)
        e2 = sp.conditional_expectation(e1)
        assert functions_equal(sp, e1, e2)

    def test_identity_on_all_saturated_space(self):
        sp = space(saturated_cell("D1", F(1, 2)), saturated_cell("D2", F(1, 2)))
        f = step(sp, {"D1": [(F(1, 2), 1), (1, 0)], "D2": 3})
        assert functions_equal(sp, sp.conditional_expectation(f), f)


class TestHasGAtom:
    def test_all_rich(self):
        sp = space(rich_cell("a", F(1, 2)), rich_cell("b", F(1, 2)))
        assert sp.has_g_atom() == (False, None)

    def test_saturated_witness(self):
        sp = space(saturated_cell("D"))
        assert sp.has_g_atom() == (True, "D")

    def test_point_mass_witness(self):
        sp = space(rich_cell("r", F(1, 2)), point_cell("p", F(1, 2)))
        assert sp.has_g_atom() == (True, "p")


@st.composite
def random_space_and_functions(draw):
    n_cells = draw(st.integers(1, 4))
    masses = [draw(st.integers(1, 4)) for _ in range(n_cells)]
    total = sum(masses)
    cells = []
    for i, m in enumerate(masses):
        block = f"g{draw(st.integers(0, 1))}"
        cells.append(Cell(f"c{i}", F(m, total), CellKind.RICH, block))
    sp = MeasureSpaceModel(tuple(cells))
    def rand_fn():
        per_cell = {}
        for c in sp.cells:
            cuts = sorted(set(draw(st.lists(st.integers(1, 7), min_size=0, max_size=2))))
            uptos = [F(x, 8) for x in cuts] + [F(1)]
            per_cell[c.id] = [
                (u, F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))) for u in uptos
            ]
        return per_cell
    return sp, rand_fn(), rand_fn()


class TestLinearityProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_space_and_functions(), st.integers(-3, 3), st.integers(-3, 3))
    def test_conditional_expectation_linear(self, data, a, b):
        sp, f_data, g_data = data
        f = step(sp, {cid: pieces for cid, pieces in f_data.items()})
        g = step(sp, {cid: pieces for cid, pieces in g_data.items()})
        combo = linear_combination(sp, [(F(a), f), (F(b), g)])
        lhs = sp.conditional_expectation(combo)
        rhs = linear_combination(
            sp,
            [(F(a), sp.conditional_expectation(f)), (F(b), sp.conditional_expectation(g))],
        )
        assert functions_equal(sp, lhs, rhs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_space_and_functions())
    def test_total_expectation(self, data):
        sp, f_data, _ = data
        f = step(sp, {cid: pieces for cid, pieces in f_data.items()})
        assert sp.integrate(sp.conditional_expectation(f)) == sp.integrate(f)


class TestHelpers:
    def test_functions_equal_needs_dimension_and_values(self):
        sp = unit_rich_space()
        f = step(sp, {"c": [(F(1, 2), 1), (1, 1)]})
        assert functions_equal(sp, f, step(sp, {"c": 1}))
        assert not functions_equal(sp, f, step(sp, {"c": (1, 1)}, dim=2))
        assert not functions_equal(sp, f, step(sp, {"c": [(F(1, 2), 1), (1, 2)]}))

    def test_indicator(self):
        sp = space(rich_cell("a", F(1, 2)), point_cell("p", F(1, 2)))
        ind = indicator_of_cells(sp, ["p"])
        assert sp.integrate(ind) == (F(1, 2),)

    def test_constant(self):
        sp = unit_rich_space()
        f = constant_function(sp, (F(2), F(3)))
        assert sp.integrate(f) == (F(2), F(3))


# -- inner products from prefix integrals against the pointwise product --------


@st.composite
def mixed_space(draw):
    """One to four cells of every kind; saturated cells sit alone in a block."""
    kinds = draw(st.lists(st.sampled_from(list(CellKind)), min_size=1, max_size=4))
    weights = [draw(st.integers(1, 4)) for _ in kinds]
    cells = []
    for i, (kind, w) in enumerate(zip(kinds, weights)):
        block = f"s{i}" if kind is CellKind.SATURATED else f"g{draw(st.integers(0, 1))}"
        cells.append(Cell(f"c{i}", F(w, sum(weights)), kind, block))
    return MeasureSpaceModel(tuple(cells))


def scalar_step(draw, sp, uptos):
    """A dimension-1 step function with pieces ending at ``uptos(cell)``."""
    value = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    values = {}
    for c in sp.cells:
        if c.has_inner:
            values[c.id] = tuple((u, (draw(value),)) for u in uptos())
        else:
            values[c.id] = (draw(value),)
    return StepFunction(1, values)


def breakpoints(draw, denominators):
    den = draw(st.sampled_from(denominators))
    cuts = draw(st.lists(st.integers(1, den - 1), max_size=4)) if den > 1 else []
    return sorted({F(k, den) for k in cuts}) + [F(1)]


@st.composite
def function_and_tests(draw):
    """A dyadic-grid f (up to 16 pieces a cell) and tests whose breakpoints
    fall on other grids, thirds and fifths among them."""
    sp = draw(mixed_space())
    f = scalar_step(draw, sp, lambda: breakpoints(draw, [1, 2, 4, 8, 16]))
    tests = [
        scalar_step(draw, sp, lambda: breakpoints(draw, [2, 3, 5, 6, 32]))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return sp, f, tests


def _corrupt(sp, fn, fault):
    """``fn`` with one fault: dimension 2, a 2-vector piece, a missing cell,
    pieces that stop short of 1, or a bare value where a piece list belongs."""
    cell = sp.cells[0]
    entry = fn.values[cell.id]
    if fault == "dim-2":
        return StepFunction(2, {c.id: fn.mapped(c, lambda v: v + v) for c in sp.cells})
    if fault == "wide-piece":
        bad = fn.mapped(cell, lambda v: v + v)
    elif fault == "missing":
        return StepFunction(1, {c.id: fn.values[c.id] for c in sp.cells[1:]})
    elif fault == "short" and cell.has_inner:
        bad = entry[:-1] + ((F(1, 2) * entry[-1][0], entry[-1][1]),)
    else:
        bad = entry[0][1] if cell.has_inner else ((F(1), entry),)
    return StepFunction(1, {**fn.values, cell.id: bad})


def _outcome(call):
    try:
        return call()
    except (DimensionMismatch, SchemaError) as exc:
        return type(exc), getattr(exc, "path", None)


class TestInnerProducts:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(function_and_tests())
    def test_matches_the_integrated_pointwise_product(self, data):
        sp, f, tests = data
        expected = [sp.integrate(scalar_product(sp, psi, f))[0] for psi in tests]
        assert sp.inner_products(f, tests) == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        function_and_tests(),
        st.sampled_from(["dim-2", "wide-piece", "missing", "short", "shape"]),
        st.integers(-1, 3),
    )
    def test_faults_raise_as_before(self, data, fault, which):
        # which = -1 corrupts f, otherwise one of the tests
        sp, f, tests = data
        if which < 0:
            f = _corrupt(sp, f, fault)
        else:
            k = which % len(tests)
            tests = tests[:k] + [_corrupt(sp, tests[k], fault)] + tests[k + 1:]
        before = _outcome(lambda: [sp.integrate(scalar_product(sp, psi, f)) for psi in tests])
        after = _outcome(lambda: sp.inner_products(f, tests))
        assert isinstance(before, tuple) and before == after

    def test_off_grid_breakpoint_takes_the_partial_piece(self):
        sp = space(saturated_cell("D", F(1, 2)), point_cell("p", F(1, 2)))
        f = step(sp, {"D": [(F(1, 2), 1), (1, 3)], "p": 5})
        third = step(sp, {"D": [(F(1, 3), 6), (1, 0)], "p": 1})
        late = step(sp, {"D": [(F(2, 3), 0), (1, 3)], "p": 0})
        # 6 * 1/3 / 2 + 5 / 2, and 3 * 3 * 1/3 / 2
        assert sp.inner_products(f, [third, late]) == [F(7, 2), F(3, 2)]

"""Finite-branch correspondences, their selections, and mixed selections.

A correspondence assigns each point the finite set {g_k(t)} swept out by its
branch step functions.  Selections pick a branch index pointwise; mixed
selections carry a probability vector over branches and realize points of the
pointwise convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Mapping

from .errors import DimensionMismatch, IndexOutOfRange, SchemaError, WeightInvalid
from .measure import Cell, MeasureSpaceModel, StepFunction
from .piecewise import PiecePlan, common_refinement, merged_pieces, pack_pieces, piece_bounds
from .rationals import Vec, vec_add, vec_scale, zero_vec


@dataclass(frozen=True)
class FiniteIndexedCorrespondence:
    space: MeasureSpaceModel
    branches: tuple[StepFunction, ...]

    def __post_init__(self):
        if not self.branches:
            raise SchemaError("branches", "need at least one branch")
        dim = self.branches[0].dim
        for k, g in enumerate(self.branches):
            if g.dim != dim:
                raise DimensionMismatch(f"branch {k} has dimension {g.dim} != {dim}")
            g.validate(self.space)

    @property
    def dim(self) -> int:
        return self.branches[0].dim

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def refinement_on(self, cell: Cell, *extra_breakpoints) -> list[tuple[Fraction, Fraction]]:
        """Pieces of the cell on which every branch (and extras) is constant."""
        lists = [g.breakpoints_on(cell) for g in self.branches]
        lists.extend(extra_breakpoints)
        return piece_bounds(common_refinement(*lists))

    def branch_values(self, cell: Cell, t: Fraction) -> list[Vec]:
        return [g.value_at(cell, t) for g in self.branches]


@dataclass(frozen=True)
class Selection(PiecePlan):
    """Branch index per piece (Rich/Saturated cells) or per cell (points)."""

    assignments: Mapping[str, object]  # tuple[(upto, int), ...] | int

    entries = property(attrgetter("assignments"))
    branch_at = PiecePlan.payload_at
    breakpoints_on = PiecePlan.breakpoints

    def validate(self, F: FiniteIndexedCorrespondence) -> None:
        K = F.branch_count

        def check_branch(cell, k):
            if not 0 <= k < K:
                raise IndexOutOfRange(f"cell {cell.id}: branch {k} out of range")

        self.check_cells(F.space.cells, "selection", check_branch)


@dataclass(frozen=True)
class MixedSelection(PiecePlan):
    """Probability weights over branches, piecewise per cell."""

    weights: Mapping[str, object]  # tuple[(upto, tuple[Fraction,...]), ...] | tuple

    entries = property(attrgetter("weights"))
    breakpoints_on = PiecePlan.breakpoints

    def validate(self, F: FiniteIndexedCorrespondence) -> None:
        K = F.branch_count

        def check_weights(cell, w):
            if len(w) != K:
                raise WeightInvalid(f"cell {cell.id}: expected {K} weights")
            if any(x < 0 for x in w) or sum(w) != 1:
                raise WeightInvalid(f"cell {cell.id}: weights must be >= 0 and sum to 1")

        self.check_cells(F.space.cells, "mixed", check_weights)

    def weights_at(self, cell: Cell, t: Fraction) -> tuple[Fraction, ...]:
        return tuple(self.payload_at(cell, t))


def selection_value(F: FiniteIndexedCorrespondence, s: Selection) -> StepFunction:
    """The step function t -> g_{s(t)}(t)."""
    s.validate(F)
    values: dict[str, object] = {}
    for c in F.space.cells:
        pieces = []
        lists = [s.pieces(c)] + [g.pieces(c) for g in F.branches]
        for _lo, hi, payloads in merged_pieces(*lists):
            k = payloads[0]
            pieces.append((hi, payloads[1 + k]))
        values[c.id] = pack_pieces(c, pieces)
    return StepFunction(F.dim, values)


def mixed_value(F: FiniteIndexedCorrespondence, m: MixedSelection) -> StepFunction:
    """The step function t -> sum_k w_k(t) g_k(t)."""
    m.validate(F)
    values: dict[str, object] = {}
    for c in F.space.cells:
        pieces = []
        lists = [m.pieces(c)] + [g.pieces(c) for g in F.branches]
        for _lo, hi, payloads in merged_pieces(*lists):
            w = payloads[0]
            acc = zero_vec(F.dim)
            for k in range(F.branch_count):
                acc = vec_add(acc, vec_scale(payloads[1 + k], w[k]))
            pieces.append((hi, acc))
        values[c.id] = pack_pieces(c, pieces)
    return StepFunction(F.dim, values)


def one_hot(F: FiniteIndexedCorrespondence, s: Selection) -> MixedSelection:
    """The degenerate mixture matching a pure selection."""
    s.validate(F)
    K = F.branch_count

    def unit(k: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1 if j == k else 0) for j in range(K))

    return MixedSelection({c.id: s.mapped(c, unit) for c in F.space.cells})

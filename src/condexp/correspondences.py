"""Finite-branch correspondences, their selections, and mixed selections.

A correspondence assigns each point the finite set {g_k(t)} swept out by its
branch step functions.  Selections pick a branch index pointwise; mixed
selections carry a probability vector over branches and realize points of the
pointwise convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DimensionMismatch, IndexOutOfRange, SchemaError, WeightInvalid
from .measure import Cell, MeasureSpaceModel, StepFunction
from .piecewise import check_pieces, common_refinement, merged_pieces, piece_bounds, piece_payload
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
class Selection:
    """Branch index per piece (Rich/Saturated cells) or per cell (points)."""

    assignments: Mapping[str, object]  # tuple[(upto, int), ...] | int

    def validate(self, F: FiniteIndexedCorrespondence) -> None:
        K = F.branch_count

        def check_branch(k):
            if not 0 <= k < K:
                raise IndexOutOfRange(f"cell {c.id}: branch {k} out of range")

        for c in F.space.cells:
            if c.id not in self.assignments:
                raise SchemaError(f"selection[{c.id}]", "missing cell entry")
            entry = self.assignments[c.id]
            if c.has_inner:
                check_pieces(f"selection[{c.id}]", entry, check_branch)
            else:
                check_branch(entry)

    def branch_at(self, cell: Cell, t: Fraction) -> int:
        entry = self.assignments[cell.id]
        if not cell.has_inner:
            return entry
        return piece_payload(entry, t)

    def breakpoints_on(self, cell: Cell) -> list[Fraction]:
        if not cell.has_inner:
            return [Fraction(1)]
        return [upto for upto, _ in self.assignments[cell.id]]


@dataclass(frozen=True)
class MixedSelection:
    """Probability weights over branches, piecewise per cell."""

    weights: Mapping[str, object]  # tuple[(upto, tuple[Fraction,...]), ...] | tuple

    def validate(self, F: FiniteIndexedCorrespondence) -> None:
        K = F.branch_count
        for c in F.space.cells:
            if c.id not in self.weights:
                raise SchemaError(f"mixed[{c.id}]", "missing cell entry")
            entry = self.weights[c.id]
            rows = [w for _, w in entry] if c.has_inner else [entry]
            if c.has_inner:
                check_pieces(f"mixed[{c.id}]", entry)
            for w in rows:
                if len(w) != K:
                    raise WeightInvalid(f"cell {c.id}: expected {K} weights")
                if any(x < 0 for x in w) or sum(w) != 1:
                    raise WeightInvalid(f"cell {c.id}: weights must be >= 0 and sum to 1")

    def weights_at(self, cell: Cell, t: Fraction) -> tuple[Fraction, ...]:
        entry = self.weights[cell.id]
        if not cell.has_inner:
            return tuple(entry)
        return tuple(piece_payload(entry, t))

    def breakpoints_on(self, cell: Cell) -> list[Fraction]:
        if not cell.has_inner:
            return [Fraction(1)]
        return [upto for upto, _ in self.weights[cell.id]]


def selection_value(F: FiniteIndexedCorrespondence, s: Selection) -> StepFunction:
    """The step function t -> g_{s(t)}(t)."""
    s.validate(F)
    values: dict[str, object] = {}
    for c in F.space.cells:
        if not c.has_inner:
            values[c.id] = F.branches[s.branch_at(c, Fraction(0))].value_at(c, Fraction(0))
            continue
        pieces = []
        lists = [s.assignments[c.id]] + [g.values[c.id] for g in F.branches]
        for _lo, hi, payloads in merged_pieces(*lists):
            k = payloads[0]
            pieces.append((hi, payloads[1 + k]))
        values[c.id] = tuple(pieces)
    return StepFunction(F.dim, values)


def mixed_value(F: FiniteIndexedCorrespondence, m: MixedSelection) -> StepFunction:
    """The step function t -> sum_k w_k(t) g_k(t)."""
    m.validate(F)
    values: dict[str, object] = {}
    for c in F.space.cells:
        if not c.has_inner:
            w = m.weights_at(c, Fraction(0))
            acc = zero_vec(F.dim)
            for k, g in enumerate(F.branches):
                acc = vec_add(acc, vec_scale(g.value_at(c, Fraction(0)), w[k]))
            values[c.id] = acc
            continue
        pieces = []
        lists = [m.weights[c.id]] + [g.values[c.id] for g in F.branches]
        for _lo, hi, payloads in merged_pieces(*lists):
            w = payloads[0]
            acc = zero_vec(F.dim)
            for k in range(F.branch_count):
                acc = vec_add(acc, vec_scale(payloads[1 + k], w[k]))
            pieces.append((hi, acc))
        values[c.id] = tuple(pieces)
    return StepFunction(F.dim, values)


def one_hot(F: FiniteIndexedCorrespondence, s: Selection) -> MixedSelection:
    """The degenerate mixture matching a pure selection."""
    s.validate(F)
    K = F.branch_count

    def unit(k: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1 if j == k else 0) for j in range(K))

    weights: dict[str, object] = {}
    for c in F.space.cells:
        entry = s.assignments[c.id]
        if not c.has_inner:
            weights[c.id] = unit(entry)
        else:
            weights[c.id] = tuple((upto, unit(k)) for upto, k in entry)
    return MixedSelection(weights)

"""Finite-branch correspondences, their selections, and mixed selections.

A correspondence assigns each point the finite set {g_k(t)} swept out by its
branch step functions.  Selections pick a branch index pointwise; mixed
selections carry a probability vector over branches and realize points of the
pointwise convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import DimensionMismatch, SchemaError
from .measure import Cell, MeasureSpaceModel, StepFunction
from .piecewise import PiecePlan, check_index, check_weights, merged_pieces, pack_pieces
from .piecewise import unit_vector
from .rationals import vec_add, vec_scale, zero_vec


@dataclass(frozen=True)
class FiniteIndexedCorrespondence:
    space: MeasureSpaceModel
    branches: tuple[StepFunction, ...]
    # block_set results by label, kept by attainable.cached_block_set on first use
    block_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def walk(self, cell: Cell, *extra: Sequence[tuple]):
        """``merged_pieces`` over the branches' pieces on ``cell`` and the
        ``extra`` piece lists: yields ``(lo, hi, values, *extras)`` on
        every piece where all of them are constant, the branch values as a
        tuple of vector tuples."""
        n = len(self.branches)
        lists = [g.pieces(cell) for g in self.branches]
        for lo, hi, payloads in merged_pieces(*lists, *extra):
            yield (lo, hi, tuple(map(tuple, payloads[:n])), *payloads[n:])


@dataclass(frozen=True)
class Selection(PiecePlan):
    """An index per piece (interval cells) or per cell (point cells): a
    selection of a correspondence's branches, or a pure strategy's actions."""

    plan: Mapping[str, object]  # tuple[(upto, int), ...] | int

    entries = property(attrgetter("plan"))

    def validate(self, cells, m: int, path: str = "selection") -> None:
        """Raise SchemaError at ``path[cell id]`` unless every cell holds a
        piece list of indices in range(m)."""
        self.check_cells(cells, path, lambda _cell, p, k: check_index(p, k, m))

    def one_hot(self, cells, m: int) -> MixedSelection:
        """The degenerate mixture over m indices matching this (validated) plan."""
        units = [unit_vector(m, k) for k in range(m)]
        return MixedSelection({c.id: self.mapped(c, units.__getitem__) for c in cells})


@dataclass(frozen=True)
class MixedSelection(PiecePlan):
    """Probability weights over m indices, piecewise per cell: a mixed
    selection of a correspondence's branches, or a behavioral strategy."""

    plan: Mapping[str, object]  # tuple[(upto, tuple[Fraction,...]), ...] | tuple

    entries = property(attrgetter("plan"))

    def validate(self, cells, m: int, path: str = "mixed") -> None:
        """Raise SchemaError at ``path[cell id]`` unless every cell holds a
        piece list of m weights, each >= 0, summing to 1."""
        self.check_cells(cells, path, lambda _cell, p, w: check_weights(p, w, m))


def selection_value(F: FiniteIndexedCorrespondence, s: Selection) -> StepFunction:
    """The step function t -> g_{s(t)}(t)."""
    s.validate(F.space.cells, F.branch_count)
    values: dict[str, object] = {}
    for c in F.space.cells:
        pieces = [(hi, branch[k]) for _lo, hi, branch, k in F.walk(c, s.pieces(c))]
        values[c.id] = pack_pieces(c, pieces)
    return StepFunction(F.dim, values)


def mixed_value(F: FiniteIndexedCorrespondence, m: MixedSelection) -> StepFunction:
    """The step function t -> sum_k w_k(t) g_k(t)."""
    m.validate(F.space.cells, F.branch_count)
    values: dict[str, object] = {}
    for c in F.space.cells:
        pieces = []
        for _lo, hi, branch, w in F.walk(c, m.pieces(c)):
            acc = zero_vec(F.dim)
            for v, wk in zip(branch, w):
                acc = vec_add(acc, vec_scale(v, wk))
            pieces.append((hi, acc))
        values[c.id] = pack_pieces(c, pieces)
    return StepFunction(F.dim, values)


def one_hot(F: FiniteIndexedCorrespondence, s: Selection) -> MixedSelection:
    """The degenerate mixture matching a pure selection."""
    s.validate(F.space.cells, F.branch_count)
    return s.one_hot(F.space.cells, F.branch_count)

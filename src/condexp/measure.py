"""Finitely-presented probability spaces with a coarse block structure.

A space is a list of cells, each carrying a positive rational mass and one of
three kinds.  Rich and saturated cells have an inner coordinate on [0, 1]
(Lebesgue measure scaled by the cell mass); point cells do not.  Cells are
grouped into coarse blocks: averaging over a block is the conditional
expectation on rich/point blocks, while a saturated cell is forced into a
singleton block where conditioning is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import DimensionMismatch, SchemaError
from .piecewise import PiecePlan, merged_pieces, pack_pieces
from .rationals import Vec, vec_add, vec_scale, zero_vec


class CellKind(str, Enum):
    RICH = "rich"
    SATURATED = "saturated"
    POINT_MASS = "point"


@dataclass(frozen=True)
class Cell:
    id: str
    mass: Fraction
    kind: CellKind
    g_block: str

    def __post_init__(self):
        if self.mass <= 0:
            raise SchemaError(f"cells[{self.id}].mass", "must be positive")

    @property
    def has_inner(self) -> bool:
        return self.kind is not CellKind.POINT_MASS


@dataclass(frozen=True)
class MeasureSpaceModel:
    cells: tuple[Cell, ...]

    def __post_init__(self):
        ids = [c.id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise SchemaError("cells", "cell ids must be unique")
        if sum((c.mass for c in self.cells), Fraction(0)) != 1:
            raise SchemaError("cells", "cell masses must sum to 1 exactly")
        for c in self.cells:
            if c.kind is CellKind.SATURATED and len(self.blocks[c.g_block]) != 1:
                raise SchemaError(f"cells[{c.id}]", "a saturated cell must sit alone in its block")

    def cell(self, cell_id: str) -> Cell:
        for c in self.cells:
            if c.id == cell_id:
                return c
        raise SchemaError("cell", f"no cell {cell_id!r} in the space")

    @cached_property
    def blocks(self) -> dict[str, tuple[Cell, ...]]:
        out: dict[str, list[Cell]] = {}
        for c in self.cells:
            out.setdefault(c.g_block, []).append(c)
        return {label: tuple(cs) for label, cs in out.items()}

    def block_mass(self, label: str) -> Fraction:
        return sum((c.mass for c in self.blocks[label]), Fraction(0))

    def has_g_atom(self) -> tuple[bool, str | None]:
        """True plus the first saturated or point cell, if any."""
        for c in self.cells:
            if c.kind is not CellKind.RICH:
                return True, c.id
        return False, None

    def integrate(self, f: "StepFunction") -> Vec:
        f.validate(self)
        total = zero_vec(f.dim)
        for c in self.cells:
            total = vec_add(total, vec_scale(f.average_on(c), c.mass))
        return total

    def inner_products(self, f: "StepFunction", tests: Sequence["StepFunction"]) -> list[Fraction]:
        """Exact integral of psi * f for each scalar test psi, on the
        ``merged_pieces`` walk of ``f`` and psi per cell.  The dimensions are
        checked first, then ``f`` once, then each test as it is reached."""
        if f.dim != 1 or any(psi.dim != 1 for psi in tests):
            raise DimensionMismatch("inner_products needs dimension-1 functions")
        f.validate(self)
        out = []
        for psi in tests:
            psi.validate(self)
            total = Fraction(0)
            for c in self.cells:
                on_cell = Fraction(0)
                for lo, hi, ((fv,), (v,)) in merged_pieces(f.pieces(c), psi.pieces(c)):
                    on_cell += fv * v * (hi - lo)
                total += c.mass * on_cell
            out.append(total)
        return out

    def conditional_expectation(self, f: "StepFunction") -> "StepFunction":
        """Block average on rich/point blocks, identity on saturated cells."""
        f.validate(self)
        values: dict[str, object] = {}
        for label, cells in self.blocks.items():
            if len(cells) == 1 and cells[0].kind is CellKind.SATURATED:
                c = cells[0]
                values[c.id] = f.values[c.id]
                continue
            mass = sum((c.mass for c in cells), Fraction(0))
            avg = zero_vec(f.dim)
            for c in cells:
                avg = vec_add(avg, vec_scale(f.average_on(c), c.mass))
            avg = vec_scale(avg, Fraction(1) / mass)
            for c in cells:
                values[c.id] = pack_pieces(c, ((Fraction(1), avg),))
        return StepFunction(f.dim, values)


Piece = tuple[Fraction, Vec]  # (upto, value): value on [previous upto, upto)


@dataclass(frozen=True)
class StepFunction(PiecePlan):
    """Piecewise-constant vector-valued function on a space.

    ``values`` maps each cell id to its (upto, vector) pieces on the cell's
    inner coordinate, stored as ``PiecePlan`` says: a point cell's one vector
    is stored bare.
    """

    dim: int
    values: Mapping[str, object]

    entries = property(attrgetter("values"))

    def validate(self, space: MeasureSpaceModel, path: str = "values") -> None:
        """Raise SchemaError at ``path[cell id]`` unless every cell holds a
        piece list of vectors of this function's dimension."""

        def check_value(cell, p, value):
            if cell.has_inner:
                if len(value) != self.dim:
                    raise SchemaError(p, f"piece dimension != {self.dim}")
            elif not isinstance(value, tuple) or (value and isinstance(value[0], tuple)):
                raise SchemaError(p, "expected a bare vector")
            elif len(value) != self.dim:
                raise SchemaError(p, f"vector dimension != {self.dim}")

        self.check_cells(space.cells, path, check_value)

    def pieces_on(self, cell: Cell) -> list[tuple[Fraction, Fraction, Vec]]:
        """(lo, hi, value) triples; a point cell reports one unit-length piece."""
        out = []
        lo = Fraction(0)
        for upto, value in self.pieces(cell):
            out.append((lo, upto, tuple(value)))
            lo = upto
        return out

    def average_on(self, cell: Cell) -> Vec:
        """Length-weighted average of the cell's values (the value itself on points)."""
        avg = zero_vec(self.dim)
        for lo, hi, value in self.pieces_on(cell):
            avg = vec_add(avg, vec_scale(value, hi - lo))
        return avg


def constant_function(space: MeasureSpaceModel, value: Sequence[Fraction]) -> StepFunction:
    value = tuple(value)
    values: dict[str, object] = {}
    for c in space.cells:
        values[c.id] = pack_pieces(c, ((Fraction(1), value),))
    return StepFunction(len(value), values)


def indicator_of_cells(space: MeasureSpaceModel, cell_ids: Sequence[str]) -> StepFunction:
    """The scalar indicator function of a union of whole cells."""
    marked = set(cell_ids)
    values: dict[str, object] = {}
    for c in space.cells:
        v = (Fraction(1 if c.id in marked else 0),)
        values[c.id] = pack_pieces(c, ((Fraction(1), v),))
    return StepFunction(1, values)


def linear_combination(
    space: MeasureSpaceModel, terms: Sequence[tuple[Fraction, StepFunction]]
) -> StepFunction:
    """Exact pointwise combination sum(coef * f) on the common refinement."""
    if not terms:
        raise ValueError("need at least one term")
    dim = terms[0][1].dim
    for _, f in terms:
        f.validate(space)
        if f.dim != dim:
            raise DimensionMismatch("terms disagree on dimension")
    values: dict[str, object] = {}
    for c in space.cells:
        pieces = []
        for _lo, hi, payloads in merged_pieces(*[f.pieces(c) for _, f in terms]):
            acc = zero_vec(dim)
            for (coef, _f), v in zip(terms, payloads):
                acc = vec_add(acc, vec_scale(v, coef))
            pieces.append((hi, acc))
        values[c.id] = pack_pieces(c, pieces)
    return StepFunction(dim, values)


def scalar_product(space: MeasureSpaceModel, f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product of two scalar step functions."""
    if f.dim != 1 or g.dim != 1:
        raise DimensionMismatch("scalar_product needs dimension-1 functions")
    f.validate(space)
    g.validate(space)
    values: dict[str, object] = {}
    for c in space.cells:
        pieces = []
        for _lo, hi, (fv, gv) in merged_pieces(f.pieces(c), g.pieces(c)):
            pieces.append((hi, (fv[0] * gv[0],)))
        values[c.id] = pack_pieces(c, pieces)
    return StepFunction(1, values)


def functions_equal(space: MeasureSpaceModel, f: StepFunction, g: StepFunction) -> bool:
    """Pointwise equality (up to breakpoint refinement), exact."""
    if f.dim != g.dim:
        return False
    f.validate(space)
    g.validate(space)
    for c in space.cells:
        for _lo, _hi, (fv, gv) in merged_pieces(f.pieces(c), g.pieces(c)):
            if fv != gv:
                return False
    return True

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
from typing import Mapping, Sequence

from .errors import DimensionMismatch, SchemaError
from .piecewise import check_pieces, merged_pieces, piece_payload
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
            if c.kind is CellKind.SATURATED:
                sharing = [d for d in self.cells if d.g_block == c.g_block]
                if len(sharing) != 1:
                    raise SchemaError(
                        f"cells[{c.id}]", "a saturated cell must sit alone in its block"
                    )

    def cell(self, cell_id: str) -> Cell:
        for c in self.cells:
            if c.id == cell_id:
                return c
        raise KeyError(cell_id)

    @property
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
                if c.has_inner:
                    values[c.id] = ((Fraction(1), avg),)
                else:
                    values[c.id] = avg
        return StepFunction(f.dim, values)


Piece = tuple[Fraction, Vec]  # (upto, value): value on [previous upto, upto)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant vector-valued function on a space.

    ``values`` maps each cell id either to a tuple of (upto, vector) pieces on
    the cell's inner coordinate (uptos strictly increasing and ending at 1) or,
    for point cells, to a bare vector.
    """

    dim: int
    values: Mapping[str, object]

    def validate(self, space: MeasureSpaceModel) -> None:
        def check_dim(value):
            if len(value) != self.dim:
                raise DimensionMismatch(f"cell {c.id}: piece dimension != {self.dim}")

        for c in space.cells:
            if c.id not in self.values:
                raise SchemaError(f"values[{c.id}]", "missing cell entry")
            entry = self.values[c.id]
            if c.has_inner:
                if not isinstance(entry, tuple) or not entry or not isinstance(entry[0], tuple):
                    raise SchemaError(f"values[{c.id}]", "expected a piece list")
                check_pieces(f"values[{c.id}]", entry, check_dim)
            else:
                if not isinstance(entry, tuple) or (entry and isinstance(entry[0], tuple)):
                    raise SchemaError(f"values[{c.id}]", "expected a bare vector")
                if len(entry) != self.dim:
                    raise DimensionMismatch(f"cell {c.id}: vector dimension != {self.dim}")

    def pieces_on(self, cell: Cell) -> list[tuple[Fraction, Fraction, Vec]]:
        """(lo, hi, value) triples; a point cell reports one unit-length piece."""
        entry = self.values[cell.id]
        if not cell.has_inner:
            return [(Fraction(0), Fraction(1), tuple(entry))]
        out = []
        lo = Fraction(0)
        for upto, value in entry:
            out.append((lo, upto, tuple(value)))
            lo = upto
        return out

    def value_at(self, cell: Cell, t: Fraction) -> Vec:
        entry = self.values[cell.id]
        if not cell.has_inner:
            return tuple(entry)
        return tuple(piece_payload(entry, t))

    def average_on(self, cell: Cell) -> Vec:
        """Length-weighted average of the cell's values (the value itself on points)."""
        avg = zero_vec(self.dim)
        for lo, hi, value in self.pieces_on(cell):
            avg = vec_add(avg, vec_scale(value, hi - lo))
        return avg

    def breakpoints_on(self, cell: Cell) -> list[Fraction]:
        if not cell.has_inner:
            return [Fraction(1)]
        return [upto for upto, _ in self.values[cell.id]]


def constant_function(space: MeasureSpaceModel, value: Sequence[Fraction]) -> StepFunction:
    value = tuple(value)
    values: dict[str, object] = {}
    for c in space.cells:
        values[c.id] = ((Fraction(1), value),) if c.has_inner else value
    return StepFunction(len(value), values)


def indicator_of_cells(space: MeasureSpaceModel, cell_ids: Sequence[str]) -> StepFunction:
    """The scalar indicator function of a union of whole cells."""
    marked = set(cell_ids)
    values: dict[str, object] = {}
    for c in space.cells:
        v = (Fraction(1 if c.id in marked else 0),)
        values[c.id] = ((Fraction(1), v),) if c.has_inner else v
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
        if not c.has_inner:
            acc = zero_vec(dim)
            for coef, f in terms:
                acc = vec_add(acc, vec_scale(f.value_at(c, Fraction(0)), coef))
            values[c.id] = acc
            continue
        pieces = []
        for _lo, hi, payloads in merged_pieces(*[f.values[c.id] for _, f in terms]):
            acc = zero_vec(dim)
            for (coef, _f), v in zip(terms, payloads):
                acc = vec_add(acc, vec_scale(v, coef))
            pieces.append((hi, acc))
        values[c.id] = tuple(pieces)
    return StepFunction(dim, values)


def scalar_product(space: MeasureSpaceModel, f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product of two scalar step functions."""
    if f.dim != 1 or g.dim != 1:
        raise DimensionMismatch("scalar_product needs dimension-1 functions")
    f.validate(space)
    g.validate(space)
    values: dict[str, object] = {}
    for c in space.cells:
        if not c.has_inner:
            values[c.id] = (f.value_at(c, Fraction(0))[0] * g.value_at(c, Fraction(0))[0],)
            continue
        pieces = []
        for _lo, hi, (fv, gv) in merged_pieces(f.values[c.id], g.values[c.id]):
            pieces.append((hi, (fv[0] * gv[0],)))
        values[c.id] = tuple(pieces)
    return StepFunction(1, values)


def functions_equal(space: MeasureSpaceModel, f: StepFunction, g: StepFunction) -> bool:
    """Pointwise equality (up to breakpoint refinement), exact."""
    if f.dim != g.dim:
        return False
    f.validate(space)
    g.validate(space)
    for c in space.cells:
        if not c.has_inner:
            if f.value_at(c, Fraction(0)) != g.value_at(c, Fraction(0)):
                return False
            continue
        for _lo, _hi, (fv, gv) in merged_pieces(f.values[c.id], g.values[c.id]):
            if fv != gv:
                return False
    return True

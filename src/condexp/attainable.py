"""Attainable-average sets of correspondences under block conditioning.

For each coarse block the set of achievable block averages of selections is a
finite union of polytopes: a Minkowski sum of scaled hulls (one per constancy
piece of a rich cell) translated by the finitely many point-cell choices, all
divided by the block mass.  Saturated cells carry no region; there the
attainable functions are exactly the pointwise splices of the branches.

The operations here make the convexity / compactness / continuity dichotomy
constructive: proportional splitting realizes any average blend on atom-free
spaces, while saturated and point cells yield certified obstructions, escape
sequences, and positive defect certificates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Sequence

from .correspondences import (
    FiniteIndexedCorrespondence,
    MixedSelection,
    Selection,
    mixed_value,
    selection_value,
)
from .errors import (
    AtomObstructionError,
    NotGMeasurable,
    NotSaturated,
    SaturatedBlock,
    UnsupportedDimension,
)
from .measure import (
    Cell,
    CellKind,
    MeasureSpaceModel,
    StepFunction,
    constant_function,
    functions_equal,
    indicator_of_cells,
    linear_combination,
)
from .piecewise import append_piece, pack_pieces, split_pieces
from .rational_geometry import (
    IntVec,
    dedupe_points,
    extreme_points,
    feasible_combination,
    min_norm_point,
    support_value,
)
from .rationals import Vec, over_one_denominator, vec_add, vec_norm2, vec_scale, vec_sub, zero_vec

HALF = Fraction(1, 2)
_WHOLE = ((Fraction(0), Fraction(1), False),)  # one plain span over [0, 1)


@dataclass(frozen=True)
class AtomObstruction:
    """Certificate that a blend/mixture cannot be realized by any selection."""

    cell: str
    alpha: Fraction | None
    reason: str
    distance: object | None = None  # Fraction when exact, float otherwise

    def __str__(self) -> str:
        extra = f", defect {self.distance}" if self.distance is not None else ""
        return f"obstruction at cell {self.cell}: {self.reason}{extra}"


@dataclass(frozen=True)
class CondExpBlockSet:
    """Attainable block averages, kept in Minkowski-sum form.

    ``summands`` holds (coefficient, points) pairs, one per rich constancy
    piece, meaning coefficient * conv(points); the points are the piece's
    distinct branch values, generators rather than vertices, since every
    reader needs only their hull.  ``point_sets`` holds the
    mass-scaled finite value sets of the block's point cells.  Averages are
    the sums divided by the block mass.

    The geometry runs on one integer lattice per block set, built once
    (``_lattice``): D is the least common denominator of the
    coefficient-scaled generators and the offsets, and both are kept as
    integers over D.  Wolfe's nearest point, its Minkowski oracle and the
    vertex sums run on those integers; values become ``Fraction`` only when
    they are returned.
    """

    block: str
    dim: int
    block_mass: Fraction
    summands: tuple[tuple[Fraction, tuple[Vec, ...]], ...]
    point_sets: tuple[tuple[Vec, ...], ...]

    def offsets(self) -> list[Vec]:
        """All point-cell contribution totals, deduped and sorted."""
        acc: list[Vec] = [zero_vec(self.dim)]
        for points in self.point_sets:
            acc = dedupe_points([vec_add(a, p) for a in acc for p in points])
        return acc

    @cached_property
    def _lattice(self) -> tuple[int, list[tuple[IntVec, ...]], list[IntVec]]:
        """(D, the integer generators of each summand, the integer offsets):
        every coefficient-scaled generator and every offset times D, the
        offsets in ``offsets()`` order."""
        groups = [[vec_scale(p, coeff) for p in points] for coeff, points in self.summands]
        D, rows = over_one_denominator(p for group in groups + [self.offsets()] for p in group)
        ints = iter(map(tuple, rows))
        return D, [tuple(itertools.islice(ints, len(group))) for group in groups], list(ints)

    def contains(self, value: Vec, tolerance=Fraction(0)) -> bool:
        """Membership of a candidate block average, decided by ``distance``:
        exact for a tolerance <= 0, else within that L2 tolerance."""
        return self.distance(value)[0] <= _squared(tolerance)

    def rich_vertices(self) -> list[Vec]:
        """Vertices of the rich Minkowski sum (before offsets), dim <= 3."""
        D = self._lattice[0]
        return [tuple(Fraction(v, D) for v in p) for p in self._lattice_vertices()]

    def _lattice_vertices(self) -> list[IntVec]:
        """``rich_vertices`` over D: the integer generators summed one
        summand at a time, each partial sum cut to its hull's vertices."""
        if self.dim > 3:
            raise UnsupportedDimension("vertex enumeration needs dimension <= 3")
        acc = [(0,) * self.dim]
        for points in self._lattice[1]:
            acc = extreme_points([tuple(map(add, a, s)) for a in acc for s in points])
        return acc

    def polytopes(self) -> list[tuple[Vec, ...]]:
        """The union as explicit vertex lists (in average scale), dim <= 3."""
        rich = self._lattice_vertices()
        D, _generators, offsets = self._lattice
        # a positive scaling plus a translation keeps the vertices and their
        # order, so the integer polytopes sort as the returned ones do
        polys = sorted({tuple(tuple(map(add, v, offset)) for v in rich) for offset in offsets})
        num, den = self.block_mass.denominator, D * self.block_mass.numerator
        return [tuple(tuple(Fraction(w * num, den) for w in v) for v in poly) for poly in polys]

    def distance(self, value: Vec) -> tuple[Fraction, Vec]:
        """Min squared Euclidean distance to the union plus a nearest point.

        Per offset, Wolfe's min-norm point of the rich Minkowski sum minus
        the target, in block-mass scale, through the sum's oracle: the
        coefficient-scaled minimizing vertex of every summand, plus the
        offset.  Any dimension, and no vertex enumeration.  Each polytope's
        nearest point is unique; across offsets the smaller distance, then
        the smaller point, wins.

        It runs on the lattice with the target's denominator folded in: over
        E = k D, with E * target integral, the shifted points are k times a
        generator sum plus E * (offset - target), so every iterate is E times
        the one over ``Fraction``s.  A common positive scale keeps the
        oracle's argmin and tie order, the affine weights and the sign of
        Wolfe's stopping test, so the answer is the same.
        """
        return self._distance(value)[0]

    def _distance(self, value: Vec) -> tuple[tuple[Fraction, Vec], list[bool]]:
        """``distance`` and, per offset in ``offsets()`` order, whether the
        target lies in that offset's polytope, from one Wolfe run each."""
        D, _generators, offsets = self._lattice
        target = vec_scale(value, self.block_mass)
        E = math.lcm(D, *(t.denominator for t in target))
        k = E // D
        T = [t.numerator * (E // t.denominator) for t in target]
        start = self._argmin_sum((0,) * self.dim)
        best = None
        at_zero = []
        for offset in offsets:
            shift = [k * o - t for o, t in zip(offset, T)]

            def lift(acc):
                return tuple(k * a + s for a, s in zip(acc, shift))

            Y, q = min_norm_point(lambda c: lift(self._argmin_sum(c)), lift(start))
            # y = Y / q here; (|y|^2, y) compare as cross products over q
            norm = sum(map(mul, Y, Y))
            at_zero.append(norm == 0)
            if best is None or (norm * best[2] ** 2, [v * best[2] for v in Y]) < (
                best[0] * q * q,
                [v * q for v in best[1]],
            ):
                best = (norm, Y, q)
        norm, Y, q = best
        inv = Fraction(1) / self.block_mass
        scale = q * E
        return (
            Fraction(norm, scale * scale) * inv * inv,
            tuple(v + Fraction(w, scale) * inv for v, w in zip(value, Y)),
        ), at_zero

    def _argmin_sum(self, c: IntVec) -> IntVec:
        """The point of the rich Minkowski sum, over D, minimizing c . x:
        each summand's minimizing integer generator (the smallest one on
        ties) added up."""
        acc = (0,) * self.dim
        for points in self._lattice[1]:
            acc = tuple(map(add, acc, min(points, key=lambda p: (sum(map(mul, c, p)), p))))
        return acc

    def support(self, direction: Vec) -> Fraction:
        """Support function of the union in a given direction, any dimension."""
        rich = sum(
            (coeff * support_value(points, direction) for coeff, points in self.summands),
            Fraction(0),
        )
        best = max(
            sum(x * d for x, d in zip(offset, direction)) for offset in self.offsets()
        )
        return (rich + best) / self.block_mass


@dataclass(frozen=True)
class CondExpSet:
    """Whole-space description: a region per rich/point block plus the
    saturated cells, whose attainable part is function-valued (all splices)."""

    F: FiniteIndexedCorrespondence
    regions: dict[str, CondExpBlockSet]
    saturated_cells: tuple[str, ...]


def block_set(F: FiniteIndexedCorrespondence, block_label: str) -> CondExpBlockSet:
    space = F.space
    cells = space.blocks.get(block_label)
    if cells is None:
        raise KeyError(block_label)
    if any(c.kind is CellKind.SATURATED for c in cells):
        raise SaturatedBlock(f"block {block_label} contains a saturated cell")
    summands: list[tuple[Fraction, tuple[Vec, ...]]] = []
    point_sets: list[tuple[Vec, ...]] = []
    for c in cells:
        if c.kind is CellKind.RICH:
            for lo, hi, values in F.walk(c):
                summands.append(((hi - lo) * c.mass, tuple(dedupe_points(values))))
        else:
            ((_lo, _hi, values),) = F.walk(c)
            point_sets.append(tuple(dedupe_points([vec_scale(v, c.mass) for v in values])))
    return CondExpBlockSet(
        block=block_label,
        dim=F.dim,
        block_mass=space.block_mass(block_label),
        summands=tuple(summands),
        point_sets=tuple(point_sets),
    )


def cached_block_set(F: FiniteIndexedCorrespondence, block_label: str) -> CondExpBlockSet:
    """``block_set(F, block_label)``, built once and kept on F."""
    if block_label not in F.block_sets:
        F.block_sets[block_label] = block_set(F, block_label)
    return F.block_sets[block_label]


def cond_exp_set(F: FiniteIndexedCorrespondence) -> CondExpSet:
    regions = {}
    saturated = []
    for label, cells in F.space.blocks.items():
        if len(cells) == 1 and cells[0].kind is CellKind.SATURATED:
            saturated.append(cells[0].id)
        else:
            regions[label] = cached_block_set(F, label)
    return CondExpSet(F, regions, tuple(saturated))


@dataclass(frozen=True)
class BlockCertificate:
    block: str
    kind: str  # "region" or "saturated"
    distance: object  # mass-weighted distance; Fraction when exact
    direction: Vec | None = None


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    certificate: BlockCertificate | None
    failures: tuple[BlockCertificate, ...] = ()


def _block_value(space: MeasureSpaceModel, h: StepFunction, cells: Sequence[Cell]) -> Vec:
    """The constant value of h on a coarse block; NotGMeasurable otherwise."""
    values = {tuple(v) for c in cells for _upto, v in h.pieces(c)}
    if len(values) != 1:
        raise NotGMeasurable(f"h is not constant on block {cells[0].g_block}")
    (value,) = values
    return value


def membership(
    F: FiniteIndexedCorrespondence, h: StepFunction, tolerance=Fraction(0)
) -> MembershipResult:
    """Is h a conditional expectation of some selection of F?"""
    space = F.space
    h.validate(space)
    if h.dim != F.dim:
        raise NotGMeasurable("h has the wrong dimension")
    failures: list[BlockCertificate] = []
    for label, cells in space.blocks.items():
        if len(cells) == 1 and cells[0].kind is CellKind.SATURATED:
            defect = _splice_defect(F, cells[0], h)
            if defect != 0:
                failures.append(BlockCertificate(label, "saturated", defect))
            continue
        value = _block_value(space, h, cells)
        region = cached_block_set(F, label)
        d2, nearest = region.distance(value)
        if d2 > _squared(tolerance):
            failures.append(
                BlockCertificate(label, "region", _mass_distance(region, d2), vec_sub(value, nearest))
            )
    first = failures[0] if failures else None
    return MembershipResult(not failures, first, tuple(failures))


def _squared(tolerance) -> Fraction:
    """The squared-distance bound of a tolerance; one <= 0 means exact."""
    return tolerance * tolerance if tolerance > 0 else Fraction(0)


def _mass_distance(region: CondExpBlockSet, d2: Fraction):
    """A block's certificate distance: the Euclidean distance of its squared
    distance ``d2``, weighted by the block mass; exact when rational."""
    root = _sqrt_exact(d2)
    if isinstance(root, Fraction):
        return root * region.block_mass
    return root * float(region.block_mass)


def _sqrt_exact(d2: Fraction):
    """Exact rational square root when it exists, float otherwise."""
    num, den = d2.numerator, d2.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return math.sqrt(num / den)


def _splice_defect(F: FiniteIndexedCorrespondence, cell: Cell, h: StepFunction):
    """Mass-weighted L1 distance from h to the splice values on one cell."""
    total_exact = Fraction(0)
    total_float = 0.0
    exact = True
    for lo, hi, values, hv in F.walk(cell, h.pieces(cell)):
        gaps = [vec_norm2(vec_sub(hv, g)) for g in values]
        best = min(gaps)
        if best == 0:
            continue
        root = _sqrt_exact(best)
        if isinstance(root, Fraction):
            total_exact += (hi - lo) * cell.mass * root
        else:
            exact = False
            total_float += float((hi - lo) * cell.mass) * root
    if exact:
        return total_exact
    return float(total_exact) + total_float


def convexify_witness(
    F: FiniteIndexedCorrespondence, s1: Selection, s2: Selection, alpha: Fraction
):
    """A selection whose conditional expectation blends those of s1 and s2.

    Every block is realized on its own: all-rich blocks (every block of an
    atom-free space) by the proportional split, which always succeeds; other
    blocks when achievable, else an AtomObstruction names the obstructing
    cell, the failing alpha and the defect.  Every witness, on every space, is
    checked against the blended conditional expectation (ArithmeticError if not).
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    s1.validate(F.space.cells, F.branch_count, "s1")
    s2.validate(F.space.cells, F.branch_count, "s2")
    space = F.space
    v1 = selection_value(F, s1)
    v2 = selection_value(F, s2)
    blend = linear_combination(space, [(alpha, v1), (Fraction(1) - alpha, v2)])
    target_fn = space.conditional_expectation(blend)

    assignments: dict[str, object] = {}
    for label, cells in space.blocks.items():
        if len(cells) == 1 and cells[0].kind is CellKind.SATURATED:
            result = _saturated_blend(F, cells[0], blend, alpha)
            if isinstance(result, AtomObstruction):
                return result
            assignments[cells[0].id] = result
        elif all(c.kind is CellKind.RICH for c in cells):
            assignments.update(_proportional_blend(F, s1, s2, alpha, cells))
        else:
            value = _block_value(space, target_fn, cells)
            result = _mixed_block_blend(F, label, cells, value, alpha)
            if isinstance(result, AtomObstruction):
                return result
            assignments.update(result)
    witness = Selection(assignments)
    achieved = space.conditional_expectation(selection_value(F, witness))
    if not functions_equal(space, achieved, target_fn):
        raise ArithmeticError("convexify witness misses the blended conditional expectation")
    return witness


def _proportional_blend(F, s1, s2, alpha, cells) -> dict[str, object]:
    """Cut every constancy piece of the (rich) cells at alpha of its length."""
    assignments: dict[str, object] = {}
    for c in cells:
        pieces: list[tuple[Fraction, int]] = []
        for lo, hi, _values, k1, k2 in F.walk(c, s1.pieces(c), s2.pieces(c)):
            if k1 == k2 or alpha == 1:
                append_piece(pieces, hi, k1)
            elif alpha == 0:
                append_piece(pieces, hi, k2)
            else:
                cut = lo + alpha * (hi - lo)
                append_piece(pieces, cut, k1)
                append_piece(pieces, hi, k2)
        assignments[c.id] = pack_pieces(c, pieces)
    return assignments


def _saturated_blend(F, cell, blend_fn, alpha):
    pieces: list[tuple[Fraction, int]] = []
    for _lo, hi, values, want in F.walk(cell, blend_fn.pieces(cell)):
        match = next((k for k, v in enumerate(values) if v == want), None)
        if match is None:
            return AtomObstruction(
                cell.id,
                alpha,
                "saturated cell: blend is not a pointwise splice",
                _splice_defect(F, cell, blend_fn),
            )
        append_piece(pieces, hi, match)
    return tuple(pieces)


def _branch_mixture(F, rich_pieces, residual: Vec):
    """Per-piece convex branch weights whose weighted sum hits ``residual``.

    ``rich_pieces`` is a list of (cell, lo, hi, branch values); one weight
    vector over the branches comes back per piece, or None when infeasible.
    """
    K = F.branch_count
    cols: list[list[Fraction]] = []
    for cell, lo, hi, values in rich_pieces:
        coeff = (hi - lo) * cell.mass
        for v in values:
            cols.append([coeff * x for x in v])
    nvars = len(cols)
    A = [[cols[j][d] for j in range(nvars)] for d in range(F.dim)]
    for p in range(len(rich_pieces)):
        A.append(
            [Fraction(1) if p * K <= j < (p + 1) * K else Fraction(0) for j in range(nvars)]
        )
    b = list(residual) + [Fraction(1)] * len(rich_pieces)
    w = feasible_combination(A, b)
    if w is None:
        return None
    return [tuple(w[p * K : (p + 1) * K]) for p in range(len(rich_pieces))]


def _mixed_block_blend(F, label, cells, value, alpha):
    """The first point-cell choice, in product order, whose branch mixture
    LP is feasible.  That LP is feasible exactly when the choice's offset is
    at distance 0, so every other choice is skipped without one."""
    point_cells = [c for c in cells if c.kind is CellKind.POINT_MASS]
    region = cached_block_set(F, label)
    (d2, _nearest), at_zero = region._distance(value)
    if d2 > 0:
        return AtomObstruction(
            point_cells[0].id,
            alpha,
            "no point-cell choice makes the blend attainable",
            _mass_distance(region, d2),
        )
    attained = {offset for offset, zero in zip(region.offsets(), at_zero) if zero}
    target = vec_scale(value, region.block_mass)
    rich_cells = [c for c in cells if c.kind is CellKind.RICH]
    rich_pieces = [(c, *piece) for c in rich_cells for piece in F.walk(c)]
    point_values = [values for c in point_cells for _lo, _hi, values in F.walk(c)]
    choice_sets = [range(F.branch_count) for _ in point_cells]
    for choice in itertools.product(*choice_sets):
        offset = zero_vec(F.dim)
        for c, values, k in zip(point_cells, point_values, choice):
            offset = vec_add(offset, vec_scale(values[k], c.mass))
        if offset not in attained:
            continue
        mixture = _branch_mixture(F, rich_pieces, vec_sub(target, offset)) if rich_pieces else []
        if mixture is None:
            continue
        assignments: dict[str, object] = {}
        for c, k in zip(point_cells, choice):
            assignments[c.id] = pack_pieces(c, ((Fraction(1), k),))
        for c in rich_cells:
            mixed = [(hi, w) for (d, _lo, hi, _v), w in zip(rich_pieces, mixture) if d is c]
            assignments[c.id] = pack_pieces(c, split_pieces(mixed, _WHOLE))
        return assignments
    raise ArithmeticError(f"block {label} is at distance 0 but no point-cell choice attains it")


def derandomize_selection(F: FiniteIndexedCorrespondence, m: MixedSelection) -> Selection:
    """Purify a mixed selection by proportional splitting, exactly.

    On rich cells each constancy piece is cut into sub-intervals with lengths
    proportional to the weights (branch order, left to right), preserving the
    piece integral.  Saturated and point cells admit only one-hot weights;
    anything else raises with an obstruction certificate.
    """
    m.validate(F.space.cells, F.branch_count)
    assignments: dict[str, object] = {}
    for c in F.space.cells:
        pieces = m.pieces(c)
        if c.kind is not CellKind.RICH and any(sum(x > 0 for x in w) != 1 for _u, w in pieces):
            raise AtomObstructionError(
                AtomObstruction(c.id, None, f"{c.kind.value} cell carries a non-degenerate mixture")
            )
        spans = [(lo, hi, False) for lo, hi, _values, _w in F.walk(c, pieces)]
        assignments[c.id] = pack_pieces(c, split_pieces(pieces, spans))
    s = Selection(assignments)
    expected = F.space.conditional_expectation(mixed_value(F, m))
    achieved = F.space.conditional_expectation(selection_value(F, s))
    if not functions_equal(F.space, achieved, expected):
        raise ArithmeticError("derandomized selection misses the mixture's conditional expectation")
    return s


def indicator_correspondence(space: MeasureSpaceModel, cell_id: str) -> FiniteIndexedCorrespondence:
    """Binary correspondence: {0, 1} on the named cell, {0} elsewhere."""
    zero = constant_function(space, (Fraction(0),))
    return FiniteIndexedCorrespondence(
        space, (zero, indicator_of_cells(space, [cell_id]))
    )


def dyadic_selection(space: MeasureSpaceModel, cell_id: str, m: int) -> Selection:
    """Alternating level-m dyadic selection of the binary correspondence
    (branch 1 on even sub-intervals of the cell, branch 0 elsewhere)."""
    cell = space.cell(cell_id)
    if not cell.has_inner:
        raise NotSaturated("dyadic selections need an inner coordinate")
    denom = 2**m
    pieces = tuple((Fraction(i + 1, denom), 1 - i % 2) for i in range(denom))
    assignments: dict[str, object] = {}
    for c in space.cells:
        if c.id == cell_id:
            assignments[c.id] = pieces
        else:
            assignments[c.id] = pack_pieces(c, ((Fraction(1), 0),))
    return Selection(assignments)


def _alternating_integral(m: int, t: Fraction) -> Fraction:
    """Integral over [0, t) of the level-m alternating selection on the unit
    interval (1 on the even ones of its 2^m dyadic pieces), in closed form:
    the k whole pieces below t hold (k + 1) // 2 ones, and piece k adds its
    covered part when k is even."""
    n = 2**m
    k, rest = divmod(t.numerator * n, t.denominator)
    partial = rest if k % 2 == 0 else 0
    return Fraction((k + 1) // 2 * t.denominator + partial, t.denominator * n)


def _dyadic_level(h: StepFunction, cell: Cell) -> int | None:
    level = 0
    for upto, _value in h.pieces(cell):
        den = Fraction(upto).denominator
        if den & (den - 1):
            return None
        level = max(level, den.bit_length() - 1)
    return level


@dataclass(frozen=True)
class RademacherTestEntry:
    level: int | None
    lhs: Fraction
    rhs: Fraction
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "holds", self.lhs == self.rhs)


@dataclass(frozen=True)
class RademacherReport:
    cell: str
    m: int
    integral: Fraction
    expected_integral: Fraction
    tests: tuple[RademacherTestEntry, ...] = field(default_factory=tuple)


def rademacher_escape(
    space: MeasureSpaceModel,
    cell_id: str,
    m: int,
    tests: Sequence[StepFunction] = (),
) -> RademacherReport:
    """The report of the level-m alternating escape selection on a saturated
    cell (``dyadic_selection`` builds the selection itself).

    Against any test function constant on coarser dyadic pieces of the cell,
    the selection integrates to exactly half of the cell-restricted integral,
    which is the finite-model form of the weak-limit computation.

    The report reads the selection in closed form, through
    ``_alternating_integral``: the integral at 1, and each test's left side
    at the test's own breakpoints (one ``Fraction`` per breakpoint, whatever
    m).  The right sides come from ``inner_products``, which also checks
    every test.
    """
    cell = space.cell(cell_id)
    if cell.kind is not CellKind.SATURATED:
        raise NotSaturated(f"cell {cell_id} is not saturated")
    ind = indicator_of_cells(space, [cell_id])
    rhs = [HALF * r for r in space.inner_products(ind, tests)]
    entries = []
    # the selection vanishes off the cell: a left side is the cell mass
    # times the test's integral against the selection on the cell
    for psi, right in zip(tests, rhs):
        left = before = Fraction(0)
        for upto, (v,) in psi.pieces(cell):
            after = _alternating_integral(m, upto)
            left += v * (after - before)
            before = after
        entries.append(RademacherTestEntry(_dyadic_level(psi, cell), cell.mass * left, right))
    return RademacherReport(
        cell=cell_id,
        m=m,
        integral=cell.mass * _alternating_integral(m, Fraction(1)),
        expected_integral=HALF * cell.mass,
        tests=tuple(entries),
    )


def limit_escape_certificate(space: MeasureSpaceModel, cell_id: str) -> Fraction:
    """L1 distance from half-the-indicator to the splice values: mass/2 > 0."""
    cell = space.cell(cell_id)
    if cell.kind is not CellKind.SATURATED:
        raise NotSaturated(f"cell {cell_id} is not saturated")
    F = indicator_correspondence(space, cell_id)
    half = linear_combination(space, [(HALF, indicator_of_cells(space, [cell_id]))])
    total = Fraction(0)
    for c in space.cells:
        defect = _splice_defect(F, c, half)
        if not isinstance(defect, Fraction):
            raise ArithmeticError(f"escape certificate is not exact on cell {c.id}: {defect!r}")
        total += defect
    return total


@dataclass(frozen=True)
class UhcAuditReport:
    cell: str
    cell_kind: str
    depth: int
    limit_in_H0: bool
    defect: Fraction
    averages_constant: bool
    identities_ok: bool


def uhc_audit(space: MeasureSpaceModel, cell_id: str, depth: int = 8) -> UhcAuditReport:
    """Audit whether the escape-sequence limit stays attainable.

    The family indexed by 1/m consists of the alternating selections; their
    conditional expectations settle on half the conditioned indicator.  The
    limit is attainable exactly when the designated cell is rich, and the
    defect on a saturated cell equals half its mass.

    Each level m is read in closed form through ``_alternating_integral``,
    not from a selection of 2^m ``Fraction`` pieces: on a rich cell the
    block average (against the limit's conditional expectation), on a
    saturated cell the canonical identities on the dyadic intervals of
    levels 0..min(3, m - 1), from the integrals at their ends.
    """
    cell = space.cell(cell_id)
    if not cell.has_inner:
        raise NotSaturated("audit requires a cell with an inner coordinate")
    F0 = indicator_correspondence(space, cell_id)
    limit = linear_combination(space, [(HALF, indicator_of_cells(space, [cell_id]))])
    limit_g = space.conditional_expectation(limit)
    ((_upto, (target,)),) = limit_g.pieces(cell)
    share = cell.mass / space.block_mass(cell.g_block)

    averages_constant = True
    identities_ok = True
    for m in range(1, depth + 1):
        if cell.kind is CellKind.RICH:
            # the selection vanishes off the cell: its block average is the
            # cell's share of the block times the cell average
            if share * _alternating_integral(m, Fraction(1)) != target:
                averages_constant = False
        else:
            # the canonical identities at levels 0..L = min(3, m - 1): the
            # selection integrates to 1 / 2^(l + 1) on each level-l dyadic
            # interval, whose ends are among level L's
            L = min(3, m - 1)
            ends = [_alternating_integral(m, Fraction(j, 2**L)) for j in range(2**L + 1)]
            for level in range(L + 1):
                level_ends = ends[:: 2 ** (L - level)]
                half = Fraction(1, 2 ** (level + 1))
                if any(b - a != half for a, b in zip(level_ends, level_ends[1:])):
                    identities_ok = False

    result = membership(F0, limit_g)
    if result.member:
        defect = Fraction(0)
    else:
        defect = limit_escape_certificate(space, cell_id)
    return UhcAuditReport(
        cell=cell_id,
        cell_kind=cell.kind.value,
        depth=depth,
        limit_in_H0=result.member,
        defect=defect,
        averages_constant=averages_constant,
        identities_ok=identities_ok,
    )


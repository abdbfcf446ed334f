"""Shared fixture builders for the test suite."""

from fractions import Fraction

from condexp.correspondences import FiniteIndexedCorrespondence
from condexp.measure import Cell, CellKind, MeasureSpaceModel, StepFunction

F = Fraction


def rich_cell(cid="c", mass=F(1), block=None):
    return Cell(cid, F(mass), CellKind.RICH, block or cid)

def saturated_cell(cid="D", mass=F(1)):
    return Cell(cid, F(mass), CellKind.SATURATED, cid)

def point_cell(cid="p", mass=F(1), block=None):
    return Cell(cid, F(mass), CellKind.POINT_MASS, block or cid)

def space(*cells):
    return MeasureSpaceModel(tuple(cells))

def unit_rich_space(cid="c"):
    return space(rich_cell(cid))


def step(space_, per_cell, dim=1):
    """per_cell: cell_id -> scalar | vector | [(upto, scalar|vector), ...]."""
    values = {}
    for c in space_.cells:
        entry = per_cell[c.id]
        if c.has_inner:
            if not isinstance(entry, list):
                entry = [(F(1), entry)]
            values[c.id] = tuple((F(u), _vec(v, dim)) for u, v in entry)
        else:
            values[c.id] = _vec(entry, dim)
    return StepFunction(dim, values)


def _vec(v, dim):
    if isinstance(v, (int, Fraction, str)):
        v = (v,)
    out = tuple(F(x) for x in v)
    assert len(out) == dim
    return out


def constant_branches(space_, consts, dim=1):
    return FiniteIndexedCorrespondence(
        space_,
        tuple(step(space_, {c.id: k for c in space_.cells}, dim) for k in consts),
    )


def binary_F(space_):
    """The {0, 1} correspondence on the whole space."""
    return constant_branches(space_, [0, 1])


# -- reference lookups ----------------------------------------------------------
#
# Test-only oracles for piece lists: the union of the breakpoints cut into
# spans, and each span's payload found by a linear scan from the left.  The
# library walks piece lists only with ``piecewise.merged_pieces``, so oracles
# built on these share no code with the path under test.


def common_refinement(*upto_lists):
    """Merge several increasing breakpoint lists into one sorted list."""
    points = set()
    for uptos in upto_lists:
        points.update(uptos)
    return sorted(points)


def piece_bounds(uptos, start=F(0)):
    """Consecutive (lo, hi) spans of increasing breakpoints."""
    bounds = []
    lo = start
    for hi in uptos:
        if hi <= lo:
            raise ValueError("breakpoints must be strictly increasing")
        bounds.append((lo, hi))
        lo = hi
    return bounds


def piece_payload(pieces, t):
    """Payload of the piece covering point ``t`` in a [(upto, payload)] list."""
    for upto, payload in pieces:
        if t < upto:
            return payload
    return pieces[-1][1]


def breakpoints(plan, cell):
    return [upto for upto, _ in plan.pieces(cell)]


def payload_at(plan, cell, t):
    """A plan's payload at ``t`` on a cell, vectors and weights as tuples."""
    payload = piece_payload(plan.pieces(cell), t)
    return tuple(payload) if isinstance(payload, (tuple, list)) else payload


def refinement_on(Fc, cell, *extra_breakpoints):
    """Spans of the cell on which every branch (and the extras) is constant."""
    lists = [breakpoints(g, cell) for g in Fc.branches]
    return piece_bounds(common_refinement(*lists, *extra_breakpoints))


def branch_values(Fc, cell, t):
    return [payload_at(g, cell, t) for g in Fc.branches]

"""Exact polytope primitives over rational arithmetic.

Polytopes are carried as finite generating sets or, for Minkowski sums,
through a linear-minimization oracle.  Nearest points come from Wolfe's
min-norm-point algorithm, which needs only the oracle and is exact and
finite in any dimension; a zero distance decides membership.  Wolfe runs on
integer points, which its callers put over one common denominator (one per
block set for the Minkowski sums), with exact ``Fraction`` weights from an
integer Gram solve; values become ``Fraction`` only when returned.  Hull
vertices in dimensions 1 to 3 come from one gift wrapping on integer
coordinates, with no linear program.  A small exact simplex solver (Bland's
rule, so it terminates) serves the callers' own programs only: the convexify
witnesses, the support polish and the zero-sum solver.  Its tableau rows are
built as integers once, each over one denominator, and it reads its answer
as ``Fraction`` at the end.  The simplex and Wolfe's Gram solve share one
fraction-free pivot, ``_pivot``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .errors import InfeasibleProgram, UnboundedProgram, UnsupportedDimension
from .rationals import Vec, over_one_denominator, vec_dot

ZERO = Fraction(0)
ONE = Fraction(1)
IntVec = tuple[int, ...]


def simplex_min(cost: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """Minimize cost.x over {x >= 0 : A x = b}, exactly.

    Returns (value, x).  Raises InfeasibleProgram / UnboundedProgram.  It
    serves the convexify witnesses (``attainable._branch_mixture``), the
    support polish and the zero-sum solver; no hull runs it.

    Two-phase simplex with Bland's rule on a fraction-free tableau: each row
    is a list of ints over one positive denominator (columns: n structural,
    m artificial, then the right-hand side), and a pivot touches only the
    rows with a nonzero entry in its column.  Every decision reads only the
    sign of an exact quantity, so the pivots, the value and x are those of
    the same tableau kept over ``Fraction``.
    """
    m = len(A)
    n = len(cost)
    rows, dens = [], []
    for i in range(m):
        den, (row,) = over_one_denominator([[*A[i], b[i]]])
        if row[-1] < 0:
            row = [-v for v in row]
        row[n:n] = [den if k == i else 0 for k in range(m)]
        row, den = _reduced(row, den)
        rows.append(row)
        dens.append(den)
    basis = list(range(n, n + m))
    _run(rows, dens, basis, [ZERO] * n + [ONE] * m)
    phase1 = sum((Fraction(rows[i][-1], dens[i]) for i in range(m) if basis[i] >= n), ZERO)
    if phase1 > 0:
        raise InfeasibleProgram("no feasible point")
    # drive leftover artificial variables out of the basis
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if rows[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(rows, dens, basis, i, pivot_col)
    # artificial columns never enter again: keep the structural ones and b
    rows = [row[:n] + row[-1:] for row in rows]
    _run(rows, dens, basis, [Fraction(c) for c in cost])
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rows[i][-1], dens[i])
    value = sum(cost[j] * x[j] for j in range(n))
    return value, tuple(x)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _run(rows: list[list[int]], dens: list[int], basis: list[int], costvec: list[Fraction]) -> None:
    """Pivot by Bland's rule until no nonbasic column of ``costvec`` has a
    negative reduced cost (a basic artificial column past ``costvec`` costs
    nothing).  A reduced cost sums only over the rows whose basic cost is
    nonzero."""
    width = len(costvec)
    m = len(basis)
    while True:
        live = [(costvec[col], i) for i, col in enumerate(basis) if col < width and costvec[col]]
        basic = set(basis)
        entering = -1
        for j in range(width):
            if j not in basic and costvec[j] < sum(
                (c * Fraction(rows[i][j], dens[i]) for c, i in live), ZERO
            ):
                entering = j
                break
        if entering < 0:
            return
        # the least ratio rhs / entry over the rows with a positive entry
        # leaves, the lowest basis index on a tie; a row's denominator
        # cancels in its ratio, so ratios compare as cross products
        leaving = -1
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                rhs = rows[i][-1]
                if leaving < 0:
                    leaving, best_rhs, best_a = i, rhs, a
                    continue
                lhs, rhs_best = rhs * best_a, best_rhs * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, rhs, a
        if leaving < 0:
            raise UnboundedProgram("linear program is unbounded")
        _pivot(rows, dens, basis, leaving, entering)


def _pivot(rows: list[list[int]], dens: list[int], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col): with p the pivot entry, every other row with a
    nonzero entry q in the column becomes p * row_i - q * row over
    p * den_i, and the pivot row goes over p (both negated if p < 0)."""
    prow = rows[row]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    for i, other in enumerate(rows):
        q = other[col]
        if i != row and q != 0:
            rows[i], dens[i] = _reduced([p * v - q * w for v, w in zip(other, prow)], p * dens[i])
    rows[row], dens[row] = _reduced(prow, p)
    basis[row] = col


def feasible_combination(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """A nonnegative solution of A x = b, or None."""
    n = len(A[0]) if A else 0
    try:
        _, x = simplex_min([ZERO] * n, A, b)
    except InfeasibleProgram:
        return None
    return x


def dedupe_points(points: Sequence[Vec]) -> list[Vec]:
    return sorted(set(tuple(p) for p in points))


def extreme_points(points: Sequence[Vec]) -> list[Vec]:
    """Vertices of the convex hull of a finite point set, sorted.

    One path for dimensions 1 to 3: gift wrapping (Chand and Kapur 1970) on
    integer coordinates over one common denominator, with no linear program;
    points of dimension 1 or 2 get zero coordinates, and the wrap takes them
    as a collinear or coplanar set.  Points in the relative interior of an
    edge or a face are not vertices and are dropped.  Higher dimensions
    raise ``UnsupportedDimension``.
    """
    pts = dedupe_points(points)
    if not pts:
        return pts
    lift = 3 - len(pts[0])
    if lift < 0:
        raise UnsupportedDimension("vertex enumeration needs dimension <= 3")
    _den, ints = over_one_denominator(p + (ZERO,) * lift for p in pts)
    return [pts[i] for i in sorted(_wrap(ints))]


def _half_hull(pts) -> list[Vec]:
    """One monotone chain over lexicographically ordered planar points,
    without its last point; a non-left turn (cross <= 0) pops.  Only the
    first two coordinates of a point are read."""
    chain: list[Vec] = []
    for p in pts:
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain[:-1]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _wrap(P: list[tuple[int, int, int]]) -> set[int]:
    """Indices of the hull vertices of distinct, lexicographically sorted
    integer points in space.

    A collinear set gives its two ends and a coplanar set one polygon.
    Otherwise the wrap starts from a facet through the lexicographic minimum
    and turns each facet about each edge of its polygon onto the neighbouring
    facet (``_turn``); a facet's polygon is taken over its whole coplanar
    contact set, so points inside a face or on an edge are not vertices.
    """
    o = P[0]
    if _collinear(P):
        return {0, len(P) - 1}
    normal = next(n for n in (_cross(_sub(P[1], o), _sub(p, o)) for p in P[2:]) if any(n))
    if not any(_dot(normal, _sub(p, o)) for p in P[3:]):
        return set(_polygon(P, range(len(P)), normal))
    # the plane x = o[0] supports the set; while its contact is collinear,
    # turn it about the contact's line (a line through o in it at first)
    normal, contact = (-1, 0, 0), [i for i, p in enumerate(P) if p[0] == o[0]]
    while _collinear([P[i] for i in contact]):
        normal, contact = _turn(P, o, _sub(P[contact[-1]], o) if len(contact) > 1 else (0, 1, 0))
    vertices: set[int] = set()
    facets: set[tuple[int, int, int]] = set()
    edges: set[tuple[int, int]] = set()
    todo = [(normal, contact)]
    while todo:
        normal, contact = todo.pop()
        g = gcd(*normal)
        key = (normal[0] // g, normal[1] // g, normal[2] // g)
        if key in facets:
            continue
        facets.add(key)
        ring = _polygon(P, contact, normal)
        vertices.update(ring)
        for j, ia in enumerate(ring):
            ib, ic = ring[(j + 1) % len(ring)], ring[(j + 2) % len(ring)]
            if (min(ia, ib), max(ia, ib)) in edges:
                continue
            edges.add((min(ia, ib), max(ia, ib)))
            # orient the edge so that normal x axis points into the facet
            axis = _sub(P[ib], P[ia])
            if _dot(_cross(normal, axis), _sub(P[ic], P[ia])) < 0:
                axis = (-axis[0], -axis[1], -axis[2])
            todo.append(_turn(P, P[ia], axis))
    return vertices


def _collinear(points) -> bool:
    o = points[0]
    return not any(any(_cross(_sub(points[1], o), _sub(p, o))) for p in points[2:])


def _turn(P, a, axis) -> tuple[tuple[int, int, int], list[int]]:
    """Turn a supporting plane about the line a + t * axis that it contains,
    onto the next points; returns the new plane's outward normal and
    contact (indices, ascending).

    The points of the old plane off the line lie on the side of
    ``old normal x axis``.  The candidate plane through the line and a point
    w has the outward normal (w - a) x axis, and a point on its outer side
    turns it further, so one pass of triple products ends on the supporting
    plane.
    """
    normal = None
    for p in P:
        w = _sub(p, a)
        if normal is None or _dot(normal, w) > 0:
            n = _cross(w, axis)
            if any(n):
                normal = n
    return normal, [i for i, p in enumerate(P) if _dot(normal, _sub(p, a)) == 0]


def _polygon(P, idx, normal) -> list[int]:
    """The vertices, in cyclic order, of the convex polygon spanned by the
    coplanar points ``P[i]``, i in idx, whose plane has the given normal: the
    monotone chain on the two coordinates that the plane projects onto one
    to one."""
    k = next(d for d in range(3) if normal[d])
    u, v = [d for d in range(3) if d != k]
    flat = sorted((P[i][u], P[i][v], i) for i in idx)
    return [i for _x, _y, i in _half_hull(flat) + _half_hull(reversed(flat))]


def support_value(points: Sequence[Vec], direction: Vec) -> Fraction:
    return max(vec_dot(p, direction) for p in points)


def _solve_linear(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a nonsingular square integer system with ``_pivot``: column c
    pivots on the first unpivoted row with a nonzero entry there, and each
    unknown is read as its row's right-hand side over the row's
    denominator."""
    n = len(matrix)
    rows, dens, basis = [[*row, r] for row, r in zip(matrix, rhs)], [1] * n, [-1] * n
    for c in range(n):
        row = next(r for r in range(n) if basis[r] < 0 and rows[r][c] != 0)
        _pivot(rows, dens, basis, row, c)
    return [Fraction(rows[r][-1], dens[r]) for r in sorted(range(n), key=basis.__getitem__)]


def _idot(u: IntVec, v: IntVec) -> int:
    return sum(map(mul, u, v))


def _affine_minimizer(corral: list[IntVec]) -> list[Fraction]:
    """Weights, summing to 1, of the least-norm point of aff(corral).

    Writing the point as s0 + sum c_i (s_i - s0), the c_i solve the Gram
    system of the differences, integer for an integer corral; it is
    nonsingular because a corral is affinely independent.
    """
    base = corral[0]
    dirs = [tuple(a - b for a, b in zip(p, base)) for p in corral[1:]]
    gram = [[_idot(u, v) for v in dirs] for u in dirs]
    coeffs = _solve_linear(gram, [-_idot(u, base) for u in dirs])
    return [ONE - sum(coeffs, ZERO)] + coeffs


def _combine(corral: list[IntVec], weights: list[Fraction]) -> tuple[IntVec, int]:
    """The point sum w_i s_i as (Y, q) with y = Y / q: q the weights' least
    common denominator and Y an integer vector."""
    q = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (q // w.denominator) for w in weights]
    return tuple(_idot(scaled, coords) for coords in zip(*corral)), q


def min_norm_point(oracle: Callable[[IntVec], IntVec], start: IntVec) -> tuple[IntVec, int]:
    """The least-norm point of an integer polytope, exactly (Wolfe 1976).

    ``oracle(c)`` returns a vertex (an integer tuple) of the polytope
    minimizing ``c . p``, and ``start`` is any of its vertices.  The iterate
    y is always the least-norm point of the affine hull of its corral, an
    affinely independent vertex set carrying it with positive weights; y is
    optimal once no vertex p has y.p < y.y.  Each major cycle strictly lowers
    |y| and no corral repeats, so the loop is finite in any dimension.

    The weights are exact ``Fraction``s from the integer Gram solve; the
    iterate is kept as (Y, q) with y = Y / q, so the optimality test is
    Y.Y - q (Y.p) <= 0 on integers and the oracle is handed Y, a positive
    multiple of y.  Returns (Y, q) for the least-norm point.
    """
    corral = [tuple(start)]
    weights = [ONE]
    Y, q = corral[0], 1
    while True:
        p = oracle(Y)
        if _idot(Y, Y) - q * _idot(Y, p) <= 0:
            return Y, q
        corral.append(tuple(p))
        weights.append(ZERO)
        while True:
            alpha = _affine_minimizer(corral)
            if all(a > 0 for a in alpha):
                weights = alpha
                break
            # step from the weights toward alpha until a weight hits zero,
            # then drop the vertices whose weight did
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            mixed = [(ONE - theta) * w + theta * a for w, a in zip(weights, alpha)]
            kept = [i for i, w in enumerate(mixed) if w > 0]
            corral = [corral[i] for i in kept]
            weights = [mixed[i] for i in kept]
        Y, q = _combine(corral, weights)


def nearest_point_in_hull(x: Vec, points: Sequence[Vec]) -> tuple[Fraction, Vec]:
    """Squared distance and nearest point of conv(points) from x, exact.

    Wolfe's min-norm point of conv(points) - x on integers: x and the points
    are put over one common denominator D once, the explicit shifted points
    are the oracle (ties to the smallest point, which a positive scale keeps)
    and the answer is read back over D as ``Fraction``s; any dimension.
    """
    if not points:
        raise ValueError("empty point set")
    D, (X, *rows) = over_one_denominator([x, *points])
    shifted = [tuple(a - b for a, b in zip(row, X, strict=True)) for row in rows]

    def oracle(c: IntVec) -> IntVec:
        return min(shifted, key=lambda s: (_idot(c, s), s))

    Y, q = min_norm_point(oracle, shifted[0])
    scale = q * D
    nearest = tuple(v + Fraction(w, scale) for v, w in zip(x, Y))
    return Fraction(_idot(Y, Y), scale * scale), nearest

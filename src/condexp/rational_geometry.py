"""Exact polytope primitives over rational arithmetic.

Polytopes are carried as finite vertex sets or, for Minkowski sums, through
a linear-minimization oracle.  Nearest points come from Wolfe's
min-norm-point algorithm, which needs only the oracle and is exact and
finite in any dimension; a zero distance decides membership.  The
dimension-3 extreme-point filter and the callers' linear programs run
through a small exact simplex solver (Bland's rule, so it terminates);
planar hulls come from Andrew's monotone chain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import InfeasibleProgram, UnboundedProgram
from .rationals import Vec, vec_add, vec_dot, vec_norm2, vec_sub

ZERO = Fraction(0)
ONE = Fraction(1)


def simplex_min(cost: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """Minimize cost.x over {x >= 0 : A x = b}, exactly.

    Returns (value, x).  Raises InfeasibleProgram / UnboundedProgram.
    """
    m = len(A)
    n = len(cost)
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # columns: 0..n-1 structural, n..n+m-1 artificial
    tableau = [rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = list(range(n, n + m))

    def run(costvec: list[Fraction], allowed: set[int]) -> None:
        while True:
            basic_cost = [costvec[basis[i]] for i in range(m)]
            entering = -1
            for j in sorted(allowed):
                if j in basis:
                    continue
                reduced = costvec[j] - sum(basic_cost[i] * tableau[i][j] for i in range(m))
                if reduced < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving = -1
            best = None
            for i in range(m):
                coeff = tableau[i][entering]
                if coeff > 0:
                    ratio = tableau[i][-1] / coeff
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                raise UnboundedProgram("linear program is unbounded")
            _pivot(tableau, basis, leaving, entering)

    art_cost = [ZERO] * n + [ONE] * m
    run(art_cost, set(range(n + m)))
    phase1 = sum(art_cost[basis[i]] * tableau[i][-1] for i in range(m))
    if phase1 > 0:
        raise InfeasibleProgram("no feasible point")
    # drive leftover artificial variables out of the basis
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(tableau, basis, i, pivot_col)
    real_cost = list(cost) + [ZERO] * m
    run(real_cost, set(range(n)))
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    value = sum(cost[j] * x[j] for j in range(n))
    return value, tuple(x)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            factor = other[col]
            tableau[i] = [v - factor * w for v, w in zip(other, tableau[row])]
    basis[row] = col


def feasible_combination(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """A nonnegative solution of A x = b, or None."""
    n = len(A[0]) if A else 0
    try:
        _, x = simplex_min([ZERO] * n, A, b)
    except InfeasibleProgram:
        return None
    return x


def in_hull(x: Vec, points: Sequence[Vec]) -> bool:
    """Exact test: is x a convex combination of the points?"""
    if not points:
        return False
    dim = len(x)
    A = [[p[d] for p in points] for d in range(dim)]
    A.append([ONE] * len(points))
    b = list(x) + [ONE]
    return feasible_combination(A, b) is not None


def dedupe_points(points: Sequence[Vec]) -> list[Vec]:
    return sorted(set(tuple(p) for p in points))


def extreme_points(points: Sequence[Vec]) -> list[Vec]:
    """Vertices of the convex hull of a finite point set, sorted.

    Dimension 2 uses Andrew's monotone chain; dimension 3 drops every point
    lying in the hull of the others (one exact LP each).  Points in the
    relative interior of an edge are not vertices and are dropped.
    """
    pts = dedupe_points(points)
    if len(pts) <= 1:
        return pts
    dim = len(pts[0])
    if dim == 1:
        return sorted({min(pts), max(pts)})
    if dim == 2:
        return sorted(_half_hull(pts) + _half_hull(reversed(pts)))
    keep = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not in_hull(p, others):
            keep.append(p)
    return keep


def _half_hull(pts) -> list[Vec]:
    """One monotone chain over lexicographically ordered planar points,
    without its last point; a non-left turn (cross <= 0) pops."""
    chain: list[Vec] = []
    for p in pts:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain[:-1]


def support_value(points: Sequence[Vec], direction: Vec) -> Fraction:
    return max(vec_dot(p, direction) for p in points)


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination on a nonsingular square system."""
    n = len(matrix)
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


def _affine_minimizer(corral: list[Vec]) -> list[Fraction]:
    """Weights, summing to 1, of the least-norm point of aff(corral).

    Writing the point as s0 + sum c_i (s_i - s0), the c_i solve the Gram
    system of the differences; it is nonsingular because a corral is affinely
    independent.
    """
    base = corral[0]
    dirs = [vec_sub(p, base) for p in corral[1:]]
    gram = [[vec_dot(u, v) for v in dirs] for u in dirs]
    coeffs = _solve_linear(gram, [-vec_dot(u, base) for u in dirs])
    return [ONE - sum(coeffs, ZERO)] + coeffs


def _combine(corral: list[Vec], weights: list[Fraction]) -> Vec:
    return tuple(
        sum((w * p[d] for w, p in zip(weights, corral)), ZERO) for d in range(len(corral[0]))
    )


def min_norm_point(oracle: Callable[[Vec], Vec], start: Vec) -> Vec:
    """The least-norm point of a polytope, exactly (Wolfe 1976).

    ``oracle(c)`` returns a vertex of the polytope minimizing ``c . p``, and
    ``start`` is any of its vertices.  The iterate y is always the least-norm
    point of the affine hull of its corral, an affinely independent vertex
    set carrying it with positive weights; y is optimal once no vertex p has
    y.p < y.y.  Each major cycle strictly lowers |y| and no corral repeats, so
    over rationals the loop is finite in any dimension.
    """
    corral = [tuple(start)]
    weights = [ONE]
    y = corral[0]
    while True:
        p = oracle(y)
        if vec_dot(y, y) - vec_dot(y, p) <= 0:
            return y
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
        y = _combine(corral, weights)


def nearest_point_in_hull(x: Vec, points: Sequence[Vec]) -> tuple[Fraction, Vec]:
    """Squared distance and nearest point of conv(points) from x, exact.

    Wolfe's min-norm point of conv(points) - x, with the explicit points as
    the oracle (ties to the smallest point); any dimension.
    """
    shifted = [vec_sub(p, x) for p in points]
    if not shifted:
        raise ValueError("empty point set")

    def oracle(c: Vec) -> Vec:
        return min(shifted, key=lambda q: (vec_dot(c, q), q))

    y = min_norm_point(oracle, shifted[0])
    return vec_norm2(y), vec_add(x, y)

"""Exact polytope primitives over rational arithmetic.

Polytopes are carried as finite vertex sets.  Membership and extreme-point
filtering run through a small exact simplex solver (Bland's rule, so it
terminates), and nearest-point queries enumerate candidate faces, which is
plenty at desk scale where vertex counts stay small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import InfeasibleProgram, UnboundedProgram, UnsupportedDimension
from .rationals import Vec, vec_dot, vec_norm2, vec_sub

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
    """Vertices of the convex hull of a finite point set, sorted."""
    pts = dedupe_points(points)
    if len(pts) <= 1:
        return pts
    dim = len(pts[0])
    if dim == 1:
        return sorted({min(pts), max(pts)})
    keep = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not in_hull(p, others):
            keep.append(p)
    return keep


def support_value(points: Sequence[Vec], direction: Vec) -> Fraction:
    return max(vec_dot(p, direction) for p in points)


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination; returns solution or None when singular."""
    n = len(matrix)
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


def nearest_point_in_hull(x: Vec, points: Sequence[Vec]) -> tuple[Fraction, Vec]:
    """Squared distance and nearest point of conv(points) from x, exact.

    The nearest point lies in the convex hull of at most dim+1 vertices and is
    the orthogonal projection of x onto their affine span, so enumerating
    small vertex subsets finds it.  Intended for dimension <= 3.
    """
    pts = extreme_points(points)
    if not pts:
        raise ValueError("empty point set")
    dim = len(x)
    if dim > 3:
        raise UnsupportedDimension("nearest-point queries need dimension <= 3")
    if in_hull(x, pts):
        return ZERO, tuple(x)
    best: tuple[Fraction, Vec] | None = None
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in itertools.combinations(pts, size):
            cand = _project_on_simplex(x, subset)
            if cand is None:
                continue
            d2 = vec_norm2(vec_sub(x, cand))
            if best is None or d2 < best[0] or (d2 == best[0] and cand < best[1]):
                best = (d2, cand)
    assert best is not None
    return best


def _project_on_simplex(x: Vec, subset: Sequence[Vec]):
    """Project x onto aff(subset); return the point if it lands in conv(subset)."""
    base = subset[0]
    if len(subset) == 1:
        return tuple(base)
    dirs = [vec_sub(p, base) for p in subset[1:]]
    gram = [[vec_dot(u, v) for v in dirs] for u in dirs]
    rhs = [vec_dot(u, vec_sub(x, base)) for u in dirs]
    coeffs = _solve_linear(gram, rhs)
    if coeffs is None:
        return None
    if any(c < 0 for c in coeffs) or sum(coeffs) > 1:
        return None
    point = list(base)
    for c, u in zip(coeffs, dirs):
        for d in range(len(point)):
            point[d] += c * u[d]
    return tuple(point)

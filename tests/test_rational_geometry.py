import itertools
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condexp.errors import InfeasibleProgram, UnboundedProgram, UnsupportedDimension
from condexp.rational_geometry import (
    extreme_points,
    feasible_combination,
    nearest_point_in_hull,
    simplex_min,
    support_value,
)
from condexp.rationals import vec_dot, vec_sub

from helpers import (
    in_hull,
    one_positive_scale,
    recording_min_norm_point,
    reference_extreme_points,
    reference_nearest_point_in_hull,
    reference_simplex_min,
)

F = Fraction


def V(*coords):
    return tuple(F(c) for c in coords)


class TestSimplex:
    def test_basic_min(self):
        # min x + y s.t. x + 2y = 4, x,y >= 0 -> y = 2
        value, x = simplex_min([F(1), F(1)], [[F(1), F(2)]], [F(4)])
        assert value == 2
        assert x == (F(0), F(2))

    def test_infeasible(self):
        with pytest.raises(InfeasibleProgram):
            simplex_min([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])

    def test_unbounded(self):
        # min -x s.t. x - y = 0
        with pytest.raises(UnboundedProgram):
            simplex_min([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])

    def test_degenerate_terminates(self):
        value, _ = simplex_min(
            [F(-1), F(-1), F(0), F(0)],
            [[F(1), F(0), F(1), F(0)], [F(0), F(1), F(0), F(1)], [F(1), F(1), F(0), F(0)]],
            [F(1), F(1), F(1)],
        )
        assert value == -1

    def test_random_feasibility_agrees_with_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            pts = [V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            x = V(rng.randint(-3, 3), rng.randint(-3, 3))
            got = in_hull(x, pts)
            # brute force on a fine mixture grid plus vertex checks
            expected = _brute_in_hull(x, pts)
            if expected:
                assert got
            # LP may certify membership the grid misses; only the positive
            # direction of the grid oracle is sound.


entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def linear_programs(draw):
    """(cost, A, b) with integer and rational entries of either sign, plus
    rescaled copies of earlier rows (redundant equations); half the costs
    are zero, as in ``feasible_combination``, where x is the one the pivot
    path ends on."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    A = [[draw(entries) for _ in range(n)] for _ in range(m)]
    b = [draw(entries) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(A) - 1))
        s = draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2)]))
        A.append([s * v for v in A[k]])
        b.append(s * b[k])
    cost = [F(0)] * n if draw(st.booleans()) else [draw(entries) for _ in range(n)]
    return cost, A, b


def _outcome(solver, lp):
    try:
        return solver(*lp)
    except (InfeasibleProgram, UnboundedProgram) as exc:
        return type(exc)


class TestSimplexAgainstFractionTableau:
    """The integer-row simplex walks the Fraction tableau's Bland path."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(linear_programs())
    # negative right-hand side
    @example(([F(1), F(1)], [[F(-1), F(-2)]], [F(-4)]))
    # a redundant row: its artificial stays basic at zero with no nonzero entry
    @example(([F(1), F(2)], [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]))
    # a zero-level artificial driven out on a negative pivot entry
    @example(([F(1), F(1)], [[F(1), F(1)], [F(1), F(-1)]], [F(0), F(0)]))
    # degenerate ratio ties; in the first, the lowest-basis-index rule
    # decides which vertex x ends on
    @example((
        [F(0)] * 4,
        [[F(-2), F(0), F(-1), F(2)], [F(2), F(-1), F(0), F(0)], [F(2), F(0), F(2), F(-1)]],
        [F(2), F(1), F(1)],
    ))
    @example((
        [F(-1), F(-1), F(0), F(0)],
        [[F(1), F(0), F(1), F(0)], [F(0), F(1), F(0), F(1)], [F(1), F(1), F(0), F(0)]],
        [F(1), F(1), F(1)],
    ))
    # infeasible and unbounded
    @example(([F(1)], [[F(1)], [F(1)]], [F(1), F(2)]))
    @example(([F(-1), F(0)], [[F(1), F(-1)]], [F(0)]))
    def test_same_value_point_and_exception(self, lp):
        got = _outcome(simplex_min, lp)
        want = _outcome(reference_simplex_min, lp)
        assert got == want
        if isinstance(want, tuple):
            assert type(got[0]) is type(want[0])
            assert all(type(v) is Fraction for v in got[1])


def _brute_in_hull(x, pts, steps=8):
    from itertools import product

    n = len(pts)
    for combo in product(range(steps + 1), repeat=n - 1):
        if sum(combo) > steps:
            continue
        w = [F(c, steps) for c in combo]
        w.append(1 - sum(w))
        point = tuple(
            sum(w[i] * pts[i][d] for i in range(n)) for d in range(len(x))
        )
        if point == x:
            return True
    return False


class TestHulls:
    def test_extreme_points_1d(self):
        assert extreme_points([V(1), V(3), V(2)]) == [V(1), V(3)]

    def test_extreme_points_square_with_center(self):
        pts = [V(0, 0), V(1, 0), V(0, 1), V(1, 1), V("1/2", "1/2")]
        assert extreme_points(pts) == [V(0, 0), V(0, 1), V(1, 0), V(1, 1)]

    def test_extreme_points_collinear(self):
        pts = [V(0, 0), V(1, 1), V(2, 2)]
        assert extreme_points(pts) == [V(0, 0), V(2, 2)]

    def test_support(self):
        sq = [V(0, 0), V(1, 0), V(0, 1), V(1, 1)]
        assert support_value(sq, V(1, 1)) == 2
        assert support_value(sq, V(-1, 0)) == 0


class TestNearestPoint:
    def test_inside(self):
        d2, p = nearest_point_in_hull(V("1/2"), [V(0), V(1)])
        assert d2 == 0 and p == V("1/2")

    def test_outside_segment(self):
        d2, p = nearest_point_in_hull(V(2), [V(0), V(1)])
        assert d2 == 1 and p == V(1)

    def test_triangle_edge_projection(self):
        tri = [V(0, 0), V(2, 0), V(0, 2)]
        d2, p = nearest_point_in_hull(V(2, 2), tri)
        assert p == V(1, 1)
        assert d2 == 2

    def test_3d_vertex(self):
        tet = [V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]
        d2, p = nearest_point_in_hull(V(2, 0, 0), tet)
        assert p == V(1, 0, 0)
        assert d2 == 1

    def test_random_against_sampling(self):
        rng = random.Random(11)
        for _ in range(20):
            pts = [V(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
            x = V(rng.randint(-4, 4), rng.randint(-4, 4))
            d2, _ = nearest_point_in_hull(x, pts)
            # dense mixture sampling can only find points at >= the true distance
            best = None
            n = len(pts)
            for _ in range(300):
                w = [rng.random() for _ in range(n)]
                s = sum(w)
                point = tuple(
                    sum(w[i] / s * float(pts[i][d]) for i in range(n)) for d in range(2)
                )
                dd = sum((float(x[d]) - point[d]) ** 2 for d in range(2))
                best = dd if best is None else min(best, dd)
            assert float(d2) <= best + 1e-9


class TestFeasibleCombination:
    def test_membership_weights(self):
        pts = [V(0, 0), V(2, 0), V(0, 2)]
        A = [[p[0] for p in pts], [p[1] for p in pts], [F(1)] * 3]
        w = feasible_combination(A, [F(1), F(1), F(1)])
        assert w is not None
        assert sum(w) == 1


class TestAgainstScipy:
    def test_simplex_matches_linprog_on_random_programs(self):
        from scipy.optimize import linprog

        from condexp.errors import InfeasibleProgram, UnboundedProgram, UnsupportedDimension

        rng = random.Random(23)
        solved = 0
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(2, 6)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            b = [F(rng.randint(-3, 3)) for _ in range(m)]
            # mostly nonnegative costs keep a good share of instances bounded
            c = [F(rng.randint(-1, 4)) for _ in range(n)]
            res = linprog(
                [float(x) for x in c],
                A_eq=[[float(x) for x in row] for row in A],
                b_eq=[float(x) for x in b],
                bounds=[(0, None)] * n,
                method="highs",
            )
            try:
                value, x = simplex_min(c, A, b)
            except InfeasibleProgram:
                assert res.status == 2, res
                continue
            except UnboundedProgram:
                assert res.status == 3, res
                continue
            assert res.status == 0, res
            assert abs(float(value) - res.fun) < 1e-8
            # exact solution is feasible
            for row, rhs in zip(A, b):
                assert sum(a * xx for a, xx in zip(row, x)) == rhs
            assert all(xx >= 0 for xx in x)
            solved += 1
        assert solved >= 20  # plenty of feasible bounded instances seen

    def test_nearest_point_matches_scipy_qp(self):
        from scipy.optimize import minimize

        rng = random.Random(29)
        for _ in range(25):
            dim = rng.choice([2, 3])
            pts = [
                tuple(F(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(5)
            ]
            x = tuple(F(rng.randint(-5, 5)) for _ in range(dim))
            d2, _p = nearest_point_in_hull(x, pts)
            P = np.array([[float(v) for v in p] for p in pts])
            xf = np.array([float(v) for v in x])

            def objective(w):
                y = w @ P
                return ((y - xf) ** 2).sum()

            best = None
            for _start in range(4):
                w0 = np.random.RandomState(rng.randrange(10**6)).dirichlet(
                    np.ones(len(pts))
                )
                res = minimize(
                    objective,
                    w0,
                    bounds=[(0, 1)] * len(pts),
                    constraints={"type": "eq", "fun": lambda w: w.sum() - 1},
                    method="SLSQP",
                )
                if res.success:
                    best = res.fun if best is None else min(best, res.fun)
            assert best is not None
            assert float(d2) <= best + 1e-7
            assert float(d2) >= best - 1e-7


# -- hull and nearest point against the reference constructions ----------------


def reference_nearest_point(x, points):
    """Project x on the affine span of every vertex subset of size <= dim+1;
    of the projections landing in their subset's hull, the nearest wins
    (then the smallest).  Dimension <= 3 keeps the enumeration small."""
    pts = reference_extreme_points(points)
    if in_hull(x, pts):
        return F(0), tuple(x)
    best = None
    for size in range(1, min(len(pts), len(x) + 1) + 1):
        for subset in itertools.combinations(pts, size):
            cand = _project_on_simplex(x, subset)
            if cand is None:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(x, cand))
            if best is None or (d2, cand) < best:
                best = (d2, cand)
    return best


def _project_on_simplex(x, subset):
    """Project x onto aff(subset); the point if it lands in conv(subset)."""
    base = subset[0]
    dirs = [vec_sub(p, base) for p in subset[1:]]
    coeffs = _solve_or_none(
        [[vec_dot(u, v) for v in dirs] for u in dirs],
        [vec_dot(u, vec_sub(x, base)) for u in dirs],
    )
    if coeffs is None or any(c < 0 for c in coeffs) or sum(coeffs) > 1:
        return None
    return tuple(
        base[d] + sum(c * u[d] for c, u in zip(coeffs, dirs)) for d in range(len(base))
    )


def _solve_or_none(matrix, rhs):
    n = len(matrix)
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


coords = st.integers(-3, 3).map(F)


def points(dim, max_size):
    return st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=max_size)


@st.composite
def planar_clouds(draw):
    """Lattice points plus points on segments between them and repeats."""
    pts = draw(points(2, 8))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=3)):
        t = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]))
        pts.append(tuple(u + t * (v - u) for u, v in zip(a, b)))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=2))


@st.composite
def spatial_clouds(draw):
    """Up to 64 points in space: lattice points of a small box (its faces
    and edges hold many of them), scattered points, points on a line or in
    a plane, plus points between pairs of them and repeats."""
    shape = draw(st.sampled_from(["grid", "scatter", "line", "plane"]))
    n = draw(st.integers(1, 48) | st.integers(24, 48))
    if shape == "grid":
        box = list(itertools.product(range(draw(st.integers(2, 4))), repeat=3))
        picks = st.lists(st.sampled_from(box), min_size=min(n, len(box)), max_size=n, unique=True)
        pts = [V(*p) for p in draw(picks)]
    elif shape == "scatter":
        pts = draw(st.lists(st.tuples(coords, coords, coords), min_size=n, max_size=n))
    else:
        origin = draw(st.tuples(coords, coords, coords))
        dirs = [draw(st.tuples(coords, coords, coords)) for _ in range(1 + (shape == "plane"))]
        steps = st.tuples(*[st.integers(-4, 4).map(lambda k: F(k, 2))] * len(dirs))
        pts = [
            tuple(o + sum(t * d[k] for t, d in zip(ts, dirs)) for k, o in enumerate(origin))
            for ts in draw(st.lists(steps, min_size=n, max_size=n))
        ]
    for a, b in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=8)):
        t = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]))
        pts.append(tuple(u + t * (v - u) for u, v in zip(a, b)))
    return (pts + draw(st.lists(st.sampled_from(pts), max_size=8)))[:64]


HALF_GRID = [F(0), F(1, 2), F(1)]
# the unit cube with its face centres and edge midpoints
CUBE_26 = [p for p in itertools.product(HALF_GRID, repeat=3) if p != (F(1, 2),) * 3]
# a regular hexagon in the plane x + y + z = 3, its centre, an edge
# midpoint and an interior point
HEXAGON = [V(2, 1, 0), V(1, 2, 0), V(0, 2, 1), V(0, 1, 2), V(1, 0, 2), V(2, 0, 1)]
HEXAGON_PLUS = HEXAGON + [V(1, 1, 1), V("3/2", "3/2", 0), V("4/3", 1, "2/3")]
# a collinear run with a repeat
RUN = [V(t, 2 * t, -t) for t in range(7)] + [V(3, 6, -3)]


@st.composite
def queries(draw, dims, max_size):
    dim = draw(st.sampled_from(dims))
    x = draw(st.tuples(*[st.integers(-10, 10).map(lambda k: F(k, 2))] * dim))
    return x, draw(points(dim, max_size))


GEOMETRY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


class TestAgainstReference:
    @GEOMETRY_SETTINGS
    @given(planar_clouds())
    @example([V(0, 0), V(1, 1), V(2, 2), V(1, 1)])
    @example([V(0, 0), V(2, 0), V(1, 0), V(0, 2), V(0, 1), V(1, 1)])
    def test_planar_hull_matches_the_lp_filter(self, pts):
        assert extreme_points(pts) == reference_extreme_points(pts)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spatial_clouds())
    @example(CUBE_26)
    @example(HEXAGON_PLUS)
    @example(RUN)
    def test_spatial_hull_matches_the_lp_filter(self, pts):
        assert extreme_points(pts) == reference_extreme_points(pts)

    @GEOMETRY_SETTINGS
    @given(points(1, 8))
    @example([V(2), V(2)])
    def test_line_hull_matches_the_lp_filter(self, pts):
        assert extreme_points(pts) == reference_extreme_points(pts)

    def test_dimension_4_is_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            extreme_points([V(0, 0, 0, 0), V(1, 0, 0, 0)])

    def test_spatial_named_sets(self):
        corners = sorted(itertools.product([F(0), F(1)], repeat=3))
        assert extreme_points(CUBE_26) == corners
        assert extreme_points(CUBE_26 + [(F(1, 2),) * 3]) == corners
        assert extreme_points(HEXAGON_PLUS) == sorted(HEXAGON)
        assert extreme_points(RUN) == [V(0, 0, 0), V(6, 12, -6)]

    @GEOMETRY_SETTINGS
    @given(queries((1, 2, 3), 6))
    @example((V(2, 2), [V(0, 0), V(2, 0), V(0, 2)]))
    def test_nearest_point_matches_subset_enumeration(self, query):
        x, pts = query
        assert nearest_point_in_hull(x, pts) == reference_nearest_point(x, pts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(queries((4, 5), 7))
    def test_nearest_point_beyond_dimension_three(self, query):
        from scipy.optimize import minimize

        x, pts = query
        d2, y = nearest_point_in_hull(x, pts)
        # exact certificate: y is in the hull and no point lies beyond the
        # hyperplane through y normal to x - y
        assert d2 == sum((a - b) ** 2 for a, b in zip(x, y))
        assert in_hull(y, pts)
        assert all(
            sum((a - b) * (c - b) for a, b, c in zip(x, y, p)) <= 0 for p in pts
        )
        P = np.array([[float(v) for v in p] for p in pts])
        xf = np.array([float(v) for v in x])
        n = len(pts)
        res = minimize(
            lambda w: (w @ P - xf) @ (w @ P - xf),
            np.full(n, 1 / n),
            jac=lambda w: 2 * P @ (w @ P - xf),
            bounds=[(0, 1)] * n,
            constraints={"type": "eq", "fun": lambda w: w.sum() - 1, "jac": lambda w: np.ones(n)},
            method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 500},
        )
        # SLSQP stops about 3e-11 short in relative terms on distances near 40
        assert abs(res.fun - float(d2)) <= 1e-9 * max(1.0, float(d2))


# -- Wolfe on integers against the Fraction Wolfe --------------------------------


class TestLatticeWolfe:
    """``nearest_point_in_hull`` runs Wolfe on the shifted points over one
    denominator; its answer and every iterate are the Fraction Wolfe's."""

    @GEOMETRY_SETTINGS
    @given(queries((1, 2, 3, 4, 5), 7), st.sampled_from([1, 2, 6]))
    @example((V(2, 2), [V(0, 0), V(2, 0), V(0, 2)]), 1)
    @example((V(1, 0), [V(0, 1), V(2, 1), V(1, 1), V(0, 1)]), 2)  # collinear, repeated
    def test_matches_the_fraction_wolfe(self, query, ints):
        """With ``ints`` > 1 the query and points are passed as ints (times
        ``ints``), else as Fractions; the answer is Fractions either way."""
        import condexp.rational_geometry as rg

        x, pts = query
        if ints > 1:
            x = tuple(int(ints * v) for v in x)
            pts = [tuple(int(ints * v) for v in p) for p in pts]
        seen, want = [], []
        with recording_min_norm_point(rg, seen):
            d2, y = nearest_point_in_hull(x, pts)
        assert (d2, y) == reference_nearest_point_in_hull(x, pts, want)
        assert isinstance(d2, Fraction) and all(isinstance(v, Fraction) for v in y)
        assert one_positive_scale(seen, want)

    def test_integer_input_gives_fractions(self):
        d2, y = nearest_point_in_hull((0, 2), [(0, 0), (2, 1)])
        assert (d2, y) == (F(16, 5), (F(4, 5), F(2, 5)))
        assert all(type(v) is Fraction for v in (d2, *y))
        d2, y = nearest_point_in_hull((1,), [(0,), (2,)])
        assert (d2, y) == (0, (1,))
        assert all(type(v) is Fraction for v in (d2, *y))

import random
from fractions import Fraction

import numpy as np

import pytest

from condexp.errors import InfeasibleProgram, UnboundedProgram
from condexp.rational_geometry import (
    extreme_points,
    feasible_combination,
    in_hull,
    nearest_point_in_hull,
    simplex_min,
    support_value,
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

        from condexp.errors import InfeasibleProgram, UnboundedProgram

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

from fractions import Fraction

import lp_oracle

from arrdepth import linalg, linprog


def test_simplex_basic_optimum():
    # minimize x0 + x1 s.t. x0 + 2 x1 = 4
    status, x, value = lp_oracle.simplex([[1, 2]], [4], [1, 1])
    assert status == lp_oracle.OPTIMAL
    assert value == 2 and x == (0, 2)


def test_simplex_infeasible():
    status, _, _ = lp_oracle.simplex([[1, 0], [1, 0]], [1, 2], [0, 0])
    assert status == lp_oracle.INFEASIBLE


def test_simplex_unbounded():
    # maximize x0 with only x0 - x1 = 0: unbounded below for min(-x0)
    status, _, _ = lp_oracle.simplex([[1, -1]], [0], [-1, 0])
    assert status == lp_oracle.UNBOUNDED


def test_hull_membership_triangle():
    pts = [(0, 0), (2, 0), (0, 2)]
    assert lp_oracle.hull_membership(pts, (Fraction(1, 2), Fraction(1, 2)))
    assert lp_oracle.hull_membership(pts, (0, 0))  # vertex
    assert lp_oracle.hull_membership(pts, (1, 1))  # edge midpoint
    assert not lp_oracle.hull_membership(pts, (2, 2))
    assert not lp_oracle.hull_membership([], (0, 0))


def test_hull_membership_small_matches_lp():
    import random

    rng = random.Random(4)
    for _ in range(120):
        pts = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) for _ in range(rng.randint(1, 4))]
        q = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        assert linprog.hull_membership_small(pts, q) == lp_oracle.hull_membership(pts, q)


def test_hull_membership_small_degenerate_collinear():
    pts = [(0, 0), (1, 1), (2, 2)]
    assert linprog.hull_membership_small(pts, (1, 1))
    assert not linprog.hull_membership_small(pts, (1, 0))
    assert not linprog.hull_membership_small(pts, (3, 3))


def test_cone_witness():
    u = lp_oracle.cone_witness([(1, 0), (0, 1)])
    assert u is not None and u[0] >= 1 and u[1] >= 1
    assert lp_oracle.cone_witness([(1, 0), (-1, 0)]) is None


def test_interior_point_open_cell():
    # 0 < x < 1 in 1D, via strict rows x > 0 and -x > -1
    p = lp_oracle.interior_point([], [], [(1,), (-1,)], [0, -1])
    assert p is not None and 0 < p[0] < 1


def test_interior_point_infeasible():
    assert lp_oracle.interior_point([], [], [(1,), (-1,)], [1, 0]) is None


def test_interior_point_with_equalities():
    p = lp_oracle.interior_point([(1, 1)], [2], [(1, -1)], [0])
    assert p is not None
    assert p[0] + p[1] == 2 and p[0] - p[1] > 0


def test_recession_direction():
    # quadrant cone has recession directions
    u = lp_oracle.recession_direction([(1, 0), (0, 1)])
    assert u is not None and linalg.dot(u, (1, 0)) >= 0 and linalg.dot(u, (0, 1)) >= 0
    # bounded region: x >= 0, y >= 0, -x - y >= -1 scaled as cone rows has only 0
    assert lp_oracle.recession_direction([(1, 0), (0, 1), (-1, -1)]) is None

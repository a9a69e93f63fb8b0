"""Exact convex-hull membership of a point in a few rational points, with no LP.

`hull_membership_small` decides q in conv(points) by barycentric sign tests,
reducing affinely dependent point sets to their facets (Caratheodory). The
dual Tverberg and enclosing depths call it on at most d + 2 points.
"""

from fractions import Fraction

from . import linalg


def hull_membership_small(points, q):
    """q in conv(points) for small point sets, by barycentric sign tests.

    Recursive Caratheodory reduction handles affinely dependent inputs; no LP.
    Intended for |points| <= d + 2.
    """
    points = [tuple(Fraction(c) for c in p) for p in points]
    q = tuple(Fraction(c) for c in q)
    return _in_hull_rec(points, q)


def _in_hull_rec(points, q):
    n = len(points)
    if n == 0:
        return False
    if n == 1:
        return points[0] == q
    base = points[0]
    diffs = [linalg.vsub(p, base) for p in points[1:]]
    A = [[diffs[j][i] for j in range(n - 1)] for i in range(len(q))]
    # One elimination: the barycentric coordinates, and whether the points are affinely independent.
    sol, unique = linalg._solve(A, list(linalg.vsub(q, base)))
    if sol is None:
        return False  # q outside the affine hull
    if not unique:
        # Affinely dependent: conv(points) is covered by the facets.
        return any(_in_hull_rec(points[:i] + points[i + 1 :], q) for i in range(n))
    lam0 = Fraction(1) - sum(sol)
    return lam0 >= 0 and all(v >= 0 for v in sol)

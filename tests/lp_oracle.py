"""Exact linear programming over the rationals, kept as a test oracle.

A small dense two-phase simplex with Bland's rule: slow but certain. All
arithmetic is `fractions.Fraction`, so termination and exactness are
guaranteed. No code in `arrdepth` pivots like this any more: the face,
depth and Tverberg paths read signs and signed circuits, and the one
convex-hull test left, `linprog.hull_membership_small`, solves small
systems with `linalg`. The tests use these routines as the independent LP
decisions those paths replaced.
"""

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tableau, basis, prow, pcol):
    piv = tableau[prow][pcol]
    tableau[prow] = [v / piv for v in tableau[prow]]
    for i, row in enumerate(tableau):
        if i != prow and row[pcol] != 0:
            f = row[pcol]
            tableau[i] = [v - f * p for v, p in zip(row, tableau[prow])]
    basis[prow] = pcol


def _run(tableau, basis, cost):
    """Minimize cost row (reduced form, last entry = -objective) in place."""
    ncols = len(cost) - 1
    while True:
        pcol = next((j for j in range(ncols) if cost[j] < 0), None)
        if pcol is None:
            return OPTIMAL
        prow, best = None, None
        for i, row in enumerate(tableau):
            if row[pcol] > 0:
                ratio = row[-1] / row[pcol]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[prow]):
                    prow, best = i, ratio
        if prow is None:
            return UNBOUNDED
        _pivot(tableau, basis, prow, pcol)
        f = cost[pcol]
        cost[:] = [v - f * p for v, p in zip(cost, tableau[prow])]


def simplex(A, b, c):
    """Minimize c.x subject to A x = b, x >= 0.

    Returns (status, x, value); x and value are None unless status is OPTIMAL.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else len(c)
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for i in range(nrows):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial basis.
    tableau = [rows[i] + [Fraction(0)] * nrows + [rhs[i]] for i in range(nrows)]
    for i in range(nrows):
        tableau[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(nrows)]
    cost = [Fraction(0)] * (ncols + nrows + 1)
    for j in range(ncols):
        cost[j] = -sum(tableau[i][j] for i in range(nrows))
    cost[-1] = -sum(tableau[i][-1] for i in range(nrows))
    _run(tableau, basis, cost)
    if -cost[-1] != 0:
        return INFEASIBLE, None, None

    # Drive leftover artificials out of the basis (degenerate rows).
    drop = []
    for i in range(nrows):
        if basis[i] >= ncols:
            pcol = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if pcol is None:
                drop.append(i)
            else:
                _pivot(tableau, basis, i, pcol)
    if drop:
        tableau = [row for i, row in enumerate(tableau) if i not in drop]
        basis = [v for i, v in enumerate(basis) if i not in drop]

    # Phase 2 on original columns.
    tableau = [row[:ncols] + [row[-1]] for row in tableau]
    cost = [Fraction(v) for v in c] + [Fraction(0)]
    for i, bvar in enumerate(basis):
        f = cost[bvar]
        if f != 0:
            cost = [v - f * p for v, p in zip(cost, tableau[i])]
    status = _run(tableau, basis, cost)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * ncols
    for i, bvar in enumerate(basis):
        x[bvar] = tableau[i][-1]
    return OPTIMAL, tuple(x), -cost[-1]


def nonneg_solution(A, b):
    """Some x >= 0 with A x = b, or None."""
    ncols = len(A[0]) if A else 0
    status, x, _ = simplex(A, b, [Fraction(0)] * ncols)
    return x if status == OPTIMAL else None


def maximize(A, b, obj):
    """Maximize obj.x over {x >= 0, A x = b}. Returns (status, x, value)."""
    status, x, value = simplex(A, b, [-Fraction(v) for v in obj])
    return status, x, (None if value is None else -value)


def hull_membership(points, q):
    """Exact test: q in conv(points)? Decided by LP feasibility of the convex combination."""
    points = list(points)
    if not points:
        return False
    d = len(q)
    A = [[Fraction(p[i]) for p in points] for i in range(d)]
    A.append([Fraction(1)] * len(points))
    b = [Fraction(v) for v in q] + [Fraction(1)]
    return nonneg_solution(A, b) is not None


def cone_witness(rows):
    """A vector u with r.u >= 1 for every r in rows, or None.

    For homogeneous strict systems {r.u > 0} this is an exact feasibility
    oracle: any strict solution scales to slack 1.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return None
    d = len(rows[0])
    m = len(rows)
    A = []
    for i, r in enumerate(rows):
        row = [r[j] for j in range(d)] + [-r[j] for j in range(d)] + [Fraction(0)] * m
        row[2 * d + i] = Fraction(-1)
        A.append(row)
    b = [Fraction(1)] * m
    x = nonneg_solution(A, b)
    if x is None:
        return None
    return tuple(x[j] - x[d + j] for j in range(d))


def interior_point(eq_rows, eq_rhs, strict_rows, strict_rhs):
    """A point satisfying E x = f and r.x > s for every strict row, or None.

    Solved as: maximize t <= 1 subject to r.x - t >= s; positive optimum
    certifies an interior point of the (relatively open) region.
    """
    d = len(strict_rows[0]) if strict_rows else (len(eq_rows[0]) if eq_rows else 0)
    ne, ns = len(eq_rows), len(strict_rows)
    # Variables: x+ (d), x- (d), t+ , t-, slack per strict row, slack for t <= 1.
    nvars = 2 * d + 2 + ns + 1
    A, b = [], []
    for r, rv in zip(eq_rows, eq_rhs):
        row = [Fraction(v) for v in r] + [-Fraction(v) for v in r] + [Fraction(0)] * (nvars - 2 * d)
        A.append(row)
        b.append(Fraction(rv))
    for i, (r, rv) in enumerate(zip(strict_rows, strict_rhs)):
        row = [Fraction(v) for v in r] + [-Fraction(v) for v in r] + [Fraction(-1), Fraction(1)] + [Fraction(0)] * (ns + 1)
        row[2 * d + 2 + i] = Fraction(-1)
        A.append(row)
        b.append(Fraction(rv))
    row = [Fraction(0)] * nvars
    row[2 * d], row[2 * d + 1], row[-1] = Fraction(1), Fraction(-1), Fraction(1)
    A.append(row)
    b.append(Fraction(1))
    obj = [Fraction(0)] * nvars
    obj[2 * d], obj[2 * d + 1] = Fraction(1), Fraction(-1)
    status, x, value = maximize(A, b, obj)
    if status != OPTIMAL or value is None or value <= 0:
        return None
    return tuple(x[j] - x[d + j] for j in range(d))


def recession_direction(rows):
    """A nonzero u with r.u >= 0 for all rows, or None (cone is {0})."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return None
    d = len(rows[0])
    m = len(rows)
    for coord in range(d):
        for sgn in (1, -1):
            # r.(y+ - y-) - s = 0 ; sgn*(y+_c - y-_c) - s' = 1
            nvars = 2 * d + m + 1
            A, b = [], []
            for i, r in enumerate(rows):
                row = list(map(Fraction, r)) + [-Fraction(v) for v in r] + [Fraction(0)] * (m + 1)
                row[2 * d + i] = Fraction(-1)
                A.append(row)
                b.append(Fraction(0))
            row = [Fraction(0)] * nvars
            row[coord], row[d + coord], row[-1] = Fraction(sgn), Fraction(-sgn), Fraction(-1)
            A.append(row)
            b.append(Fraction(1))
            x = nonneg_solution(A, b)
            if x is not None:
                u = tuple(x[j] - x[d + j] for j in range(d))
                if any(v != 0 for v in u):
                    return u
    return None

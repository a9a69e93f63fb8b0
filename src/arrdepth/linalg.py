"""Exact rational linear algebra on small dense matrices.

Everything works on lists of lists / tuples of ``fractions.Fraction`` (plain
ints are fine too, they coerce). Sizes here are tiny (d <= 3 or so per the
desk-scale budgets), so plain Gaussian elimination is the right tool.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations


def _rows(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def rank(matrix):
    """Rank of a matrix, exactly."""
    m = _rows(matrix)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                factor = m[i][col] / inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs``.

    Returns a tuple of Fractions, or None when the system is inconsistent or
    underdetermined (no unique solution).
    """
    m = _rows(matrix)
    b = [Fraction(x) for x in rhs]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    aug = [m[i] + [b[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col]
        aug[r] = [a / inv for a in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * p for a, p in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None  # inconsistent
    if r < ncols:
        return None  # underdetermined
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return tuple(x)


def solve_consistent(matrix, rhs):
    """One solution of a consistent system (free variables set to 0), else None."""
    m = _rows(matrix)
    b = [Fraction(x) for x in rhs]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    aug = [m[i] + [b[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col]
        aug[r] = [a / inv for a in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * p for a, p in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return tuple(x)


def kernel_vector(matrix, ncols=None):
    """A nonzero rational vector in the kernel of ``matrix``, or None.

    ``ncols`` must be given for an empty row list.
    """
    m = _rows(matrix)
    if not m:
        if not ncols:
            return None
        return tuple([Fraction(1)] + [Fraction(0)] * (ncols - 1))
    ncols = len(m[0])
    nrows = len(m)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        m[r] = [a / inv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * p for a, p in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    fcol = free[0]
    x = [Fraction(0)] * ncols
    x[fcol] = Fraction(1)
    for i, col in enumerate(pivots):
        x[col] = -m[i][fcol]
    return tuple(x)


def _integer_vector(v):
    """v scaled by the positive lcm of its denominators: same signs, same circuits."""
    v = [Fraction(c) for c in v]
    scale = reduce(math.lcm, (c.denominator for c in v), 1)
    return [c.numerator * (scale // c.denominator) for c in v]


def _circuit_signs(cols):
    """Positive part (bitmask) of the dependency of ``cols``, or None if independent.

    Every proper subset of ``cols`` must be independent, so the dependency,
    if any, is unique up to scale and has full support. Fraction-free
    elimination pivots on the first k-1 columns; row i then reads
    p_i x_i + r_i x_last = 0, so with x_last > 0, x_i > 0 iff p_i and r_i
    have opposite signs.
    """
    k = len(cols)
    rows = [list(r) for r in zip(*cols)]
    for c in range(k - 1):
        p = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        prow, a = rows[c], rows[c][c]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                b = row[c]
                rows[i] = [a * x - b * y for x, y in zip(row, prow)]
    if any(row[k - 1] for row in rows[k - 1 :]):
        return None  # the last column has a pivot too: independent
    pos = 1 << (k - 1)
    for i in range(k - 1):
        if (rows[i][i] > 0) != (rows[i][k - 1] > 0):
            pos |= 1 << i
    return pos


def signed_circuits(vectors):
    """Every signed circuit of a list of vectors, as (support, positive) bitmasks.

    A circuit is a minimal linearly dependent subset C: its dependency
    sum_{i in C} x_i v_i = 0 is unique up to a positive or negative scale, so
    the two orientations (support, {i : x_i > 0}) and (support, {i : x_i < 0})
    are both returned. Bit i stands for vectors[i]. Supports have at most
    d+1 elements; they come in order of size, then lexicographically.
    """
    cols = [_integer_vector(v) for v in vectors]
    d = len(cols[0]) if cols else 0
    out = []
    smaller = []  # supports of the circuits found with fewer elements
    for k in range(1, d + 2):
        found = []
        for subset in combinations(range(len(cols)), k):
            mask = 0
            for i in subset:
                mask |= 1 << i
            if any(s & mask == s for s in smaller):
                continue
            local = _circuit_signs([cols[i] for i in subset])
            if local is None:
                continue
            pos = 0
            for j, i in enumerate(subset):
                if local >> j & 1:
                    pos |= 1 << i
            found.append(mask)
            out.append((mask, pos))
            out.append((mask, mask ^ pos))
        smaller += found
    return out


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vsub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def vadd(u, v):
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def vscale(c, u):
    c = Fraction(c)
    return tuple(c * Fraction(a) for a in u)

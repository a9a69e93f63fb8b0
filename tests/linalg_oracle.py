"""The Fraction Gauss-Jordan elimination and circuit loop that `arrdepth.linalg` once ran.

`linalg` now reads `rank`, `solve`, `solve_consistent`, `kernel_vector` and
`signed_circuits` from one fraction-free elimination on Python ints
(Bareiss). The routines here are its independent oracle: a `Fraction`
Gauss-Jordan elimination with rational row operations, and the circuit
enumeration with its own fraction-free loop. They share no elimination
code with the package, so the tests require exactly equal return values.
"""

from fractions import Fraction
from itertools import combinations

from arrdepth.linalg import integer_vector


def _rows(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def _eliminate(matrix, ncols=None):
    """Gauss-Jordan elimination: (reduced rows, pivot columns).

    Row i holds the pivot of column pivots[i] and zeros in the other pivot
    columns; pivots are not scaled to 1. They are searched in the first
    ``ncols`` columns (all by default), so an augmented right-hand side rides
    along without being pivoted on.
    """
    m = _rows(matrix)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow, inv = m[r], m[r][col]
        for i, row in enumerate(m):
            if i != r and row[col] != 0:
                factor = row[col] / inv
                m[i] = [a - factor * p for a, p in zip(row, prow)]
        pivots.append(col)
    return m, pivots


def rank(matrix):
    """Rank of a matrix, exactly."""
    return len(_eliminate(matrix)[1])


def _solution(matrix, rhs):
    """(one solution with free variables 0, or None if inconsistent; whether it is unique)."""
    ncols = len(matrix[0]) if matrix else 0
    m, pivots = _eliminate([(*row, b) for row, b in zip(matrix, rhs)], ncols)
    unique = len(pivots) == ncols
    if any(row[ncols] != 0 for row in m[len(pivots) :]):
        return None, unique
    x = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = row[ncols] / row[col]
    return tuple(x), unique


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs``.

    Returns a tuple of Fractions, or None when the system is inconsistent or
    underdetermined (no unique solution).
    """
    x, unique = _solution(matrix, rhs)
    return x if unique else None


def solve_consistent(matrix, rhs):
    """One solution of a consistent system (free variables set to 0), else None."""
    return _solution(matrix, rhs)[0]


def kernel_vector(matrix, ncols=None):
    """A nonzero rational vector in the kernel of ``matrix``, or None.

    ``ncols`` must be given for an empty row list.
    """
    if not matrix:
        if not ncols:
            return None
        return tuple([Fraction(1)] + [Fraction(0)] * (ncols - 1))
    m, pivots = _eliminate(matrix)
    free = next((c for c in range(len(m[0])) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * len(m[0])
    x[free] = Fraction(1)
    for row, col in zip(m, pivots):
        x[col] = -row[free] / row[col]
    return tuple(x)


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
    cols = [integer_vector(v) for v in vectors]
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

"""Exact linear algebra on small dense matrices, by one integer elimination.

Entries are ints or `fractions.Fraction`s. Each row is scaled to coprime
ints by `integer_vector`, and `_reduce` runs the one elimination of the
package on them: fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968).
`rank`, `_solve` (with `solve`), `kernel_vector` and `signed_circuits` all
read its reduced rows; results become `Fraction`s only on return.
`integer_vector` is also the one scaling behind canonical hyperplanes and
rays.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations


def _reduce(rows, ncols=None):
    """Fraction-free Gauss-Jordan elimination of int rows, in place: (pivot columns, pivot).

    Each step turns every row but the pivot row into (a row - b prow) / the
    previous pivot, where a is the pivot and b the row's entry in its column;
    done also where b is 0, this keeps every entry a minor of the input, so
    the division is exact. Row i ends with the returned pivot (the last one
    taken, 1 if none) in column pivots[i] and zeros in the other pivot
    columns. Pivots are searched in the first ``ncols`` columns (all by
    default), so an augmented right-hand side rides along unpivoted.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for p in range(r, len(rows)):
            if rows[p][col]:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow, a = rows[r], rows[r][col]
        for i, row in enumerate(rows):
            if i != r:
                b = row[col]
                rows[i] = [(a * x - b * y) // prev for x, y in zip(row, prow)]
        prev = a
        pivots.append(col)
    return pivots, prev


def _int_rows(matrix):
    return [list(integer_vector(row)) for row in matrix]


def rank(matrix):
    """Rank of a matrix, exactly."""
    return len(_reduce(_int_rows(matrix))[0])


def _solve(matrix, rhs):
    """(one solution with free variables 0, or None if inconsistent; whether it is unique)."""
    ncols = len(matrix[0]) if matrix else 0
    rows = _int_rows([(*row, b) for row, b in zip(matrix, rhs)])
    pivots, den = _reduce(rows, ncols)
    unique = len(pivots) == ncols
    if any(row[ncols] for row in rows[len(pivots) :]):
        return None, unique
    x = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        x[col] = Fraction(row[ncols], den)
    return tuple(x), unique


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs``.

    Returns a tuple of Fractions, or None when the system is inconsistent or
    underdetermined (no unique solution).
    """
    x, unique = _solve(matrix, rhs)
    return x if unique else None


def kernel_vector(matrix, ncols=None):
    """A nonzero rational vector in the kernel of ``matrix``, or None.

    The first free column is set to 1 and the other free columns to 0.
    ``ncols`` must be given for an empty row list.
    """
    if not matrix:
        if not ncols:
            return None
        return tuple([Fraction(1)] + [Fraction(0)] * (ncols - 1))
    rows = _int_rows(matrix)
    pivots, den = _reduce(rows)
    free = next((c for c in range(len(rows[0])) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * len(rows[0])
    x[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        x[col] = Fraction(-row[free], den)
    return tuple(x)


def integer_vector(v):
    """v scaled by a positive rational to coprime integers (zero stays zero)."""
    if all(type(c) is int for c in v):  # integers already: divide by the gcd alone
        g = math.gcd(*v)
        return tuple(c // g for c in v) if g > 1 else tuple(v)
    v = [Fraction(c) for c in v]
    scale = reduce(math.lcm, (c.denominator for c in v), 1)
    ints = [c.numerator * (scale // c.denominator) for c in v]
    g = reduce(math.gcd, ints, 0)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def signed_circuits(vectors, among=None):
    """Every signed circuit of a list of vectors, as (support, positive) bitmasks.

    A circuit is a minimal linearly dependent subset C: its dependency
    sum_{i in C} x_i v_i = 0 is unique up to a positive or negative scale, so
    the two orientations (support, {i : x_i > 0}) and (support, {i : x_i < 0})
    are both returned. Bit i stands for vectors[i]. Supports have at most
    d+1 elements; they come in order of size, then lexicographically. Given
    a bitmask ``among``, only the circuits with support in it are found.
    """
    cols = {i: integer_vector(v) for i, v in enumerate(vectors) if among is None or among >> i & 1}
    d = len(vectors[0]) if vectors else 0
    out = []
    smaller = []  # supports of the circuits found with fewer elements
    for k in range(1, d + 2):
        found = []
        for subset in combinations(cols, k):
            mask = 0
            for i in subset:
                mask |= 1 << i
            if any(s & mask == s for s in smaller):
                continue
            rows = [list(r) for r in zip(*[cols[i] for i in subset])]
            pivots, p = _reduce(rows, k)
            if len(pivots) == k:
                continue  # independent
            # Every proper subset is independent, so the pivots are the first k-1 columns
            # and row j reads p x_j + r_j x_last = 0: with x_last > 0, x_j > 0 iff p and
            # r_j have opposite signs.
            pos = 1 << subset[-1]
            for j in range(k - 1):
                if (p > 0) != (rows[j][-1] > 0):
                    pos |= 1 << subset[j]
            found.append(mask)
            out.append((mask, pos))
            out.append((mask, mask ^ pos))
        smaller += found
    return out


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vsub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def vscale(c, u):
    c = Fraction(c)
    return tuple(c * Fraction(a) for a in u)

"""Exact linear algebra on small dense matrices, by one integer elimination.

Entries are ints or `fractions.Fraction`s. Each row is scaled to coprime
ints by `integer_vector` (`signed_circuits` keeps int rows as they are),
and `_reduce` runs the one elimination of the package on them:
fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968).
`rank`, `_solve` (with `solve`), `kernel_vector` and `signed_circuits` all
read its reduced rows; results become `Fraction`s only on return.
`signed_circuits` of a set whose kernel has dimension c at most max(d, 3),
as a query's incident normals mostly have, reads every circuit off a kernel
basis, one small null vector per (c-1)-set of coordinates, in place of the
subset scan.
`integer_vector` is also the one scaling behind canonical hyperplanes and
rays; it reads ints and Fractions alike by numerator and denominator, with
one lcm and one gcd per vector. `cells.subset_vertices` runs `_reduce` on an
arrangement's integer rows itself and keeps each vertex as integer
numerators over one denominator.
"""

import math
import operator
from fractions import Fraction
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
    return tuple(Fraction(c, den) for c in _null_vector(rows, pivots, den, free, len(rows[0])))


def _null_vector(rows, pivots, p, free, ncols):
    """The kernel vector of rows reduced by `_reduce` that is p at column ``free`` and 0 at the other free columns."""
    x = [0] * ncols
    x[free] = p
    for row, col in zip(rows, pivots):
        x[col] = -row[free]
    return x


def _null_of(rows, c):
    """A nonzero solution of the (c-1) x c system ``rows``, or None when its rank is below c - 1."""
    if c == 1:
        return (1,)
    if c == 2:
        [(a, b)] = rows
        return (b, -a) if a or b else None
    if c == 3:
        (a, b, e), (f, g, h) = rows
        lam = (b * h - e * g, e * f - a * h, a * g - b * f)
        return lam if any(lam) else None
    sub = list(rows)
    piv, lp = _reduce(sub, c)
    if len(piv) < c - 1:
        return None
    return _null_vector(sub, piv, lp, next(j for j in range(c) if j not in piv), c)


def integer_vector(v):
    """v, a sequence of ints and Fractions, scaled by a positive rational to coprime integers (zero stays zero).

    Both types carry ``numerator`` and ``denominator``, so no entry is
    converted; the entries are scaled to the lcm of the denominators only
    when one of them is not 1.
    """
    scale = math.lcm(*[c.denominator for c in v])
    if scale == 1:
        ints = [c.numerator for c in v]
    else:
        ints = [c.numerator * (scale // c.denominator) for c in v]
    g = math.gcd(*ints)
    return tuple([c // g for c in ints]) if g > 1 else tuple(ints)


def signed_circuits(vectors, among=None):
    """Every signed circuit of a list of vectors, as (support, positive) bitmasks.

    A circuit is a minimal linearly dependent subset C: its dependency
    sum_{i in C} x_i v_i = 0 is unique up to a positive or negative scale, so
    the two orientations (support, {i : x_i > 0}) and (support, {i : x_i < 0})
    are both returned. Bit i stands for vectors[i]. Supports have at most
    d+1 elements; they come in order of size, then lexicographically. Given
    a bitmask ``among``, only the circuits with support in it are found.

    The m selected vectors are eliminated once. When their kernel has
    dimension c = m - rank at most max(d, 3), the circuits are read off it:
    a circuit is the support of a kernel vector that vanishes on c - 1
    coordinates and is unique there up to scale, since a smaller support
    would vanish there too. So each (c-1)-set of coordinates on which the
    kernel basis has rank c - 1 gives one, as the null vector of that
    (c-1) x c system: 1 for c = 1, a swap for c = 2, a cross product for
    c = 3 and one small elimination beyond. Otherwise the subsets are
    scanned by size: there are as many (rank+1)-subsets as (c-1)-sets, and
    past c = max(d, 3) their eliminations are the smaller ones.
    """
    cols = {i: v for i, v in enumerate(vectors) if among is None or among >> i & 1}
    if not all(type(x) is int for v in cols.values() for x in v):  # a positive scale moves no circuit
        cols = {i: integer_vector(v) for i, v in cols.items()}
    d = len(vectors[0]) if vectors else 0
    idx = list(cols)
    m = len(idx)
    rows = [list(r) for r in zip(*cols.values())]
    most = max(d, 3)  # the kernel side reads c <= most
    pivots, p = _reduce(rows, m) if m <= d + most else ((), 0)  # else c >= m - d > most
    free = [f for f in range(m) if f not in pivots]
    c = len(free)
    if c <= most:
        if not c:
            return []
        kcols = list(zip(*[_null_vector(rows, pivots, p, f, m) for f in free]))  # a kernel basis, by coordinate
        bits = [1 << i for i in idx]
        found = {}
        for zeros in combinations(range(m), c - 1):
            vanish = 0
            for z in zeros:
                vanish |= bits[z]
            if any(not vanish & supp for supp in found):
                continue  # a circuit found already vanishes there, so it is the one found there
            lam = _null_of([kcols[z] for z in zeros], c)
            if lam is None:
                continue  # more than one kernel direction vanishes there
            supp = plus = 0
            if c == 2:
                a, b = lam
                vs = [a * x + b * y for x, y in kcols]
            else:
                vs = [sum(map(operator.mul, lam, kc)) for kc in kcols]
            for bit, v in zip(bits, vs):
                if v:
                    supp |= bit
                    if v > 0:
                        plus |= bit
            found[supp] = plus if plus >> (supp.bit_length() - 1) else supp ^ plus  # + at the highest index
        out = []
        for mask in sorted(found, key=lambda s: (s.bit_count(), [i for i in idx if s >> i & 1])):
            out += [(mask, found[mask]), (mask, mask ^ found[mask])]
        return out
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

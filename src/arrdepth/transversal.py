"""Restricted depth on linear flats and the planar center-transversal solver.

Restriction: a k-flat L through the origin is spanned by independent rational
basis vectors; each hyperplane either meets L in a hyperplane of L (written in
basis coordinates) or is parallel to L. Rays inside L are parallel to every
parallel hyperplane, so restricted depth adds the parallel weight to the
depth of the restricted arrangement computed inside L.

The planar solver (two arrangements, one line through the origin) scans the
direction semicircle in angular order over its exact critical directions, on
the arrangements' integer rows: directions of input lines (parallelism
events) and directions from the origin to pairwise intersection points
(where restricted points swap or collide). Between consecutive critical
directions the restricted point order is constant, so testing every critical
direction and one integer representative per open sector decides the
existence question exactly; restricted points c / (a.u) are compared by
cross-multiplication. The guarantee that some direction succeeds comes from
the center-transversal theorem (Zivaljevic and Vrecica, 1990) the solver
realizes, and the first success is re-verified by `depth.directional_count`.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from . import linalg
from .cells import _angle_cmp, _angle_half, _ratio_cmp
from .depth import directional_count, regression_depth
from .errors import (
    DimensionError,
    FlatError,
    FlatMembershipError,
    OriginIncidenceError,
    PrecisionExceeded,
)
from .geometry import Arrangement, Hyperplane, point, record


@record
class FlatRestriction:
    basis: tuple  # independent rational spanning vectors of L
    restricted: Arrangement  # in basis coordinates, parallel hyperplanes removed
    restricted_indices: tuple  # original index of each restricted hyperplane
    parallel_indices: tuple
    parallel_weight: Fraction


def restrict(arr: Arrangement, basis) -> FlatRestriction:
    """Restrict an arrangement to the linear span of the basis vectors."""
    basis = [point(v) for v in basis]
    if any(len(v) != arr.dimension for v in basis):
        raise DimensionError("basis vectors must have the ambient dimension")
    k = len(basis)
    if k < 1 or linalg.rank(basis) < k:
        raise FlatError("basis vectors must be linearly independent")
    restricted = []
    ridx = []
    pidx = []
    pweight = Fraction(0)
    for i, h in enumerate(arr):
        if h.offset == 0:
            raise OriginIncidenceError(f"hyperplane {i} passes through the origin")
        coeffs = tuple(linalg.dot(h.normal, v) for v in basis)
        if all(c == 0 for c in coeffs):
            pidx.append(i)
            pweight += h.weight
        else:
            restricted.append(Hyperplane(coeffs, h.offset, h.weight))
            ridx.append(i)
    return FlatRestriction(tuple(basis), Arrangement(k, tuple(restricted)), tuple(ridx), tuple(pidx), pweight)


def flat_coordinates(basis, q):
    """Coordinates of q in the basis, or FlatMembershipError if q is off the flat."""
    q = point(q)
    gram = [[linalg.dot(v1, v2) for v2 in basis] for v1 in basis]
    rhs = [linalg.dot(v, q) for v in basis]
    t = linalg.solve(gram, rhs)
    if t is None:
        raise FlatError("degenerate basis")
    recon = [Fraction(0)] * len(q)
    for c, v in zip(t, basis):
        recon = [r + c * vc for r, vc in zip(recon, v)]
    if tuple(recon) != q:
        raise FlatMembershipError("query point does not lie on the flat")
    return t


def restricted_depth(arr: Arrangement, q, basis) -> Fraction:
    """Regression depth of q measured inside the flat spanned by the basis.

    Hyperplanes parallel to the flat count on every ray, hence contribute
    their full weight; the rest is exact regression depth of the restricted
    arrangement in flat coordinates.
    """
    q = point(q)
    if len(q) != arr.dimension:
        raise DimensionError(f"query has dimension {len(q)}, expected {arr.dimension}")
    res = restrict(arr, basis)
    t = flat_coordinates(res.basis, q)
    inner, _ = regression_depth(res.restricted, t)
    return res.parallel_weight + inner


def restricted_truncated_depth(arr: Arrangement, q, basis) -> Fraction:
    """Restricted depth truncated at total weight / (k + 1)."""
    basis = tuple(basis)
    return min(arr.total_weight / (len(basis) + 1), restricted_depth(arr, q, basis))


@record
class RayCounts:
    left: Fraction  # weight crossed by the ray in direction -u (parallels excluded)
    right: Fraction
    parallel: Fraction


@record
class TransversalSolution:
    direction: tuple  # canonical integer direction of the line through the origin
    t: Fraction  # q = t * direction
    q: tuple
    counts: tuple  # RayCounts per input arrangement
    status: str = "exact"

    def thresholds(self):
        return tuple((c.left + c.parallel, c.right + c.parallel) for c in self.counts)


def _half_turn(v):
    """An integer vector as coprime integers, turned into the half-turn y > 0, or y = 0 and x > 0."""
    v = linalg.integer_vector(v)
    return v if _angle_half(v) == 0 else (-v[0], -v[1])


def _median_ends(points, need):
    """Both ends of the weighted median interval of sorted restricted points, or None if it is empty.

    Points are ((num, den), weight) with den > 0, in increasing order; the
    weights and ``need`` are integers over one denominator. The ends are the
    least and the greatest point with 2 * weight >= need on each closed side.
    """
    cum = 0
    for lo, w in points:
        cum += w
        if 2 * cum >= need:
            break
    else:
        return None
    cum = 0
    for hi, w in reversed(points):
        cum += w
        if 2 * cum >= need:
            break
    return (lo, hi) if _ratio_cmp(lo, hi) <= 0 else None


def solve_planar_transversal(a1: Arrangement, a2: Arrangement) -> TransversalSolution:
    """A line through the origin and a point on it that is half-deep for both arrangements.

    Every returned solution is re-verified by `depth.directional_count` at the
    exact rational point; both closed rays (parallels added to each) carry at
    least half the total weight of each arrangement.
    """
    for arr in (a1, a2):
        if arr.dimension != 2:
            raise DimensionError("planar transversal requires d = 2")
        for i, (_, c) in enumerate(arr.int_rows):
            if c == 0:
                raise OriginIncidenceError(f"hyperplane {i} passes through the origin")

    rows = a1.int_rows + a2.int_rows
    criticals = {_half_turn((-a[1], a[0])) for a, _ in rows}
    for (a, c), (b, e) in combinations(rows, 2):
        # the crossing point times a0 b1 - a1 b0; parallel lines give 0 or their own direction
        v = (c * b[1] - e * a[1], a[0] * e - b[0] * c)
        if v != (0, 0):
            criticals.add(_half_turn(v))
    ordered = sorted(criticals, key=cmp_to_key(_angle_cmp))

    candidates = [] if ordered else [(1, 0)]
    for i, w in enumerate(ordered):
        # each critical, then the sector up to the next one (the last ends at the first + pi)
        nxt = ordered[i + 1] if i + 1 < len(ordered) else (-ordered[0][0], -ordered[0][1])
        mid = (w[0] + nxt[0], w[1] + nxt[1])
        candidates += [w, linalg.integer_vector(mid if mid != (0, 0) else (-w[1], w[0]))]

    sides = []
    for arr in (a1, a2):
        weights = arr.int_weights[1]
        sides.append((list(zip(arr.int_rows, weights)), sum(weights)))
    by_point = cmp_to_key(lambda p, r: _ratio_cmp(p[0], r[0]))
    for u in candidates:
        lo = hi = None
        pars = []
        for weighted_rows, total in sides:
            # the point of line (a, c) on the line through u is t = c / (a.u)
            points = []
            par = 0
            for (a, c), w in weighted_rows:
                s = a[0] * u[0] + a[1] * u[1]
                if s == 0:
                    par += w
                else:
                    points.append(((c, s) if s > 0 else (-c, -s), w))
            pars.append(par)
            need = total - 2 * par  # the closed sides need 2 * (weight + par) >= total
            if need <= 0:
                continue
            points.sort(key=by_point)
            ends = _median_ends(points, need)
            if ends is None:
                break
            lo = ends[0] if lo is None or _ratio_cmp(ends[0], lo) > 0 else lo
            hi = ends[1] if hi is None or _ratio_cmp(ends[1], hi) < 0 else hi
        else:
            if lo is not None and _ratio_cmp(lo, hi) > 0:
                continue
            t = Fraction(0) if lo is None else (Fraction(*lo) + Fraction(*hi)) / 2
            q = (t * u[0], t * u[1])
            counts = []
            for arr, par in zip((a1, a2), pars):
                par = Fraction(par, arr.int_weights[0])
                left = directional_count(arr, q, (-u[0], -u[1])) - par
                counts.append(RayCounts(left, directional_count(arr, q, u) - par, par))
            sol = TransversalSolution((Fraction(u[0]), Fraction(u[1])), t, q, tuple(counts), "exact")
            if all(min(rays) >= arr.total_weight / 2 for rays, arr in zip(sol.thresholds(), (a1, a2))):
                return sol
    raise PrecisionExceeded("exhausted exact critical directions without a verified solution")

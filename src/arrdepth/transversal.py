"""Restricted depth on linear flats and the planar center-transversal solver.

Restriction: a k-flat L through the origin is spanned by independent rational
basis vectors; each hyperplane either meets L in a hyperplane of L (written in
basis coordinates) or is parallel to L. Rays inside L are parallel to every
parallel hyperplane, so restricted depth adds the parallel weight to the
depth of the restricted arrangement computed inside L.

The planar solver (two arrangements, one line through the origin) sweeps the
direction semicircle over its exact critical directions: directions of input
lines (parallelism events) and directions from the origin to pairwise
intersection points (where restricted points swap or collide). Between
consecutive critical directions the restricted point order is constant, so
testing every critical direction and one rational representative per open
sector decides the existence question exactly; the guarantee that some
direction succeeds comes from the center-transversal theorem the solver
realizes.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from . import linalg
from .cells import _angle_cmp, _rot90, normalize_ray
from .depth import regression_depth
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
    res = restrict(arr, basis)
    t = flat_coordinates(res.basis, q)
    inner, _ = regression_depth(res.restricted, t)
    return res.parallel_weight + inner


def restricted_truncated_depth(arr: Arrangement, q, basis) -> Fraction:
    """Restricted depth truncated at total weight / (k + 1)."""
    k = len(tuple(basis))
    return min(arr.total_weight / (k + 1), restricted_depth(arr, q, basis))


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


def _canonical_semicircle(v):
    v = normalize_ray(v)
    if v[1] < 0 or (v[1] == 0 and v[0] < 0):
        v = tuple(-c for c in v)
    return v


def _median_interval(points, need):
    """Smallest and largest t with weight(p <= t) >= need and weight(p >= t) >= need."""
    if need <= 0:
        return (None, None)
    pts = sorted(points)
    cum = Fraction(0)
    lo = None
    for p, w in pts:
        cum += w
        if cum >= need:
            lo = p
            break
    cum = Fraction(0)
    hi = None
    for p, w in reversed(pts):
        cum += w
        if cum >= need:
            hi = p
            break
    return (lo, hi)


def _ray_counts(arr: Arrangement, q, u):
    left = right = par = Fraction(0)
    for h in arr:
        c = linalg.dot(h.normal, u)
        s = h.residual(q)
        if c == 0:
            par += h.weight
            continue
        if s * c <= 0:
            right += h.weight
        if s * c >= 0:
            left += h.weight
    return RayCounts(left, right, par)


def solve_planar_transversal(a1: Arrangement, a2: Arrangement) -> TransversalSolution:
    """A line through the origin and a point on it that is half-deep for both arrangements.

    Every returned solution is re-verified by direct ray counting at the exact
    rational point; both closed rays (parallels added to each) carry at least
    half the total weight of each arrangement.
    """
    for arr in (a1, a2):
        if arr.dimension != 2:
            raise DimensionError("planar transversal requires d = 2")
        for i, h in enumerate(arr):
            if h.offset == 0:
                raise OriginIncidenceError(f"hyperplane {i} passes through the origin")

    criticals = set()
    all_lines = [(h.normal, h.offset) for h in a1] + [(h.normal, h.offset) for h in a2]
    for a, _ in all_lines:
        criticals.add(_canonical_semicircle(_rot90(a)))
    for (an, ac), (bn, bc) in combinations(all_lines, 2):
        det = an[0] * bn[1] - an[1] * bn[0]
        if det == 0:
            continue
        x = (ac * bn[1] - bc * an[1]) / det
        y = (an[0] * bc - bn[0] * ac) / det
        if x != 0 or y != 0:
            criticals.add(_canonical_semicircle((x, y)))
    ordered = sorted(criticals, key=cmp_to_key(_angle_cmp))

    candidates = []
    if not ordered:
        candidates.append((Fraction(1), Fraction(0)))
    for i, w in enumerate(ordered):
        candidates.append(w)
        if i + 1 < len(ordered):
            nxt = ordered[i + 1]
        else:
            nxt = tuple(-c for c in ordered[0])  # wrap: the sector ends at the first direction + pi
        mid = (w[0] + nxt[0], w[1] + nxt[1])
        if mid == (0, 0):
            mid = _rot90(w)
        candidates.append(normalize_ray(mid))

    halves = (a1.total_weight / 2, a2.total_weight / 2)
    for u in candidates:
        intervals = []
        ok = True
        for arr, need_total in zip((a1, a2), halves):
            pts = []
            par = Fraction(0)
            for h in arr:
                c = linalg.dot(h.normal, u)
                if c == 0:
                    par += h.weight
                else:
                    pts.append((h.offset / c, h.weight))
            need = need_total - par
            lo, hi = _median_interval(pts, need)
            if need > 0 and (lo is None or hi is None or lo > hi):
                ok = False
                break
            intervals.append((lo, hi))
        if not ok:
            continue
        lo = max((iv[0] for iv in intervals if iv[0] is not None), default=None)
        hi = min((iv[1] for iv in intervals if iv[1] is not None), default=None)
        if lo is not None and hi is not None and lo > hi:
            continue
        if lo is None and hi is None:
            t = Fraction(0)
        elif lo is None:
            t = hi
        elif hi is None:
            t = lo
        else:
            t = (lo + hi) / 2
        q = (t * u[0], t * u[1])
        counts = (_ray_counts(a1, q, u), _ray_counts(a2, q, u))
        if all(
            c.left + c.parallel >= need and c.right + c.parallel >= need
            for c, need in zip(counts, halves)
        ):
            return TransversalSolution(u, t, q, counts, "exact")
    raise PrecisionExceeded("exhausted exact critical directions without a verified solution")

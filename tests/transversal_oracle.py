"""The planar center-transversal scan in `Fraction`s, kept as a test oracle.

This is the solver as it was written before it moved onto the arrangements'
integer rows: critical directions from rational crossing points, restricted
points c / (a.u) as `Fraction`s, a sorted weighted median interval per
arrangement, and its own ray counts for re-verification. It returns the
first verified candidate in angular order, so `solve_planar_transversal`
must return an equal `TransversalSolution` (or raise the same exception) on
every input.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from arrdepth import linalg
from arrdepth.cells import _angle_cmp, _rot90, normalize_ray
from arrdepth.errors import DimensionError, OriginIncidenceError, PrecisionExceeded
from arrdepth.transversal import RayCounts, TransversalSolution


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


def _ray_counts(arr, q, u):
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


def oracle_transversal(a1, a2):
    """The first verified center transversal of two planar arrangements, all in `Fraction`s."""
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

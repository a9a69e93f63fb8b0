"""Exact depth measures for weighted hyperplane arrangements.

Ray algebra used throughout: the ray {q + t u, t >= 0} meets the hyperplane
a.x = b (or is parallel to it) if and only if s * (a.u) <= 0, where
s = a.q - b. The open variant counts a hyperplane iff s * (a.u) < 0 (a proper
crossing at t > 0) or a.u = 0 (parallel, including rays inside the
hyperplane). Both counts therefore depend only on the signs of the residuals
and of a.u, which makes them constant on the cells of the central arrangement
{u : a.u = 0} and lets the minimum over all rays be taken over one exact
representative per full-dimensional cell: moving u from a cell boundary into
an adjacent cell never increases either count.

RD and RD' work on sign vectors as bitmasks. `Arrangement.sign_masks` gives
the residual signs of q from integer rows, and `Arrangement.direction_cells`
the cached sign masks of every direction cell. The count in a cell is then a
popcount of a mask formula, or a sum of 8-bit table lookups when the weights
are not all 1 (`Arrangement.weight_tables`, integers over one common
denominator). `directional_count`, `count_both` and `oracle_depth` keep the
per-hyperplane Fraction loop, `_count_signs`, as the independent path the
tests compare against.
"""

import random
from enum import Enum
from fractions import Fraction
from itertools import combinations

from . import linalg
from .cells import candidate_points, direction_cells
from .errors import DimensionError, InvalidDirection, NoDeepPoint
from .geometry import point, record


class MeasureKind(Enum):
    RD = "rd"
    RD_OPEN = "rd-open"
    TRD = "trd"
    HTVD = "htvd"
    HED = "hed"


# Reading an Enum member off its class costs about 0.2 us in Python 3.11, a module global 0.01 us.
_RD, _RD_OPEN, _TRD = MeasureKind.RD, MeasureKind.RD_OPEN, MeasureKind.TRD


@record
class DirectionalCount:
    """Weighted ray counts for one direction under both counting rules."""

    direction: tuple
    count_closed: Fraction
    count_open: Fraction


@record
class DepthCertificate:
    """A witness direction achieving the reported minimizing ray count."""

    direction: tuple
    count: Fraction
    rule: str  # "closed" | "open" | "open-perturbed"


def _sign(x):
    return 1 if x > 0 else -1 if x < 0 else 0


def _signs_at(arr, q):
    """Residual signs without materializing dual points."""
    q = point(q)
    if len(q) != arr.dimension:
        raise DimensionError(f"query has dimension {len(q)}, expected {arr.dimension}")
    return [_sign(h.residual(q)) for h in arr]


def _count_signs(arr, s_signs, u, rule):
    total = Fraction(0)
    for h, ss in zip(arr, s_signs):
        cs = _sign(linalg.dot(h.normal, u))
        if rule == "closed":
            if ss * cs <= 0:
                total += h.weight
        else:
            if ss * cs < 0 or cs == 0:
                total += h.weight
    return total


def directional_count(arr, q, u, rule="closed"):
    """Exact weighted count of hyperplanes hit by (or parallel to) the ray q + t u."""
    u = point(u)
    if all(c == 0 for c in u):
        raise InvalidDirection("zero direction")
    if len(u) != arr.dimension:
        raise DimensionError(f"direction has dimension {len(u)}, expected {arr.dimension}")
    if rule not in ("closed", "open"):
        raise ValueError(f"unknown rule {rule!r}")
    s_signs = _signs_at(arr, q)
    return _count_signs(arr, s_signs, u, rule)


def count_both(arr, q, u):
    u = point(u)
    if all(c == 0 for c in u):
        raise InvalidDirection("zero direction")
    if len(u) != arr.dimension:
        raise DimensionError(f"direction has dimension {len(u)}, expected {arr.dimension}")
    s_signs = _signs_at(arr, q)
    return DirectionalCount(
        u,
        _count_signs(arr, s_signs, u, "closed"),
        _count_signs(arr, s_signs, u, "open"),
    )


def _unit_direction(d):
    e = [Fraction(0)] * d
    e[0] = Fraction(1)
    return tuple(e)


def _tope_counts(arr, pos, neg, rule):
    """Weighted ray count in each direction cell, as integers over `arr.weight_tables`' denominator.

    ``pos`` and ``neg`` are the bitmasks of positive and negative residuals.
    Against a cell with sign masks (tp, tn), the closed rule counts the
    hyperplanes whose two signs are not both + or both -, and the open rule
    those whose signs are opposite or whose cell sign is 0.
    """
    full = (1 << len(arr)) - 1
    if rule == "closed":
        masks = [full & ~((pos & tp) | (neg & tn)) for tp, tn in arr.direction_cells[1]]
    else:
        masks = [(pos & tn) | (neg & tp) | (full & ~tp & ~tn) for tp, tn in arr.direction_cells[1]]
    _, tables = arr.weight_tables
    if tables is None:
        return list(map(int.bit_count, masks))
    return [sum(t[m >> 8 * c & 255] for c, t in enumerate(tables)) for m in masks]


def _min_count(arr, pos, neg, rule):
    """Minimize the ray count over all directions, given the residual sign masks of q.

    The count is constant on each direction cell, so the minimum is taken over
    the cached cell sign masks (`_tope_counts`); the witness is the first
    minimizing cell in cell order.
    """
    counts = _tope_counts(arr, pos, neg, rule)
    if not counts:
        return Fraction(0), _unit_direction(arr.dimension)
    best = min(counts)
    return Fraction(best, arr.weight_tables[0]), arr.direction_cells[0][counts.index(best)]


def _query_masks(arr, q):
    """Residual signs of q as (pos, neg) bitmasks; (0, 0) on an empty arrangement, whatever q is."""
    if not arr.hyperplanes:
        return 0, 0
    pos, zero = arr.sign_masks(q)
    return pos, ((1 << len(arr.hyperplanes)) - 1) & ~(pos | zero)


def _depth_at_masks(arr, pos, neg, kind):
    """RD, RD' or TRD with a witness, at a point whose residual signs are the bitmasks (pos, neg).

    The one evaluation behind `regression_depth`, `open_regression_depth`
    and `truncated_regression_depth`, which read the masks from their query,
    and behind `planar.label_depth`, which passes each face's own masks.
    TRD's certificate is the RD certificate it truncates.
    """
    rule = "open" if kind is _RD_OPEN else "closed"
    if not arr.hyperplanes:
        return Fraction(0), DepthCertificate(_unit_direction(arr.dimension), Fraction(0), rule)
    if kind is _RD_OPEN:
        return _open_depth(arr, pos, neg)
    if kind is not _RD and kind is not _TRD:
        raise ValueError(f"no sign-mask evaluation for {kind!r}")
    best, u = _min_count(arr, pos, neg, rule)
    cert = DepthCertificate(u, best, rule)
    if kind is _TRD:
        return min(arr.total_weight / (arr.dimension + 1), best), cert
    return best, cert


def regression_depth(arr, q):
    """Exact weighted regression depth with a witness direction."""
    return _depth_at_masks(arr, *_query_masks(arr, q), _RD)


def _new_perturbed_cells(circuits, m):
    """Sign patterns on m incident hyperplanes whose cell the perturbation creates.

    ``circuits`` are the signed circuits of the incident normals, in order of
    hyperplane index; a pattern is a bitmask with bit j set for sigma_j = +1.
    Yields, in increasing order, the patterns whose open cone is empty (some
    circuit conforms) and whose perturbed cell is not (no conforming circuit
    is positive at its lowest index).
    """
    for bits in range(2**m):
        conforming = [(supp, plus) for supp, plus in circuits if plus == supp & bits]
        if conforming and not any(plus & supp & -supp for supp, plus in conforming):
            yield bits


def open_regression_depth(arr, q):
    """Exact open regression depth (incident hyperplanes not counted).

    On locally generic queries this is the direct minimization of the open
    ray count. Otherwise the value is the maximum over the new cells created
    by the deterministic lexicographic offset perturbation
    b_h -> b_h + eps^(h+1); the returned certificate then witnesses the count
    inside the deepest perturbed cell.

    Everything is read from the signed circuits of the incident normals, with
    no LP. The query is locally generic iff there is none. A sign pattern
    sigma on the incident hyperplanes gives a new cell iff its open cone
    {y : sigma_j a_j.y > 0} is empty, i.e. some circuit conforms to sigma
    (Gordan), while its perturbed cell {y : sigma_j (a_j.y - eps^(h_j+1)) > 0}
    is not, i.e. no conforming circuit is positive at its lowest hyperplane
    index, whose eps power dominates the offset combination (Motzkin).
    """
    return _depth_at_masks(arr, *_query_masks(arr, q), _RD_OPEN)


def _open_depth(arr, pos, neg):
    """`open_regression_depth` of a nonempty arrangement, from the residual sign masks."""
    zero = ((1 << len(arr)) - 1) & ~(pos | neg)
    on_idx = [i for i in range(len(arr)) if zero >> i & 1]
    circuits = linalg.signed_circuits([arr[i].normal for i in on_idx])
    if not circuits:
        best, u = _min_count(arr, pos, neg, "open")
        return best, DepthCertificate(u, best, "open")

    best = None
    best_u = None
    for bits in _new_perturbed_cells(circuits, len(on_idx)):
        plus = sum(1 << i for j, i in enumerate(on_idx) if bits >> j & 1)
        val, u = _min_count(arr, pos | plus, neg | (zero & ~plus), "open")
        if best is None or val > best:
            best, best_u = val, u
    if best is None:
        best, best_u = _min_count(arr, pos, neg, "open")
        return best, DepthCertificate(best_u, best, "open")
    return best, DepthCertificate(best_u, best, "open-perturbed")


def truncated_regression_depth(arr, q):
    """TRD = min(total weight / (d+1), regression depth)."""
    return _depth_at_masks(arr, *_query_masks(arr, q), _TRD)[0]


def oracle_depth(arr, q, samples=32, seed=0):
    """Independent upper-bounding oracle for regression depth.

    Minimizes the closed directional count over seeded random directions plus
    every direction orthogonal to a (d-1)-subset of normals, symbolically
    nudged into each adjacent cell. Always >= the exact depth; equal to it on
    instances where the central cells are pointed (generic, n >= d), because
    every cell is then adjacent to such an orthogonal direction.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = arr.dimension
    if len(arr) == 0:
        return Fraction(0)
    s_signs = _signs_at(arr, q)
    best = None

    rng = random.Random(f"arrdepth-oracle:{seed}")
    for _ in range(samples):
        u = tuple(Fraction(rng.randint(-99, 99)) for _ in range(d))
        if all(c == 0 for c in u):
            continue
        c = _count_signs(arr, s_signs, u, "closed")
        if best is None or c < best:
            best = c

    normals = [h.normal for h in arr]
    for subset in combinations(range(len(arr)), d - 1):
        rows = [normals[i] for i in subset]
        u0 = linalg.kernel_vector(rows, ncols=d)
        if u0 is None:
            continue
        for u in (u0, linalg.vscale(-1, u0)):
            base = [_sign(linalg.dot(a, u)) for a in normals]
            for bits in range(2 ** len(subset)):
                c_signs = list(base)
                for j, i in enumerate(subset):
                    c_signs[i] = 1 if (bits >> j) & 1 else -1
                total = Fraction(0)
                for h, ss, cs in zip(arr, s_signs, c_signs):
                    if ss * cs <= 0:
                        total += h.weight
                if best is None or total < best:
                    best = total
    return best if best is not None else Fraction(0)


def dual_tukey_depth(points, q, weights=None):
    """Exact Tukey depth of q in a finite point set (closed half-space rule)."""
    pts = [point(p) for p in points]
    q = point(q)
    if weights is None:
        weights = [Fraction(1)] * len(pts)
    weights = [Fraction(w) for w in weights]
    base = Fraction(0)
    vecs = []
    wts = []
    for p, w in zip(pts, weights):
        v = linalg.vsub(p, q)
        if all(c == 0 for c in v):
            base += w  # coincident points lie in every closed half-space
        else:
            vecs.append(v)
            wts.append(w)
    if not vecs:
        return base
    best = None
    for u in direction_cells(vecs, len(q)):
        total = base
        for v, w in zip(vecs, wts):
            if linalg.dot(v, u) >= 0:
                total += w
        if best is None or total < best:
            best = total
    return best


def cell_unbounded(arr, q):
    """True iff q lies in an (open) unbounded cell of the arrangement.

    The cell {x : s_i (a_i.x - c_i) > 0} is bounded iff its recession cone
    {u : s_i a_i.u >= 0} is {0}. That needs the normals to span R^d, and then
    holds iff some y > 0 has sum y_i s_i a_i = 0 (Stiemke's alternative),
    that is iff the supports of the signed circuits that are positive on
    every s_i a_i cover all hyperplanes.
    """
    if len(arr) == 0:
        return True
    pos, zero = arr.sign_masks(q)
    if zero:
        return False
    if linalg.rank([h.normal for h in arr]) < arr.dimension:
        return True
    covered = 0
    for supp, plus in arr.circuits:
        if plus == supp & pos:
            covered |= supp
    return covered != (1 << len(arr)) - 1


def deepest_point(arr):
    """A point of maximum regression depth, with its exact depth and witness.

    Depth is constant on each face of the arrangement and never decreases
    from a face to a face of its boundary, so the scan over
    `cells.candidate_points` is exact in any d: the vertices when the normals
    span R^d, one representative per face otherwise. Ties go to the smallest
    point.
    """
    if len(arr) == 0:
        raise NoDeepPoint("empty arrangement has no deepest point")
    best_val = None
    best_pt = None
    best_cert = None
    for p in candidate_points(arr):
        val, cert = regression_depth(arr, p)
        if best_val is None or val > best_val or (val == best_val and p < best_pt):
            best_val, best_pt, best_cert = val, p, cert
    return best_pt, best_val, best_cert

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

RD, RD' and TRD read q's masks from the arrangement's record of q
(`Arrangement._query`), and RD keeps its value and certificate there, with
the closed hit sets of the direction cells it counts (`_cell_masks`), so at
one q the masks, the cell pass and RD are computed once; TRD is
min(w(A)/(d+1), RD) on that RD. RD' at a q on no hyperplane is RD too,
with the same witness: no residual is 0, so the two rules count the same
hyperplanes in every cell. At a q on hyperplanes whose normals may hold a
circuit, RD' groups the closed cell counts (on RD's hit sets when the
record holds them) by the cells' signs on the incident set, and reads every
perturbed pattern from the groups (`_open_depth`). Scans over many points
(`deepest_point`, the planar labels) use the plain masks and leave the
record alone.
"""

import random
from enum import Enum
from fractions import Fraction
from itertools import combinations

from . import linalg
from .cells import _integer_candidates, _sign, direction_cells
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


def _cell_masks(arr, pos, neg, rule):
    """The hyperplanes that each direction cell's ray count counts, as bitmasks: the one mask builder.

    ``pos`` and ``neg`` are the bitmasks of positive and negative residuals.
    Against a cell with sign masks (tp, tn), the closed rule counts the
    hyperplanes whose two signs are not both + or both -: the closed hit
    set H_c = full & ~((pos & tp) | (neg & tn)) of the cell, the
    hyperplanes a ray from q in it meets. The open rule counts those whose
    signs are opposite or whose cell sign is 0.
    """
    full = (1 << len(arr)) - 1
    if rule == "closed":
        return [full & ~((pos & tp) | (neg & tn)) for tp, tn in arr.direction_cells[1]]
    return [(pos & tn) | (neg & tp) | (full & ~tp & ~tn) for tp, tn in arr.direction_cells[1]]


def _tope_counts(arr, pos, neg, rule, masks=None):
    """Weighted ray count in each direction cell, as integers over `arr.weight_tables`' denominator.

    ``masks`` are the rule's `_cell_masks` at (pos, neg) when the caller has
    them already.
    """
    return _weights(arr, _cell_masks(arr, pos, neg, rule) if masks is None else masks)


def _min_count(arr, pos, neg, rule, masks=None):
    """Minimize the ray count over all directions, given the residual sign masks of q.

    The count is constant on each direction cell, so the minimum is taken over
    the cached cell sign masks (`_tope_counts`); the witness is the first
    minimizing cell in cell order.
    """
    counts = _tope_counts(arr, pos, neg, rule, masks)
    if not counts:
        return Fraction(0), _unit_direction(arr.dimension)
    best = min(counts)
    return Fraction(best, arr.weight_tables[0]), arr.direction_cells[0][counts.index(best)]


def _masks_at(arr, q):
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
    """Exact weighted regression depth with a witness direction, kept in the arrangement's record of q."""
    if not arr.hyperplanes:
        return _depth_at_masks(arr, 0, 0, _RD)
    slot = arr._query(q)
    if slot.rd is None:
        slot.hits = _cell_masks(arr, slot.pos, slot.neg, "closed")  # RD' and HED read them too
        best, u = _min_count(arr, slot.pos, slot.neg, "closed", slot.hits)
        slot.rd = best, DepthCertificate(u, best, "closed")
    return slot.rd


def _new_perturbed_cells(circuits, zero, seen=()):
    """Sign patterns on the incident hyperplanes ``zero`` whose cell the perturbation creates.

    ``circuits`` are the signed circuits of the incident normals; a pattern
    is the submask of ``zero`` of the hyperplanes with sigma_h = +1. Yields,
    in increasing order, the patterns whose open cone is empty (some circuit
    conforms) and whose perturbed cell is not (no conforming circuit is
    positive at its lowest index). The patterns in ``seen``, those of some
    direction cell, have an open cone, so they are skipped untested.
    ``circuits`` holds both orientations of each support, so a pattern is
    tested against each support once, in the orientation that is positive
    at its lowest index: the pattern conforms to it, or to its negation, or
    to neither.
    """
    lowplus = [(supp, plus) for supp, plus in circuits if plus & supp & -supp]
    bits = 0
    while True:
        if bits not in seen:
            conforms = False
            for supp, plus in lowplus:
                side = bits & supp
                if side == plus:
                    break  # a conforming circuit is positive at its lowest index
                if side == supp ^ plus:
                    conforms = True
            else:
                if conforms:
                    yield bits
        if bits == zero:
            return
        bits = (bits - zero) & zero  # the next submask of zero


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

    When no hyperplane passes through q, every residual is nonzero, so
    s * (a.u) <= 0 holds exactly when s * (a.u) < 0 or a.u = 0: the open and
    closed counts agree in every direction, and RD' is RD with the same first
    minimizing cell. It is then read from q's record (`regression_depth`,
    which fills it if RD has not run yet). Otherwise `_open_depth` runs, on
    RD's closed hit sets when the record holds them.
    """
    if not arr.hyperplanes:
        return _depth_at_masks(arr, 0, 0, _RD_OPEN)
    slot = arr._query(q)
    if not slot.zero:
        rd, cert = regression_depth(arr, q)
        return rd, DepthCertificate(cert.direction, rd, "open")
    return _open_depth(arr, slot.pos, slot.neg, slot.hits)


def _open_groups(arr, pos, neg, zero, hits=None):
    """The open ray count off the incident set ``zero``, minimised over the direction cells of each pattern.

    Returns {pattern: (count, index)}: a pattern is the cell's positive
    signs on ``zero`` (tp & zero), count its least open count (integers over
    `arr.weight_tables`' denominator) and index the first direction cell
    that has it. Direction cells are open, so no cell sign is 0 and the
    residual signs are 0 on ``zero``: the incident hyperplanes add nothing
    to the count of (pos, neg), and they add w(zero & (plus ^ tp)) under the
    perturbed signs whose positive ones are ``plus``. The keys are the
    patterns whose open cone is not empty.

    The closed rule counts every incident hyperplane in every cell and
    agrees with the open rule off them, so a cell's open count is its
    closed count less w(zero). The groups are therefore read off the closed
    counts, on the closed hit sets ``hits`` when the caller has them (RD's,
    from q's record).
    """
    groups = {}
    for j, (count, (tp, _)) in enumerate(zip(_tope_counts(arr, pos, neg, "closed", hits), arr.direction_cells[1])):
        key = tp & zero
        hit = groups.get(key)
        if hit is None or count < hit[0]:
            groups[key] = (count, j)
    shift = _weights(arr, [zero])[0]
    return {key: (count - shift, j) for key, (count, j) in groups.items()}


def _weights(arr, masks):
    """The weight of the hyperplanes in each of ``masks``, as integers over `arr.weight_tables`' denominator."""
    _, tables = arr.weight_tables
    if tables is None:
        return list(map(int.bit_count, masks))
    out = [tables[0][m & 255] for m in masks]
    for c, t in enumerate(tables[1:], 1):
        out = [w + t[m >> 8 * c & 255] for w, m in zip(out, masks)]
    return out


def _open_depth(arr, pos, neg, hits=None):
    """`open_regression_depth` of a nonempty arrangement, from the residual sign masks.

    One incident normal has no circuit, and two have one only when they are
    parallel, which for two hyperplanes through one point means equal
    canonical normals. Those cases, and the cells of `planar.label_depth`,
    take the plain open minimum (`_min_count`).

    With three or more incident normals, or two equal ones, one pass over the
    direction cells groups them by their pattern on the incident set
    (`_open_groups`, on the closed hit sets ``hits`` when RD has kept them
    in q's record). A pattern's open cone is empty exactly when no cell has
    it, so by Gordan's alternative the incident normals have no circuit when
    all 2^m patterns occur: q is locally generic and no circuit is read.
    Otherwise the incident normals' circuits (`Arrangement._circuits_among`)
    give the new perturbed patterns (`_new_perturbed_cells`, which tests
    only the patterns no cell has). A pattern is worth the least, over the
    groups, of the group's count plus the weight of the incident hyperplanes
    on which the pattern and the group's key differ, ties to the first cell.
    The groups are read in order of (count, first cell), and the weight
    added is never negative, so a pattern's reading stops at the first group
    whose (count, first cell) is not below its running (least, cell), and as
    soon as that least is no more than the deepest pattern's so far. Both
    exits skip only groups that cannot lower the pair and patterns that
    cannot be strictly deeper, so the first strictly deepest pattern and its
    first cell give the certificate.
    """
    zero = ((1 << len(arr)) - 1) & ~(pos | neg)
    rows = arr.int_rows
    m = zero.bit_count()
    if m < 2 or (m == 2 and rows[(zero & -zero).bit_length() - 1][0] != rows[zero.bit_length() - 1][0]):
        best, u = _min_count(arr, pos, neg, "open")
        return best, DepthCertificate(u, best, "open")

    den, tables = arr.weight_tables
    reps = arr.direction_cells[0]
    groups = _open_groups(arr, pos, neg, zero, hits)
    if len(groups) < 1 << m:
        order = sorted((count, j, key) for key, (count, j) in groups.items())
        deepest = None
        for plus in _new_perturbed_cells(arr._circuits_among(zero), zero, groups):
            floor = -1 if deepest is None else deepest[0]  # a pattern must beat it
            least = None  # the pattern's (count, first cell) so far
            for count, j, key in order:
                if least is not None and (count, j) > least:
                    break
                flip = plus ^ key  # both lie in zero
                if tables is None:
                    count += flip.bit_count()
                else:
                    count += sum([t[flip >> 8 * c & 255] for c, t in enumerate(tables)])
                if least is None or (count, j) < least:
                    least = count, j
                    if count <= floor:
                        break
            if least[0] > floor:
                deepest = least
        if deepest is not None:
            best = Fraction(deepest[0], den)
            return best, DepthCertificate(reps[deepest[1]], best, "open-perturbed")
    count, j = min(groups.values())
    best = Fraction(count, den)
    return best, DepthCertificate(reps[j], best, "open")


def truncated_regression_depth(arr, q):
    """TRD = min(total weight / (d+1), regression depth), with RD read from q's record."""
    return min(arr.total_weight / (arr.dimension + 1), regression_depth(arr, q)[0])


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
    point. The scan reads each candidate as an integer point (nums, den) and
    its masks with `Arrangement._signs`; only the returned point becomes
    `Fraction`s.
    """
    if len(arr) == 0:
        raise NoDeepPoint("empty arrangement has no deepest point")
    best_val = best_pt = best_cert = None
    for nums, den in _integer_candidates(arr)[0]:  # a scan, so the plain masks: the record stays with the caller's q
        val, cert = _depth_at_masks(arr, *arr._signs(nums, den), _RD)
        if best_val is None or val > best_val or (val == best_val and _lex_less((nums, den), best_pt)):
            best_val, best_pt, best_cert = val, (nums, den), cert
    nums, den = best_pt
    return tuple([Fraction(v, den) for v in nums]), best_val, best_cert


def _lex_less(p, q):
    """Whether the integer point p = (nums, den) is lexicographically less than q; denominators are positive."""
    return [v * q[1] for v in p[0]] < [v * p[1] for v in q[0]]

"""Tverberg partitions and the hyperplane Tverberg depth, from signed circuits.

A part P of an arrangement has RD(P, q) >= 1 exactly when q lies in the
convex hull of P's dual points. By Gordan's alternative (Bjorner et al.,
*Oriented Matroids*, 1999) that holds exactly when P contains a coverable
piece at q (`coverable_pieces`): a hyperplane through q, or the support of
a signed circuit of the normals whose signs match the residual signs of q.
The test is monotone under adding hyperplanes, so q carries a partition
into r parts of depth >= 1 exactly when r disjoint pieces exist at q
(`max_packing`), and the hyperplane Tverberg depth of q is the size of a
maximum packing.

`solve_tverberg` turns this into a constructive solver. For a fixed
partition the points where every part has depth >= 1 form a closed union of
faces, so a scan over `cells.candidate_points` finds one whenever the
partition exists. Everything is exact, and every certificate is re-verified
by `verify_partition`.
"""

from itertools import combinations

from . import linprog
from .cells import candidate_points
from .depth import regression_depth
from .errors import ExactBudgetExceeded, PartitionError
from .geometry import point, record


@record
class TverbergCertificate:
    partition: tuple
    q: tuple  # exact rational point
    part_depths: tuple  # (value, DepthCertificate) per part
    verified: bool = True


def _validate_partition(arr, partition):
    seen = set()
    for part in partition:
        if not part:
            raise PartitionError("empty part")
        for i in part:
            if not 0 <= i < len(arr):
                raise PartitionError(f"hyperplane index {i} out of range")
            if i in seen:
                raise PartitionError(f"hyperplane {i} appears in two parts")
            seen.add(i)
    if len(seen) != len(arr):
        raise PartitionError("partition does not cover the arrangement")


def verify_partition(arr, partition, q):
    """Exact check RD(part, q) >= 1 for every part; certificate or None.

    Raises PartitionError unless the parts are nonempty, disjoint and cover
    the arrangement.
    """
    _validate_partition(arr, partition)
    q = point(q)
    depths = []
    for part in partition:
        sub = arr.subset(part)
        val, cert = regression_depth(sub, q)
        if val < 1:
            return None
        depths.append((val, cert))
    return TverbergCertificate(tuple(tuple(p) for p in partition), q, tuple(depths))


def solve_tverberg(arr, r, seed=0):
    """A verified partition into r parts, each holding q at regression depth >= 1, or None if none exists.

    Scans the core, the first min(n, r(d+1)) hyperplanes, and then the whole
    arrangement if the core has no r-partition. By Tverberg's theorem for
    arrangements the core of a general-position instance with
    n >= (r-1)(d+1)+1 always has one; below that bound the scan still
    answers exactly. At the first candidate point where r disjoint coverable
    pieces exist, those become the parts and every other hyperplane is dealt
    onto them in turn, which cannot lower a part's depth. The core keeps the
    packing small and the dealing keeps the parts, and so their exact
    verification, small.

    The scan is deterministic: ``seed`` is accepted for callers that pass
    one and does not affect the result.
    """
    if r < 1:
        raise PartitionError("r must be >= 1")
    if any(h.weight != 1 for h in arr):
        raise PartitionError("Tverberg solver expects unit weights")
    n = len(arr)
    core = arr.subset(range(min(n, r * (arr.dimension + 1))))
    for sub in (core, arr) if len(core) < n else (arr,):
        for q in candidate_points(sub):
            pieces = max_packing(coverable_pieces(sub, q))
            if len(pieces) < r:
                continue
            parts = [[i for i in range(n) if piece >> i & 1] for piece in pieces[:r]]
            used = sum(pieces[:r])
            for k, i in enumerate(i for i in range(n) if not used >> i & 1):
                parts[k % r].append(i)
            cert = verify_partition(arr, [tuple(sorted(p)) for p in parts], q)
            if cert is None:
                raise RuntimeError("disjoint coverable pieces failed exact verification")
            return cert
    return None


def _good_pieces(n, d, contains):
    """Coverable subsets of size <= d+1 (enough by Caratheodory), as bitmasks."""
    return [
        sum(1 << i for i in subset)
        for size in range(1, d + 2)
        for subset in combinations(range(n), size)
        if contains(subset)
    ]


def coverable_pieces(arr, q):
    """Minimal sets of hyperplanes whose dual points have q in their convex hull, as bitmasks.

    The dual point of h is q - (s_h/|a_h|^2) a_h, with residual s_h = a_h.q - b_h,
    so q lies in the hull of S's dual points iff some h in S has s_h = 0, or
    some nonzero x >= 0 has sum x_h s_h a_h = 0 (Gordan's alternative). Such
    an x is a sum of signed circuits of the normals whose signs agree with the
    residual signs. The minimal coverable sets are therefore the singletons
    {h} with s_h = 0 and the circuit supports free of them whose positive part
    is exactly their set of positive residuals.
    """
    pos, zero = arr.sign_masks(q)
    pieces = [1 << i for i in range(len(arr)) if zero >> i & 1]
    pieces += [supp for supp, plus in arr.circuits if not supp & zero and plus == supp & pos]
    return pieces


def max_packing(pieces):
    """A maximum set of disjoint pieces (bitmasks), in order of their lowest element.

    Memoized recursion over the masks reachable from the union of the
    pieces: the lowest element of a mask is either left unpacked or covered
    by a piece whose lowest element it is and which fits in the mask. Only
    masks reachable that way are ever evaluated, not all 2^n. The pieces are
    then read back by walking the memo down from the union.
    """
    by_low = {}
    union = 0
    for piece in pieces:
        by_low.setdefault(piece & -piece, []).append(piece)
        union |= piece
    memo = {0: 0}

    def best(mask):
        hit = memo.get(mask)
        if hit is None:
            low = mask & -mask
            hit = best(mask ^ low)
            for piece in by_low.get(low, ()):
                if piece & mask == piece:
                    hit = max(hit, best(mask ^ piece) + 1)
            memo[mask] = hit
        return hit

    best(union)
    chosen = []
    mask = union
    while memo[mask]:
        low = mask & -mask
        if memo[mask ^ low] == memo[mask]:
            mask ^= low
            continue
        piece = next(p for p in by_low[low] if p & mask == p and memo[mask ^ p] == memo[mask] - 1)
        chosen.append(piece)
        mask ^= piece
    return chosen


def hyperplane_tverberg_depth(arr, q, exact_threshold=12):
    """Largest r admitting a partition into r parts, each with RD(part, q) >= 1.

    A part works iff q lies in the convex hull of its dual points, which is
    monotone under adding hyperplanes; the maximum over partitions therefore
    equals the maximum number of disjoint minimal coverable sets. Those are
    read from the residual signs of q and the cached signed circuits of the
    normals (`coverable_pieces`), and packed exactly by `max_packing`. Beyond
    the exact threshold the raised ExactBudgetExceeded carries a greedy lower
    bound: pieces taken smallest first, then in lexicographic order, when
    disjoint from those already taken.
    """
    n = len(arr)
    q = point(q)
    if n == 0:
        return 0
    pieces = coverable_pieces(arr, q)
    if n > exact_threshold:
        used = bound = 0
        for piece in sorted(pieces, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1])):
            if not piece & used:
                used |= piece
                bound += 1
        raise ExactBudgetExceeded(f"n={n} exceeds exact threshold {exact_threshold}", bound=bound)
    return len(max_packing(pieces))


def tverberg_point_depth(points, q, exact_threshold=12):
    """Tverberg depth of q in a point set: the dual-side companion measure."""
    pts = [point(p) for p in points]
    q = point(q)
    n = len(pts)
    if n == 0:
        return 0

    def contains(subset):
        return linprog.hull_membership_small([pts[i] for i in subset], q)

    if n > exact_threshold:
        raise ExactBudgetExceeded(f"n={n} exceeds exact threshold {exact_threshold}")
    d = len(q)
    return len(max_packing(_good_pieces(n, d, contains)))

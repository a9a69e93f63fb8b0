"""Tverberg partitions and the hyperplane Tverberg depth, from signed circuits or the circular order.

A part P of an arrangement has RD(P, q) >= 1 exactly when q lies in the
convex hull of P's dual points. By Gordan's alternative (Bjorner et al.,
*Oriented Matroids*, 1999) that holds exactly when P contains a coverable
piece at q (`coverable_pieces`): a hyperplane through q, or the support of
a signed circuit of the normals whose signs match the residual signs of q.
The test is monotone under adding hyperplanes, so q carries a partition
into r parts of depth >= 1 exactly when r disjoint pieces exist at q
(`max_packing`), and the hyperplane Tverberg depth of q is the size of a
maximum packing. At d = 1 and d >= 3 it is computed that way
(`_packing_size`). The pieces and the packing size are kept in the
arrangement's record of q (`Arrangement._query`), where the enclosing
depth at the same q reads them.

In the plane (d = 2) the packing size is read from the circular order of
the signed normals, with no circuit, piece or packing (`_planar_depth`).
Let u hyperplanes pass through q, and let Y hold y_h = sign(s_h) a_h for
the m others (s_h is the residual of q). The pieces in Y are the sets of
y's with a positive combination 0 and no smaller such subset: the
antipodal pairs (y_g a negative multiple of y_h), and the triples of
pairwise non-parallel y's with 0 inside their triangle. Let P be the size
of a maximum matching of antipodal pairs in Y. For a direction w let c(w)
be #{y : w.y > 0} plus the smaller of the counts of Y on the two rays of
the line w.y = 0. Then

    HTvD = u + min(P + (m - 2P) // 3, min over w of c(w)).

Proof. The u singletons {h} of the hyperplanes through q are disjoint from
every other piece, so HTvD is u plus the packing size of Y; write K(Y) for
the minimum above.

Upper bound. A packing of p pairs and t triples has p <= P and
2p + 3t <= m, so p + t <= (m + p) / 3 <= (m + P) / 3. A piece with no y in
the open half-plane w.y > 0 lies in w.y <= 0, where a positive combination
0 puts all its y's on the line w.y = 0; on a line only a pair, with one y
on each ray, is a piece. So disjoint pieces number at most c(w).

Lower bound. Take the P pairs of a maximum matching as pieces, and let Z be
the rest. Removing one of those pairs lowers P by one and m by two, so the
first term by exactly one; and it lowers every c(w) by exactly one, since
one of the two has w.y > 0 or both lie on the line w.y = 0, one on each
ray. So K(Y) = P + K(Z). Z holds no antipodal pair, as the matching is
maximum: each line w.z = 0 has Z on one ray at most, c(w) = #{z : w.z > 0},
and K(Z) = min(|Z| // 3, D) with D the least number of points of Z in an
open half-plane. Let K = K(Z). While |Z| > 3K, drop a point that no open
half-plane with exactly K points of Z holds, so that K(Z) stays K; such a
point exists. If D > K any point will do. Otherwise let H be an open
half-plane with exactly K points, and z_1, ..., z_N, N = |Z| - K >= 2K + 1,
the points of its closed complement Q in counter-clockwise order; drop
z_{K+1}. An open half-plane H' holding z_{K+1} meets Q in one arc (H' is
not H), so if H' reached past either end of Q it would hold z_1, ...,
z_{K+1} or z_{K+1}, ..., z_N, more than K points. Otherwise H' lies in the
arc from z_1 to z_N, at most a half-turn long, which an open half-plane
fits only when z_1 and z_N are antipodal; Z holds no antipodal pair, so
every H' holding z_{K+1} holds more than K points. Now |Z| = 3K and every
open half-plane holds K or more points of Z; order Z counter-clockwise as
z_0, ..., z_{3K-1} (as Birch, "On 3N points in a plane", 1959) and take the
K disjoint triples {z_i, z_{i+K}, z_{i+2K}}. If the convex hull of one
missed 0, its three points would lie in an open half-plane (they lie in a
closed one, and no two are antipodal), so one counter-clockwise gap of the
triple, from z_j to z_{j+K} (indices mod 3K), would exceed a half-turn. The
open half-plane counter-clockwise from z_j would then hold only points
strictly between z_j and z_{j+K}, at most K - 1 of them. So each triple
holds 0 in its convex hull, and so a piece, and the packing size is at
least P + K(Z) = K(Y).

The rule is computed in O(n) from the arrangement's sorted signed normals
(`Arrangement.signed_normals`) filtered by q's sign masks; the filtered
order, each position's half-turn reach and the direction blocks stay in
q's record, where the planar enclosing depth reads them. `max_packing`
over the pieces stays the oracle in the tests at every d.

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
    verification, small. In the plane a candidate runs `max_packing` only
    when the rule of the module docstring allows r pieces there.

    The scan is deterministic: ``seed`` is accepted for callers that pass
    one and does not affect the result.
    """
    if r < 1:
        raise PartitionError("r must be >= 1")
    if any(h.weight != 1 for h in arr):
        raise PartitionError("Tverberg solver expects unit weights")
    n = len(arr)
    planar = arr.dimension == 2
    core = arr.subset(range(min(n, r * (arr.dimension + 1))))
    for sub in (core, arr) if len(core) < n else (arr,):
        for q in candidate_points(sub):
            pos, zero = sub.sign_masks(q)  # plain masks: a scan keeps no record
            if planar and _planar_size(len(sub), *_order(sub, pos, zero)) < r:
                continue  # the rule's upper bound alone: no r disjoint pieces at q
            pieces = max_packing(_pieces(sub, pos, zero))
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


def _pieces(arr, pos, zero):
    """`coverable_pieces` at a point whose residual signs are the bitmasks (pos, zero)."""
    pieces = [1 << i for i in range(len(arr)) if zero >> i & 1]
    pieces += [supp for supp, plus in arr.circuits if not supp & zero and plus == supp & pos]
    return pieces


def coverable_pieces(arr, q):
    """Minimal sets of hyperplanes whose dual points have q in their convex hull, as a tuple of bitmasks.

    The dual point of h is q - (s_h/|a_h|^2) a_h, with residual s_h = a_h.q - b_h,
    so q lies in the hull of S's dual points iff some h in S has s_h = 0, or
    some nonzero x >= 0 has sum x_h s_h a_h = 0 (Gordan's alternative). Such
    an x is a sum of signed circuits of the normals whose signs agree with the
    residual signs. The minimal coverable sets are therefore the singletons
    {h} with s_h = 0 and the circuit supports free of them whose positive part
    is exactly their set of positive residuals.

    The pieces are kept in the arrangement's record of q
    (`Arrangement._query`), so HTvD and HED at one q find them once.
    """
    slot = arr._query(q)
    if slot.pieces is None:
        slot.pieces = tuple(_pieces(arr, slot.pos, slot.zero))
    return slot.pieces


def _order(arr, pos, zero):
    """The signed normals y_h of the planar hyperplanes off a point with residual sign masks (pos, zero).

    Returns (ys, reach, blocks). ys holds the entries of
    `Arrangement.signed_normals` for y_h = sign(s_h) a_h, in
    counter-clockwise order, with no sort. reach[p] is the last position in
    p..p+m-1 (p + m is p one turn on) whose y is at most a half-turn
    counter-clockwise from the y at p; it rises with p, so one pass finds
    it. reach has 2m entries, the second m one turn on. Equal directions
    form one block of ys: blocks maps each block number, in order, to
    (first, last, antipode), its first and last positions and the block
    number of the opposite direction.
    """
    sides = (~(pos | zero), pos)  # sides[positive] has bit h when y_h is a_h (positive = 1) or -a_h (0)
    ys = [e for e in arr.signed_normals if sides[e[1]] >> e[0] & 1]
    m = len(ys)
    ts = [e[2] for e in ys]
    ts += [t + 2 * len(arr) for t in ts]
    reach = []
    blocks = {}
    r = first = 0
    for p, e in enumerate(ys):
        r = max(r, p)
        while ts[r + 1] <= e[3]:  # ts[p + m] is past e[3], which lies within one turn
            r += 1
        reach.append(r)
        if p + 1 == m or ys[p + 1][4] != e[4]:
            blocks[e[4]] = (first, p, e[5])
            first = p + 1
    reach += [r + m for r in reach]
    return ys, reach, blocks


def _planar_order(arr, slot):
    """`_order` at the query of the record ``slot``, kept there."""
    if slot.order is None:
        slot.order = _order(arr, slot.pos, slot.zero)
    return slot.order


def _planar_size(n, ys, reach, blocks):
    """HTvD in the plane by the rule of the module docstring: u + min(P + (m - 2P) // 3, min over w of c(w)).

    Equal directions form one block of ys, of cb vectors. Its last position
    p sees seen = reach[p] - p vectors in the half-turn after it, the ca
    vectors of the antipodal block included, so the open side
    counter-clockwise of the block's line has c = seen - ca + min(cb, ca).
    The least of these is min over w of c(w). Take a line whose open side
    lies counter-clockwise of its ray r and clockwise of the opposite ray
    r'. Turning it clockwise until it meets a y takes the y's met on r' out
    of the open count and adds at most as many through the smaller ray. If
    r then holds y's, c is the value of their block. Otherwise only r'
    holds y's, at a block b with no antipodal y, and the open side is
    H = the half-turn clockwise of b. The last block z at most a half-turn
    counter-clockwise of b has an open side that meets Y only in H, and its
    smaller ray holds no more y's than its far ray, whose y's lie in H
    outside that open side; so z's value is at most |Y ∩ H|. P adds min(cb, ca)
    once per antipodal pair of blocks.
    """
    m = len(ys)
    pairs = 0
    cut = m
    for b, (first, last, anti) in blocks.items():
        ca = blocks[anti][1] + 1 - blocks[anti][0] if anti in blocks else 0
        both = min(last + 1 - first, ca)
        if b < anti:
            pairs += both
        cut = min(cut, reach[last] - last - ca + both)
    return n - m + min(pairs + (m - 2 * pairs) // 3, cut)


def _planar_depth(arr, q):
    """HTvD of a planar arrangement at q by `_planar_size`, kept in q's record as the packing size."""
    slot = arr._query(q)
    if slot.packing is None:
        slot.packing = _planar_size(len(arr), *_planar_order(arr, slot))
    return slot.packing


def _greedy_packing(arr, q):
    """A greedy packing size of q's coverable pieces and an upper bound on the maximum, as (size, bound).

    The greedy takes the pieces smallest first and then by mask, each when
    disjoint from those taken. The bound is the s singleton pieces plus
    |U| // c for the union U of the larger pieces and their least size c.
    With unit weights a partition into r parts of depth >= 1 has RD >= r, so
    RD joins the bound when q's record already holds it. A greedy size that
    meets the bound is the maximum.
    """
    slot = arr._query(q)
    used = size = singles = union = least = 0
    for piece in sorted(coverable_pieces(arr, q), key=lambda m: (m.bit_count(), m)):
        if not piece & used:
            used |= piece
            size += 1
        k = piece.bit_count()
        if k == 1:
            singles += 1
        else:
            union |= piece
            least = least or k  # the pieces come smallest first
    bound = singles + (union.bit_count() // least if union else 0)
    if arr.weight_tables[1] is None and slot.rd is not None:
        bound = min(bound, slot.rd[0])
    return size, bound


def _packing_size(arr, q):
    """The size of a maximum packing of q's coverable pieces, kept in q's record: greedy's or `max_packing`'s."""
    slot = arr._query(q)
    if slot.packing is None:
        size, bound = _greedy_packing(arr, q)
        slot.packing = size if size >= bound else len(max_packing(coverable_pieces(arr, q)))
    return slot.packing


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
    equals the maximum number of disjoint minimal coverable sets. At d = 2
    their number is read from the circular order of the signed normals by
    the rule of the module docstring (`_planar_depth`), with no circuit,
    piece or packing. Otherwise the pieces are read from the residual signs
    of q and the cached signed circuits of the normals (`coverable_pieces`),
    and packed exactly (`_packing_size`): a greedy packing when it reaches
    the upper bound min(RD, s + |U| // c), `max_packing` otherwise. RD is in
    that bound only with unit weights and only when q's record already
    holds it, so HTvD itself never computes direction cells. The packing
    size (and the pieces or the planar order) stay in q's record for
    HED. Beyond the exact threshold `max_packing` never runs: at d = 2 the
    raised ExactBudgetExceeded carries the exact value of the planar rule as
    its bound, with no circuit built; otherwise the greedy size is returned
    when it meets its bound, and is the raised lower bound when it does not.
    """
    n = len(arr)
    q = point(q)
    if n == 0:
        return 0
    if arr.dimension == 2:
        if n <= exact_threshold:
            return _planar_depth(arr, q)
        raise ExactBudgetExceeded(f"n={n} exceeds exact threshold {exact_threshold}", bound=_planar_depth(arr, q))
    slot = arr._query(q)
    if n > exact_threshold and slot.packing is None:
        size, bound = _greedy_packing(arr, q)
        if size < bound:
            raise ExactBudgetExceeded(f"n={n} exceeds exact threshold {exact_threshold}", bound=size)
        slot.packing = size
    return _packing_size(arr, q)


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

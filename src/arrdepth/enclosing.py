"""k-enclosure certificates and exact enclosing depth, primal and dual.

A sub-arrangement k-encloses q when it splits into d+1 disjoint groups of
size k such that every transversal (one hyperplane per group) gives q
positive regression depth, which is exactly convex-hull membership of q in
the transversal's dual points. Validity of a transversal therefore depends
only on the underlying (d+1)-set. For an arrangement a (d+1)-set is valid
when it contains a coverable piece, read from the residual signs and the
signed circuits of the normals (`tverberg.coverable_pieces`, kept in the
arrangement's record of q with their packing size, which caps the depth);
for a point set the valid sets are found by exact hull tests.

In the plane, without ``strict``, the depth is read from the circular order
of the signed normals y_h = sign(s_h) a_h of the hyperplanes not through q
(s_h is the residual of q), with no circuit, piece or search
(`_planar_max_k`); its start level min(n // 3, HTvD) comes from the same
order, by the rule in the `tverberg` module docstring. Let u be the
number of hyperplanes through q. By Gordan's alternative a triple of the
others is valid iff its y's lie in no open half-plane; a triple with a
hyperplane through q is always valid. Level k (n >= 3k) is feasible iff

(0) u >= k: one group of hyperplanes through q, two of any others; or
(B) some direction v has 2k - min(k, c(v)) - min(k, c(-v)) <= u, where
    c(v) counts the y's pointing along v: two groups on opposite rays,
    filled up with hyperplanes through q, and any k others; or
(A) three disjoint runs of the circular order of the y's, of 1..k
    hyperplanes each and at least 3k - u in all, are such that for each
    run and the next one counter-clockwise the angle from the first y of
    the run to the last y of the next is at most pi. An antipodal pair
    counts as pi, and one direction met again after a full turn as 2 pi.

Proof. Write each group as D_i = N_i + I_i, with I_i through q. If some N_i
is empty, that is (0). Otherwise the groups work iff every (y_a, y_b, y_c)
in N_1 x N_2 x N_3 lies in no open half-plane {y : w.y > 0}, that is iff the
sets W_i = {w : w.y <= 0 for all y in N_i} cover the circle of directions w.
If N_i lies in a closed arc [f_i, l_i] (the smallest, counter-clockwise from
its first to its last y) of width a_i < pi, W_i is the closed arc
[l_i + pi/2, f_i + 3pi/2] of length pi - a_i; otherwise W_i has at most two
points. Two of the W's cover the circle alone only as opposite closed
semicircles, that is when two groups lie on opposite rays: rule (B), which
any third group completes. Otherwise none of the W's is at most two points
or contains another, for the other two would then cover the circle. So an
arc that starts inside another ends past it, and none reaches round to the
start of the arc it starts after: ordered by their starts, the three arcs
end in the same order, and they cover the circle iff each reaches the start
of the next, f_i + 3pi/2 >= l_{i+1} + pi/2, that is l_{i+1} - f_i <= pi:
the angle bound of (A). The gaps g_i = l_{i+1} - l_i sum to 2 pi, and
g_i + a_i <= pi, so g_i = 2 pi - g_{i+2} - g_{i+1} >= a_{i+2} + pi - g_{i+1}
>= a_{i+1}: each [f_i, l_i] ends where or before the next one starts, so
the N_i follow each other around the circle and share at most an end
direction. Hyperplanes
with equal y can swap groups without changing any transversal's y's, so
each N_i may be taken as one stretch of the order restricted to
N_1 + N_2 + N_3. Replacing N_i by the |N_i| hyperplanes of the whole order
from the first of N_i keeps every first y and moves no last y further, so
three runs as in (A) exist. Conversely, for runs as in (A) and one y from
each, the three counter-clockwise gaps between them sum to 2 pi, and each
is at most the bound of two consecutive runs, at most pi: the triple lies in
no open half-plane. Groups that interleave around the circle are therefore
a case of (B): D_1 = {0, 2}, D_2 = {1}, D_3 = {181} (degrees) hold D_2 and
D_3 on opposite rays, and the runs {0, 1}, {2}, {181} satisfy (A) as well.

In every other case (d = 1 or 3, ``strict``, and point sets) a search
builds groups so that each group is drawn from the indices that still
complete every partial transversal through the groups chosen so far to a
valid set, and cuts a partial choice as soon as too few such indices remain
to fill the groups left (`_search_max_k`). Those indices are read from the
pieces on demand, so neither the valid sets nor their subsets are listed.

Without ``strict``, once RD has run at q, the levels k >= 2 are first
tested on its direction cells. For a cell c with sign masks (tp, tn), the
closed hit set H_c = full & ~((pos & tp) | (neg & tn)) holds the
hyperplanes that a ray from q in c meets (those through q at its start);
RD counts them and keeps them in q's record. A HED with no RD before it
builds no cells for the test: cold, they would cost more than the search
saves where no level is refuted.

Lemma. Groups G_1, ..., G_{d+1} k-enclose q iff every H_c contains one of
them.

Proof. A transversal T is valid iff q lies in the hull of its dual points,
iff RD(T, q) >= 1 with every weight 1. The closed count of T never rises
when a direction moves off a hyperplane into an adjacent cell, and the
cells of the whole arrangement refine those of T, so its least value is
taken inside some cell c, where it is |T & H_c|: T is valid iff it meets
every H_c. If every H_c holds a group, every transversal meets every H_c.
If some H_c holds no group, one index from each group outside H_c gives a
transversal that misses it.

Propagation (`_refuted`). Call a group forced when every k-enclosure at q
has it as one of its groups, and let `used` be the union of some forced
groups. Take a hit set H that contains none of them. By the lemma, each
k-enclosure has a group inside H; it is none of the forced groups, so it is
disjoint from them, and lies in H - used. So if H - used has fewer than k
indices, level k has no k-enclosure; if it has exactly k, H - used is that
group, and it is forced too. The forced groups of one k-enclosure are
disjoint groups of it, so more than d + 1 of them refute the level as well.
The rule only drops levels without a k-enclosure, and the search then
starts at the highest level it leaves, so the first certificate found is
the one the search alone finds.
"""

from fractions import Fraction
from itertools import combinations, product

from . import linalg, linprog
from .errors import CertificateError, ExactBudgetExceeded
from .geometry import Arrangement, evaluate, point, record
from .tverberg import _packing_size, _planar_depth, _planar_order, coverable_pieces


@record
class EnclosureCertificate:
    k: int
    groups: tuple  # d+1 disjoint index tuples, each of size k
    query: tuple


def _strict_interior(points, q):
    """q in the interior of the simplex spanned by d+1 affinely independent points."""
    pts = [point(p) for p in points]
    q = point(q)
    d = len(q)
    if len(pts) != d + 1:
        return False
    base = pts[0]
    diffs = [linalg.vsub(p, base) for p in pts[1:]]
    A = [[diffs[j][i] for j in range(d)] for i in range(d)]
    sol = linalg.solve(A, list(linalg.vsub(q, base)))
    if sol is None:  # the system is square: no unique solution means the points are affinely dependent
        return False
    lam0 = Fraction(1) - sum(sol)
    return lam0 > 0 and all(c > 0 for c in sol)


def _transversal_test(duals, q, strict):
    if strict:
        return _strict_interior(duals, q)
    return linprog.hull_membership_small(duals, q)


def verify_enclosure(arr: Arrangement, cert: EnclosureCertificate, strict=False) -> bool:
    """Exact check of all k^(d+1) transversals of a certificate."""
    d = arr.dimension
    n = len(arr)
    groups = tuple(tuple(g) for g in cert.groups)
    if len(groups) != d + 1:
        raise CertificateError(f"expected {d + 1} groups, got {len(groups)}")
    seen = set()
    for g in groups:
        if len(g) != cert.k:
            raise CertificateError("group sizes must all equal k")
        for i in g:
            if not 0 <= i < n:
                raise CertificateError(f"index {i} out of range")
            if i in seen:
                raise CertificateError(f"index {i} appears in two groups")
            seen.add(i)
    q = point(cert.query)
    ev = evaluate(arr, q)
    for choice in product(*groups):
        duals = [ev.dual_points[i] for i in choice]
        if not _transversal_test(duals, q, strict):
            return False
    return True


def _search_max_k(n, d, pieces, k_cap, node_budget=2_000_000):
    """Largest k admitting d+1 disjoint k-groups with all transversals valid.

    A (d+1)-set is valid when it contains one of ``pieces`` (bitmasks of at
    most d+1 indices, n >= d+1). Groups are enumerated with the
    smallest-first canonical order; the final group is the first k indices
    compatible with all transversals through the chosen groups. For a set m
    of at most d indices, reach(m) is the union of v - m over the valid sets
    v containing m. Every index of a later group completes each partial
    transversal m through the chosen groups to a valid set, so it lies in
    the candidate set C = unused ∩ reach(m) over all m. A node whose C holds
    fewer than the (d+1-j)k indices still to place (j groups chosen) has no
    solution and is cut, and the next group is drawn from C only. A child's
    C is computed in its parent, so a cut node is never entered. A child's C
    lies in through(h) = C ∩ reach(m ∪ {h}) over the partial transversals m,
    for each index h of its group; so only indices whose own through(h) holds
    as many indices as are still to place can form a group, and a node with
    fewer than k of them has no child and lists no group. Only subtrees without a
    solution are dropped, so the first certificate found is the one the
    unpruned depth-first search finds, and the nodes visited are a subset of
    its nodes.

    reach(m) is read from the pieces when the search first asks for it, and
    kept for the rest of the search. It is every index outside m when some
    piece p has |m ∪ p| <= d, and otherwise the union of p - m over the
    pieces p with |m ∪ p| = d+1. Proof: in the first case m ∪ p ∪ {h},
    padded to d+1 indices, is valid for every h outside m. Otherwise a valid
    v ⊇ m contains a piece p with d+1 = |v| >= |m ∪ p| > d, so v = m ∪ p.
    Passing only (d+1)-sets as pieces makes them the valid sets themselves,
    as for strict enclosure and for point sets.
    """
    outside = (1 << n) - 1
    small = [p for p in pieces if p.bit_count() <= d]
    # A (d+1)-piece p has |m ∪ p| = d+1 only when it contains m, so only those
    # holding m's lowest index are read. The keys are the indices, as single bits.
    through_low = {}
    for p in pieces:
        if p.bit_count() == d + 1:
            rest = p
            while rest:
                low = rest & -rest
                through_low.setdefault(low, []).append(p)
                rest ^= low
    reach = {0: outside if small else sum(through_low)}

    def reach_of(m):
        r = 0
        for p in small:
            size = (m | p).bit_count()
            if size <= d:
                r = outside
                break
            if size == d + 1:
                r |= p
        else:
            for p in through_low.get(m & -m, ()):
                if p & m == m:
                    r |= p
        r &= ~m
        reach[m] = r
        return r

    get = reach.get
    nodes = 0
    best = 0

    def extend(chosen, partial, cand, k):
        # partial: the transversals through the chosen groups; cand: their candidate set C
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ExactBudgetExceeded("enclosure search budget exhausted", bound=best)
        if len(chosen) == d:
            return chosen + (tuple([h for h in range(n) if cand >> h & 1][:k]),)
        need = (d - len(chosen)) * k  # indices still to place after the next group
        start = chosen[-1][0] + 1 if chosen else 0
        # through[h]: C of the partial transversals extended by h. A child's C is
        # the intersection of through[h] over the indices h of its group, so only
        # an h whose through[h] still holds `need` indices can be in a group.
        through = {}
        viable = []
        rest = cand >> start << start  # the candidates from start on
        spare = rest.bit_count() - k  # how many of them may fail with a group still possible
        if spare < 0:
            return None
        while rest:
            bit = rest & -rest
            rest ^= bit
            r = cand
            for m in partial:
                m |= bit
                got = get(m)
                r &= reach_of(m) if got is None else got
            if r.bit_count() >= need:
                h = bit.bit_length() - 1
                through[h] = r
                viable.append(h)
            elif not spare:
                return None
            else:
                spare -= 1
        for group in combinations(viable, k):
            child = cand
            for h in group:
                child &= through[h]
            if child.bit_count() >= need:
                bits = [1 << h for h in group]
                result = extend(chosen + (group,), [m | b for m in partial for b in bits], child, k)
                if result is not None:
                    return result
        return None

    cand = reach[0]
    for k in range(k_cap, 0, -1):
        if cand.bit_count() < (d + 1) * k:
            continue
        found = extend(tuple(), [0], cand, k)
        if found is not None:
            best = k
            return k, found
    return 0, None


def _refuted(hits, d, k):
    """Whether the closed hit sets ``hits`` prove that level k has no k-enclosure, by the propagation rule.

    Groups are forced, and the level refuted, as the module docstring
    proves, until no hit set forces another group. A hit set holding a
    forced group is done with; one with more than k indices outside `used`
    waits for `used` to grow. Every order of ``hits`` is sound; smallest
    first finds the forced groups soonest.
    """
    forced = []
    used = 0
    waiting = hits
    while waiting:
        grown = False
        later = []
        for hit in waiting:
            rest = hit & ~used
            size = rest.bit_count()
            if size > k:
                later.append(hit)
                continue
            for g in forced:
                if g & hit == g:
                    break
            else:
                if size < k or len(forced) > d:
                    return True
                forced.append(rest)
                used |= rest
                grown = True
        if not grown:
            break
        waiting = later
    return False


def _planar_max_k(arr, q, k_cap):
    """Largest k <= k_cap with a k-enclosure of q at d = 2, and its groups, by rules (0), (B) and (A).

    The y_h of the m non-incident hyperplanes, in counter-clockwise order,
    each position's half-turn reach and the blocks of equal directions are
    read from q's record (`tverberg._planar_order`), where HTvD at q reads
    them too. A level is then decided by (0), by (B) over the blocks, and
    by (A) through `_runs`, over the run sizes in 1..k that sum to exactly
    3k - u, one per rotation: a run made shorter at its end keeps the angle
    bounds, so larger sums add nothing. `_pad` fills the groups.
    """
    n = len(arr)
    slot = arr._query(q)
    ys, reach, blocks = _planar_order(arr, slot)
    m = len(ys)
    u = n - m
    incident = [h for h in range(n) if slot.zero >> h & 1]
    for k in range(k_cap, 0, -1):
        if u >= k:
            return k, _pad(n, k, [[]], incident)
        for first, last, anti in blocks.values():
            anti_first, anti_last, _ = blocks.get(anti, (0, -1, None))  # no y points the opposite way
            if min(k, last + 1 - first) + min(k, anti_last + 1 - anti_first) >= 2 * k - u:
                rays = (ys[first : last + 1][:k], ys[anti_first : anti_last + 1][:k])
                return k, _pad(n, k, [[e[0] for e in ray] for ray in rays], incident)
        need = 3 * k - u
        for s1 in range(k - u, k + 1):
            for s2 in range(k - u, k + 1):
                s3 = need - s1 - s2
                if not k - u <= s3 <= k or (s2, s3, s1) < (s1, s2, s3) or (s3, s1, s2) < (s1, s2, s3):
                    continue
                starts = _runs(m, reach, s1, s2, s3)
                if starts is not None:
                    parts = [[ys[p % m][0] for p in range(a, a + s)] for a, s in zip(starts, (s1, s2, s3))]
                    return k, _pad(n, k, parts, incident)
    return 0, None


def _runs(m, reach, s1, s2, s3):
    """Starts (i, j, l) of three disjoint runs of s1, s2 and s3 positions, in order, as rule (A) asks, or None.

    Run 2 starts at j in [i + s1, reach[i] - s2 + 1], run 3 at l in
    [j + s2, reach[j] - s3 + 1] and by i + m - s3, and reach[l] must reach
    i + m + s1 - 1, the end of run 1 one turn on. reach rises, so for each i
    the best j is the largest one that leaves run 3 some l, and the best l
    the largest one.
    """
    for i in range(m):
        end = i + m - s3
        for j in range(min(reach[i] - s2 + 1, end - s2), i + s1 - 1, -1):
            if reach[j] - j >= s2 + s3 - 1:
                l = min(reach[j] - s3 + 1, end)
                if reach[l] >= i + m + s1 - 1:
                    return i, j, l
                break
    return None


def _pad(n, k, parts, incident):
    """Three groups of k, sorted and ordered by their first index.

    Each part is filled up with incident hyperplanes in order, and each
    group left takes the next k of the other hyperplanes.
    """
    spare = iter(incident)
    groups = [part + [next(spare) for _ in range(k - len(part))] for part in parts]
    used = {h for g in groups for h in g}
    rest = [h for h in range(n) if h not in used]
    groups += [rest[j * k : (j + 1) * k] for j in range(3 - len(parts))]
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def hyperplane_enclosing_depth(arr: Arrangement, q, strict=False, exact_threshold=12):
    """Maximum k such that a sub-arrangement k-encloses q, with a certificate.

    A (d+1)-set is a valid transversal iff it contains a minimal coverable
    piece (`tverberg.coverable_pieces`); with ``strict`` (q interior to the
    simplex of its dual points) iff it is itself a piece, which is then a
    circuit free of incident hyperplanes. The k diagonal transversals of a
    k-enclosure are disjoint coverable sets, so the levels are tried from
    min(n // (d+1), HTvD) down, with HTvD read from the arrangement's record
    of q (`Arrangement._query`); at d = 2 it comes from the circular order of
    the signed normals (`tverberg._planar_depth`), elsewhere from the
    packing of the pieces. At d = 2 without ``strict`` each level is
    decided on that order by the rules (0), (B) and (A) of the module
    docstring (`_planar_max_k`), with no circuit, piece or search; the
    groups are then sorted and ordered by their first index. Otherwise
    (d = 1 or 3, or ``strict``) `_search_max_k` searches the levels over
    the pieces kept in the record; without ``strict``, when RD has kept
    its closed hit sets there, it starts at the highest level k >= 2 that
    they do not refute (`_refuted`), or at 1. The path depends only on d and
    ``strict``. Exact for n <= exact_threshold and d <= 3; larger instances
    raise ExactBudgetExceeded carrying the lower bound 1 when some
    (d+1)-set is valid, else 0: without ``strict`` that is when HTvD >= 1,
    which at d = 2 the planar rule decides.
    """
    d = arr.dimension
    n = len(arr)
    q = point(q)
    if n < d + 1:
        return 0, None
    planar = d == 2 and not strict
    if n > exact_threshold or d > 3:
        # n >= d+1, so every piece lies in some (d+1)-set.
        if planar:
            bound = int(_planar_depth(arr, q) >= 1)
        else:
            pieces = coverable_pieces(arr, q)
            bound = int(any(p.bit_count() == d + 1 for p in pieces) if strict else bool(pieces))
        raise ExactBudgetExceeded(f"n={n}, d={d} exceeds the exact enclosing-depth budget", bound=bound)

    k_cap = min(n // (d + 1), _planar_depth(arr, q) if d == 2 else _packing_size(arr, q))
    if planar:
        k, groups = _planar_max_k(arr, q, k_cap)
    else:
        pieces = coverable_pieces(arr, q)
        if strict:
            pieces = [p for p in pieces if p.bit_count() == d + 1]
        elif k_cap >= 2 and (hits := arr._query(q).hits) is not None:  # RD's, when it has run at q
            hits = sorted(set(hits), key=int.bit_count)
            while k_cap >= 2 and _refuted(hits, d, k_cap):
                k_cap -= 1
        k, groups = _search_max_k(n, d, pieces, k_cap)
    if k == 0:
        return 0, None
    return k, EnclosureCertificate(k, groups, q)


def point_enclosing_depth(points, q, strict=False, exact_threshold=12):
    """Enclosing depth of q in a point set (the dual-side companion measure)."""
    pts = [point(p) for p in points]
    q = point(q)
    n = len(pts)
    if n == 0:
        return 0
    d = len(q)
    if n < d + 1:
        return 0
    if n > exact_threshold or d > 3:
        raise ExactBudgetExceeded(f"n={n}, d={d} exceeds the exact enclosing-depth budget")
    valid = {
        sum(1 << i for i in combo)
        for combo in combinations(range(n), d + 1)
        if _transversal_test([pts[i] for i in combo], q, strict)
    }
    k, _ = _search_max_k(n, d, valid, n // (d + 1))
    return k

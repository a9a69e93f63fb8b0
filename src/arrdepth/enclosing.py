"""k-enclosure certificates and exact enclosing depth, primal and dual.

A sub-arrangement k-encloses q when it splits into d+1 disjoint groups of
size k such that every transversal (one hyperplane per group) gives q
positive regression depth, which is exactly convex-hull membership of q in
the transversal's dual points. Validity of a transversal therefore depends
only on the underlying (d+1)-set. For an arrangement a (d+1)-set is valid
when it contains a coverable piece, read from the residual signs and the
signed circuits of the normals (`tverberg.coverable_pieces`, kept in the
arrangement's query slot with their packing size, which caps the search);
for a point set the valid sets are found by exact hull tests. The search
then builds groups so that each group is drawn from the indices that still
complete every partial transversal through the groups chosen so far to a
valid set, and cuts a partial choice as soon as too few such indices remain
to fill the groups left. Those indices are read from the pieces on demand,
so neither the valid sets nor their subsets are listed.
"""

from fractions import Fraction
from itertools import combinations, product

from . import linalg, linprog
from .errors import CertificateError, ExactBudgetExceeded
from .geometry import Arrangement, evaluate, point, record
from .tverberg import _packing_size, coverable_pieces


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


def hyperplane_enclosing_depth(arr: Arrangement, q, strict=False, exact_threshold=12):
    """Maximum k such that a sub-arrangement k-encloses q, with a certificate.

    A (d+1)-set is a valid transversal iff it contains a minimal coverable
    piece (`tverberg.coverable_pieces`); with ``strict`` (q interior to the
    simplex of its dual points) iff it is itself a piece, which is then a
    circuit free of incident hyperplanes. The k diagonal transversals of a
    k-enclosure are disjoint coverable sets, so the search starts at
    min(n // (d+1), HTvD), with the pieces and HTvD read from the query slot
    for q (`Arrangement._query`). Exact for n <= exact_threshold and d <= 3; larger
    instances raise ExactBudgetExceeded carrying the lower bound 1 when some
    (d+1)-set is valid, else 0.
    """
    d = arr.dimension
    n = len(arr)
    q = point(q)
    if n < d + 1:
        return 0, None
    pieces = coverable_pieces(arr, q)
    if n > exact_threshold or d > 3:
        # n >= d+1, so every piece lies in some (d+1)-set.
        bound = int(any(p.bit_count() == d + 1 for p in pieces) if strict else bool(pieces))
        raise ExactBudgetExceeded(f"n={n}, d={d} exceeds the exact enclosing-depth budget", bound=bound)

    if strict:
        pieces = [p for p in pieces if p.bit_count() == d + 1]
    k, groups = _search_max_k(n, d, pieces, min(n // (d + 1), _packing_size(arr, q)))
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

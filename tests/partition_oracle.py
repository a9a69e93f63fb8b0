"""Exhaustive Tverberg oracle: every partition, checked at every face.

Shares no decision logic with `tverberg.solve_tverberg`: it walks the
partitions into r blocks and tests convex-hull membership of q in each
part's dual points by exact LP (`linprog.hull_membership`) at one
representative of every face, instead of reading signed circuits. Only a
found partition goes through `verify_partition`. Stirling-many partitions
make it usable on small arrangements only.
"""

from arrdepth import linprog
from arrdepth.cells import enumerate_faces
from arrdepth.errors import ExactBudgetExceeded
from arrdepth.tverberg import verify_partition


def _partitions_rgs(n, r):
    """Partitions of range(n) into exactly r nonempty blocks, lexicographic
    by restricted growth string."""

    def rec(i, rgs, maxval):
        if i == n:
            if maxval == r - 1:
                blocks = [[] for _ in range(r)]
                for j, b in enumerate(rgs):
                    blocks[b].append(j)
                yield tuple(tuple(b) for b in blocks)
            return
        for b in range(min(maxval + 1, r - 1) + 1):
            if r - 1 - max(maxval, b) <= n - 1 - i:  # enough slots left to reach r blocks
                yield from rec(i + 1, rgs + [b], max(maxval, b))

    if n:
        yield from rec(1, [0], 0)


def exhaustive_tverberg(arr, r, max_partitions=200_000):
    """First partition (in lexicographic order) admitting a common point of
    positive depth, checked at every face representative; None if there is none.

    The region {q : RD(B, q) >= 1} is a union of faces of the full
    arrangement, so checking one representative per face is exact.
    """
    n = len(arr)
    if r < 1 or n == 0 or r > n:
        return None
    reps = [rep for _, rep, _ in enumerate_faces(arr)]
    dual_cache = [tuple(h.foot(q) for h in arr) for q in reps]
    memo = {}

    def part_ok(part, ci):
        key = (part, ci)
        hit = memo.get(key)
        if hit is None:
            q = reps[ci]
            duals = [dual_cache[ci][i] for i in part]
            hit = linprog.hull_membership_small(duals, q) if len(duals) <= len(q) + 2 else linprog.hull_membership(duals, q)
            memo[key] = hit
        return hit

    count = 0
    for partition in _partitions_rgs(n, r):
        count += 1
        if count > max_partitions:
            raise ExactBudgetExceeded(f"more than {max_partitions} partitions")
        for ci in range(len(reps)):
            if all(part_ok(part, ci) for part in partition):
                cert = verify_partition(arr, partition, reps[ci])
                if cert is not None:
                    return cert
    return None

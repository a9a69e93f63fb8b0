import hashlib
import random
from fractions import Fraction

import pytest

from arrdepth.depth import regression_depth
from arrdepth.errors import DimensionError, FlatError, FlatMembershipError, OriginIncidenceError
from arrdepth.geometry import Arrangement, arrangement, generate_instance, hyperplane
from arrdepth.transversal import (
    restrict,
    restricted_depth,
    restricted_truncated_depth,
    solve_planar_transversal,
)
from transversal_oracle import oracle_transversal


def test_restrict_all_parallel():
    arr = arrangement(2, [((0, 1), 1), ((0, 1), 2)])
    res = restrict(arr, [(1, 0)])
    assert len(res.restricted) == 0
    assert res.parallel_weight == 2
    assert restricted_depth(arr, (0, 0), [(1, 0)]) == 2  # = |A|


def test_restrict_direct_intersection():
    arr = arrangement(2, [((1, 0), 1)])
    res = restrict(arr, [(1, 0)])
    assert len(res.restricted) == 1
    h = res.restricted[0]
    assert h.offset / h.normal[0] == 1  # restricted point t = 1


def test_restrict_diagonal_flat():
    arr = arrangement(2, [((1, 1), 2)])
    res = restrict(arr, [(1, 1)])
    h = res.restricted[0]
    assert h.offset / h.normal[0] == 1  # x = t(1,1) meets x+y=2 at t = 1


def test_restrict_rejects_origin_incidence():
    arr = arrangement(2, [((1, 1), 0)])
    with pytest.raises(OriginIncidenceError):
        restrict(arr, [(1, 0)])


def test_restrict_rejects_dependent_basis():
    arr = arrangement(2, [((1, 0), 1)])
    with pytest.raises(FlatError):
        restrict(arr, [(1, 0), (2, 0)])


def test_restricted_depth_1d_median():
    arr = arrangement(2, [((1, 0), 1), ((1, 0), 3), ((1, 0), 5)])
    assert restricted_depth(arr, (3, 0), [(1, 0)]) == 2
    assert restricted_depth(arr, (1, 0), [(1, 0)]) == 1
    assert restricted_depth(arr, (9, 0), [(1, 0)]) == 0


def test_restricted_depth_requires_membership():
    arr = arrangement(2, [((1, 0), 1)])
    with pytest.raises(FlatMembershipError):
        restricted_depth(arr, (1, 1), [(1, 0)])


def test_restricted_depth_rejects_a_query_of_the_wrong_length():
    arr = arrangement(2, [((1, 0), 1), ((1, 0), 3), ((1, 0), 5)])
    for q in ((3,), (3, 0, 0)):
        with pytest.raises(DimensionError):
            restricted_depth(arr, q, [(1, 0)])


def test_restriction_identity_full_space():
    rng = random.Random(3)
    basis = [(1, 0), (0, 1)]
    for trial in range(8):
        arr = generate_instance(100 + trial, 2, rng.randint(2, 7), "generic")
        if any(h.offset == 0 for h in arr):
            continue
        q = (Fraction(rng.randint(-9, 9), 2), Fraction(rng.randint(-9, 9), 2))
        assert restricted_depth(arr, q, basis) == regression_depth(arr, q)[0]


def test_restricted_truncated():
    arr = arrangement(2, [((1, 0), 1), ((1, 0), 3), ((1, 0), 5)])
    assert restricted_truncated_depth(arr, (3, 0), [(1, 0)]) == Fraction(3, 2)


def test_restricted_truncated_reads_an_iterator_basis_once():
    arr = arrangement(2, [((1, 0), 1), ((1, 0), 3), ((1, 0), 5)])
    assert restricted_truncated_depth(arr, (3, 0), iter([(1, 0)])) == Fraction(3, 2)


def test_restricted_depth_upper_bound():
    rng = random.Random(6)
    for trial in range(10):
        arr = generate_instance(400 + trial, 2, rng.randint(2, 6), "generic")
        if any(h.offset == 0 for h in arr):
            continue
        res = restrict(arr, [(1, 1)])
        t = Fraction(rng.randint(-5, 5), 3)
        q = (t, t)
        val = restricted_depth(arr, q, [(1, 1)])
        assert val <= res.parallel_weight + res.restricted.total_weight
        if len(res.restricted) == 0:
            assert val == arr.total_weight


def test_transversal_symmetric_pair():
    a = arrangement(2, [((1, 0), 1), ((1, 0), -1)])
    sol = solve_planar_transversal(a, a)
    for counts, arr in zip(sol.counts, (a, a)):
        assert counts.left + counts.parallel >= 1
        assert counts.right + counts.parallel >= 1
    assert sol.status == "exact"


def test_transversal_requires_origin_avoidance():
    a = arrangement(2, [((1, 0), 0)])
    with pytest.raises(OriginIncidenceError):
        solve_planar_transversal(a, a)


def _origin_avoiding(seed, n, profile="generic"):
    while True:
        arr = generate_instance(seed, 2, n, profile)
        if all(h.offset != 0 for h in arr):
            return arr
        seed += 10007


def test_transversal_random_pairs_verified():
    rng = random.Random(8)
    for trial in range(15):
        a1 = _origin_avoiding(2000 + trial, rng.randint(1, 8))
        a2 = _origin_avoiding(3000 + trial, rng.randint(1, 8))
        sol = solve_planar_transversal(a1, a2)
        assert sol.status == "exact"
        # independent re-verification by direct residual counting
        for counts, arr in zip(sol.counts, (a1, a2)):
            left = right = par = Fraction(0)
            for h in arr:
                c = h.normal[0] * sol.direction[0] + h.normal[1] * sol.direction[1]
                s = h.residual(sol.q)
                if c == 0:
                    par += h.weight
                elif s * c <= 0:
                    right += h.weight
                if c != 0 and s * c >= 0:
                    left += h.weight
            assert left == counts.left and right == counts.right and par == counts.parallel
            assert left + par >= arr.total_weight / 2
            assert right + par >= arr.total_weight / 2


def test_transversal_weighted_pair():
    a1 = arrangement(2, [((1, 0), 1, Fraction(3, 2)), ((0, 1), 2, Fraction(1, 2)), ((1, 1), 3)])
    a2 = arrangement(2, [((1, -1), 2, Fraction(2)), ((2, 1), 1)])
    sol = solve_planar_transversal(a1, a2)
    assert sol.status == "exact"
    for counts, arr in zip(sol.counts, (a1, a2)):
        need = arr.total_weight / 2
        assert counts.left + counts.parallel >= need
        assert counts.right + counts.parallel >= need


def test_transversal_monotone_point_steps():
    # restricted depth along a 1-flat changes by at most one point's weight
    arr = arrangement(2, [((1, 0), 1), ((1, 0), 3), ((2, 1), 5, Fraction(1, 2))])
    basis = [(1, 0)]
    qs = [(Fraction(t, 2), Fraction(0)) for t in range(-2, 13)]
    vals = [restricted_depth(arr, q, basis) for q in qs]
    weights = {Fraction(1), Fraction(1, 2)}
    for v1, v2 in zip(vals, vals[1:]):
        assert abs(v2 - v1) <= 1  # max single weight here is 1


def test_sweep_order_constancy():
    # between consecutive critical directions the restricted point order is fixed
    from arrdepth.cells import _angle_cmp, normalize_ray, _rot90
    from functools import cmp_to_key
    from itertools import combinations

    a1 = _origin_avoiding(77, 4)
    a2 = _origin_avoiding(78, 4)
    lines = [(h.normal, h.offset) for h in a1] + [(h.normal, h.offset) for h in a2]
    crit = set()
    for a, _ in lines:
        w = normalize_ray(_rot90(a))
        if w[1] < 0 or (w[1] == 0 and w[0] < 0):
            w = tuple(-c for c in w)
        crit.add(w)
    for (an, ac), (bn, bc) in combinations(lines, 2):
        det = an[0] * bn[1] - an[1] * bn[0]
        if det == 0:
            continue
        x = (ac * bn[1] - bc * an[1]) / det
        y = (an[0] * bc - bn[0] * ac) / det
        w = normalize_ray((x, y))
        if w[1] < 0 or (w[1] == 0 and w[0] < 0):
            w = tuple(-c for c in w)
        crit.add(w)
    ordered = sorted(crit, key=cmp_to_key(_angle_cmp))

    def order_at(u):
        pts = []
        for i, (a, c) in enumerate(lines):
            denom = a[0] * u[0] + a[1] * u[1]
            if denom != 0:
                pts.append((c / denom, i))
        return tuple(i for _, i in sorted(pts))

    for w1, w2 in zip(ordered, ordered[1:]):
        # two interior samples of the sector must see the same point order
        s1 = (3 * w1[0] + w2[0], 3 * w1[1] + w2[1])
        s2 = (w1[0] + 3 * w2[0], w1[1] + 3 * w2[1])
        assert order_at(s1) == order_at(s2)


def _degenerate_lines(rng, n):
    """n lines off the origin: concurrent lines, duplicates written scaled, parallels, zero and rational weights."""
    center = (rng.randint(-3, 3), rng.randint(-3, 3))
    rows = []
    while len(rows) < n:
        r = rng.random()
        if r < 0.3:
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            c = a[0] * center[0] + a[1] * center[1]
        elif r < 0.55 and rows:
            (a0, c0), k = rng.choice(rows), rng.choice((1, 2, -3))
            a = (k * a0[0], k * a0[1])
            c = k * c0 + rng.choice((0, 0, 1, -2))  # 0: a duplicate, written scaled
        else:
            a = (rng.randint(-4, 4), rng.randint(-4, 4))
            c = rng.randint(-5, 5)
        if a != (0, 0) and c != 0:
            rows.append((a, c))
    weights = [rng.choice((0, 1, 1, 1, 2, Fraction(1, 2), Fraction(5, 3))) for _ in rows]
    return arrangement(2, [(a, c, w) for (a, c), w in zip(rows, weights)])


def _pair(i, profiles=("generic", "weighted", "degenerate", "degenerate")):
    """Pair i: n up to 9 (up to 30 for every 25th pair); every 50th pair also meets the origin or is 3-d."""
    rng = random.Random(f"transversal-pair:{i}")
    n_max = 30 if i % 25 == 0 else 9
    pair = []
    for _ in range(2):
        profile, n = rng.choice(profiles), rng.randint(0, n_max)
        if profile == "degenerate":
            pair.append(_degenerate_lines(rng, n))
        else:
            pair.append(_origin_avoiding(rng.randrange(10**6), n, profile))
    if i % 50 == 7:
        pair[1] = Arrangement(2, pair[1].hyperplanes + (hyperplane((1, -2), 0),))
    if i % 50 == 17:
        pair[0] = generate_instance(i, 3, 3)
    return pair


def _outcome(solve, a1, a2):
    try:
        return solve(a1, a2)
    except Exception as exc:
        return type(exc)


def test_transversal_matches_fraction_oracle():
    """The scan returns the oracle's record (or raises its exception), and restricted depth finds the line half-deep."""
    solved = 0
    for i in range(500):
        a1, a2 = _pair(i)
        sol = _outcome(solve_planar_transversal, a1, a2)
        assert sol == _outcome(oracle_transversal, a1, a2), i
        if isinstance(sol, type):
            continue
        solved += 1
        for arr in (a1, a2):
            assert restricted_depth(arr, sol.q, [sol.direction]) >= arr.total_weight / 2
    assert solved >= 480


def _criterion_9_pairs():
    """The pairs of `test_criterion_9_planar_transversal`."""
    rng = random.Random("acc9")
    for i in range(100):
        arrs = []
        for side in (0, 1):
            seed = 80_000 + 2 * i + side
            while True:
                cand = generate_instance(seed, 2, rng.randint(1, 8), "generic")
                if all(h.offset != 0 for h in cand):
                    arrs.append(cand)
                    break
                seed += 100_003
        yield arrs


def _solutions():
    pairs = list(_criterion_9_pairs()) + [_pair(1000 + i, ("weighted", "degenerate")) for i in range(100)]
    for a1, a2 in pairs:
        sol = _outcome(solve_planar_transversal, a1, a2)
        if isinstance(sol, type):
            yield sol.__name__
        else:
            yield f"{sol.direction} {sol.t} {sol.q} {[(c.left, c.right, c.parallel) for c in sol.counts]}"


def test_transversal_solutions_are_pinned():
    """Which line and point the scan returns, not only that they are half-deep, is fixed.

    The solutions hash to a committed digest, taken from the `Fraction` scan
    that `transversal_oracle` keeps.
    """
    lines = list(_solutions())
    assert len(lines) == 200
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2b4d44ea11644d282a04249b405621eb1fc288f4b2666956638419ef24e82447"

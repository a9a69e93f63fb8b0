"""The integer sign-mask kernel behind RD, RD', HTvD and HED, against the loops it replaced.

RD and RD' count, for every direction cell, the weight of the hyperplanes
selected by a bitmask formula over the residual and cell sign masks; HED
prunes its enclosure search with reach sets read from the pieces on demand,
and at d = 2 decides each level from the circular order of the signed
normals with no search; HTvD packs pieces by a memoized recursion. Each is
checked here against the plain loop it replaced: the per-hyperplane
Fraction count (`depth._count_signs`), the unpruned enclosure search, the
search over materialised valid sets and reach maps, the enclosure search
itself for the planar levels, and the full subset DP; all but the search
are kept below as oracles.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdepth import enclosing, linalg
from arrdepth.depth import _count_signs, _min_count, _new_perturbed_cells, _signs_at, _tope_counts, deepest_point
from arrdepth.enclosing import (
    EnclosureCertificate,
    _planar_max_k,
    _search_max_k,
    point_enclosing_depth,
    verify_enclosure,
)
from arrdepth.errors import ExactBudgetExceeded
from arrdepth.geometry import Arrangement, evaluate, generate_instance, hyperplane
from arrdepth.tverberg import _pieces, max_packing


def _normal(rng, d):
    while True:
        a = tuple(rng.randint(-4, 4) for _ in range(d))
        if any(a):
            return a


def _arrangement(rng, d, n, weights):
    """Concurrent, parallel and scaled-duplicate hyperplanes with the given weight kind."""
    center = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
    rows = []
    while len(rows) < n:
        r = rng.random()
        if r < 0.3:
            a = _normal(rng, d)
            b = linalg.dot(a, center)
        elif r < 0.5 and rows:
            a0, b0 = rows[rng.randrange(len(rows))]
            k = rng.choice((1, -2, 3))
            a, b = tuple(k * c for c in a0), k * b0 + rng.choice((0, 1, -1))
        else:
            a, b = _normal(rng, d), Fraction(rng.randint(-6, 6))
        rows.append((a, b))
    if weights == "unit":
        ws = [1] * n
    elif weights == "zero":
        ws = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
    else:
        ws = [Fraction(rng.randint(0, 9), rng.randint(1, 8)) for _ in range(n)]
    return Arrangement(d, tuple(hyperplane(a, b, w) for (a, b), w in zip(rows, ws))), center


def _queries(rng, arr, center):
    d = arr.dimension
    qs = [center, tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(d))]
    for combo in combinations(range(len(arr)), d):
        v = linalg.solve([arr[i].normal for i in combo], [arr[i].offset for i in combo])
        if v is not None:
            qs.append(v)
            break
    h = arr[rng.randrange(len(arr))]
    j = next(k for k, c in enumerate(h.normal) if c != 0)
    on_h = [Fraction(rng.randint(-3, 3), 2) for _ in range(d)]
    on_h[j] = 0
    on_h[j] = (h.offset - linalg.dot(h.normal, on_h)) / h.normal[j]
    qs.append(tuple(on_h))
    return qs


def _cases():
    rng = random.Random("kernel:arrangements")
    for trial in range(36):
        d = (2, 3)[trial % 2]
        n = (5, 8, 17, 19)[trial // 2 % 4] if d == 2 else (4, 6, 8, 10)[trial // 2 % 4]
        weights = ("unit", "zero", "rational")[trial % 3]
        arr, center = _arrangement(rng, d, n, weights)
        yield arr, _queries(rng, arr, center)
    generated = ((1, 2, 9, "generic"), (2, 2, 18, "weighted"), (3, 3, 7, "weighted"), (4, 3, 6, "generic"))
    for seed, d, n, profile in generated:
        arr = generate_instance(seed, d, n, profile)
        yield arr, _queries(rng, arr, tuple(Fraction(1, 3) for _ in range(d)))


def test_sign_masks_match_residual_signs():
    for arr, qs in _cases():
        for q in qs:
            signs = _signs_at(arr, q)
            pos, zero = arr.sign_masks(q)
            assert [1 if pos >> i & 1 else 0 if zero >> i & 1 else -1 for i in range(len(arr))] == signs


def test_tope_mask_counts_match_fraction_loop():
    """Every cell's mask count is the Fraction count, for the query's signs and RD''s perturbed ones."""
    tables_used = set()
    patterns = 0
    for arr, qs in _cases():
        den, tables = arr.weight_tables
        tables_used.add(0 if tables is None else len(tables))
        reps = arr.direction_cells[0]
        for q in qs:
            signs = _signs_at(arr, q)
            zero = sum(1 << i for i, s in enumerate(signs) if s == 0)
            sign_rows = [signs]
            circuits = [(supp, plus) for supp, plus in arr.circuits if supp & zero == supp]
            for plus in _new_perturbed_cells(circuits, zero):
                sign_rows.append([s or (1 if plus >> i & 1 else -1) for i, s in enumerate(signs)])
            patterns += len(sign_rows) - 1
            for row in sign_rows:
                pos = sum(1 << i for i, s in enumerate(row) if s > 0)
                neg = sum(1 << i for i, s in enumerate(row) if s < 0)
                for rule in ("closed", "open"):
                    expected = [_count_signs(arr, row, u, rule) for u in reps]
                    assert [Fraction(c, den) for c in _tope_counts(arr, pos, neg, rule)] == expected, (arr, q, rule)
                    best = min(expected)  # the witness is the first minimizing cell
                    assert _min_count(arr, pos, neg, rule) == (best, reps[expected.index(best)])
    assert tables_used == {0, 1, 2, 3}
    assert patterns > 0


def _unpruned_search(n, d, valid, k_cap):
    """The enclosure search without reach pruning: (k, groups, nodes visited)."""
    nodes = 0

    def extend(chosen, partial, used, k):
        nonlocal nodes
        nodes += 1
        if len(chosen) == d:
            allowed = [h for h in range(n) if h not in used and all(m | 1 << h in valid for m in partial)]
            if len(allowed) < k:
                return None
            return chosen + (tuple(allowed[:k]),)
        start = min(chosen[-1]) + 1 if chosen else 0
        for first in range(start, n):
            if first in used:
                continue
            rest = [h for h in range(n) if h > first and h not in used]
            for tail in combinations(rest, k - 1):
                group = (first,) + tail
                grown = [m | 1 << h for m in partial for h in group]
                result = extend(chosen + (group,), grown, used | set(group), k)
                if result is not None:
                    return result
        return None

    for k in range(k_cap, 0, -1):
        found = extend(tuple(), [0], frozenset(), k)
        if found is not None:
            return k, found, nodes
    return 0, None, nodes


def _valid_family(rng, n, d):
    """Random valid (d+1)-sets, sometimes around a planted k-enclosure."""
    density = rng.choice((0.05, 0.2, 0.5, 0.8))
    valid = {sum(1 << i for i in c) for c in combinations(range(n), d + 1) if rng.random() < density}
    k = rng.randint(1, n // (d + 1))
    if rng.random() < 0.5:
        order = rng.sample(range(n), (d + 1) * k)
        groups = [order[j * k : (j + 1) * k] for j in range(d + 1)]
        for combo in product(*groups):
            valid.add(sum(1 << i for i in combo))
    return valid


def test_pruned_enclosure_search_matches_unpruned():
    """Same (k, groups) as the unpruned search, visiting no more nodes."""
    rng = random.Random("kernel:enclosure-search")
    found = 0
    for trial in range(320):
        d = (2, 3)[trial % 2]
        n = rng.randint(d + 1, 10 if d == 2 else 9)
        valid = _valid_family(rng, n, d)
        k_cap = n // (d + 1)
        k, groups, nodes = _unpruned_search(n, d, valid, k_cap)
        assert _search_max_k(n, d, valid, k_cap) == (k, groups), (n, d, sorted(valid))
        _search_max_k(n, d, valid, k_cap, node_budget=nodes)  # raises if it visits more nodes
        found += k > 1
    assert found >= 30
    with pytest.raises(ExactBudgetExceeded):
        _search_max_k(6, 2, {0b111}, 2, node_budget=0)


def _materialised_search(n, d, valid, k_cap):
    """The enclosure search with reach[m] built up front for every proper subset m of a valid set.

    `valid` is the set of valid (d+1)-sets, as bitmasks; reach[m] is the
    union of v - m over the valid sets v containing m. Returns (k, groups,
    nodes visited). This was the package's search before reach was read
    from the pieces on demand.
    """
    reach = {}
    for v in valid:
        m = (v - 1) & v
        while True:
            reach[m] = reach.get(m, 0) | (v & ~m)
            if not m:
                break
            m = (m - 1) & v
    nodes = 0

    def extend(chosen, partial, cand, k):
        nonlocal nodes
        nodes += 1
        allowed = [h for h in range(n) if cand >> h & 1]
        if len(chosen) == d:
            return chosen + (tuple(allowed[:k]),)
        need = (d - len(chosen)) * k
        start = chosen[-1][0] + 1 if chosen else 0
        allowed = [h for h in allowed if h >= start]
        through = {}
        for h in allowed:
            r = cand
            for m in partial:
                r &= reach.get(m | 1 << h, 0)
            through[h] = r
        for pos, first in enumerate(allowed):
            if through[first].bit_count() < need:
                continue
            for tail in combinations(allowed[pos + 1 :], k - 1):
                group = (first,) + tail
                child = through[first]
                for h in tail:
                    child &= through[h]
                if child.bit_count() < need:
                    continue
                bits = [1 << h for h in group]
                result = extend(chosen + (group,), [m | b for m in partial for b in bits], child, k)
                if result is not None:
                    return result
        return None

    for k in range(k_cap, 0, -1):
        cand = reach.get(0, 0)
        if cand.bit_count() < (d + 1) * k:
            continue
        found = extend(tuple(), [0], cand, k)
        if found is not None:
            return k, found, nodes
    return 0, None, nodes


def _valid_sets(n, d, pieces):
    """The (d+1)-sets that contain a piece."""
    valid = set()
    for piece in pieces:
        rest = [h for h in range(n) if not piece >> h & 1]
        for extra in combinations(rest, d + 1 - piece.bit_count()):
            valid.add(piece | sum(1 << h for h in extra))
    return valid


def _assert_lazy_search_matches(n, d, pieces, k_cap):
    """Same (k, groups) and exactly the same number of nodes as the materialised search."""
    k, groups, nodes = _materialised_search(n, d, _valid_sets(n, d, pieces), k_cap)
    assert _search_max_k(n, d, pieces, k_cap, node_budget=nodes) == (k, groups), (n, d, pieces)
    if nodes:
        with pytest.raises(ExactBudgetExceeded):
            _search_max_k(n, d, pieces, k_cap, node_budget=nodes - 1)
    return k


def test_lazy_reach_search_matches_materialised_search():
    """reach(m) read from the pieces gives the search over the valid sets they span, node for node."""
    rng = random.Random("kernel:lazy-reach")
    found = 0
    for trial in range(160):
        d = (2, 3)[trial % 2]
        n = rng.randint(d + 1, 10 if d == 2 else 9)
        if trial % 4 < 2:
            pieces = sorted(_valid_family(rng, n, d))  # (d+1)-sets: strict enclosure and point sets
        else:  # mixed sizes: a singleton or a small circuit makes many more sets valid
            pieces = sorted({sum(1 << i for i in rng.sample(range(n), rng.randint(1, d + 1))) for _ in range(n)})
        found += _assert_lazy_search_matches(n, d, pieces, n // (d + 1)) > 1
    assert found >= 20
    real = strict_found = 0
    for arr, qs in _cases():
        n, d = len(arr), arr.dimension
        if not d + 1 <= n <= 12:
            continue
        for q in qs:
            pieces = _pieces(arr, *arr.sign_masks(q))
            k_cap = min(n // (d + 1), len(max_packing(pieces)))
            real += _assert_lazy_search_matches(n, d, pieces, k_cap) > 0
            strict = [p for p in pieces if p.bit_count() == d + 1]
            strict_found += _assert_lazy_search_matches(n, d, strict, k_cap) > 0
    assert real >= 20 and strict_found >= 10


def _subset_dp_packing(n, pieces):
    """Maximum number of disjoint pieces by a DP over all 2^n subsets."""
    by_low = [[] for _ in range(n)]
    for piece in pieces:
        by_low[(piece & -piece).bit_length() - 1].append(piece)
    dp = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        best = dp[mask & (mask - 1)]
        for piece in by_low[low]:
            if piece & mask == piece:
                best = max(best, dp[mask ^ piece] + 1)
        dp[mask] = best
    return dp[(1 << n) - 1]


def test_memoized_packing_matches_subset_dp():
    rng = random.Random("kernel:packing")
    for trial in range(300):
        n = rng.randint(0, 12)
        pieces = set()
        for _ in range(rng.randint(0, 3 * n)):
            size = rng.randint(1, min(4, n))
            pieces.add(sum(1 << i for i in rng.sample(range(n), size)))
        pieces = sorted(pieces)
        packed = max_packing(pieces)
        assert len(packed) == _subset_dp_packing(n, pieces), (n, pieces)
        used = 0
        for piece in packed:
            assert piece in pieces and not piece & used, (n, pieces, packed)
            used |= piece


def assert_planar_levels_match_search(arr, q):
    """At d = 2 the scan decides every level 1..n//3 as the search does; returns the depth.

    Every certificate it gives has three disjoint sorted groups of k, in
    order, and passes `verify_enclosure`.
    """
    n = len(arr)
    pieces = _pieces(arr, *arr.sign_masks(q))
    depth = 0
    for k in range(1, n // 3 + 1):
        feasible = _search_max_k(n, 2, pieces, k)[0] == k
        got, groups = _planar_max_k(arr, q, k)
        assert (got == k) == feasible, (arr, q, k)
        if got:
            assert len(groups) == 3 and all(len(g) == got and list(g) == sorted(g) for g in groups)
            assert len(set().union(*groups)) == 3 * got and list(groups) == sorted(groups)
            assert verify_enclosure(arr, EnclosureCertificate(got, groups, q)), (arr, q, groups)
        depth = max(depth, got)
    return depth


def _planar_family():
    """Seeded planar arrangements of 3-12 small-coordinate lines, with queries.

    The lines pass through one point, or are parallel, antiparallel or
    duplicate to an earlier one, or free. The queries lie at that point, at
    about a third of the vertices, on a line and elsewhere.
    """
    rng = random.Random("kernel:planar-levels")
    for _ in range(150):
        n, center = rng.randint(3, 12), (rng.randint(-2, 2), rng.randint(-2, 2))
        rows = []
        while len(rows) < n:
            r = rng.random()
            if r < 0.5 and rows:
                a0, b0 = rows[rng.randrange(len(rows))]
                k = rng.choice((1, -1, 2, -3))
                a, b = (k * a0[0], k * a0[1]), k * b0 + rng.choice((0, 0, 1, -1))
            else:
                a = (rng.randint(-3, 3), rng.randint(-3, 3))
                if not any(a):
                    continue
                b = a[0] * center[0] + a[1] * center[1] if r < 0.3 else rng.randint(-4, 4)
            rows.append((a, b))
        arr = Arrangement(2, tuple(hyperplane(a, b) for a, b in rows))
        qs = [center, tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2))]
        for i, j in combinations(range(len(arr)), 2):
            vertex = linalg.solve([arr[i].normal, arr[j].normal], [arr[i].offset, arr[j].offset])
            if vertex is not None and rng.random() < 0.3:
                qs.append(vertex)
        (a0, a1), b = arr[0].normal, arr[0].offset
        t = Fraction(rng.randint(-3, 3), 2)
        qs.append((t, (b - a0 * t) / a1) if a1 else (b / a0, t))
        yield arr, qs


def test_planar_levels_match_search():
    """The planar rule against the search at every level: on the d = 2 families above, generated instances at
    their deepest point, a vertex and elsewhere, and `_planar_family`."""
    refuted = incident = 0
    for arr, qs in _cases():
        if arr.dimension != 2 or len(arr) > 12:
            continue
        for q in qs:
            depth = assert_planar_levels_match_search(arr, q)
            refuted += depth < len(arr) // 3
            incident += bool(arr.sign_masks(q)[1])
    for seed in range(300, 348):
        arr = generate_instance(seed, 2, 9 + seed % 4, ("generic", "weighted")[seed % 2])
        vertex = linalg.solve([arr[0].normal, arr[1].normal], [arr[0].offset, arr[1].offset])
        for q in (deepest_point(arr)[0], vertex, (Fraction(1, 3), Fraction(-1, 2)), (Fraction(seed, 5), 1)):
            refuted += assert_planar_levels_match_search(arr, q) < len(arr) // 3
    for arr, qs in _planar_family():
        for q in qs:
            assert_planar_levels_match_search(arr, q)
    assert refuted >= 20 and incident >= 10


small = st.integers(-3, 3)
normals = st.tuples(small, small).filter(any)


@st.composite
def planar_cases(draw):
    """(arrangement, query) of small-coordinate lines with weights 0-2.

    The lines are free, through one center, or parallel, antiparallel or
    duplicate to an earlier one; the query lies at the center, at a vertex,
    on a line or on none.
    """
    center = (draw(small), draw(small))
    rows = []
    for _ in range(draw(st.integers(3, 11))):
        kind = draw(st.sampled_from(("free",) * 4 + ("center", "parallel", "antiparallel", "duplicate")))
        if kind in ("free", "center") or not rows:
            a = draw(normals)
            b = a[0] * center[0] + a[1] * center[1] if kind == "center" else draw(st.integers(-4, 4))
        else:
            a0, b0 = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, 2, 3))) * (-1 if kind == "antiparallel" else 1)
            a = (scale * a0[0], scale * a0[1])
            b = scale * b0 + (0 if kind == "duplicate" else draw(st.integers(-2, 2)))
        rows.append((a, b))
    weights = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    arr = Arrangement(2, tuple(hyperplane(a, b, w) for (a, b), w in zip(rows, weights)))
    kind = draw(st.sampled_from(("center", "vertex", "line", "free", "free")))
    if kind == "center":
        return arr, center
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    vertex = linalg.solve([arr[i].normal, arr[j].normal], [arr[i].offset, arr[j].offset])
    if kind == "vertex" and vertex is not None:
        return arr, vertex
    if kind == "line":
        (a0, a1), b = arr[i].normal, arr[i].offset
        t = Fraction(draw(st.integers(-6, 6)), 2)
        return arr, ((t, (b - a0 * t) / a1) if a1 else (b / a0, t))
    # Off every line: a.q = b has no solution with |a_i| <= 9 at these denominators.
    return arr, (draw(st.integers(-2, 1)) + Fraction(1, 7), draw(st.integers(-2, 1)) + Fraction(3, 11))


@settings(max_examples=300, deadline=None)
@given(planar_cases())
def test_planar_enclosing_depth_fuzz(case):
    """On degenerate planar inputs the scan decides each level as the search does.

    Its value is the enclosing depth of the dual points, and its certificate
    verifies.
    """
    arr, q = case
    depth = assert_planar_levels_match_search(arr, q)
    value, cert = enclosing.hyperplane_enclosing_depth(arr, q)
    assert value == depth == point_enclosing_depth(evaluate(arr, q).dual_points, q)
    assert (cert is None) == (value == 0)
    if cert is not None:
        assert verify_enclosure(arr, cert) and cert.groups == _planar_max_k(arr, q, value)[1]


def test_planar_enclosing_depth_runs_no_search(monkeypatch):
    """At d = 2 without strict no level is searched; strict and d = 3 still search."""
    def refuse(*args, **kwargs):
        raise AssertionError("_search_max_k called")

    monkeypatch.setattr(enclosing, "_search_max_k", refuse)
    found = 0
    for arr, qs in _cases():
        if arr.dimension == 2 and len(arr) <= 12:
            for q in qs:
                found += enclosing.hyperplane_enclosing_depth(arr, q)[0] > 0
    assert found >= 10
    arr2, arr3 = generate_instance(1, 2, 9, "generic"), generate_instance(1, 3, 7, "generic")
    for arr, strict in ((arr2, True), (arr3, False), (arr3, True)):
        with pytest.raises(AssertionError, match="_search_max_k called"):
            enclosing.hyperplane_enclosing_depth(arr, (Fraction(1, 3),) * arr.dimension, strict=strict)

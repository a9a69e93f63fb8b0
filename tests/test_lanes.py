"""The packed ray counts against the list path they replaced.

Every direction cell's count is one lane of one integer
(`Arrangement.ray_lanes`). `count_oracle` keeps the old route, one hit mask
per cell weighed by table lookups, and the tests here hold the lanes to it:
the same counts and the same first minimising cell on weighted, zero-weight
and degenerate inputs at d = 1-4 and at every lane-width boundary. The
threshold test on the lanes (`depth._above`) is held to the minimum it
stands for, and the two scans that use it, `deepest_point` and
`solve_tverberg`, to the same scans without it.
"""

import random
from fractions import Fraction

import count_oracle
import pytest
from test_kernel import _arrangement, _queries
from test_request_reuse import _counting

from arrdepth import tverberg
from arrdepth.cells import _integer_candidates
from arrdepth.depth import (
    DepthCertificate,
    _above,
    _lex_less,
    _min_count,
    _packed_counts,
    _tope_counts,
    deepest_point,
)
from arrdepth.geometry import Arrangement, generate_instance, hyperplane


def _sign_patterns(rng, arr, qs):
    """The residual masks of each query, then random disjoint (pos, neg) masks."""
    n = len(arr)
    for q in qs:
        pos, zero = arr.sign_masks(q)
        yield pos, ((1 << n) - 1) & ~(pos | zero)
    yield 0, 0
    yield (1 << n) - 1, 0
    for _ in range(6):
        signs = [rng.choice((-1, 0, 1)) for _ in range(n)]
        yield sum(1 << i for i, s in enumerate(signs) if s > 0), sum(1 << i for i, s in enumerate(signs) if s < 0)


def _assert_lanes_match(arr, patterns):
    for pos, neg in patterns:
        for rule in ("closed", "open"):
            counts = count_oracle.tope_counts(arr, pos, neg, rule)
            assert _tope_counts(arr, pos, neg, rule) == counts, (arr, pos, neg, rule)
            assert _min_count(arr, pos, neg, rule) == count_oracle.min_count(arr, pos, neg, rule)
            v = _packed_counts(arr, pos, neg, rule)
            for t in {-1, min(counts) - 1, min(counts), max(counts), arr.ray_lanes[2], arr.ray_lanes[2] + 5}:
                if t >= -1:
                    assert _above(arr, v, t) == (min(counts) > t), (arr, pos, neg, rule, t)


def test_lanes_match_the_list_path():
    """Weighted, zero-weight and degenerate arrangements (parallel, concurrent, duplicate) at d = 1-4."""
    rng = random.Random("lanes:arrangements")
    sizes = {1: (3, 6, 9), 2: (4, 7, 12), 3: (4, 6, 9), 4: (5, 7)}
    seen = set()
    for d, ns in sizes.items():
        for n in ns:
            for weights in ("unit", "zero", "rational"):
                arr, center = _arrangement(rng, d, n, weights)
                _assert_lanes_match(arr, _sign_patterns(rng, arr, _queries(rng, arr, center)))
                seen.add(arr.ray_lanes[0])
        for seed, profile in enumerate(("generic", "weighted")):
            arr = generate_instance(seed, d, 6, profile)
            _assert_lanes_match(arr, _sign_patterns(rng, arr, [(Fraction(1, 3),) * d]))
            seen.add(arr.ray_lanes[0])
    assert {1, 2} <= seen


@pytest.mark.parametrize(
    "total, size",
    [
        (127, 1),
        (128, 2),
        (32767, 2),
        (32768, 4),
        (2**31 - 1, 4),
        (2**31, 8),
        (2**63 - 1, 8),
        (2**63, 9),
        (2**64 + 1, 9),
    ],
)
def test_lane_width_boundaries(total, size):
    """The lane is the least of 1, 2, 4 and 8 bytes whose top bit stays clear at the integer total weight, else wider.

    The total is reached with integer weights, and with halves over the
    denominator 2 (the integer total is then counted over that
    denominator), on arrangements with parallel, concurrent and duplicate
    hyperplanes and a zero weight.
    """
    rng = random.Random(f"lanes:width:{total}")
    for d in (2, 3):
        base, center = _arrangement(rng, d, 7, "unit")
        for den in (1, 2):
            ws = [0, 1, 2, 3, 1, 1]
            ws.append(total - sum(ws))
            arr = Arrangement(d, tuple(hyperplane(h.normal, h.offset, Fraction(w, den)) for h, w in zip(base, ws)))
            assert arr.int_weights == (den, tuple(ws))
            assert arr.ray_lanes[:3] == (size, {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size), total)
            _assert_lanes_match(arr, _sign_patterns(rng, arr, _queries(rng, arr, center)))


def _deepest_by_full_scan(arr):
    """`deepest_point` with no threshold test: every candidate's minimum from the list path, ties to the smaller point."""
    best = None
    for nums, den in _integer_candidates(arr)[0]:
        val, u = count_oracle.min_count(arr, *arr._signs(nums, den), "closed")
        if best is None or val > best[0] or (val == best[0] and _lex_less((nums, den), best[1])):
            best = val, (nums, den), u
    val, (nums, den), u = best
    return tuple(Fraction(v, den) for v in nums), val, DepthCertificate(u, val, "closed")


def test_deepest_point_matches_the_full_scan():
    """Same point, value and witness as minimising every candidate, on generic, weighted and degenerate inputs."""
    rng = random.Random("lanes:deepest")
    cases = [generate_instance(seed, d, n, profile) for seed, (d, n) in enumerate(((1, 9), (2, 12), (3, 9), (4, 7)))
             for profile in ("generic", "weighted")]
    for d, n in ((1, 7), (2, 9), (2, 12), (3, 7), (3, 9), (4, 6)):
        for weights in ("unit", "zero", "rational"):
            cases.append(_arrangement(rng, d, n, weights)[0])
    for arr in cases:
        assert deepest_point(arr) == _deepest_by_full_scan(arr), arr


def test_tverberg_filter_keeps_the_full_scans_partition(monkeypatch):
    """At d != 2 the RD filter changes no partition and packs at no more candidates than the scan without it."""
    rng = random.Random("lanes:tverberg")
    cases = [(generate_instance(seed, d, n), r) for seed, d, n, r in
             ((1, 3, 16, 4), (0, 3, 20, 5), (2, 3, 18, 5), (0, 1, 20, 7), (3, 1, 11, 4), (1, 4, 12, 3), (0, 4, 11, 3))]
    for d, n in ((1, 7), (3, 6), (3, 8), (4, 6)):
        for _ in range(3):
            arr = _arrangement(rng, d, n, "unit")[0]
            cases += [(arr, r) for r in (2, 3)]
    expected = []
    with monkeypatch.context() as m:
        m.setattr(tverberg, "_above", lambda *args: True)  # no candidate is skipped
        packings = _counting(m, tverberg, "max_packing")
        for arr, r in cases:
            packings.clear()
            expected.append((tverberg.solve_tverberg(arr, r), len(packings)))
    packings = _counting(monkeypatch, tverberg, "max_packing")
    fewer = 0
    for (arr, r), (cert, unfiltered) in zip(cases, expected):
        packings.clear()
        assert tverberg.solve_tverberg(arr, r) == cert, (arr, r)
        assert len(packings) <= unfiltered
        fewer += len(packings) < unfiltered
    assert sum(cert is not None for cert, _ in expected) >= 15 and fewer >= 5, fewer

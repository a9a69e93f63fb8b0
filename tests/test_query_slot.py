"""The one-query record of an arrangement: the per-query measures share q's work without changing an answer.

RD, RD', TRD, HTvD and HED at one q read q's sign masks, coverable pieces,
packing size and RD from `Arrangement._query`. Each measure is compared here
with the same measure on a fresh arrangement, which holds no record, over
queries taken in shuffled order and from several threads at once. Thread
switches land where the scheduler puts them, so the two interleavings that
could mix two queries are also played out in one thread.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from fractions import Fraction
from itertools import combinations

import pytest

from arrdepth import linalg
from arrdepth.depth import deepest_point, open_regression_depth, regression_depth, truncated_regression_depth
from arrdepth.enclosing import hyperplane_enclosing_depth
from arrdepth.geometry import Arrangement, generate_instance, hyperplane
from arrdepth.tverberg import coverable_pieces, hyperplane_tverberg_depth

MEASURES = {
    "rd": regression_depth,
    "rd-open": open_regression_depth,
    "trd": truncated_regression_depth,
    "htvd": hyperplane_tverberg_depth,
    "hed": hyperplane_enclosing_depth,
    "hed-strict": lambda arr, q: hyperplane_enclosing_depth(arr, q, strict=True),
    "pieces": coverable_pieces,
}


def _degenerate(rng, d, n, zero_weights):
    """Hyperplanes through one center, parallel and duplicate ones; some weights zero if asked."""
    center = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
    rows = []
    while len(rows) < n:
        a = tuple(rng.randint(-3, 3) for _ in range(d))
        if not any(a):
            continue
        r = rng.random()
        if r < 0.4:
            b = linalg.dot(a, center)
        elif r < 0.6 and rows:
            a, b, _ = rows[rng.randrange(len(rows))]
            b += rng.choice((0, 1))  # a duplicate or a parallel hyperplane
        else:
            b = Fraction(rng.randint(-5, 5))
        rows.append((a, b, rng.choice((0, 1, 2)) if zero_weights else 1))
    return Arrangement(d, tuple(hyperplane(a, b, w) for a, b, w in rows)), center


def _cases():
    rng = random.Random("query-slot")
    yield generate_instance(3, 2, 8, "generic"), None
    yield generate_instance(4, 2, 9, "weighted"), None
    yield generate_instance(5, 3, 7, "generic"), None
    yield generate_instance(6, 3, 7, "weighted"), None
    for d, n in ((2, 9), (3, 8)):
        for zero_weights in (False, True):
            yield _degenerate(rng, d, n, zero_weights)


def _queries(rng, arr, center):
    """A center or vertex, points on a hyperplane and random points: 8 in all."""
    d = arr.dimension
    qs = [] if center is None else [center]
    for combo in combinations(range(len(arr)), d):
        v = linalg.solve([arr[i].normal for i in combo], [arr[i].offset for i in combo])
        if v is not None:
            qs.append(v)
            break
    while len(qs) < 4:
        h = arr[rng.randrange(len(arr))]
        j = next(k for k, c in enumerate(h.normal) if c != 0)
        p = [Fraction(rng.randint(-4, 4), 3) for _ in range(d)]
        p[j] = 0
        p[j] = (h.offset - linalg.dot(h.normal, p)) / h.normal[j]
        qs.append(tuple(p))
    while len(qs) < 8:
        qs.append(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(d)))
    return qs


def _fresh(arr):
    return Arrangement(arr.dimension, arr.hyperplanes)


def _work(rng, qs):
    """Every (measure, query) pair, twice, in shuffled order."""
    jobs = [(name, q) for name in MEASURES for q in qs] * 2
    rng.shuffle(jobs)
    return jobs


def test_shuffled_queries_match_a_fresh_arrangement_per_call():
    rng = random.Random("query-slot:shuffled")
    for arr, center in _cases():
        qs = _queries(rng, arr, center)
        for name, q in _work(rng, qs):
            assert MEASURES[name](arr, q) == MEASURES[name](_fresh(arr), q), (name, arr, q)


def test_threads_sharing_an_arrangement_match_a_fresh_arrangement_per_call():
    """Four clients, each asking every measure at its own q over and over, so the slot keeps changing hands."""
    rng = random.Random("query-slot:threads")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave inside the measures
    try:
        for arr, center in _cases():
            qs = _queries(rng, arr, center)[:4]
            expected = {(name, q): MEASURES[name](_fresh(arr), q) for name in MEASURES for q in qs}

            def client(q):
                return [(name, q, MEASURES[name](arr, q)) for _ in range(12) for name in MEASURES]

            with ThreadPoolExecutor(4) as pool:
                answers = [a for answer in pool.map(client, qs, timeout=300) for a in answer]
            assert [got for _, _, got in answers] == [expected[name, q] for name, q, _ in answers], arr
    finally:
        sys.setswitchinterval(interval)


def test_the_slot_holds_one_query():
    arr = generate_instance(3, 2, 8, "generic")
    before = set(vars(arr))
    rng = random.Random("query-slot:one")
    qs = [tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 4)) for _ in range(2)) for _ in range(100)]
    for q in qs:
        for measure in MEASURES.values():
            measure(arr, q)
    slot = vars(arr)["_slot"]
    assert slot.q == qs[-1] and (slot.pos, slot.zero) == arr.sign_masks(qs[-1])
    assert slot.neg == (1 << len(arr)) - 1 & ~(slot.pos | slot.zero)
    # RD, the pieces, their packing and the planar order were all filled in for the last query
    assert None not in (slot.pieces, slot.packing, slot.rd, slot.order)
    cached = {"circuits", "int_rows", "direction_cells", "signed_normals", "weight_tables", "total_weight"}
    assert set(vars(arr)) - before <= cached | {"_slot"}  # nothing else keeps a query


def test_interleavings_never_mix_two_queries():
    """What a thread switch can do, played out in one thread.

    Another query takes the arrangement's record while q1's masks are
    computed, or after q1 has read its record and before it keeps its RD
    there.
    """
    arr = generate_instance(3, 2, 8, "generic")
    q1, q2 = deepest_point(arr)[0], (Fraction(10**6), Fraction(10**6))
    plain = Arrangement.sign_masks

    def switching(q):
        object.__setattr__(arr, "sign_masks", partial(plain, arr))
        arr._query(q2)
        return plain(arr, q)

    object.__setattr__(arr, "sign_masks", switching)  # an instance attribute, read before the class's method
    slot = arr._query(q1)
    assert slot.q == q1 and (slot.pos, slot.zero) == plain(arr, q1)
    far = regression_depth(arr, q2)
    assert regression_depth(_fresh(arr), q1) != far
    slot.rd = regression_depth(_fresh(arr), q1)
    assert regression_depth(arr, q2) == far == regression_depth(_fresh(arr), q2)
    assert regression_depth(arr, q1) == regression_depth(_fresh(arr), q1)


def test_the_record_has_no_field_a_typo_could_make():
    slot = generate_instance(3, 2, 8, "generic")._query((Fraction(1, 3), Fraction(2, 7)))
    with pytest.raises(AttributeError):
        slot.packng = 3
    assert slot.packing is None

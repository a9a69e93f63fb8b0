"""Tverberg depth in the plane from the circular order, against the packing of the pieces.

At d = 2 the hyperplane Tverberg depth is read from the circular order of
the signed normals (`tverberg._planar_depth`, rule and proof in the
`tverberg` module docstring). The oracle is the route it replaced: the
maximum packing of the coverable pieces, built from the signed circuits.
These tests hold the rule to it on seeded and hypothesis-drawn arrangements
with antipodal, duplicate, concurrent and parallel lines and zero and
rational weights, check that the planar HTvD and HED build no circuit and
pack nothing, that `solve_tverberg` at d = 2 packs only where the rule
allows r parts, and that the paper's Tverberg theorem for arrangements holds
at some vertex of large generic instances.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_request_reuse import _counting

from arrdepth import linalg, tverberg
from arrdepth.cells import candidate_points
from arrdepth.depth import deepest_point
from arrdepth.enclosing import hyperplane_enclosing_depth
from arrdepth.errors import ExactBudgetExceeded
from arrdepth.geometry import Arrangement, generate_instance, hyperplane
from arrdepth.tverberg import (
    _order,
    _planar_size,
    coverable_pieces,
    hyperplane_tverberg_depth,
    max_packing,
    solve_tverberg,
)


def _fresh(arr):
    return Arrangement(arr.dimension, arr.hyperplanes)


def _check_rule(arr, q):
    """The rule, through HTvD and on plain masks, equals the maximum packing of q's pieces."""
    expected = len(max_packing(coverable_pieces(_fresh(arr), q)))
    assert hyperplane_tverberg_depth(_fresh(arr), q) == expected, (arr, q)
    pos, zero = arr.sign_masks(q)
    assert _planar_size(len(arr), *_order(arr, pos, zero)) == expected, (arr, q)
    return expected


coord = st.integers(-3, 3)


@st.composite
def planar_arrangements(draw):
    """(arrangement, query) at d = 2: free lines, concurrent ones, scaled duplicates, parallels and mirror pairs.

    A mirror line is parallel to an earlier line, on the other side of the
    centre at the same distance, so at the centre their signed normals are
    antipodal. Weights are all 1, in {0, 1, 2}, or rational; the query lies
    at the centre, at a vertex, on a line or anywhere.
    """
    center = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("free", "center", "center", "duplicate", "parallel", "mirror", "mirror")))
        if kind in ("free", "center") or not rows:
            a = draw(st.tuples(coord, coord).filter(any))
            b = a[0] * center[0] + a[1] * center[1] if kind == "center" else draw(st.integers(-4, 4))
        else:
            a0, b0 = draw(st.sampled_from(rows))
            k = draw(st.sampled_from((1, 2, -3)))
            a = (k * a0[0], k * a0[1])
            if kind == "mirror":
                b = k * (2 * (a0[0] * center[0] + a0[1] * center[1]) - b0)
            else:
                b = k * b0 + (0 if kind == "duplicate" else draw(st.integers(-2, 2)))
        rows.append((a, b))
    weight = draw(st.sampled_from(("unit", "zero", "rational")))
    if weight == "unit":
        ws = [1] * len(rows)
    elif weight == "zero":
        ws = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    else:
        ws = [Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 4))) for _ in rows]
    arr = Arrangement(2, tuple(hyperplane(a, b, w) for (a, b), w in zip(rows, ws)))
    where = draw(st.sampled_from(("center", "vertex", "line", "anywhere")))
    if where == "center":
        return arr, center
    if where == "vertex" and len(rows) >= 2:
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        v = linalg.solve([arr[i].normal, arr[j].normal], [arr[i].offset, arr[j].offset])
        if v is not None:
            return arr, v
    q = [Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))) for _ in range(2)]
    if where == "line":
        h = arr[draw(st.integers(0, len(rows) - 1))]
        j = 0 if h.normal[0] else 1
        q[j] = 0
        q[j] = (h.offset - linalg.dot(h.normal, q)) / h.normal[j]
    return arr, tuple(q)


@settings(max_examples=400, deadline=None)
@given(planar_arrangements())
def test_planar_rule_fuzz(case):
    _check_rule(*case)


def test_planar_rule_needs_its_pair_terms():
    """Mirror pairs at the centre: the matching term and the boundary rays of c(w) both decide a case.

    Without the antipodal-pair terms (P = 0 and c(w) the open count alone)
    the rule would give 1 where 2 pieces exist, and 0 where 1 does.
    """
    pairs = Arrangement(2, tuple(hyperplane(a, b) for a, b in (((1, 0), 1), ((1, 0), -1), ((0, 1), 1), ((0, 1), -1))))
    assert _check_rule(pairs, (0, 0)) == 2
    one = Arrangement(2, (hyperplane((1, 0), 1), hyperplane((1, 0), -1)))
    assert _check_rule(one, (0, 0)) == 1


def test_planar_rule_on_generated_instances():
    """The deepest point, a vertex and a random point of generate_instance(s, 2, n), n = 4-12."""
    rng = random.Random("planar-tverberg:generated")
    values = set()
    for seed in range(6):
        for n in range(4, 13):
            arr = generate_instance(seed, 2, n, "weighted" if seed % 3 == 2 else "generic")
            vertices = list(candidate_points(arr))
            qs = [deepest_point(arr)[0], rng.choice(vertices)]
            qs.append((Fraction(rng.randint(-900, 900), rng.randint(1, 7)), Fraction(rng.randint(-900, 900), 3)))
            values.update(_check_rule(arr, q) for q in qs)
    assert {0, 2, 3, 4, 5} <= values


def _answers(arr, q):
    """HTvD and HED at q, each on a fresh arrangement."""
    return hyperplane_tverberg_depth(_fresh(arr), q), hyperplane_enclosing_depth(_fresh(arr), q)


def _far_on(arr):
    """A point far out on the first line with a nonzero x-coefficient: HTvD there is 1, from that line alone."""
    (a1, a2), b = next((h.normal, h.offset) for h in arr if h.normal[0])
    return (b / a1 - 10**6 * a2, 10**6 * a1)


def test_planar_htvd_and_hed_build_no_circuits(monkeypatch):
    """HTvD and non-strict HED at d = 2 read neither circuits nor pieces; d = 3 and strict HED still do."""
    rng = random.Random("planar-tverberg:routes")
    planar, spatial = [], []
    for seed in range(4):
        arr = generate_instance(seed, 2, 9 + seed)
        qs = [deepest_point(arr)[0], rng.choice(list(candidate_points(arr))), (Fraction(1, 3), Fraction(-2, 7))]
        planar += [(arr, q, *_answers(arr, q)) for q in qs]
        arr = generate_instance(seed, 3, 8)
        for q in (deepest_point(arr)[0], (Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5))):
            spatial.append((arr, q, *_answers(arr, q)))
    big = generate_instance(0, 2, 100)
    far = (Fraction(10**6), Fraction(10**6))
    deep = next(v for v in candidate_points(big) if hyperplane_tverberg_depth(big, v, exact_threshold=100) >= 30)
    bounds = [(big, q, bound) for q, bound in ((deep, 1), (far, 0), (_far_on(big), 1))]
    for seed in range(3):  # just over the threshold, the bound is the one read from the pieces: 1 iff q has one
        arr = generate_instance(seed, 2, 13)
        for q in (deepest_point(arr)[0], far, _far_on(arr)):
            bounds.append((arr, q, int(bool(coverable_pieces(_fresh(arr), q)))))
    assert [bound for _, _, bound in bounds] == [1, 0, 1] * 4

    reads = []
    real = Arrangement.circuits.func

    def counted(self):
        reads.append(self)
        return real(self)

    monkeypatch.setattr(Arrangement, "circuits", property(counted))
    packings = _counting(monkeypatch, tverberg, "max_packing")
    for arr, q, htvd, hed in spatial:
        reads.clear()
        assert hyperplane_tverberg_depth(_fresh(arr), q) == htvd
        assert hyperplane_enclosing_depth(_fresh(arr), q) == hed
        assert len(reads) == 2
    assert packings  # greedy falls short of its bound at (1/3, -2/7, 1/5), and the DP runs
    for arr, q, _, _ in planar[:3]:
        reads.clear()
        hyperplane_enclosing_depth(_fresh(arr), q, strict=True)
        assert len(reads) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("circuit or packing route used")

    monkeypatch.setattr(linalg, "signed_circuits", refuse)
    monkeypatch.setattr(tverberg, "max_packing", refuse)
    monkeypatch.setattr(Arrangement, "circuits", property(refuse))
    for arr, q, htvd, hed in planar:
        for order in ("htvd", "hed"), ("hed", "htvd"):
            fresh = _fresh(arr)
            got = {
                "htvd": lambda: hyperplane_tverberg_depth(fresh, q),
                "hed": lambda: hyperplane_enclosing_depth(fresh, q),
            }
            assert {name: got[name]() for name in order} == {"htvd": htvd, "hed": hed}
    for arr, q, bound in bounds:  # over the threshold: the 0/1 bound from the rule
        with pytest.raises(ExactBudgetExceeded) as exc:
            hyperplane_enclosing_depth(_fresh(arr), q)
        assert exc.value.bound == bound


def test_solve_tverberg_packs_only_where_the_rule_allows(monkeypatch):
    """At d = 2 `max_packing` runs once, at the point returned, and the answer is the unfiltered scan's."""
    cases = []
    for seed in range(6):
        for n, r in ((7, 3), (7, 4), (9, 3), (10, 4), (12, 4)):
            arr = generate_instance(seed, 2, n)
            with monkeypatch.context() as m:
                m.setattr(tverberg, "_planar_size", lambda *args: math.inf)  # no candidate is skipped
                cases.append((arr, r, solve_tverberg(arr, r)))
    assert sum(cert is None for _, _, cert in cases) >= 6 and sum(cert is not None for _, _, cert in cases) >= 20
    packings = _counting(monkeypatch, tverberg, "max_packing")
    for arr, r, expected in cases:
        packings.clear()
        assert solve_tverberg(arr, r) == expected
        assert len(packings) == (expected is not None)


@pytest.mark.parametrize("n", [30, 45, 60, 100])
def test_some_vertex_has_tverberg_depth_n_over_three(n):
    """The Tverberg theorem for arrangements: some vertex of a generic planar arrangement has HTvD >= ceil(n / 3)."""
    for seed in range(2):
        arr = generate_instance(seed, 2, n)
        target = math.ceil(n / 3)
        assert any(hyperplane_tverberg_depth(arr, v, exact_threshold=n) >= target for v in candidate_points(arr))

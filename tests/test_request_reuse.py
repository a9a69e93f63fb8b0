"""RD' and HTvD reuse the work of their request, against the routes they replaced.

RD' at a query on no hyperplane is RD, read from the query slot. At a query
on hyperplanes whose normals may hold a circuit it groups the direction
cells by their signs on the incident set in one pass (`depth._open_groups`)
and reads every perturbed pattern from the groups. HTvD keeps a greedy
packing when it reaches its upper bound (`tverberg._packing_size`). These
tests hold each to the route it replaced: one full cell pass per perturbed
pattern (`open_depth_oracle`) and the full `max_packing`. They run on seeded
and hypothesis-drawn arrangements with concurrent, parallel and scaled
duplicate hyperplanes and zero weights, and count the work done.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from open_depth_oracle import per_pattern_open_depth
from test_sign_rules import degenerate_case

from arrdepth import depth, linalg, tverberg
from arrdepth.depth import (
    MeasureKind,
    _new_perturbed_cells,
    _open_depth,
    _open_groups,
    deepest_point,
    open_regression_depth,
    regression_depth,
    truncated_regression_depth,
)
from arrdepth.geometry import Arrangement, generate_instance, hyperplane
from arrdepth.planar import build_subdivision, label_depth
from arrdepth.tverberg import _packing_size, coverable_pieces, hyperplane_tverberg_depth, max_packing


def _fresh(arr):
    return Arrangement(arr.dimension, arr.hyperplanes)


def _masks(arr, q):
    pos, zero = arr.sign_masks(q)
    return pos, ((1 << len(arr)) - 1) & ~(pos | zero), zero


def _check_open_depth(arr, q):
    """RD' at q equals the per-pattern route's, in either order with RD; returns its rule.

    Also: all 2^m patterns on the m incident hyperplanes occur among the
    direction cells exactly when their normals have no circuit.
    """
    pos, neg, zero = _masks(arr, q)
    expected = per_pattern_open_depth(_fresh(arr), pos, neg)
    assert _open_depth(_fresh(arr), pos, neg) == expected, (arr, q)
    assert open_regression_depth(_fresh(arr), q) == expected, (arr, q)
    warm = _fresh(arr)
    regression_depth(warm, q)
    assert open_regression_depth(warm, q) == expected, (arr, q)
    every_pattern = len(_open_groups(arr, pos, neg, zero)) == 1 << zero.bit_count()
    assert every_pattern == (not linalg.signed_circuits([a for a, _ in arr.int_rows], zero)), (arr, q)
    return expected[1].rule


def test_open_depth_matches_per_pattern_route():
    rules = {"open": 0, "open-perturbed": 0}
    for d in (1, 2, 3):
        for seed in range(60):
            arr, qs = degenerate_case(seed, d, 5 + seed % 3)
            for q in qs:
                rules[_check_open_depth(arr, q)] += 1
    assert rules["open"] >= 200 and rules["open-perturbed"] >= 100, rules


def _pencil(rng, d, m, weights):
    """m hyperplanes through one center, some of them duplicates written scaled, among others off it.

    The others are free hyperplanes and parallels to the incident ones.
    Weights are all 1, in {0, 1, 2}, or rational with zeros.
    """
    center = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
    rows = []
    while len(rows) < m:
        if rows and rng.random() < 0.25:
            a = tuple(rng.choice((1, 2, -3)) * c for c in rng.choice(rows)[0])
        else:
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(a):
                continue
        rows.append((a, linalg.dot(a, center)))
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.3:
            a, b = rng.choice(rows[:m])
            b += rng.choice((1, -2))
        else:
            a = tuple(rng.randint(-4, 4) or 1 for _ in range(d))
            b = Fraction(rng.randint(-6, 6))
            if linalg.dot(a, center) == b:
                b += 1
        rows.append((a, b))
    if weights == "unit":
        ws = [1] * len(rows)
    elif weights == "zero":
        ws = [rng.choice((0, 1, 2)) for _ in rows]
    else:
        ws = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in rows]
    order = rng.sample(range(len(rows)), len(rows))  # the incident hyperplanes at any indices
    arr = Arrangement(d, tuple(hyperplane(*rows[i], ws[i]) for i in order))
    return arr, center


def _tied_patterns(arr, pos, neg, zero):
    """How many new perturbed patterns take their least count in two or more groups (different first cells)."""
    groups = _open_groups(arr, pos, neg, zero)
    if len(groups) == 1 << zero.bit_count():
        return 0
    tied = 0
    for plus in _new_perturbed_cells(linalg.signed_circuits([a for a, _ in arr.int_rows], zero), zero, groups):
        totals = [count + depth._weights(arr, [plus ^ key])[0] for key, (count, _) in groups.items()]
        tied += totals.count(min(totals)) > 1
    return tied


def test_open_depth_at_pencils_matches_per_pattern_route():
    """RD' at the center of 3-7 incident hyperplanes, d = 2 and 3: the per-pattern value, rule and witness.

    The pencils hold duplicates and zero weights, and many new patterns take
    their least count in groups whose counts tie, with different first cells.
    RD' runs cold, after RD, and on an arrangement whose full circuit table
    is built, from which the incident circuits are then filtered.
    """
    rng = random.Random("request-reuse:pencils")
    rules = {"open": 0, "open-perturbed": 0}
    tied = groups_tied = 0
    for d in (2, 3):
        for m in range(3, 8):
            for trial in range(12):
                arr, center = _pencil(rng, d, m, ("unit", "zero", "rational")[trial % 3])
                pos, neg, zero = _masks(arr, center)
                assert zero.bit_count() == m
                expected = per_pattern_open_depth(_fresh(arr), pos, neg)
                assert _open_depth(_fresh(arr), pos, neg) == expected, (arr, center)
                assert open_regression_depth(_fresh(arr), center) == expected, (arr, center)
                warm = _fresh(arr)
                regression_depth(warm, center)
                assert open_regression_depth(warm, center) == expected, (arr, center)
                tabled = _fresh(arr)
                _ = tabled.circuits  # the full table: the incident circuits are then filtered from it
                assert tabled._circuits_among(zero) == linalg.signed_circuits([a for a, _ in arr.int_rows], zero)
                assert open_regression_depth(tabled, center) == expected, (arr, center)
                rules[expected[1].rule] += 1
                tied += _tied_patterns(arr, pos, neg, zero)
                counts = [count for count, _ in _open_groups(arr, pos, neg, zero).values()]
                groups_tied += len(set(counts)) < len(counts)
    assert rules["open-perturbed"] >= 80 and rules["open"] >= 5, rules
    assert tied >= 100 and groups_tied >= 80, (tied, groups_tied)


coord = st.integers(-3, 3)


@st.composite
def degenerate_arrangements(draw):
    """(arrangement, query) in d = 1-3: free hyperplanes, concurrent ones and scaled duplicates or parallels.

    Weights are all 1, in {0, 1, 2}, or rational; the query lies at the
    common point, at a vertex, on a hyperplane or anywhere.
    """
    d = draw(st.integers(1, 3))
    center = tuple(draw(st.integers(-2, 2)) for _ in range(d))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(("free", "free", "center", "center", "duplicate", "parallel")))
        if kind in ("free", "center") or not rows:
            a = draw(st.tuples(*[coord] * d).filter(any))
            b = sum(x * c for x, c in zip(a, center)) if kind == "center" else draw(st.integers(-4, 4))
        else:
            a0, b0 = draw(st.sampled_from(rows))
            k = draw(st.sampled_from((1, 2, -3)))
            a = tuple(k * c for c in a0)
            b = k * b0 + (0 if kind == "duplicate" else draw(st.integers(-2, 2)))
        rows.append((a, b))
    weight = draw(st.sampled_from(("unit", "zero", "rational")))
    if weight == "unit":
        ws = [1] * len(rows)
    elif weight == "zero":
        ws = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    else:
        ws = [Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 4))) for _ in rows]
    arr = Arrangement(d, tuple(hyperplane(a, b, w) for (a, b), w in zip(rows, ws)))
    where = draw(st.sampled_from(("center", "vertex", "hyperplane", "anywhere")))
    if where == "center":
        return arr, center
    if where == "vertex":
        idx = draw(st.lists(st.integers(0, len(rows) - 1), min_size=d, max_size=d))
        v = linalg.solve([arr[i].normal for i in idx], [arr[i].offset for i in idx])
        if v is not None:
            return arr, v
    q = [Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))) for _ in range(d)]
    if where == "hyperplane":
        h = arr[draw(st.integers(0, len(rows) - 1))]
        j = next(k for k, c in enumerate(h.normal) if c != 0)
        q[j] = 0
        q[j] = (h.offset - linalg.dot(h.normal, q)) / h.normal[j]
    return arr, tuple(q)


@settings(max_examples=300, deadline=None)
@given(degenerate_arrangements())
def test_open_depth_fuzz(case):
    _check_open_depth(*case)


def _degenerate_maps():
    """Planar arrangements with concurrent, parallel and duplicate lines and zero weights."""
    for seed in range(12):
        yield degenerate_case(seed, 2, 6 + seed % 4)[0]
    rng = random.Random("request-reuse:maps")
    for n in (8, 10):
        center = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        rows = []
        while len(rows) < n:
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if any(a):
                b = a[0] * center[0] + a[1] * center[1] if len(rows) % 2 else Fraction(rng.randint(-4, 4))
                rows.append((a, b, rng.choice((0, 1, 2))))
        yield Arrangement(2, tuple(hyperplane(a, b, w) for a, b, w in rows))


def test_open_labels_match_per_pattern_route():
    """`label_depth` under RD' gives every face of a degenerate map the per-pattern value."""
    perturbed = 0
    for arr in _degenerate_maps():
        sub = build_subdivision(arr)
        table = label_depth(sub, arr, MeasureKind.RD_OPEN)
        for f in sub.faces:
            val, cert = per_pattern_open_depth(arr, f.pos, f.neg)
            assert table[f.index] == val, (arr, f)
            perturbed += cert.rule == "open-perturbed"
    assert perturbed >= 5


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the list of calls."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_off_the_hyperplanes_rd_rd_open_and_trd_make_one_cell_pass(monkeypatch):
    cases = [
        (generate_instance(1, 2, 9, "generic"), (Fraction(1, 3), Fraction(2, 7))),
        (generate_instance(2, 2, 9, "weighted"), (Fraction(-5, 3), Fraction(1, 11))),
        (generate_instance(3, 3, 7, "generic"), (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))),
        (degenerate_case(4, 3, 7)[0], (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))),
    ]
    expected = [(regression_depth(_fresh(a), q), truncated_regression_depth(_fresh(a), q)) for a, q in cases]
    calls = _counting(monkeypatch, depth, "_tope_counts")
    orders = ("rd", "rd-open", "trd"), ("rd-open", "trd", "rd"), ("trd", "rd-open", "rd")
    for (arr, q), (rd, trd) in zip(cases, expected):
        assert not arr.sign_masks(q)[1]
        for order in orders:
            arr = _fresh(arr)
            calls.clear()
            got = {
                "rd": lambda: regression_depth(arr, q),
                "rd-open": lambda: open_regression_depth(arr, q),
                "trd": lambda: truncated_regression_depth(arr, q),
            }
            values = {name: got[name]() for name in order}
            assert len(calls) == 1, order
            assert values["rd"] == rd and values["trd"] == trd
            assert values["rd-open"] == (rd[0], depth.DepthCertificate(rd[1].direction, rd[0], "open"))


def test_independent_incident_normals_find_no_circuits(monkeypatch):
    """At a d = 3 vertex of three planes with independent normals, RD' builds no circuit."""
    cases = []
    for seed in range(4):
        arr = generate_instance(seed, 3, 7, "generic")
        v = linalg.solve([arr[i].normal for i in range(3)], [arr[i].offset for i in range(3)])
        pos, neg, zero = _masks(arr, v)
        assert zero.bit_count() == 3
        cases.append((arr, v, per_pattern_open_depth(_fresh(arr), pos, neg)))

    def refuse(*args, **kwargs):
        raise AssertionError("signed_circuits called")

    monkeypatch.setattr(linalg, "signed_circuits", refuse)
    for arr, v, expected in cases:
        assert open_regression_depth(_fresh(arr), v) == expected
        assert expected[1].rule == "open"


def test_degenerate_centre_makes_one_cell_pass(monkeypatch):
    """At d = 3 centres whose incident normals hold circuits, RD' finds them and passes over the cells once."""
    cases = []
    for seed in range(40):
        arr, qs = degenerate_case(seed, 3, 7)
        pos, neg, zero = _masks(arr, qs[0])
        circuits = linalg.signed_circuits([a for a, _ in arr.int_rows], zero)
        if circuits:
            patterns = len(list(_new_perturbed_cells(circuits, zero)))
            cases.append((arr, qs[0], patterns, per_pattern_open_depth(_fresh(arr), pos, neg)))
    assert sum(patterns >= 2 for _, _, patterns, _ in cases) >= 5
    circuit_calls = _counting(monkeypatch, linalg, "signed_circuits")
    cell_passes = _counting(monkeypatch, depth, "_tope_counts")
    for arr, q, _, expected in cases:
        circuit_calls.clear()
        cell_passes.clear()
        assert open_regression_depth(_fresh(arr), q) == expected
        assert len(circuit_calls) == 1 and len(cell_passes) == 1


def _greedy(pieces):
    used = size = 0
    for piece in sorted(pieces, key=lambda m: (m.bit_count(), m)):
        if not piece & used:
            used |= piece
            size += 1
    return size


def _check_packing(arr, q):
    """`_packing_size` is the maximum packing, with and without RD in the query slot."""
    expected = len(max_packing(coverable_pieces(_fresh(arr), q)))
    assert _packing_size(_fresh(arr), q) == expected, (arr, q)
    warm = _fresh(arr)
    rd = regression_depth(warm, q)[0]
    assert _packing_size(warm, q) == expected, (arr, q)
    assert hyperplane_tverberg_depth(warm, q) == expected
    if all(h.weight == 1 for h in arr):
        assert expected <= rd


@settings(max_examples=300, deadline=None)
@given(degenerate_arrangements())
def test_packing_size_fuzz(case):
    _check_packing(*case)


def test_packing_size_on_seeded_cases():
    for d in (2, 3):
        for seed in range(40):
            arr, qs = degenerate_case(seed, d, 5 + seed % 3)
            for q in qs:
                _check_packing(arr, q)


def test_packing_size_on_piece_families():
    """Any family of pieces whose singletons miss the larger pieces, as a query's pieces can be.

    The families, with pieces of 2 to 4 elements among 12, are put in the
    query slot of a weighted arrangement, so only the size bound applies.
    """
    rng = random.Random("request-reuse:families")
    arr = generate_instance(0, 2, 12, "weighted")
    q = (Fraction(1, 3), Fraction(2, 7))
    short = 0
    for _ in range(400):
        through = rng.sample(range(12), rng.randint(0, 3))
        rest = [i for i in range(12) if i not in through]
        pieces = [1 << i for i in through]
        for _ in range(rng.randint(1, 12)):
            pieces.append(sum(1 << i for i in rng.sample(rest, rng.randint(2, min(4, len(rest))))))
        pieces = tuple(dict.fromkeys(pieces))
        fresh = _fresh(arr)
        fresh._query(q).pieces = pieces
        expected = len(max_packing(pieces))
        assert _packing_size(fresh, q) == expected, pieces
        short += _greedy(pieces) < expected
    assert short >= 20


def test_packing_runs_max_packing_only_when_greedy_falls_short(monkeypatch):
    """At the deepest point of generate_instance(4, 2, 8) greedy packs 3 pieces where 4 fit.

    Where greedy meets RD, at the deepest points of generate_instance(s, 2, 8)
    for some s < 4, the packing DP does not run. `_packing_size` is called
    directly: HTvD at d = 2 reads the planar rule and packs nothing, and
    `_packing_size` is its route at every other d.
    """
    arr = generate_instance(4, 2, 8, "generic")
    q = deepest_point(arr)[0]
    pieces = coverable_pieces(_fresh(arr), q)
    assert _greedy(pieces) == 3
    met = []
    for seed in range(4):
        other = generate_instance(seed, 2, 8, "generic")
        p = deepest_point(other)[0]
        if _greedy(coverable_pieces(_fresh(other), p)) == regression_depth(_fresh(other), p)[0]:
            met.append((other, p))
    assert met
    calls = _counting(monkeypatch, tverberg, "max_packing")
    for with_rd in (False, True):
        fresh = _fresh(arr)
        if with_rd:
            regression_depth(fresh, q)
        calls.clear()
        assert _packing_size(fresh, q) == 4
        assert len(calls) == 1
    for weight in (0, Fraction(1, 2)):  # RD is then below HTvD and stays out of the bound
        light = Arrangement(2, tuple(hyperplane(h.normal, h.offset, weight) for h in arr))
        assert regression_depth(light, q)[0] < 4
        assert _packing_size(light, q) == 4
    for other, p in met:
        fresh = _fresh(other)
        regression_depth(fresh, p)
        calls.clear()
        assert _packing_size(fresh, p) == _greedy(coverable_pieces(fresh, p))
        assert not calls

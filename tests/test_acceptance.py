"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 7 certifies the
object the contraction argument supports: D_k, the closure of the union of
the 2-cells of depth >= k. The raw superlevel sets {RD >= k} are not
contractible in general: every crossing of two lines has depth at least 2 by
incidence, so {RD >= 2} holds vertices and edges far from the deep zone.
That false claim is kept pinned as a counterexample in
test_criterion_7_triangle_counterexample.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from partition_oracle import exhaustive_tverberg

from arrdepth import linalg
from arrdepth.axioms import check_axioms
from arrdepth.cli import run
from arrdepth.depth import (
    MeasureKind,
    deepest_point,
    dual_tukey_depth,
    oracle_depth,
    regression_depth,
)
from arrdepth.enclosing import hyperplane_enclosing_depth, point_enclosing_depth
from arrdepth.geometry import arrangement, dump_json, evaluate, generate_instance, triangle
from arrdepth.planar import (
    DepthRegion,
    build_subdivision,
    check_contractible,
    extract_region,
    incident,
    label_depth,
)
from arrdepth.transversal import solve_planar_transversal
from arrdepth.tverberg import hyperplane_tverberg_depth, solve_tverberg, tverberg_point_depth


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    return line


def _vertex(arr):
    d = arr.dimension
    for subset in combinations(range(len(arr)), d):
        sol = linalg.solve([arr[i].normal for i in subset], [arr[i].offset for i in subset])
        if sol is not None:
            return sol
    return None


def _deep_query(arr, rng):
    d = arr.dimension
    verts = []
    idxs = list(combinations(range(len(arr)), d))
    rng.shuffle(idxs)
    for subset in idxs[:6]:
        sol = linalg.solve([arr[i].normal for i in subset], [arr[i].offset for i in subset])
        if sol is not None:
            verts.append(sol)
    if not verts:
        return tuple(Fraction(0) for _ in range(d))
    pick = verts[:3]
    return tuple(
        sum(v[k] for v in pick) / len(pick) + Fraction(1, 997 + rng.randint(0, 60)) for k in range(d)
    )


def test_criterion_1_oracle_equivalence():
    failures = 0
    times = {}
    for d, n_of in ((2, lambda i: 4 + i % 9), (3, lambda i: 5 + i % 4)):
        rng = random.Random(f"acc1:{d}")
        t0 = time.monotonic()
        for i in range(200):
            n = n_of(i)
            arr = generate_instance(10_000 + i, d, n, "generic")
            queries = [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d))]
            if i % 4 == 0:
                v = _vertex(arr)
                if v is not None:
                    queries.append(v)
            for q in queries:
                if regression_depth(arr, q)[0] != oracle_depth(arr, q, samples=12, seed=i):
                    failures += 1
        times[d] = time.monotonic() - t0
    ok = failures == 0 and all(t < 60 for t in times.values())
    report(1, ok, f"oracle equivalence on 2x200 instances, failures={failures}, "
                  f"runtime d2={times[2]:.1f}s d3={times[3]:.1f}s (target < 60s each)")
    assert failures == 0
    assert all(t < 60 for t in times.values())


def test_criterion_2_duality():
    rng = random.Random("acc2")
    failures = 0
    checked_pairs = 0
    checked_combinatorial = 0
    while checked_pairs < 200:
        d = 2 if checked_pairs % 2 == 0 else 3
        n = (4 + checked_pairs % 9) if d == 2 else (5 + checked_pairs % 4)
        arr = generate_instance(20_000 + checked_pairs, d, n, "generic")
        q = _deep_query(arr, rng) if checked_pairs % 3 else tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d)
        )
        ev = evaluate(arr, q)
        if ev.on_set:
            continue
        checked_pairs += 1
        weights = [h.weight for h in arr]
        if regression_depth(arr, q)[0] != dual_tukey_depth(ev.dual_points, q, weights):
            failures += 1
        if n <= 9:
            checked_combinatorial += 1
            if hyperplane_tverberg_depth(arr, q) != tverberg_point_depth(ev.dual_points, q):
                failures += 1
            if hyperplane_enclosing_depth(arr, q)[0] != point_enclosing_depth(ev.dual_points, q):
                failures += 1
    ok = failures == 0
    report(2, ok, f"duality RD=TD on 200 pairs, HTvD=TvD and HED=ED on {checked_combinatorial} "
                  f"pairs with n<=9, failures={failures}")
    assert failures == 0


def test_criterion_3_centerpoint_bound():
    failures = 0
    for d, n_of in ((2, lambda i: 4 + i % 9), (3, lambda i: 5 + i % 4)):
        for i in range(100):
            n = n_of(i)
            arr = generate_instance(30_000 + i, d, n, "generic")
            _, value, _ = deepest_point(arr)
            if value < n // (d + 1) + 1:
                failures += 1
    ok = failures == 0
    report(3, ok, f"deepest point >= floor(n/(d+1))+1 on 100 d=2 and 100 d=3 instances, failures={failures}")
    assert failures == 0


def test_criterion_4_weighted_centerpoint():
    failures = 0
    for i in range(100):
        n = 4 + i % 7
        arr = generate_instance(40_000 + i, 2, n, "weighted")
        _, value, _ = deepest_point(arr)
        if value < arr.total_weight / 3:
            failures += 1
    ok = failures == 0
    report(4, ok, f"deepest point >= w(A)/(d+1) on 100 weighted d=2 instances, failures={failures}")
    assert failures == 0


def test_criterion_5_tverberg_theorem():
    failures = 0
    slow = 0
    for cfg_i, (d, r, n) in enumerate([(2, 2, 4), (2, 3, 7), (3, 2, 5)]):
        for i in range(100):
            arr = generate_instance(50_000 + 1000 * cfg_i + i, d, n, "generic")
            t0 = time.monotonic()
            cert = solve_tverberg(arr, r, seed=i)
            elapsed = time.monotonic() - t0
            if elapsed >= 10:
                slow += 1
            if not (cert.verified and len(cert.partition) == r and all(v >= 1 for v, _ in cert.part_depths)):
                failures += 1
    confirm_failures = 0
    for i in range(100):
        arr = generate_instance(50_000 + i, 2, 4, "generic")
        if exhaustive_tverberg(arr, 2) is None:
            confirm_failures += 1
    ok = failures == 0 and confirm_failures == 0 and slow == 0
    report(5, ok, f"verified Tverberg certificates on 3x100 instances (failures={failures}, "
                  f">=10s solves={slow}); exhaustive confirmation on (2,2,4): misses={confirm_failures}")
    assert failures == 0 and confirm_failures == 0 and slow == 0


def test_criterion_6_sandwich_inequalities():
    failures = 0
    points = 0
    for i in range(50):
        n = 4 + i % 5
        arr = generate_instance(60_000 + i, 2, n, "generic")
        sub = build_subdivision(arr)
        for face in sub.faces:
            q = face.rep
            rd, _ = regression_depth(arr, q)
            htvd = hyperplane_tverberg_depth(arr, q)
            hed, _ = hyperplane_enclosing_depth(arr, q)
            points += 1
            if not (htvd <= rd <= 2 * htvd and hed <= rd):
                failures += 1
    ok = failures == 0
    report(6, ok, f"HTvD <= RD <= d*HTvD and HED <= RD at {points} face representatives, failures={failures}")
    assert failures == 0


@pytest.fixture(scope="module")
def contractibility_instances():
    out = []
    for i in range(100):
        n = 4 + i % 7
        out.append(generate_instance(70_000 + i, 2, n, "generic"))
    return out


def _closure_of_deep_cells(sub, region):
    """D_k: the 2-cells of `region` together with every lower face bounding one."""
    cells = [c for c in sub.cells if c.index in region.face_indices]
    idx = {c.index for c in cells}
    for f in sub.faces:
        if f.dim < 2 and any(incident(f, c) for c in cells):
            idx.add(f.index)
    return DepthRegion(region.k, region.measure, frozenset(idx))


def test_criterion_7_contractibility_universal(contractibility_instances):
    not_closed = not_contractible = missing = 0
    regions = empty_above_bound = 0
    for arr in contractibility_instances:
        n = len(arr)
        sub = build_subdivision(arr)
        table = label_depth(sub, arr, MeasureKind.RD)
        for k in range(1, math.ceil(n / 3) + 1):
            regions += 1
            raw = extract_region(sub, table, k)
            deep = _closure_of_deep_cells(sub, raw)
            # (a) RD superlevel sets are closed: a face is never shallower than a cell it bounds.
            if not deep.face_indices <= raw.face_indices:
                not_closed += 1
            if not deep.face_indices:
                # (b) RD = RD' on cells, and max RD' >= ceil((n-2)/3) is attained on a cell.
                if k <= math.ceil((n - 2) / 3):
                    missing += 1
                else:
                    empty_above_bound += 1
                continue
            # (c) the closure of the deep cells is contractible.
            if not check_contractible(sub, deep):
                not_contractible += 1
    failures = not_closed + missing + not_contractible
    ok = failures == 0
    report(7, ok, f"closure D_k of the cells with RD >= k, k <= ceil(n/3), over {regions} regions: "
                  f"D_k outside {{RD >= k}}={not_closed}, empty for k <= ceil((n-2)/3)={missing}, "
                  f"not contractible={not_contractible}; empty above that bound "
                  f"(not a failure)={empty_above_bound}")
    assert not_closed == 0, "a face bounding a cell of depth >= k has depth < k"
    assert missing == 0, "no cell of depth >= k although k <= ceil((n-2)/3)"
    assert not_contractible == 0, "the closure of the cells of depth >= k is not contractible"


def test_criterion_7_triangle_counterexample():
    # The raw superlevel sets {RD >= k} need not be contractible: pinned as false.
    tri = triangle()
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD)
    rep2 = check_contractible(sub, extract_region(sub, table, 2))
    ok_tri = (not rep2) and rep2.chi == 3

    # Lines x=0, y=0, x+y=1, x-y=5: {RD >= 1} is the whole plane, {RD >= 2} splits in four.
    four = arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((1, -1), 5)])
    sub4 = build_subdivision(four)
    table4 = label_depth(sub4, four, MeasureKind.RD)
    rep4_1 = check_contractible(sub4, extract_region(sub4, table4, 1))
    rep4_2 = check_contractible(sub4, extract_region(sub4, table4, 2))
    ok_four = (
        rep4_1.status == "ok"
        and rep4_2.status == "disconnected"
        and rep4_2.components == 4
    )
    ok = ok_tri and ok_four
    report("7b", ok, f"raw {{RD >= k}} is not contractible in general: triangle k=2 has "
                     f"chi={rep2.chi}; four lines x=0, y=0, x+y=1, x-y=5 give k=1 {rep4_1.status}, "
                     f"k=2 {rep4_2.status} with {rep4_2.components} components")
    assert ok


def test_criterion_8_open_depth_bound(contractibility_instances):
    failures = 0
    for arr in contractibility_instances:
        n = len(arr)
        sub = build_subdivision(arr)
        table = label_depth(sub, arr, MeasureKind.RD_OPEN)
        best = max(table.values.values())
        if best < math.ceil((n - 2) / 3):
            failures += 1
    ok = failures == 0
    report(8, ok, f"max face RD' >= ceil((n-d)/(d+1)) on 100 instances, failures={failures}")
    assert failures == 0


def test_criterion_9_planar_transversal():
    rng = random.Random("acc9")
    failures = 0
    solved = 0
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
        sol = solve_planar_transversal(arrs[0], arrs[1])
        solved += 1
        if sol.status != "exact":
            failures += 1
            continue
        for counts, arr in zip(sol.counts, arrs):
            left = right = par = Fraction(0)
            for h in arr:
                c = linalg.dot(h.normal, sol.direction)
                s = h.residual(sol.q)
                if c == 0:
                    par += h.weight
                    continue
                if s * c <= 0:
                    right += h.weight
                if s * c >= 0:
                    left += h.weight
            if not (left + par >= arr.total_weight / 2 and right + par >= arr.total_weight / 2):
                failures += 1
            if (left, right, par) != (counts.left, counts.right, counts.parallel):
                failures += 1
    ok = failures == 0 and solved == 100
    report(9, ok, f"planar transversal on {solved} random pairs, re-verified by direct ray "
                  f"counting, failures={failures}, all exact status")
    assert failures == 0


def test_criterion_10_axiom_suite(fig1_union):
    tri = triangle()
    q_in = (Fraction(1, 4), Fraction(1, 4))
    gen = generate_instance(90_001, 2, 6, "generic")
    deep_pt, _, _ = deepest_point(gen)
    entries = []

    for kind in (MeasureKind.RD, MeasureKind.HTVD):
        for arr, q in ((tri, q_in), (gen, deep_pt)):
            rep = check_axioms(kind, arr, q, trials=6, seed=10)
            entries.append(all(rep.passed(a) for a in ("i", "ii", "iii", "iv")))

    for arr, q in ((tri, q_in), (gen, deep_pt)):
        rep = check_axioms(MeasureKind.HED, arr, q, trials=6, seed=11)
        entries.append(all(rep.passed(a) for a in ("i", "ii", "iii'", "iv'")))

    rep = check_axioms(MeasureKind.HED, fig1_union, (0, 0), trials=6, seed=12)
    hed_fails_iv = rep.result("iv").passed is False and rep.result("iv").witness != ()
    entries.append(hed_fails_iv)

    single = arrangement(2, [((1, 1), 2)])
    rep = check_axioms(MeasureKind.RD_OPEN, single, (1, 1), trials=6, seed=13)
    rdo_fails_iii = rep.result("iii").passed is False
    entries.append(rdo_fails_iii)

    ok = all(entries)
    report(10, ok, f"axioms: RD/HTvD pass (i)-(iv), HED passes (i),(ii),(iii'),(iv'), "
                   f"HED fails (iv) on the two-triangle configuration={hed_fails_iv}, "
                   f"RD' fails (iii) on a single hyperplane={rdo_fails_iii}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(dump_json(generate_instance(91_000, 2, 6, "generic")))
    outputs = []
    for _ in range(2):
        svg = tmp_path / "map.svg"
        reports = []
        for argv in (
            ["depth", "--measure", "rd", "--query", "1/3,2/7", str(inst)],
            ["deepest", str(inst)],
            ["tverberg", "--r", "2", "--seed", "5", str(inst)],
            ["depthmap", "--measure", "rd", "--out", str(svg), str(inst)],
            ["axioms", "--kind", "rd", "--query", "1/3,2/7", "--seed", "4", str(inst)],
        ):
            code, rep = run(argv)
            assert code == 0
            reports.append(repr(rep))
        reports.append(svg.read_bytes())
        outputs.append(reports)
    ok = outputs[0] == outputs[1]
    report(11, ok, "identical seeds give byte-identical reports and SVG across two runs")
    assert ok

import random
from fractions import Fraction

import pytest
from test_cells import _degenerate

from arrdepth.depth import MeasureKind, deepest_point, open_regression_depth, regression_depth, truncated_regression_depth
from arrdepth.errors import DimensionError
from arrdepth.geometry import Arrangement, arrangement, generate_instance, hyperplane
from arrdepth.planar import (
    PlanarSubdivision,
    _box_points,
    build_subdivision,
    cell_polygon,
    check_contractible,
    euler_counts,
    extract_region,
    incident,
    label_depth,
    render_svg,
)


def test_triangle_counts(tri):
    sub = build_subdivision(tri)
    assert len(sub.vertices) == 3
    assert len(sub.cells) == 7
    assert sum(1 for c in sub.cells if sub.bounded(c)) == 1
    assert sum(1 for c in sub.cells if not sub.bounded(c)) == 6
    assert sum(1 for e in sub.edges if sub.bounded(e)) == 3
    assert sum(1 for e in sub.edges if not sub.bounded(e)) == 6
    assert all(sub.bounded(v) for v in sub.vertices)


def test_parallel_lines_counts():
    sub = build_subdivision(arrangement(2, [((1, 0), 0), ((1, 0), 1)]))
    assert len(sub.vertices) == 0
    assert len(sub.cells) == 3
    assert all(not sub.bounded(c) for c in sub.cells)


def test_single_line_counts():
    sub = build_subdivision(arrangement(2, [((1, 0), 0)]))
    assert len(sub.cells) == 2
    assert len(sub.edges) == 1 and len(sub.vertices) == 0


def test_duplicate_lines_merge():
    sub = build_subdivision(arrangement(2, [((1, 0), 0), ((2, 0), 0), ((0, 1), 0)]))
    assert len(sub.lines) == 2  # geometric dedupe
    assert len(sub.vertices) == 1


def test_requires_2d():
    with pytest.raises(DimensionError):
        build_subdivision(Arrangement(3, ()))


def test_euler_relation_randomized():
    for seed in range(8):
        arr = generate_instance(seed, 2, 3 + seed % 6, "generic")
        sub = build_subdivision(arr)
        v, e, f = euler_counts(sub)
        assert v - e + f == 2


def test_euler_relation_degenerate(tri):
    # V - E + F reduces to nv - ne + nc + 1 whatever the box points are, so the
    # triples are pinned too: the box corners plus the two box points of each line
    cases = [
        (tri, (13, 19, 8)),
        (arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)]), (9, 14, 7)),  # concurrent
        (arrangement(2, [((1, -1), 0), ((1, 1), 0)]), (5, 8, 5)),  # line ends on box corners
        (arrangement(2, [((1, 0), 0), ((1, 0), 2), ((1, 0), 5)]), (10, 13, 5)),  # parallel family
        (arrangement(2, [((1, 0), 0), ((1, 0), 2), ((0, 1), 0), ((1, 1), 2)]), (15, 23, 10)),  # mixed
        (arrangement(2, [((1, 0), 0)]), (6, 7, 3)),
    ]
    for arr, expected in cases:
        sub = build_subdivision(arr)
        v, e, f = euler_counts(sub)
        assert v - e + f == 2
        assert (v, e, f) == expected


def test_face_representatives_interior():
    arr = generate_instance(3, 2, 5, "generic")
    sub = build_subdivision(arr)
    for face in sub.faces:
        zeros = [i for i, s in enumerate(face.signs) if s == 0]
        assert len(zeros) == 2 - face.dim


def test_degenerate_vertex_flag():
    conc = arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    sub = build_subdivision(conc)
    assert len(sub.vertices) == 1 and sub.vertices[0].degenerate


def test_label_rd_triangle(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD)
    for v in sub.vertices:
        assert table[v.index] == 2
    for e in sub.edges:
        assert table[e.index] == 1
    for c in sub.cells:
        assert table[c.index] == (1 if sub.bounded(c) else 0)


def test_label_rd_open_triangle(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD_OPEN)
    interior = next(c for c in sub.cells if sub.bounded(c))
    assert table[interior.index] == 1
    assert all(table[f.index] == 0 for f in sub.faces if f.index != interior.index)


def test_label_trd_triangle(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.TRD)
    for v in sub.vertices:
        assert table[v.index] == 1  # min(3/3, 2)


def test_labels_match_depth_engine_at_extra_points():
    rng = random.Random(11)
    arr = generate_instance(12, 2, 5, "generic")
    sub = build_subdivision(arr)
    for measure, fn in [
        (MeasureKind.RD, lambda a, q: regression_depth(a, q)[0]),
        (MeasureKind.RD_OPEN, lambda a, q: open_regression_depth(a, q)[0]),
        (MeasureKind.TRD, truncated_regression_depth),
    ]:
        table = label_depth(sub, arr, measure)
        for cell in sub.cells[:6]:
            poly = cell_polygon(sub, cell)
            rep = cell.rep
            for _ in range(3):
                # random convex mixture of the representative and polygon corners
                other = poly[rng.randrange(len(poly))]
                lam = Fraction(rng.randint(1, 9), 10)
                q = tuple(lam * r + (1 - lam) * o for r, o in zip(rep, other))
                zeros = [h for h in arr if h.residual(q) == 0]
                if zeros:
                    continue  # landed on the cell boundary
                assert fn(arr, q) == table[cell.index]


def test_extract_region_triangle(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD)
    r1 = extract_region(sub, table, 1)
    # filled triangle plus the three full lines: 3 vertices + 9 edges + 1 cell
    assert len(r1.face_indices) == 13
    r2 = extract_region(sub, table, 2)
    assert {sub.faces[i].dim for i in r2.face_indices} == {0}
    assert len(r2.face_indices) == 3
    assert extract_region(sub, table, 9).face_indices == frozenset()


def test_contractibility_triangle(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD)
    rep1 = check_contractible(sub, extract_region(sub, table, 1))
    assert rep1 and rep1.chi == 1 and rep1.components == 1
    rep2 = check_contractible(sub, extract_region(sub, table, 2))
    assert not rep2
    assert rep2.chi == 3 and rep2.components == 3  # three isolated corners
    rep_empty = check_contractible(sub, extract_region(sub, table, 9))
    assert not rep_empty and rep_empty.status == "empty"


def test_closure_of_deep_cells_contractible():
    # The contractible object the no-cell-is-surrounded argument supports: the
    # closure of the union of cells of depth >= k (isolated deep vertices excluded).
    from arrdepth.planar import DepthRegion

    for seed in range(6):
        n = 4 + seed
        arr = generate_instance(seed, 2, n, "generic")
        sub = build_subdivision(arr)
        table = label_depth(sub, arr, MeasureKind.RD)
        maxcell = max(table.values[c.index] for c in sub.cells)
        for k in range(1, int(maxcell) + 1):
            cells = [c for c in sub.cells if table.values[c.index] >= k]
            idx = {c.index for c in cells}
            for f in sub.faces:
                if f.dim < 2 and any(incident(f, c) for c in cells):
                    idx.add(f.index)
            region = DepthRegion(Fraction(k), MeasureKind.RD, frozenset(idx))
            assert check_contractible(sub, region)


def test_directional_region_nesting():
    from arrdepth.depth import directional_count

    arr = generate_instance(9, 2, 6, "generic")
    sub = build_subdivision(arr)
    for u in [(1, 0), (2, 3), (-1, 5)]:
        counts = {f.index: directional_count(arr, f.rep, u, "open") for f in sub.faces}
        for k in range(1, 4):
            upper = {i for i, c in counts.items() if c >= k + 1}
            lower = {i for i, c in counts.items() if c >= k}
            assert upper <= lower


def test_median_region_nonempty_and_deep():
    for seed in range(5):
        n = 5 + seed
        arr = generate_instance(40 + seed, 2, n, "generic")
        sub = build_subdivision(arr)
        table = label_depth(sub, arr, MeasureKind.RD)
        deepest = max(table.values.values())
        region = extract_region(sub, table, deepest)
        assert region.face_indices
        assert deepest >= n // 3 + 1


def test_svg_deterministic(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD)
    svg1 = render_svg(sub, table)
    svg2 = render_svg(sub, table)
    assert svg1 == svg2


def test_svg_structure(tri):
    sub = build_subdivision(tri)
    table = label_depth(sub, tri, MeasureKind.RD)
    pt, _, _ = deepest_point(tri)
    svg = render_svg(sub, table, deepest=pt)
    assert svg.count("<polygon") == 7
    assert svg.count("<line") == 3
    assert svg.count("<circle") == 3 + 1  # vertices + deepest marker
    assert 'id="legend"' in svg
    assert "rd = 2" in svg  # exact rational labels


def test_svg_empty_arrangement():
    arr = Arrangement(2, ())
    sub = build_subdivision(arr)
    table = label_depth(sub, arr, MeasureKind.RD)
    svg = render_svg(sub, table)
    assert svg.count("<polygon") == 0
    assert 'id="legend"' in svg


# ---------------------------------------------------------------------------
# the box clip, kept as the oracle for the polygons read from the face lattice

def _clip_halfplane(poly, a, c, sign):
    """Intersect a convex polygon with {x : sign * (a.x - c) >= 0}, exactly."""
    if not poly:
        return poly
    out = []
    n = len(poly)
    vals = [sign * (a[0] * p[0] + a[1] * p[1] - c) for p in poly]
    for i in range(n):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % n], vals[(i + 1) % n]
        if vp >= 0:
            out.append(p)
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _box_clip(sub, halfplanes):
    """The bounding box clipped by (a, c, sign) half-planes, as an exact counter-clockwise point list."""
    xmin, ymin, xmax, ymax = sub.bbox
    poly = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    for a, c, sign in halfplanes:
        poly = _clip_halfplane(poly, a, c, sign)
    return poly


def _clipped_face(sub, face):
    """The box clipped by every line on the face's side and by both sides of each line it lies on."""
    on, off = [], []
    for a, c in sub.lines:
        v = a[0] * face.rep[0] + a[1] * face.rep[1] - c
        if v == 0:
            on += [(a, c, 1), (a, c, -1)]
        else:
            off.append((a, c, 1 if v > 0 else -1))
    return _box_clip(sub, on + off)


def _cyclic_equal(p, q):
    return len(p) == len(q) and any(p[i:] + p[:i] == q for i in range(len(p)))


def _polygon_cases():
    # 204 seeded arrangements with n up to 12, then the hand cases. The clip costs about
    # n^3 per arrangement, so half of each kind run at n <= 6.
    sizes = [1 + i % 12 for i in range(36)] + [1 + i % 6 for i in range(36)]
    generic = [generate_instance(500 + seed, 2, n, "generic") for seed, n in enumerate(sizes)]
    sizes = [2 + i % 11 for i in range(66)] + [2 + i % 5 for i in range(66)]
    degenerate = [_degenerate(9000 + seed, 2, n) for seed, n in enumerate(sizes)]
    hand = [
        arrangement(2, [((1, -1), 0), ((1, 1), 3)]),  # x = y runs through two box corners
        arrangement(2, [((1, -1), 0), ((1, 1), 0), ((0, 1), 1)]),  # both diagonals through the corners
        arrangement(2, [((1, 0), 0), ((1, 0), 2), ((1, 0), -5), ((2, 0), 4)]),  # parallel family, a duplicate
        arrangement(2, [((1, 2), 3)]),  # a single line
        Arrangement(2, ()),  # the empty arrangement
    ]
    return generic + degenerate + hand


def test_polygons_match_box_clip_oracle():
    for arr in _polygon_cases():
        sub = build_subdivision(arr)
        for a, c in sub.lines:  # the SVG's line endpoints keep the clip's order
            assert _box_points(sub.bbox, a, c) == _box_clip(sub, [(a, c, 1), (a, c, -1)])
        for f in sub.faces:
            poly, clip = cell_polygon(sub, f), _clipped_face(sub, f)
            if f.dim < 2:
                assert set(poly) == set(clip) and len(poly) == len(clip) == f.dim + 1, (arr, f)
                continue
            assert _cyclic_equal(poly, clip), (arr, f)
            x, y = sum(p[0] for p in poly) / len(poly), sum(p[1] for p in poly) / len(poly)
            rel = [(px - x, py - y) for px, py in poly]
            turns = [u[0] * v[1] - u[1] * v[0] for u, v in zip(rel, rel[1:] + rel[:1])]
            assert all(t > 0 for t in turns)  # counter-clockwise about the mean: positive signed area
            # the first corner is the first one counter-clockwise from the +x direction
            (ux, uy), (vx, vy) = rel[-1], rel[0]
            assert uy < 0 and (vy > 0 or (vy == 0 and vx > 0)), (arr, f)


def test_polygons_built_once_per_subdivision(monkeypatch):
    calls = []
    real = PlanarSubdivision.polygons.func

    def counting(sub):
        calls.append(sub)
        return real(sub)

    monkeypatch.setattr(PlanarSubdivision.polygons, "func", counting)
    arr = generate_instance(5, 2, 7, "generic")
    sub = build_subdivision(arr)
    table = label_depth(sub, arr, MeasureKind.RD)
    render_svg(sub, table)
    v, e, f = euler_counts(sub)
    assert v - e + f == 2
    assert sum(sub.bounded(c) for c in sub.cells) == 15  # C(n - 1, 2) bounded cells
    for k in range(1, 4):
        check_contractible(sub, extract_region(sub, table, k))
    assert calls == [sub]
    other = build_subdivision(arr)
    euler_counts(other)
    assert calls == [sub, other]  # kept with each subdivision, not in a module-global cache


_PUBLIC = [
    (MeasureKind.RD, lambda a, q: regression_depth(a, q)[0]),
    (MeasureKind.RD_OPEN, lambda a, q: open_regression_depth(a, q)[0]),
    (MeasureKind.TRD, truncated_regression_depth),
]


def test_labels_match_public_functions_at_every_face():
    # label_depth reads each face's sign bitmasks; the public functions read the representative
    for arr in _polygon_cases():
        sub = build_subdivision(arr)
        for measure, fn in _PUBLIC:
            assert label_depth(sub, arr, measure).values == {f.index: fn(arr, f.rep) for f in sub.faces}, (arr, measure)


def test_labels_for_other_weights_and_other_hyperplanes():
    # the faces' masks serve any weights on the same hyperplanes; other hyperplanes are read at the representatives
    rng = random.Random(5)
    for seed in range(12):
        arr = _degenerate(9300 + seed, 2, 3 + seed % 7)
        sub = build_subdivision(arr)
        weights = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in arr]
        reweighted = Arrangement(2, tuple(hyperplane(h.normal, h.offset, w) for h, w in zip(arr, weights)))
        for other in (reweighted, generate_instance(seed, 2, 4), Arrangement(2, ())):
            for measure, fn in _PUBLIC:
                table = label_depth(sub, other, measure)
                assert table.values == {f.index: fn(other, f.rep) for f in sub.faces}, (arr, other, measure)

import random
from fractions import Fraction

import pytest

from arrdepth.depth import (
    cell_unbounded,
    count_both,
    deepest_point,
    directional_count,
    dual_tukey_depth,
    open_regression_depth,
    oracle_depth,
    regression_depth,
    truncated_regression_depth,
)
from arrdepth.enclosing import hyperplane_enclosing_depth
from arrdepth.errors import DimensionError, InvalidDirection, NoDeepPoint
from arrdepth.geometry import Arrangement, arrangement, evaluate, generate_instance
from arrdepth.tverberg import hyperplane_tverberg_depth


Q_IN = (Fraction(1, 4), Fraction(1, 4))


def test_directional_count_triangle_closed(tri):
    # ray (1,0) from the interior: crosses x+y=1, parallel to y=0
    assert directional_count(tri, Q_IN, (1, 0), "closed") == 2


def test_directional_count_incidence_rules():
    arr = arrangement(2, [((1, 0), 0)])
    q = (0, 5)
    assert directional_count(arr, q, (1, 1), "closed") == 1
    assert directional_count(arr, q, (1, 1), "open") == 0


def test_directional_count_all_crossed():
    arr = arrangement(2, [((1, 0), 1), ((1, 1), 3)])
    # both residuals negative at origin; both a.u > 0 for u = (1, 0)... use (2,1)
    assert directional_count(arr, (0, 0), (2, 1), "closed") == 2


def test_directional_count_zero_direction(tri):
    with pytest.raises(InvalidDirection):
        directional_count(tri, Q_IN, (0, 0))


def test_count_both_invariants(tri):
    dc = count_both(tri, (0, 0), (3, 1))
    assert dc.count_closed >= dc.count_open
    scaled = count_both(tri, (0, 0), (6, 2))
    assert scaled.count_closed == dc.count_closed and scaled.count_open == dc.count_open


def test_wrong_dimension_raises(tri):
    """A query or direction of the wrong length is rejected, never truncated by zip."""
    with pytest.raises(DimensionError):
        count_both(tri, (0, 0), (1, 2, 3))
    with pytest.raises(DimensionError):
        count_both(tri, (0, 0), (1,))
    for q in ((0,), (0, 0, 0)):
        with pytest.raises(DimensionError):
            count_both(tri, q, (1, 2))
        for measure in (regression_depth, open_regression_depth, hyperplane_tverberg_depth, hyperplane_enclosing_depth):
            with pytest.raises(DimensionError):
                measure(tri, q)


def test_count_closed_equals_open_in_cell(tri):
    dc = count_both(tri, Q_IN, (5, 2))
    assert dc.count_closed == dc.count_open


def test_regression_depth_triangle_values(tri):
    assert regression_depth(tri, Q_IN)[0] == 1  # interior
    assert regression_depth(tri, (Fraction(1, 2), 0))[0] == 1  # edge
    assert regression_depth(tri, (0, 0))[0] == 2  # corner
    assert regression_depth(tri, (4, 4))[0] == 0  # unbounded cell
    assert regression_depth(tri, (-3, 0))[0] == 1  # on a line outside the triangle


def test_regression_depth_single_hyperplane():
    arr = arrangement(2, [((1, 2), 3)])
    assert regression_depth(arr, (0, 0))[0] == 0


def test_regression_depth_empty():
    arr = Arrangement(2, ())
    value, cert = regression_depth(arr, (0, 0))
    assert value == 0 and cert.count == 0


def test_certificates_reproduce(tri):
    for q in [Q_IN, (0, 0), (5, -1), (Fraction(1, 2), 0)]:
        value, cert = regression_depth(tri, q)
        assert directional_count(tri, q, cert.direction, "closed") == value
        value_o, cert_o = open_regression_depth(tri, q)
        assert directional_count(tri, q, cert_o.direction, "open") == value_o


def test_open_regression_depth_triangle(tri):
    assert open_regression_depth(tri, (0, 0))[0] == 0
    assert open_regression_depth(tri, Q_IN)[0] == 1
    assert open_regression_depth(tri, (9, 9))[0] == 0


def test_open_depth_degenerate_concurrent():
    # three lines through the origin: the perturbed pencil has a tiny inner
    # triangle of open depth 1, which the definition's max picks up
    arr = arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    value, cert = open_regression_depth(arr, (0, 0))
    assert value == 1
    assert cert.rule == "open-perturbed"


def test_open_depth_duplicate_lines():
    arr = arrangement(2, [((1, 0), 0), ((2, 0), 0)])
    value, _ = open_regression_depth(arr, (0, 3))
    assert value == 1  # between the split copies every ray crosses one


def test_open_depth_degenerate_matches_explicit_perturbation():
    # replace the symbolic offsets by an actual tiny epsilon and take the max
    # open depth over the new cells: the cells of the perturbed arrangement
    # reaching into a small box around q whose signs on the lines through q
    # no cell of the unperturbed arrangement has
    from arrdepth import linalg, linprog
    from arrdepth.cells import enumerate_faces
    from arrdepth.geometry import Arrangement, Hyperplane

    def cells_near(arr, q, tol):
        """(signs, rep) of the cells that reach into the box of radius tol around q."""
        lines = [((h.normal[0], h.normal[1]), h.offset) for h in arr]
        for signs, rep, dim in enumerate_faces(arr):
            if dim != 2:
                continue
            stricts = [(s * a[0], s * a[1]) for (a, c), s in zip(lines, signs)]
            st_rhs = [s * c for (a, c), s in zip(lines, signs)]
            stricts += [(1, 0), (-1, 0), (0, 1), (0, -1)]
            st_rhs += [q[0] - tol, -(q[0] + tol), q[1] - tol, -(q[1] + tol)]
            if linprog.interior_point([], [], stricts, st_rhs) is not None:
                yield signs, rep

    def explicit(arr, q, eps=Fraction(1, 10**7), tol=Fraction(1, 10**3)):
        on = [i for i, h in enumerate(arr) if h.residual(q) == 0]
        old = {tuple(signs[i] for i in on) for signs, _ in cells_near(arr, q, tol)}
        pert = Arrangement(
            arr.dimension,
            tuple(Hyperplane(h.normal, h.offset + eps ** (i + 1), h.weight) for i, h in enumerate(arr)),
        )
        new = [rep for signs, rep in cells_near(pert, q, tol) if tuple(signs[i] for i in on) not in old]
        return max((open_regression_depth(pert, rep)[0] for rep in new), default=None)

    cases = [
        (arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((1, -1), 0)]), (Fraction(0), Fraction(0))),
        (arrangement(2, [((1, 0), 0), ((2, 0), 0), ((0, 1), 0)]), (Fraction(0), Fraction(0))),
        (arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((1, 2), 9)]), (Fraction(0), Fraction(0))),
        (arrangement(2, [((1, 0), 0), ((3, 0), 0), ((5, 0), 0)]), (Fraction(0), Fraction(1))),
    ]
    # seeded: 2-4 lines through q (one maybe doubled, written scaled) plus 1-3 others
    rng = random.Random("open-depth-explicit")
    while len(cases) < 16:
        q = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        rows = []
        for _ in range(rng.randint(2, 4)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if any(a):
                rows.append((a, a[0] * q[0] + a[1] * q[1], rng.choice((0, 1, 1, 2))))
        if rows and rng.random() < 0.5:
            a, b, w = rows[0]
            rows.append(((2 * a[0], 2 * a[1]), 2 * b, w))
        for _ in range(rng.randint(1, 3)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if any(a):
                rows.append((a, rng.randint(-4, 4), 1))
        rng.shuffle(rows)
        arr = arrangement(2, rows)
        incident = [h.normal for h in arr if h.residual(q) == 0]
        if linalg.rank(incident) < len(incident):  # not locally generic
            cases.append((arr, q))
    for arr, q in cases:
        value, cert = open_regression_depth(arr, q)
        expected = explicit(arr, q)
        assert cert.rule == ("open" if expected is None else "open-perturbed"), (arr, q)
        if expected is not None:
            assert value == expected, (arr, q)


def test_open_le_closed_randomized():
    rng = random.Random(0)
    for trial in range(20):
        arr = generate_instance(800 + trial, 2, rng.randint(1, 7), "generic")
        q = (Fraction(rng.randint(-9, 9), 2), Fraction(rng.randint(-9, 9), 3))
        assert open_regression_depth(arr, q)[0] <= regression_depth(arr, q)[0]


def test_open_le_closed_degenerate():
    cases = [
        (arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)]), (0, 0)),
        (arrangement(2, [((1, 0), 0), ((2, 0), 0), ((0, 1), 0)]), (0, 0)),
        (arrangement(2, [((1, 0), 0), ((3, 0), 0), ((5, 0), 0)]), (0, 1)),
        (arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((1, -1), 0), ((2, 1), 0)]), (0, 0)),
    ]
    for arr, q in cases:
        assert open_regression_depth(arr, q)[0] <= regression_depth(arr, q)[0]


def test_deepest_point_degenerate_3d():
    # four planes through the z-axis: every point of the axis has depth 4
    arr = arrangement(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 0), ((1, -1, 0), 0)])
    pt, val, _ = deepest_point(arr)
    assert val == 4
    assert pt[0] == 0 and pt[1] == 0


def test_truncated_regression_depth(tri):
    assert truncated_regression_depth(tri, (0, 0)) == 1  # min(3/3, 2)
    assert truncated_regression_depth(Arrangement(2, ()), (0, 0)) == 0
    arr = generate_instance(11, 2, 7, "generic")
    pt, val, _ = deepest_point(arr)
    if val == 1:
        assert truncated_regression_depth(arr, pt) == 1  # truncation inactive at value 1


def test_weighted_counts():
    arr = arrangement(2, [((1, 0), 1, Fraction(1, 2)), ((0, 1), 1, Fraction(3, 2))])
    assert regression_depth(arr, (0, 0))[0] == 0
    assert regression_depth(arr, (1, 0))[0] == Fraction(1, 2)  # on x=1 only
    assert regression_depth(arr, (0, 1))[0] == Fraction(3, 2)  # on y=1 only
    assert regression_depth(arr, (1, 1))[0] == 2  # on both lines: full weight


def test_oracle_upper_bounds_and_agreement(tri):
    assert oracle_depth(tri, Q_IN) == 1
    rng = random.Random(5)
    for trial in range(15):
        d = 2 if trial % 2 else 3
        arr = generate_instance(900 + trial, d, rng.randint(3, 7), "generic")
        q = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(d))
        rd, _ = regression_depth(arr, q)
        orc = oracle_depth(arr, q, samples=8, seed=trial)
        assert orc >= rd
        assert orc == rd  # exhaustive branch is complete on generic inputs


def test_dual_tukey_examples():
    pts = [(0, 0), (3, 0), (0, 3)]
    assert dual_tukey_depth(pts, (1, 1)) == 1  # centroid
    assert dual_tukey_depth(pts, (5, 5)) == 0  # outside the hull
    assert dual_tukey_depth(pts, (0, 0)) == 1  # vertex of the hull
    assert dual_tukey_depth([(1, 1)], (1, 1)) == 1  # coincident point counts always


def test_duality_rd_equals_tukey():
    rng = random.Random(7)
    for trial in range(25):
        d = 2 if trial % 2 else 3
        arr = generate_instance(700 + trial, d, rng.randint(2, 8), "generic")
        q = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d))
        ev = evaluate(arr, q)
        rd, _ = regression_depth(arr, q)
        assert rd == dual_tukey_depth(ev.dual_points, q, [h.weight for h in arr])


def test_removal_and_insertion_monotonicity():
    rng = random.Random(3)
    for trial in range(10):
        arr = generate_instance(600 + trial, 2, 6, "weighted")
        q = (Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4))
        base, _ = regression_depth(arr, q)
        for i in range(len(arr)):
            smaller, _ = regression_depth(arr.without(i), q)
            assert smaller <= base <= smaller + arr[i].weight


def test_superadditivity_bipartitions():
    rng = random.Random(13)
    for trial in range(10):
        arr = generate_instance(500 + trial, 2, 7, "generic")
        q = (Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 5))
        base, _ = regression_depth(arr, q)
        for _ in range(6):
            mask = rng.randint(1, 2 ** len(arr) - 2)
            p1 = [i for i in range(len(arr)) if mask >> i & 1]
            p2 = [i for i in range(len(arr)) if not mask >> i & 1]
            assert base >= regression_depth(arr.subset(p1), q)[0] + regression_depth(arr.subset(p2), q)[0]


def test_cell_unbounded(tri):
    assert cell_unbounded(tri, (9, 9))
    assert not cell_unbounded(tri, Q_IN)
    assert not cell_unbounded(tri, (0, 0))  # on hyperplanes, not a cell
    assert cell_unbounded(Arrangement(2, ()), (0, 0))
    # seeded degenerate arrangements (concurrent through the origin, parallel,
    # scaled duplicates, normals of rank < d) against an exact LP for a
    # recession direction
    from arrdepth import linalg, linprog

    rng = random.Random("cell-unbounded")
    bounded = 0
    for trial in range(300):
        d = 1 + trial % 3
        n = rng.randint(1, d + 4)
        span = d - 1 if d > 1 and trial % 7 == 0 else d  # coordinates the normals use
        rows = []
        while len(rows) < n:
            if rows and rng.random() < 0.3:
                a0, b0 = rows[rng.randrange(len(rows))]
                k = rng.choice((1, 2, -1))
                rows.append((tuple(k * c for c in a0), k * b0 + rng.choice((0, 1, -2))))
                continue
            a = tuple(rng.randint(-2, 2) if i < span else 0 for i in range(d))
            if any(a):
                rows.append((a, rng.choice((0, rng.randint(-4, 4)))))
        arr = arrangement(d, rows)
        for _ in range(4):
            q = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(d))
            signs = [(r > 0) - (r < 0) for r in (h.residual(q) for h in arr)]
            if 0 in signs:
                assert not cell_unbounded(arr, q)
                continue
            rays = [linalg.vscale(s, h.normal) for s, h in zip(signs, arr)]
            expected = linprog.recession_direction(rays) is not None
            assert cell_unbounded(arr, q) == expected, (rows, q)
            bounded += not expected
    assert bounded > 20


def test_deepest_point_triangle(tri):
    pt, val, cert = deepest_point(tri)
    assert val == 2
    assert pt == (0, 0)  # lexicographically smallest corner
    assert directional_count(tri, pt, cert.direction) == 2
    assert val >= 3 // 3 + 1


def test_deepest_point_bounds():
    for seed, d, n in [(0, 2, 7), (1, 2, 10), (2, 3, 6)]:
        arr = generate_instance(seed, d, n, "generic")
        _, val, _ = deepest_point(arr)
        assert val >= n // (d + 1) + 1


def test_deepest_point_vertex_path_matches_face_enumeration():
    # the generic fast path scans vertices only; cross-check against the max
    # over one representative per face
    from arrdepth.cells import enumerate_faces

    for seed in range(8):
        d = 2 if seed % 3 else 3
        n = 4 + seed % 3
        arr = generate_instance(seed + 12345, d, n, "generic")
        _, fast_val, _ = deepest_point(arr)
        full_val = max(regression_depth(arr, rep)[0] for _, rep, _ in enumerate_faces(arr))
        assert fast_val == full_val


def test_deepest_point_weighted_bound():
    arr = generate_instance(4, 2, 6, "weighted")
    _, val, _ = deepest_point(arr)
    assert val >= arr.total_weight / 3


def test_deepest_point_dimension_four():
    # d >= 4 takes the same exact paths: vertices here, every face when degenerate
    arr = generate_instance(2, 4, 6, "generic")
    pt, val, _ = deepest_point(arr)
    assert val >= 6 // 5 + 1
    assert oracle_depth(arr, pt, samples=8, seed=1) == val


def test_deepest_point_small_and_degenerate():
    one = arrangement(2, [((1, 1), 2)])
    pt, val, _ = deepest_point(one)
    assert val == 1  # any point on the single hyperplane
    with pytest.raises(NoDeepPoint):
        deepest_point(Arrangement(2, ()))
    conc = arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    pt, val, _ = deepest_point(conc)
    assert pt == (0, 0) and val == 3


def test_direction_cells_computed_once_per_arrangement(monkeypatch):
    from arrdepth import cells

    calls = []
    real = cells.direction_cells

    def counting(normals, d):
        calls.append(d)
        return real(normals, d)

    monkeypatch.setattr(cells, "direction_cells", counting)
    arr = generate_instance(5, 3, 6, "generic")
    first = regression_depth(arr, (0, 0, 0))
    assert regression_depth(arr, (0, 0, 0)) == first
    assert open_regression_depth(arr, (1, 2, 3))[0] >= 0
    assert calls == [3]

"""Cell and face enumeration against an independent LP oracle and closed forms.

`_lp_faces` builds the faces of an affine arrangement one hyperplane at a
time: each sign vector is extended by every sign whose face is nonempty, as
decided by an exact LP (`linprog.interior_point`). It shares no code with the
trace recursion in `cells._faces` and is slow, so it runs on small seeded
degenerate arrangements: parallel, concurrent and scaled-duplicate
hyperplanes.
"""

import random
from fractions import Fraction
from math import comb

from arrdepth import linalg, linprog
from arrdepth.cells import (
    _distinct_lines,
    _faces,
    direction_cells,
    enumerate_faces,
    faces_2d,
    normalize_ray,
)
from arrdepth.depth import deepest_point, regression_depth
from arrdepth.geometry import Arrangement, generate_instance, hyperplane


def _lp_faces(arr):
    """(signs, relative-interior point) of every face, by incremental exact LPs."""
    d = arr.dimension
    hs = list(arr)
    states = [((), tuple([Fraction(0)] * d))]
    for h in hs:
        a, b = h.normal, h.offset
        nxt = []
        for signs, w in states:
            eq_rows = [hs[j].normal for j, s in enumerate(signs) if s == 0]
            eq_rhs = [hs[j].offset for j, s in enumerate(signs) if s == 0]
            st_rows = [linalg.vscale(s, hs[j].normal) for j, s in enumerate(signs) if s != 0]
            st_rhs = [Fraction(s) * hs[j].offset for j, s in enumerate(signs) if s != 0]
            s0 = linalg.dot(a, w) - b
            sign0 = 1 if s0 > 0 else -1 if s0 < 0 else 0
            nxt.append((signs + (sign0,), w))
            for s in (0, 1, -1):
                if s == sign0:
                    continue
                if s == 0:
                    p = linprog.interior_point(eq_rows + [a], eq_rhs + [b], st_rows, st_rhs)
                else:
                    p = linprog.interior_point(
                        eq_rows, eq_rhs, st_rows + [linalg.vscale(s, a)], st_rhs + [Fraction(s) * b]
                    )
                if p is not None:
                    nxt.append((signs + (s,), p))
        states = nxt
    return states


def _degenerate(seed, d, n):
    """Small-coordinate hyperplanes: concurrent through a center, parallels and scaled duplicates."""
    rng = random.Random(f"cells:{seed}:{d}:{n}")
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
            a0, b0 = rows[rng.randrange(len(rows))]
            k = rng.choice((1, 2, -3))
            a = tuple(k * c for c in a0)
            b = k * b0 + rng.choice((0, 0, 1, -2))  # 0: the same hyperplane, written scaled
        else:
            b = Fraction(rng.randint(-5, 5))
        rows.append((a, b))
    return Arrangement(d, tuple(hyperplane(a, b) for a, b in rows))


def _assert_faces_valid(arr, faces):
    """Distinct sign vectors, each representative inside its face."""
    assert len({signs for signs, _ in faces}) == len(faces)
    for signs, rep in faces:
        for h, s in zip(arr, signs):
            r = h.residual(rep)
            assert (r > 0, r < 0, r == 0) == (s == 1, s == -1, s == 0)


def _sign_key(lines, u):
    return tuple(1 if linalg.dot(a, u) > 0 else -1 if linalg.dot(a, u) < 0 else 0 for a in lines)


def test_direction_cells_1d():
    assert direction_cells([(Fraction(3),)], 1) == [(1,), (-1,)]


def test_direction_cells_2d_single_line():
    reps = direction_cells([(1, 0)], 2)
    assert len(reps) == 2
    signs = {_sign_key([(Fraction(1), Fraction(0))], u) for u in reps}
    assert signs == {(1,), (-1,)}


def test_direction_cells_2d_count():
    # m distinct normal lines cut the direction plane into 2m sectors
    arr = generate_instance(1, 2, 6, "generic")
    reps = direction_cells([h.normal for h in arr], 2)
    assert len(reps) == 12
    lines = _distinct_lines([h.normal for h in arr])
    keys = {_sign_key(lines, u) for u in reps}
    assert len(keys) == 12 and all(0 not in k for k in keys)


def test_direction_cells_match_lp_oracle():
    # the central cells are the cells of the affine arrangement with zero offsets
    for seed in range(12):
        d = 3 if seed % 3 else 4
        n = 4 + seed % 2
        arr = generate_instance(100 + seed, d, n, "generic") if seed % 2 else _degenerate(seed, d, n)
        lines = _distinct_lines([h.normal for h in arr])
        central = Arrangement(d, tuple(hyperplane(a, 0) for a in lines))
        expected = {signs for signs, _ in _lp_faces(central) if 0 not in signs}
        got = [_sign_key(lines, u) for u in direction_cells([h.normal for h in arr], d)]
        assert len(set(got)) == len(got) and set(got) == expected


def test_faces_2d_against_sampling():
    rng = random.Random(3)
    arr = generate_instance(7, 2, 6, "generic")
    lines = [((h.normal[0], h.normal[1]), h.offset) for h in arr]
    enum_cells = {f.signs for f in faces_2d(lines) if f.dim == 2}
    sampled = set()
    for _ in range(3000):
        p = (Fraction(rng.randint(-10**6, 10**6), 99), Fraction(rng.randint(-10**6, 10**6), 101))
        key = tuple(
            1 if (a[0] * p[0] + a[1] * p[1] - c) > 0 else -1 if (a[0] * p[0] + a[1] * p[1] - c) < 0 else 0
            for a, c in lines
        )
        if 0 not in key:
            sampled.add(key)
    assert sampled <= enum_cells


def test_faces_2d_counts_simple():
    arr = generate_instance(9, 2, 7, "generic")
    lines = [((h.normal[0], h.normal[1]), h.offset) for h in arr]
    faces = faces_2d(lines)
    n = 7
    assert sum(1 for f in faces if f.dim == 0) == comb(n, 2)
    assert sum(1 for f in faces if f.dim == 1) == n * n
    assert sum(1 for f in faces if f.dim == 2) == 1 + n + comb(n, 2)


def test_face_representatives_in_relative_interior():
    for d in (1, 2, 3, 4):
        arr = generate_instance(11, d, 5, "generic")
        _assert_faces_valid(arr, enumerate_faces(arr))


def test_enumerate_faces_matches_lp_oracle_degenerate():
    # 214 arrangements; the oracle's LPs make d=3, n=5 and d=4, n=5 the costly ones
    cases = [(1, n) for n in (2, 3, 4, 5, 6)] * 20
    cases += [(3, 3), (3, 4)] * 40 + [(3, 5)] * 8 + [(4, 3), (4, 4)] * 12 + [(4, 5)] * 2
    for seed, (d, n) in enumerate(cases):
        arr = _degenerate(seed, d, n)
        faces = enumerate_faces(arr)
        _assert_faces_valid(arr, faces)
        assert {signs for signs, _ in faces} == {signs for signs, _ in _lp_faces(arr)}, (seed, d, n)


def test_enumerate_faces_simple_counts():
    # a simple arrangement has f_k = C(n, d-k) * sum_{i<=k} C(n-d+k, i) faces of dimension k
    for d, ns in ((3, (4, 5, 6, 7)), (4, (5, 6))):
        for n in ns:
            arr = generate_instance(13 + n, d, n, "generic")
            faces = _faces([(h.normal, h.offset) for h in arr], d)
            for k in range(d + 1):
                expected = comb(n, d - k) * sum(comb(n - d + k, i) for i in range(k + 1))
                assert sum(1 for _, _, dim in faces if dim == k) == expected, (d, n, k)
                assert all(signs.count(0) == d - dim for signs, _, dim in faces)
            _assert_faces_valid(arr, [(signs, rep) for signs, rep, _ in faces])


def test_deepest_point_degenerate_dimension_four():
    # no vertex shortcut: parallel, concurrent and duplicate hyperplanes in R^4,
    # then a cylinder over a degenerate R^3 arrangement, which has no vertex at all
    cylinder = Arrangement(4, tuple(hyperplane(h.normal + (0,), h.offset) for h in _degenerate(3, 3, 6)))
    for arr in (_degenerate(7, 4, 6), cylinder):
        pt, val, cert = deepest_point(arr)
        assert val == max(regression_depth(arr, rep)[0] for _, rep in _lp_faces(arr))
        assert regression_depth(arr, pt) == (val, cert)


def test_normalize_ray():
    assert normalize_ray((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert normalize_ray((-2, 4)) == (-1, 2)  # scaling only, never flips direction

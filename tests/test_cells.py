"""Cell and face enumeration against independent oracles and closed forms.

`_lp_faces` builds the faces of an affine arrangement one hyperplane at a
time: each sign vector is extended by every sign whose face is nonempty, as
decided by an exact LP (`lp_oracle.interior_point`). It shares no code with
the trace recursion in `cells._faces` and is slow, so it runs on small
seeded degenerate arrangements: parallel, concurrent and scaled-duplicate
hyperplanes.

`_fraction_faces` is the trace recursion on `Fraction` points, which the
integer recursion in `cells._faces` replaced: every lifted face's signs are
evaluated from its point, and every nudged point is built and evaluated
again. `enumerate_faces` and `direction_cells` must return exactly its lists,
representatives and order included; at d >= 3 `_fraction_direction_cells`
reads the one slice u_d = 1 and the new antipodes of its cells, and
`_two_slice_direction_cells`, both slices u_d = +-1, must give the same
sign masks. `_fraction_direction_cells_2d` is the angular sort of the
planar direction cells on `Fraction` rays, which the integer sort in
`cells._direction_cells_2d` replaced.
"""

import math
import random
from fractions import Fraction
from functools import cmp_to_key, reduce
from math import comb
from operator import mul

import lp_oracle

from arrdepth import linalg
from arrdepth.cells import _angle_cmp, _distinct_lines, _faces, _rot90, direction_cells, enumerate_faces, normalize_ray
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
                    p = lp_oracle.interior_point(eq_rows + [a], eq_rhs + [b], st_rows, st_rhs)
                else:
                    p = lp_oracle.interior_point(
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


def _fraction_residuals(hyperplanes, p):
    """(den, [den * (a.p - c)]): the residuals of a rational point as integers, den > 0."""
    den = reduce(math.lcm, (x.denominator for x in p), 1)
    num = [x.numerator * (den // x.denominator) for x in p]
    return den, [sum(map(mul, a, num)) - c * den for a, c in hyperplanes]


def _fraction_signs(hyperplanes, p):
    return tuple((s > 0) - (s < 0) for s in _fraction_residuals(hyperplanes, p)[1])


def _fraction_faces(hyperplanes, d):
    """(signs, Fraction rep, dim) of every face, by the trace recursion on Fraction points."""
    if not hyperplanes:
        return [((), (Fraction(0),) * d, d)]
    found = {}
    for a, c in hyperplanes:
        k = next(i for i, v in enumerate(a) if v != 0)
        rest = a[:k] + a[k + 1 :]
        trace = []
        for a2, c2 in hyperplanes:
            row = linalg.integer_vector([a[k] * v - a2[k] * w for v, w in zip(a2 + (c2,), a + (c,))])
            if any(row[:-1]):
                trace.append((row[:k] + row[k + 1 : -1], row[-1]))
        for _, y, dim in _fraction_faces(trace, d - 1):
            xk = Fraction(c - sum(map(mul, rest, y))) / a[k]
            x = y[:k] + (xk,) + y[k:]
            found.setdefault(_fraction_signs(hyperplanes, x), (x, dim))
    faces = sorted(((s, x, dim) for s, (x, dim) in found.items()), key=lambda f: f[2])
    cells = {}
    for signs, p, dim in faces:
        if dim != d - 1:
            continue
        a = hyperplanes[signs.index(0)][0]
        den, res = _fraction_residuals(hyperplanes, p)
        crosses = [sum(map(mul, aj, a)) for aj, _ in hyperplanes]
        dists = [Fraction(abs(s), abs(x)) for s, x in zip(res, crosses) if s != 0 and x != 0]
        step = min(dists) / (2 * den) if dists else Fraction(1)
        for sgn in (step, -step):
            q = tuple(v + sgn * w for v, w in zip(p, a))
            cells.setdefault(_fraction_signs(hyperplanes, q), q)
    return faces + [(s, q, d) for s, q in cells.items()]


def _fraction_direction_cells(normals, d):
    """Direction cells at d >= 3: the cells of the slice u_d = 1 of `_fraction_faces`, then their new antipodes."""
    lines = _distinct_lines(normals)
    central = [(a, 0) for a in lines]
    slice_hs = [(a[:-1], -a[-1]) for a in lines if any(a[:-1])]
    up = [rep + (Fraction(1),) for _, rep, dim in _fraction_faces(slice_hs, d - 1) if dim == d - 1]
    seen = {_fraction_signs(central, u) for u in up}
    down = [w for w in (tuple(-c for c in u) for u in up) if _fraction_signs(central, w) not in seen]
    return [normalize_ray(u) for u in up + down]


def _two_slice_direction_cells(normals, d):
    """Direction cells at d >= 3 from both slices u_d = +-1 of `_fraction_faces`, deduplicated by signs."""
    lines = _distinct_lines(normals)
    central = [(a, 0) for a in lines]
    reps, seen = [], set()
    for z in (1, -1):
        slice_hs = [(a[:-1], -a[-1] * z) for a in lines if any(a[:-1])]
        for _, rep, dim in _fraction_faces(slice_hs, d - 1):
            u = rep + (Fraction(z),)
            key = _fraction_signs(central, u)
            if dim == d - 1 and key not in seen:
                seen.add(key)
                reps.append(u)
    return [normalize_ray(u) for u in reps]


def _fraction_direction_cells_2d(normals):
    """Planar direction cells by an angular sort of `Fraction` rays, with their sign masks on the normals."""
    lines = _distinct_lines(normals)
    if not lines:
        reps = [(Fraction(1), Fraction(0))]
    else:
        rays = []
        seen = set()
        for a in lines:
            for w in (_rot90(a), _rot90((-a[0], -a[1]))):
                key = (Fraction(w[0]), Fraction(w[1]))
                if key not in seen:
                    seen.add(key)
                    rays.append(key)
        rays.sort(key=cmp_to_key(_angle_cmp))
        reps = []
        m = len(rays)
        for i in range(m):
            w1, w2 = rays[i], rays[(i + 1) % m]
            rep = (w1[0] + w2[0], w1[1] + w2[1])
            if rep == (0, 0):  # antipodal boundary rays: the sector spans a half-plane
                rep = _rot90(w1)
            reps.append(normalize_ray((Fraction(rep[0]), Fraction(rep[1]))))
    masks = []
    for u in reps:
        dots = [linalg.dot(a, u) for a in normals]
        pos = sum(1 << i for i, s in enumerate(dots) if s > 0)
        neg = sum(1 << i for i, s in enumerate(dots) if s < 0)
        masks.append((pos, neg))
    return reps, tuple(masks)


def _rank_deficient(seed, d, n):
    """Normals that span only a proper subspace of R^d, some of them parallel."""
    rng = random.Random(f"cells:rank:{seed}:{d}:{n}")
    rank = rng.randint(1, d - 1)
    basis = []
    while len(basis) < rank:
        b = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(b):
            basis.append(b)
    rows = []
    while len(rows) < n:
        coefs = [rng.randint(-2, 2) for _ in basis]
        a = tuple(sum(k * b[i] for k, b in zip(coefs, basis)) for i in range(d))
        if any(a):
            rows.append((a, rng.randint(-4, 4)))
    return Arrangement(d, tuple(hyperplane(a, b) for a, b in rows))


def _parity_cases():
    """320 seeded arrangements, d = 1..4: generic, degenerate and rank-deficient."""
    sizes = {1: (2, 3, 5, 8), 2: (2, 4, 6, 9), 3: (3, 4, 5, 6), 4: (3, 4, 4, 5)}
    for d, ns in sizes.items():
        for i in range(80):
            n = ns[i % 4]
            if i < 16:
                yield generate_instance(300 + i, d, n, "generic")
            elif i < 56 or d == 1:
                yield _degenerate(1000 + i, d, n)
            else:
                yield _rank_deficient(i, d, n)


def _assert_faces_valid(arr, faces):
    """Distinct sign vectors, each representative inside its face."""
    assert len({signs for signs, _, _ in faces}) == len(faces)
    for signs, rep, _ in faces:
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
    enum_cells = {signs for signs, _, dim in enumerate_faces(arr) if dim == 2}
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
    faces = enumerate_faces(arr)
    n = 7
    assert sum(1 for _, _, dim in faces if dim == 0) == comb(n, 2)
    assert sum(1 for _, _, dim in faces if dim == 1) == n * n
    assert sum(1 for _, _, dim in faces if dim == 2) == 1 + n + comb(n, 2)


def test_face_representatives_in_relative_interior():
    for d in (1, 2, 3, 4):
        arr = generate_instance(11, d, 5, "generic")
        _assert_faces_valid(arr, enumerate_faces(arr))


def test_enumerate_faces_matches_lp_oracle_degenerate():
    # 254 arrangements; the oracle's LPs make d=3, n=5 and d=4, n=5 the costly ones
    cases = [(1, n) for n in (2, 3, 4, 5, 6)] * 20
    cases += [(3, 3), (3, 4)] * 40 + [(3, 5)] * 8 + [(4, 3), (4, 4)] * 12 + [(4, 5)] * 2
    cases += [(2, n) for n in (3, 4, 5, 6)] * 10
    for seed, (d, n) in enumerate(cases):
        arr = _degenerate(seed, d, n)
        faces = enumerate_faces(arr)
        _assert_faces_valid(arr, faces)
        assert {signs for signs, _, _ in faces} == {signs for signs, _ in _lp_faces(arr)}, (seed, d, n)


def test_enumerate_faces_simple_counts():
    # a simple arrangement has f_k = C(n, d-k) * sum_{i<=k} C(n-d+k, i) faces of dimension k
    for d, ns in ((2, (3, 5, 8)), (3, (4, 5, 6, 7)), (4, (5, 6))):
        for n in ns:
            arr = generate_instance(13 + n, d, n, "generic")
            faces = enumerate_faces(arr)
            for k in range(d + 1):
                expected = comb(n, d - k) * sum(comb(n - d + k, i) for i in range(k + 1))
                assert sum(1 for _, _, dim in faces if dim == k) == expected, (d, n, k)
                assert all(signs.count(0) == d - dim for signs, _, dim in faces)
            _assert_faces_valid(arr, faces)


def test_deepest_point_degenerate_dimension_four():
    # no vertex shortcut: parallel, concurrent and duplicate hyperplanes in R^4,
    # then a cylinder over a degenerate R^3 arrangement, which has no vertex at all
    cylinder = Arrangement(4, tuple(hyperplane(h.normal + (0,), h.offset) for h in _degenerate(3, 3, 6)))
    for arr in (_degenerate(7, 4, 6), cylinder):
        pt, val, cert = deepest_point(arr)
        assert val == max(regression_depth(arr, rep)[0] for _, rep in _lp_faces(arr))
        assert regression_depth(arr, pt) == (val, cert)


def _slice_cases():
    """Normals at d = 3 and 4: generic, parallel and duplicate, the plane u_d = 0, a_d = 0, rank-deficient."""
    rng = random.Random("cells:slice")
    for i in range(30):
        d = 3 + i % 2
        n = 3 + i % 3
        kind = i // 2 % 5
        if kind == 0:
            normals = [h.normal for h in generate_instance(400 + i, d, n, "generic")]
        elif kind == 1:
            normals = [h.normal for h in _degenerate(400 + i, d, n)]
        elif kind == 2:
            normals = [h.normal for h in _rank_deficient(400 + i, d, n)]
        else:  # the plane u_d = 0 (twice, scaled) with planes a_d = 0: on generic normals, or alone (rank < d)
            e_d = (0,) * (d - 1) + (1,)
            flat = [a for a in (tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (0,) for _ in range(4)) if any(a)]
            if kind == 3:
                flat = [h.normal for h in generate_instance(400 + i, d, 2, "generic")] + flat[:2]
            normals = flat[: d - 2 if kind == 4 else None] + [e_d, tuple(-2 * c for c in e_d)]
        yield normals, d


def test_one_slice_direction_cells_match_two_slices_and_lp():
    # the one slice and its antipodes give the cells of both slices and of the LP oracle on the central planes
    kinds = set()
    for normals, d in _slice_cases():
        lines = _distinct_lines(normals)
        central = Arrangement(d, tuple(hyperplane(a, 0) for a in lines))
        got = [_sign_key(lines, u) for u in direction_cells(normals, d)]
        assert len(set(got)) == len(got), normals
        assert set(got) == {_sign_key(lines, u) for u in _two_slice_direction_cells(normals, d)}, normals
        assert set(got) == {signs for signs, _ in _lp_faces(central) if 0 not in signs}, normals
        assert direction_cells(normals, d) == _fraction_direction_cells(normals, d), normals
        kinds.add((d, "rank < d", linalg.rank(lines) < d))
        kinds.add((d, "u_d = 0", any(not any(a[:-1]) for a in lines)))
        kinds.add((d, "a_d = 0", any(a[-1] == 0 and any(a[:-1]) for a in lines)))
        kinds.add((d, "parallel", len(lines) < len(normals)))
    assert kinds == {(d, k, b) for d in (3, 4) for k in ("rank < d", "u_d = 0", "a_d = 0", "parallel") for b in (0, 1)}


def test_direction_cells_take_one_face_enumeration(monkeypatch):
    # one slice: a direction-cell build enumerates the faces of one (d-1)-dimensional arrangement
    from arrdepth import cells

    calls = []
    inner = cells._faces

    def counted(hyperplanes, d):
        calls.append(d)
        return inner(hyperplanes, d)

    monkeypatch.setattr(cells, "_faces", counted)
    for normals, d in _slice_cases():
        calls.clear()
        direction_cells(normals, d)
        assert calls.count(d - 1) == 1, normals


def test_normalize_ray():
    assert normalize_ray((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert normalize_ray((-2, 4)) == (-1, 2)  # scaling only, never flips direction


def test_integer_faces_match_fraction_recursion():
    cases = list(_parity_cases())
    assert len(cases) >= 300
    for arr in cases:
        d = arr.dimension
        assert enumerate_faces(arr) == _fraction_faces(arr.int_rows, d), arr
        for _, (nums, den), _ in _faces(arr.int_rows, d):  # the recursion itself runs on ints
            assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
            assert math.gcd(den, *nums) == 1
        if d >= 3:  # d <= 2 direction cells come from an angular sort, not the recursion
            normals = [h.normal for h in arr]
            assert direction_cells(normals, d) == _fraction_direction_cells(normals, d), arr


def test_integer_direction_cells_2d_match_fraction_sort():
    from test_planar import _polygon_cases

    cases = [arr for arr in _parity_cases() if arr.dimension == 2] + _polygon_cases()
    for arr in cases:
        normals = [h.normal for h in arr]
        reps, masks = _fraction_direction_cells_2d(normals)
        assert direction_cells(normals, 2) == reps, arr
        fresh = Arrangement(2, arr.hyperplanes)  # its direction cells are not cached yet
        assert fresh.direction_cells == (tuple(reps), masks), arr
        assert all(type(c) is Fraction for u in fresh.direction_cells[0] for c in u)


def _spread(mask, positions):
    """The bitmask with bit positions[j] set for each bit j of mask."""
    return sum(1 << p for j, p in enumerate(positions) if mask >> j & 1)


def test_faces_with_constant_rows_set_their_bits_on_every_face():
    # A zero-normal row a.x = c is a constant with residual -c: the faces are those of the live rows,
    # in the same order and with the same points, each with the constant rows' sign bits (none for 0 = 0).
    rng = random.Random("cells:constant-rows")
    checked = set()
    for i, arr in enumerate(arr for arr in _parity_cases() if arr.dimension <= 3):
        d = arr.dimension
        live = list(arr.int_rows)
        consts = [((0,) * d, c) for c in (rng.choice((-3, -1, 0, 2, 5)) for _ in range(1 + i % 3))]
        rows = list(live)
        for row in consts:  # the live rows keep their order
            rows.insert(rng.randint(0, len(rows)), row)
        live_at = [p for p, (a, _) in enumerate(rows) if any(a)]
        cpos = sum(1 << p for p, (a, c) in enumerate(rows) if not any(a) and c < 0)
        cneg = sum(1 << p for p, (a, c) in enumerate(rows) if not any(a) and c > 0)
        expected = [
            ((_spread(pos, live_at) | cpos, _spread(neg, live_at) | cneg), rep, dim)
            for (pos, neg), rep, dim in _faces(live, d)
        ]
        assert _faces(rows, d) == expected, (arr, rows)
        checked.update((d, c) for _, c in consts)
    assert {(d, c) for d in (1, 2, 3) for c in (-3, 0, 5)} <= checked
    for d in (1, 2, 3):  # with no live row there is one face, the whole space
        assert _faces([((0,) * d, 0), ((0,) * d, -2), ((0,) * d, 7)], d) == [((0b010, 0b100), ((0,) * d, 1), d)]

"""Exact cell and face enumeration for arrangements.

Two related tasks live here:

* direction cells: one rational representative per full-dimensional cell of
  the central arrangement {u : a.u = 0} of a set of normals. Depth
  minimization over rays only ever needs these representatives, because the
  ray count is constant on each cell and never smaller on a cell boundary
  than in an adjacent cell.
* affine faces: every face of an affine arrangement, each with its sign
  bitmasks and a rational relative-interior representative.

One recursion serves every d (Edelsbrunner, O'Rourke and Seidel 1986), on
sign bitmasks (pos, neg) made by `_masks`: bit i of pos (neg) is set when
row i's residual is positive (negative) on the face. The faces on a
hyperplane H are the faces of its trace arrangement {H' cap H}, enumerated
in d-1 coordinates of H and lifted back with the trace masks. A trace keeps
every row, so a bit names the same hyperplane at every level: rows parallel
to H, and H itself, become constants with a zero normal, which have no
faces and set their bit on every face. It bottoms out at d = 1, where the
points c / a are read directly and sorted, so the planar complex is one
case of it. The cells are reached from the facets: a facet's two cells
have its masks with its zeros moved to pos and to neg, and only a cell met
for the first time is given a point, the facet's nudged to that side. The
recursion runs on Python ints: a representative is an integer point
(nums, den) standing for nums / den, and nothing is evaluated twice. Only
`enumerate_faces` turns masks into sign tuples and points into `Fraction`s.
A central arrangement in d >= 3 is read off its affine slice u_d = 1: every
open cell meets it, or is the antipode of a cell that does.
"""

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from operator import mul

from . import linalg


def canonical_line(v):
    """Canonical representative of the line through a rational vector (sign/scale free)."""
    ints = linalg.integer_vector(v)
    if next((c for c in ints if c != 0), 0) < 0:
        ints = tuple(-c for c in ints)
    return ints


def normalize_ray(v):
    """Scale a rational vector by a positive rational to coprime integers."""
    return tuple(Fraction(c) for c in linalg.integer_vector(v))


def _distinct_lines(normals):
    seen = {}
    for a in normals:
        key = canonical_line(a)
        if any(v != 0 for v in key) and key not in seen:
            seen[key] = key
    return list(seen.values())


def _angle_half(v):
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _angle_cmp(u, v):
    hu, hv = _angle_half(u), _angle_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _rot90(v):
    return (-v[1], v[0])


def direction_cells(normals, d):
    """Rational representatives of the full-dimensional central cells, deterministic order."""
    lines = _distinct_lines(normals)
    if d == 1:
        return [(Fraction(1),), (Fraction(-1),)]
    if not lines:
        e = [Fraction(0)] * d
        e[0] = Fraction(1)
        return [tuple(e)]
    if d == 2:
        reps = _direction_cells_2d(lines)
    else:
        reps = _direction_cells_sliced(lines, d)
    return [normalize_ray(u) for u in reps]


def _direction_cells_2d(lines):
    """One integer vector inside each sector cut by the lines' normals, counter-clockwise from +x."""
    rays = [w for a in lines for w in (_rot90(a), (a[1], -a[0]))]  # lines are distinct up to sign
    rays.sort(key=cmp_to_key(_angle_cmp))
    reps = []
    m = len(rays)
    for i in range(m):
        w1, w2 = rays[i], rays[(i + 1) % m]
        rep = (w1[0] + w2[0], w1[1] + w2[1])
        if rep == (0, 0):  # antipodal boundary rays: the sector spans a half-plane
            rep = _rot90(w1)
        reps.append(rep)
    return reps


def signed_normal_order(normals):
    """The 2n vectors +-a_h of nonzero planar normals, counter-clockwise from +x.

    One (h, positive, t, far, block, antipode) per vector, at its position t:
    positive is 1 for a_h and 0 for -a_h. Equal directions keep the order of
    h, a_h before -a_h, and share a block number, counted in order; antipode
    is the block of the opposite direction. far is the position of the last
    vector of that block, taken in (t, t + 2n): the vectors at most a
    half-turn counter-clockwise from the one at t are those at t to far,
    read around the order.
    """
    vecs = [(h, s, (a[0], a[1]) if s else (-a[0], -a[1])) for h, a in enumerate(normals) for s in (1, 0)]
    vecs.sort(key=cmp_to_key(lambda u, v: _angle_cmp(u[2], v[2])))  # stable: ties keep (h, a_h first)
    block = [0] * len(vecs)
    for t in range(1, len(vecs)):
        block[t] = block[t - 1] + (_angle_cmp(vecs[t - 1][2], vecs[t][2]) != 0)
    at = {(h, s): t for t, (h, s, _) in enumerate(vecs)}
    last = {b: t for t, b in enumerate(block)}
    out = []
    for t, (h, s, _) in enumerate(vecs):
        anti = block[at[h, 1 - s]]
        far = last[anti]
        out.append((h, s, t, far + len(vecs) if far < t else far, block[t], anti))
    return tuple(out)


def _direction_cells_sliced(lines, d):
    """The cells of the slice u_d = 1, then the antipodes of those not met there, as integer vectors.

    An open cone either meets {u_d > 0}, and then the slice in one cell, or
    lies in {u_d < 0}, and then its antipode meets the slice: so the cells
    are the slice cells and their negations, deduplicated by sign masks. The
    negations come in slice order, each one whose masks, swapped, are new.
    """
    # a.u = 0 meets {u_d = 1} in the row a'.u' = -a_d of the slice, a constant where a' = 0. Its
    # residual at u' is a.u, so a slice cell's masks are the signs of the lines on it.
    rows = [(a[:-1], -a[-1]) for a in lines]
    up = [(masks, nums + (den,)) for masks, (nums, den), dim in _faces(rows, d - 1) if dim == d - 1]
    seen = {masks for masks, _ in up}
    return [u for _, u in up] + [tuple(-v for v in u) for (pos, neg), u in up if (neg, pos) not in seen]


def _sign(v):
    return (v > 0) - (v < 0)


def _masks(values):
    """(pos, neg) bitmasks of a sequence of numbers: bit i of pos (neg) is set when values[i] > 0 (< 0)."""
    pos = neg = 0
    for i, v in enumerate(values):
        if v > 0:
            pos |= 1 << i
        elif v < 0:
            neg |= 1 << i
    return pos, neg


def _lowest(nums, den):
    """The integer point (nums, den) in lowest terms with den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(v // g for v in nums), den // g


def _faces(hyperplanes, d):
    """Every face of the arrangement {x : a.x = c} in R^d as ((pos, neg), rep, dim).

    ``hyperplanes`` are (normal, offset) pairs of ints, and bit i of the
    masks is row i; a row with a zero normal is a constant, whose residual
    -c sets its bit on every face (none for 0 = 0). ``rep`` is an integer
    point (nums, den), den > 0 and in lowest terms, standing for nums / den;
    it lies in the relative interior of its face. Lower faces come first,
    by dimension, then the cells; every pair of masks occurs once.
    """
    live = [i for i, (a, _) in enumerate(hyperplanes) if any(a)]
    if not live:
        return [(_masks([-c for _, c in hyperplanes]), ((0,) * d, 1), d)]
    if d == 1:
        return _line_faces(hyperplanes, live)
    found = _lifted_faces(hyperplanes, live, d)
    faces = sorted(((m, x, dim) for m, (x, dim) in found.items()), key=lambda f: f[2])
    crosses = {i: [sum(map(mul, aj, hyperplanes[i][0])) for aj, _ in hyperplanes] for i in live}
    sides = {i: (cross, *_masks(cross)) for i, cross in crosses.items()}  # a_j.a_i, rows j with it > 0, < 0
    live_bits = sum(1 << i for i in live)
    cells = {}
    for (pos, neg), (num, den), dim in faces:
        if dim != d - 1:
            continue
        # The facet's live zeros are the copies of one hyperplane a.x = c, row i the lowest of them,
        # so its two cells have its masks with each such zero j moved to the side +-sign(a_j.a). Only
        # a new cell needs a point: nudge the facet p = num / den off a.x = c to both sides by half
        # the nearest crossing step S / (C den), where S / C = min |s_j| / |a_j.a| over the integer
        # residuals s_j = den (a_j.p - c_j) with a_j.a != 0, to (2C num +- S a) / (2C den). With no
        # crossing, the step is 1: p +- a.
        zero = live_bits & ~(pos | neg)
        i = (zero & -zero).bit_length() - 1
        cross, plus, minus = sides[i]
        up = (pos | zero & plus, neg | zero & minus)
        down = (pos | zero & minus, neg | zero & plus)
        if up in cells and down in cells:
            continue
        S = C = 0
        for (aj, cj), x in zip(hyperplanes, cross):
            s = x and sum(map(mul, aj, num)) - cj * den
            if s and (not C or abs(s) * C < S * abs(x)):
                S, C = abs(s), abs(x)
        if not C:
            S, C = 2 * den, 1
        a = hyperplanes[i][0]
        for t, key in ((S, up), (-S, down)):
            if key not in cells:
                cells[key] = _lowest(tuple(2 * C * v + t * w for v, w in zip(num, a)), 2 * C * den)
    return faces + [(m, q, d) for m, q in cells.items()]


def _line_faces(hyperplanes, live):
    """`_faces` at d = 1: the points c / a of the live rows in order, then the open intervals.

    At x = c / a, a_j x - c_j has the sign of a (a_j c - a c_j). Each point
    meets the interval on the side of its first hyperplane's normal, then the
    other one; a new interval gets the point moved that way by half the
    nearest gap between points, read from the sorted points, or by that
    normal when there is one point. This is the nudge of the higher levels,
    so the representatives are the same.
    """
    points = {}  # (num, den) of a point -> (masks, normal of its first hyperplane), in order of hyperplanes
    for i in live:
        (a,), c = hyperplanes[i]
        (n,), den = _lowest((c,), a)
        if (n, den) not in points:
            points[n, den] = (_masks([a * (aj * c - a * cj) for (aj,), cj in hyperplanes]), a)
    ordered = sorted(points, key=cmp_to_key(_ratio_cmp))
    rank = {p: r for r, p in enumerate(ordered)}
    gaps = [(q[0] * p[1] - p[0] * q[1], p[1] * q[1]) for p, q in zip(ordered, ordered[1:])]
    plus, minus = _masks([aj for (aj,), _ in hyperplanes])
    cells = {}  # r -> (masks, rep) of the interval between the points of rank r - 1 and r
    for (n, den), ((pos, neg), a) in points.items():
        r = rank[n, den]
        zero = ~(pos | neg)
        around = gaps[max(r - 1, 0) : r + 1]  # to the neighbours
        gn, gd = min(around, key=cmp_to_key(_ratio_cmp)) if around else (2 * abs(a), 1)
        for step in (1, -1) if a > 0 else (-1, 1):
            j = r + (step > 0)
            if j not in cells:
                key = (pos | zero & plus, neg | zero & minus) if step > 0 else (pos | zero & minus, neg | zero & plus)
                cells[j] = (key, _lowest((2 * n * gd + step * gn * den,), 2 * den * gd))
    return [(m, ((n,), den), 0) for (n, den), (m, _) in points.items()] + [(m, x, 1) for m, x in cells.values()]


def _ratio_cmp(p, q):
    """Order of the rationals p[0] / p[1] and q[0] / q[1], whose denominators are positive."""
    return p[0] * q[1] - q[0] * p[1]


def _lifted_faces(hyperplanes, live, d):
    """The faces on the live rows, d >= 2, from their traces, as {(pos, neg): (rep, dim)} in order of discovery."""
    found = {}
    for i in live:
        # Trace on a.x = c: eliminate x_k, the first coordinate with a_k != 0.
        # On a.x = c, a_k (a2.x - c2) is a positive multiple of the residual of
        # a2's trace row, so a lifted face's masks are its trace masks, swapped
        # when a_k < 0. A row parallel to a traces to a constant, and a.x = c
        # itself to 0 = 0.
        a, c = hyperplanes[i]
        k = next(j for j, v in enumerate(a) if v != 0)
        ak, rest = a[k], a[:k] + a[k + 1 :]
        trace = []
        for a2, c2 in hyperplanes:
            b = a2[k]
            normal = [ak * v - b * w for v, w in zip(a2, a)]
            off = ak * c2 - b * c
            g = math.gcd(*normal, off) or 1  # coprime trace rows; normal[k] is 0
            trace.append((tuple(v // g for v in normal[:k] + normal[k + 1 :]), off // g))
        for (tp, tn), (ny, dy), dim in _faces(trace, d - 1):
            masks = (tp, tn) if ak > 0 else (tn, tp)
            if masks in found:  # found before on another hyperplane through it
                continue
            # x_k = (c - rest.y) / a_k, over the common denominator a_k dy
            nx = (*(ak * v for v in ny[:k]), c * dy - sum(map(mul, rest, ny)), *(ak * v for v in ny[k:]))
            found[masks] = (_lowest(nx, ak * dy), dim)
    return found


def enumerate_faces(arr):
    """Faces of an affine arrangement as (signs, representative, dim) triples, any d.

    Exact and LP-free: `_faces` recurses on hyperplane traces down to a
    point. Lower faces come first, by dimension, then the cells.
    """
    n = len(arr)
    return [
        (tuple([(pos >> i & 1) - (neg >> i & 1) for i in range(n)]), tuple(Fraction(v, den) for v in nums), dim)
        for (pos, neg), (nums, den), dim in _faces(arr.int_rows, arr.dimension)
    ]


def candidate_points(arr):
    """Points that meet every nonempty closed union of faces of an affine arrangement.

    When the normals span R^d, the closure of every face is a pointed
    polyhedron and so holds a vertex of the arrangement: the candidates are
    the vertices, sorted. Otherwise they are one representative of every
    face, in `enumerate_faces` order. A superlevel set {q : RD(q) >= k} is
    such a union, and so is the set of points at which every part of a fixed
    partition has depth >= 1, so the deepest point and the existence of a
    Tverberg point are both decided on the candidates.
    """
    points, vertices = _integer_candidates(arr)
    points = [tuple([Fraction(v, den) for v in nums]) for nums, den in points]
    return sorted(points) if vertices else points


def _integer_candidates(arr):
    """(points, whether they are the vertices): the points of `candidate_points` as (nums, den), unsorted."""
    if linalg.rank([a for a, _ in arr.int_rows]) < arr.dimension:
        return [x for _, x, _ in _faces(arr.int_rows, arr.dimension)], False
    return list(dict.fromkeys(v for _, v in subset_vertices(arr) if v is not None)), True


def subset_vertices(arr):
    """(subset, vertex) for every d-subset of the hyperplanes, in lexicographic order.

    The vertex is the one point the subset's hyperplanes share, as an
    integer point (nums, den) in lowest terms with den > 0, standing for
    nums / den; it is None when their normals are dependent. One `_reduce`
    of the subset's integer rows gives it: with full rank, row i ends as
    den x_i = nums_i.
    """
    rows = arr.int_rows
    d = arr.dimension
    for subset in combinations(range(len(rows)), d):
        system = [[*rows[i][0], rows[i][1]] for i in subset]
        pivots, den = linalg._reduce(system, d)
        yield subset, _lowest([row[d] for row in system], den) if len(pivots) == d else None

"""Exact cell and face enumeration for arrangements.

Two related tasks live here:

* direction cells: one rational representative per full-dimensional cell of
  the central arrangement {u : a.u = 0} of a set of normals. Depth
  minimization over rays only ever needs these representatives, because the
  ray count is constant on each cell and never smaller on a cell boundary
  than in an adjacent cell.
* affine faces: every face of an affine arrangement, each with its sign
  vector and a rational relative-interior representative.

One recursion serves every d (Edelsbrunner, O'Rourke and Seidel 1986). The
faces on a hyperplane H are the faces of its trace arrangement {H' cap H},
enumerated in d-1 coordinates of H and lifted back, with their signs read
from the trace signs; the cells are reached by nudging each facet
representative to both sides of H. The recursion bottoms out at d = 0, a
point, so the planar complex is one case of it. It runs on Python ints: a
representative is an integer point (nums, den) standing for nums / den, and
the nudged points' signs come from the facet's integer residuals, so nothing
is evaluated twice. Representatives become `Fraction` tuples only on the way
out. A central arrangement in d >= 3 is read off its two affine slices
u_d = +-1, which every open cell meets.
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
        reps.append((Fraction(rep[0]), Fraction(rep[1])))
    return reps


def _direction_cells_sliced(lines, d):
    """Cells of the slices u_d = 1, then u_d = -1, deduplicated by sign key, as integer vectors."""
    reps = []
    seen = set()
    for z in (1, -1):
        # a.u = 0 meets {u_d = z} in the hyperplane a' . u' = -a_d z of the slice
        slice_hs = [(a[:-1], -a[-1] * z) for a in lines if any(a[:-1])]
        for _, (nums, den), dim in _faces(slice_hs, d - 1):
            if dim != d - 1:
                continue
            u = nums + (z * den,)
            key = tuple(_sign(sum(map(mul, a, u))) for a in lines)
            if key not in seen:
                seen.add(key)
                reps.append(u)
    return reps


def _sign(v):
    return (v > 0) - (v < 0)


def _lowest(nums, den):
    """The integer point (nums, den) in lowest terms with den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(v // g for v in nums), den // g


def _faces(hyperplanes, d):
    """Every face of the arrangement {x : a.x = c} in R^d as (signs, rep, dim).

    ``hyperplanes`` are (normal, offset) pairs of ints with nonzero normals.
    ``rep`` is an integer point (nums, den), den > 0 and in lowest terms,
    standing for nums / den; it lies in the relative interior of its face.
    Lower faces come first, by dimension, then the cells; every sign vector
    occurs once.
    """
    if not hyperplanes:
        return [((), ((0,) * d, 1), d)]
    found = {}  # sign vector -> (rep, dim), in order of discovery
    for a, c in hyperplanes:
        # Trace on a.x = c: eliminate x_k, the first coordinate with a_k != 0.
        # On a.x = c, a_k (a2.x - c2) is a positive multiple of the residual of
        # a2's trace row, so a lifted face's signs are its trace signs times
        # sign(a_k). A row with zero normal (a2 parallel to a, or a itself)
        # has the constant residual -(its offset) there and is dropped.
        k = next(i for i, v in enumerate(a) if v != 0)
        ak, rest = a[k], a[:k] + a[k + 1 :]
        trace, pick, consts = [], [], []
        for a2, c2 in hyperplanes:
            b = a2[k]
            normal = [ak * v - b * w for v, w in zip(a2, a)]
            off = ak * c2 - b * c
            if any(normal):
                row = linalg.integer_vector(normal + [off])
                pick.append(len(trace))
                trace.append((row[:k] + row[k + 1 : -1], row[-1]))
            else:
                pick.append(-1 - len(consts))
                consts.append(_sign(-off))
        tail = tuple(reversed(consts))  # index -1 - m of (trace signs + tail) is consts[m]
        for ts, (ny, dy), dim in _faces(trace, d - 1):
            ext = ts + tail
            if ak < 0:
                ext = tuple(-s for s in ext)
            signs = tuple(map(ext.__getitem__, pick))
            if signs in found:  # found before on another hyperplane through it
                continue
            # x_k = (c - rest.y) / a_k, over the common denominator a_k dy
            nx = (*(ak * v for v in ny[:k]), c * dy - sum(map(mul, rest, ny)), *(ak * v for v in ny[k:]))
            found[signs] = (_lowest(nx, ak * dy), dim)
    faces = sorted(((s, x, dim) for s, (x, dim) in found.items()), key=lambda f: f[2])
    gram = [[sum(map(mul, a, a2)) for a2, _ in hyperplanes] for a, _ in hyperplanes]
    cells = {}
    for signs, (num, den), dim in faces:
        if dim != d - 1:
            continue
        # Nudge the facet p = num / den off its hyperplane a.x = c to both sides by
        # half the nearest crossing step S / (C den), where S / C = min |s_j| / |a_j.a|
        # over the integer residuals s_j = den (a_j.p - c_j) with a_j.a != 0: to
        # (2C num +- S a) / (2C den), where the residuals are (2C s_j +- S a_j.a) / (2C den).
        # With no crossing, the step is 1: p +- a.
        i = signs.index(0)
        a, cross = hyperplanes[i][0], gram[i]
        res = [sum(map(mul, aj, num)) - cj * den for aj, cj in hyperplanes]
        S = C = 0
        for s, x in zip(res, cross):
            if s and x and (not C or abs(s) * C < S * abs(x)):
                S, C = abs(s), abs(x)
        if not C:
            S, C = 2 * den, 1
        for t in (S, -S):
            key = tuple((v > 0) - (v < 0) for v in [2 * C * s + t * x for s, x in zip(res, cross)])
            if key not in cells:
                cells[key] = _lowest(tuple(2 * C * v + t * w for v, w in zip(num, a)), 2 * C * den)
    return faces + [(s, q, d) for s, q in cells.items()]


def enumerate_faces(arr):
    """Faces of an affine arrangement as (signs, representative, dim) triples, any d.

    Exact and LP-free: `_faces` recurses on hyperplane traces down to a
    point. Lower faces come first, by dimension, then the cells.
    """
    faces = _faces(arr.int_rows, arr.dimension)
    return [(s, tuple(Fraction(v, den) for v in nums), dim) for s, (nums, den), dim in faces]


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
    d = arr.dimension
    normals = [h.normal for h in arr]
    if linalg.rank(normals) < d:
        return [rep for _, rep, _ in enumerate_faces(arr)]
    vertices = set()
    for subset in combinations(range(len(arr)), d):
        sol = linalg.solve([normals[i] for i in subset], [arr[i].offset for i in subset])
        if sol is not None:
            vertices.add(sol)
    return sorted(vertices)

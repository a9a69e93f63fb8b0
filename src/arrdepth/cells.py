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
enumerated in d-1 coordinates of H and lifted back; the cells are reached by
nudging each facet representative to both sides of H. d = 2 is the planar
sweep `faces_2d`, which does the same one dimension down, and d = 0 is a
point. A central arrangement in d >= 3 is read off its two affine slices
u_d = +-1, which every open cell meets.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
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
    """Cells of the slices u_d = 1, then u_d = -1, deduplicated by sign key."""
    central = [(a, 0) for a in lines]
    reps = []
    seen = set()
    for z in (1, -1):
        # a.u = 0 meets {u_d = z} in the hyperplane a' . u' = -a_d z of the slice
        slice_hs = [(a[:-1], -a[-1] * z) for a in lines if any(a[:-1])]
        for _, rep, dim in _faces(slice_hs, d - 1):
            if dim != d - 1:
                continue
            u = rep + (Fraction(z),)
            key = _signs(central, u)
            if key not in seen:
                seen.add(key)
                reps.append(u)
    return reps


@dataclass(frozen=True)
class Face2:
    """A face of a planar line arrangement: sign vector, dimension, interior point."""

    dim: int
    signs: tuple
    rep: tuple
    line: int | None = None  # supporting line for dim-1 faces
    span: tuple | None = None  # (t_lo, t_hi) parameters along the line, None = unbounded


def _perp2(a):
    return (-a[1], a[0])


def _line_anchor(a, c):
    nn = a[0] * a[0] + a[1] * a[1]
    return (c * a[0] / nn, c * a[1] / nn)


def _sign_vector(lines, p):
    out = []
    for a, c in lines:
        s = a[0] * p[0] + a[1] * p[1] - c
        out.append(1 if s > 0 else -1 if s < 0 else 0)
    return tuple(out)


def faces_2d(lines):
    """All faces of a planar arrangement of lines ((a, c) with a.x = c), exactly.

    Handles degenerate inputs (parallel, concurrent and duplicate lines).
    Returns Face2 records: vertices first, then edges per line, then cells,
    in a deterministic order.
    """
    lines = [((Fraction(a[0]), Fraction(a[1])), Fraction(c)) for a, c in lines]
    distinct = []
    rep_of = {}
    for i, (a, c) in enumerate(lines):
        key = canonical_line((a[0], a[1], c))
        if key not in rep_of:
            rep_of[key] = len(distinct)
            distinct.append((a, c))

    faces = []
    if not lines:
        faces.append(Face2(2, (), (Fraction(0), Fraction(0))))
        return faces

    # Vertices: pairwise intersections of distinct lines.
    vertices = []
    vset = {}
    for (i, (a1, c1)), (j, (a2, c2)) in combinations(enumerate(distinct), 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        x = (c1 * a2[1] - c2 * a1[1]) / det
        y = (a1[0] * c2 - a2[0] * c1) / det
        if (x, y) not in vset:
            vset[(x, y)] = True
            vertices.append((x, y))
    vertices.sort()
    for v in vertices:
        faces.append(Face2(0, _sign_vector(lines, v), v))

    # Edges: each distinct line subdivided by the vertices lying on it.
    edge_faces = []
    for li, (a, c) in enumerate(distinct):
        anchor = _line_anchor(a, c)
        direction = _perp2(a)
        dd = direction[0] * direction[0] + direction[1] * direction[1]
        params = sorted(
            {
                (direction[0] * (v[0] - anchor[0]) + direction[1] * (v[1] - anchor[1])) / dd
                for v in vertices
                if a[0] * v[0] + a[1] * v[1] == c
            }
        )
        if not params:
            spans = [(None, None)]
            reps_t = [Fraction(0)]
        else:
            spans = [(None, params[0])]
            reps_t = [params[0] - 1]
            for t1, t2 in zip(params, params[1:]):
                spans.append((t1, t2))
                reps_t.append((t1 + t2) / 2)
            spans.append((params[-1], None))
            reps_t.append(params[-1] + 1)
        for span, t in zip(spans, reps_t):
            p = (anchor[0] + t * direction[0], anchor[1] + t * direction[1])
            edge_faces.append(Face2(1, _sign_vector(lines, p), p, line=li, span=span))
    faces.extend(edge_faces)

    # Cells: nudge every edge representative to both sides, dedupe by sign vector.
    cell_signs = {}
    cell_faces = []
    for ef in edge_faces:
        a, _ = distinct[ef.line]
        p = ef.rep
        dists = []
        for aj, cj in distinct:
            denom = aj[0] * a[0] + aj[1] * a[1]
            if denom == 0:
                continue
            s = aj[0] * p[0] + aj[1] * p[1] - cj
            if s != 0:
                dists.append(abs(s) / abs(denom))
        step = min(dists) / 2 if dists else Fraction(1)
        for sgn in (1, -1):
            qp = (p[0] + sgn * step * a[0], p[1] + sgn * step * a[1])
            sv = _sign_vector(lines, qp)
            if 0 in sv:
                continue  # duplicate-line artifact; the true cell comes from another nudge
            if sv not in cell_signs:
                cell_signs[sv] = True
                cell_faces.append(Face2(2, sv, qp))
    faces.extend(cell_faces)
    return faces


def _residuals(hyperplanes, p):
    """(den, [den * (a.p - c)]): the residuals of a rational point as integers, den > 0."""
    den = reduce(math.lcm, (x.denominator for x in p), 1)
    num = [x.numerator * (den // x.denominator) for x in p]
    return den, [sum(map(mul, a, num)) - c * den for a, c in hyperplanes]


def _signs(hyperplanes, p):
    """Sign vector of a rational point against integer hyperplanes."""
    return tuple((s > 0) - (s < 0) for s in _residuals(hyperplanes, p)[1])


def _faces(hyperplanes, d):
    """Every face of the arrangement {x : a.x = c} in R^d as (signs, rep, dim).

    ``hyperplanes`` are (normal, offset) pairs of ints with nonzero normals.
    Lower faces come first, by dimension, then the cells; every sign vector
    occurs once and ``rep`` lies in the relative interior of its face.
    """
    if not hyperplanes:
        return [((), (Fraction(0),) * d, d)]
    if d == 2:
        return [(f.signs, f.rep, f.dim) for f in faces_2d(hyperplanes)]
    found = {}  # sign vector -> (rep, dim), in order of discovery
    for a, c in hyperplanes:
        # Trace on a.x = c: eliminate x_k, the first coordinate with a_k != 0.
        k = next(i for i, v in enumerate(a) if v != 0)
        rest = a[:k] + a[k + 1 :]
        trace = []
        for a2, c2 in hyperplanes:
            row = linalg.integer_vector([a[k] * v - a2[k] * w for v, w in zip(a2 + (c2,), a + (c,))])
            if any(row[:-1]):  # a zero row is parallel to a.x = c (or it): constant sign there
                trace.append((row[:k] + row[k + 1 : -1], row[-1]))
        for _, y, dim in _faces(trace, d - 1):
            xk = Fraction(c - sum(map(mul, rest, y))) / a[k]
            x = y[:k] + (xk,) + y[k:]
            found.setdefault(_signs(hyperplanes, x), (x, dim))
    faces = sorted(((s, x, dim) for s, (x, dim) in found.items()), key=lambda f: f[2])
    cells = {}
    for signs, p, dim in faces:
        if dim != d - 1:
            continue
        # Nudge the facet off its hyperplane by half the nearest crossing distance.
        a = hyperplanes[signs.index(0)][0]
        den, res = _residuals(hyperplanes, p)
        dists = []
        for (aj, _), s in zip(hyperplanes, res):
            cross = sum(map(mul, aj, a))
            if cross != 0 and s != 0:
                dists.append(Fraction(abs(s), abs(cross)))
        step = min(dists) / (2 * den) if dists else Fraction(1)
        for sgn in (step, -step):
            q = tuple(v + sgn * w for v, w in zip(p, a))
            cells.setdefault(_signs(hyperplanes, q), q)
    return faces + [(s, q, d) for s, q in cells.items()]


def enumerate_faces(arr):
    """Faces of an affine arrangement as (signs, representative) pairs, any d.

    Exact and LP-free: `_faces` recurses on hyperplane traces down to the
    planar sweep. d = 2 gives `faces_2d`'s order; otherwise lower faces come
    first, by dimension, then the cells.
    """
    hyperplanes = [(tuple(map(int, h.normal)), int(h.offset)) for h in arr]  # canonical: integers
    return [(signs, rep) for signs, rep, _ in _faces(hyperplanes, arr.dimension)]


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
        return [rep for _, rep in enumerate_faces(arr)]
    vertices = set()
    for subset in combinations(range(len(arr)), d):
        sol = linalg.solve([normals[i] for i in subset], [arr[i].offset for i in subset])
        if sol is not None:
            vertices.add(sol)
    return sorted(vertices)

"""Planar line-arrangement face complexes, depth labeling, regions and SVG maps.

Faces are kept combinatorially (sign vectors plus one exact interior
representative each); geometry is reconstructed exactly where needed by
clipping against a bounding box at twice the vertex extent. Region topology
is decided on the combinatorial complex, so clipping never creates artifacts:
the box only enters the Euler-characteristic bookkeeping, where it is a
deformation retract of the unbounded complex.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cells import faces_2d
from .depth import open_regression_depth, regression_depth, truncated_regression_depth, MeasureKind
from .errors import DimensionError
from .geometry import Arrangement

_MEASURES = {
    MeasureKind.RD: lambda arr, q: regression_depth(arr, q)[0],
    MeasureKind.RD_OPEN: lambda arr, q: open_regression_depth(arr, q)[0],
    MeasureKind.TRD: truncated_regression_depth,
}


@dataclass(frozen=True)
class PlanarFace:
    index: int
    dim: int
    signs: tuple
    rep: tuple
    line: int | None = None  # distinct-line index carrying a dim-1 face
    span: tuple | None = None
    degenerate: bool = False  # vertex where more than two distinct lines meet


@dataclass(frozen=True)
class PlanarSubdivision:
    arrangement: Arrangement
    faces: tuple
    lines: tuple  # distinct (normal2, offset) pairs actually carrying the complex
    bbox: tuple  # (xmin, ymin, xmax, ymax), rational

    @property
    def vertices(self):
        return [f for f in self.faces if f.dim == 0]

    @property
    def edges(self):
        return [f for f in self.faces if f.dim == 1]

    @property
    def cells(self):
        return [f for f in self.faces if f.dim == 2]

    def bounded(self, face):
        if face.dim == 0:
            return True
        if face.dim == 1:
            return face.span is not None and face.span[0] is not None and face.span[1] is not None
        poly = cell_polygon(self, face)
        xmin, ymin, xmax, ymax = self.bbox
        return all(xmin < x < xmax and ymin < y < ymax for x, y in poly)


def incident(lower, upper):
    """True iff the lower-dimensional face lies in the closure of the other."""
    if lower.dim >= upper.dim:
        return False
    return all(sf == 0 or sf == sg for sf, sg in zip(lower.signs, upper.signs))


def _distinct_lines_of(arr):
    seen = {}
    out = []
    for h in arr:
        key = h.geometry()  # hyperplanes are canonical on construction
        if key not in seen:
            seen[key] = True
            out.append(((h.normal[0], h.normal[1]), h.offset))
    return out


def build_subdivision(arr: Arrangement) -> PlanarSubdivision:
    """Exact face complex of a 2D arrangement (degeneracies allowed)."""
    if arr.dimension != 2:
        raise DimensionError("planar subdivision requires d = 2")
    lines = [((h.normal[0], h.normal[1]), h.offset) for h in arr]
    distinct = _distinct_lines_of(arr)
    raw = faces_2d(lines)
    faces = []
    for i, f in enumerate(raw):
        degenerate = False
        if f.dim == 0:
            on = [(a, c) for (a, c) in distinct if a[0] * f.rep[0] + a[1] * f.rep[1] == c]
            degenerate = len(on) > 2
        faces.append(PlanarFace(i, f.dim, f.signs, f.rep, f.line, f.span, degenerate))
    # bounding box at twice the extent of vertices and line anchors
    ext = Fraction(1)
    pts = [f.rep for f in faces if f.dim == 0]
    for a, c in distinct:
        nn = a[0] * a[0] + a[1] * a[1]
        pts.append((c * a[0] / nn, c * a[1] / nn))
    for p in pts:
        ext = max(ext, abs(p[0]), abs(p[1]))
    r = 2 * (1 + ext)
    return PlanarSubdivision(arr, tuple(faces), tuple(distinct), (-r, -r, r, r))


@dataclass(frozen=True)
class DepthTable:
    measure: MeasureKind
    values: dict  # face index -> Fraction

    def __getitem__(self, face_index):
        return self.values[face_index]


def label_depth(sub: PlanarSubdivision, arr: Arrangement, measure) -> DepthTable:
    """Evaluate a combinatorial measure once per face at its representative."""
    if isinstance(measure, str):
        measure = MeasureKind(measure)
    fn = _MEASURES[measure]
    values = {f.index: fn(arr, f.rep) for f in sub.faces}
    return DepthTable(measure, values)


@dataclass(frozen=True)
class DepthRegion:
    k: Fraction
    measure: MeasureKind
    face_indices: frozenset


def extract_region(sub: PlanarSubdivision, table: DepthTable, k) -> DepthRegion:
    k = Fraction(k)
    idx = frozenset(f.index for f in sub.faces if table.values[f.index] >= k)
    return DepthRegion(k, table.measure, idx)


# ---------------------------------------------------------------------------
# exact clipping

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
    if dedup and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def cell_polygon(sub: PlanarSubdivision, face) -> list:
    """The cell clipped to the bounding box, as an exact convex polygon."""
    xmin, ymin, xmax, ymax = sub.bbox
    poly = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    rep = face.rep
    for a, c in sub.lines:
        s = 1 if a[0] * rep[0] + a[1] * rep[1] - c > 0 else -1
        poly = _clip_halfplane(poly, a, c, s)
    return poly


def _edge_segment(sub: PlanarSubdivision, face):
    """Clipped endpoints of a dim-1 face (rational points on the box if unbounded)."""
    a, c = sub.lines[face.line]
    nn = a[0] * a[0] + a[1] * a[1]
    anchor = (c * a[0] / nn, c * a[1] / nn)
    direction = (-a[1], a[0])
    xmin, ymin, xmax, ymax = sub.bbox
    lo, hi = None, None  # box clip window in t
    for comp, lo_b, hi_b in ((0, xmin, xmax), (1, ymin, ymax)):
        d0, p0 = direction[comp], anchor[comp]
        if d0 == 0:
            continue
        t1, t2 = (lo_b - p0) / d0, (hi_b - p0) / d0
        t1, t2 = min(t1, t2), max(t1, t2)
        lo = t1 if lo is None else max(lo, t1)
        hi = t2 if hi is None else min(hi, t2)
    t_lo, t_hi = face.span
    if t_lo is not None:
        lo = t_lo if lo is None else max(lo, t_lo)
    if t_hi is not None:
        hi = t_hi if hi is None else min(hi, t_hi)
    p1 = (anchor[0] + lo * direction[0], anchor[1] + lo * direction[1])
    p2 = (anchor[0] + hi * direction[0], anchor[1] + hi * direction[1])
    return p1, p2


def euler_counts(sub: PlanarSubdivision):
    """V, E, F of the box-clipped complex; V - E + F = 2 certifies consistency."""
    xmin, ymin, xmax, ymax = sub.bbox
    verts = {f.rep for f in sub.vertices}
    V = len(verts)
    E = 0
    boundary_pts = {(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)}
    for li in range(len(sub.lines)):
        on_line = [f for f in sub.edges if f.line == li]
        E += len(on_line)
        for f in on_line:
            for p, bound in zip(_edge_segment(sub, f), (f.span[0], f.span[1])):
                if bound is None:
                    boundary_pts.add(p)
    V += len(boundary_pts)
    # boundary cycle: one edge per consecutive pair of boundary points
    E += len(boundary_pts)
    F = len(sub.cells) + 1  # outer face
    return V, E, F


@dataclass(frozen=True)
class ContractibilityReport:
    status: str  # "ok" | "empty" | "disconnected" | "not-simply-connected" | "not-closed"
    contractible: bool
    components: int = 0
    chi: int | None = None

    def __bool__(self):
        return self.contractible


def check_contractible(sub: PlanarSubdivision, region: DepthRegion) -> ContractibilityReport:
    """Certify contractibility of a closed region: nonempty + connected + chi = 1.

    For compact planar complexes vanishing first homology implies simple
    connectivity, so this combinatorial certificate is exact.
    """
    faces = [f for f in sub.faces if f.index in region.face_indices]
    if not faces:
        return ContractibilityReport("empty", False)
    in_region = region.face_indices
    # closure check: every face bounding a region face must itself be in the region
    for f in sub.faces:
        if f.index in in_region:
            continue
        for g in faces:
            if incident(f, g):
                return ContractibilityReport("not-closed", False)

    # connectivity via incidence chains
    parent = {f.index: f.index for f in faces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for f in faces:
        for g in faces:
            if f.dim < g.dim and incident(f, g):
                union(f.index, g.index)
    components = len({find(f.index) for f in faces})

    # Euler characteristic of the clipped region
    vset = set()
    eset = set()
    ncells = 0
    for f in faces:
        if f.dim == 0:
            vset.add(f.rep)
        elif f.dim == 1:
            p1, p2 = _edge_segment(sub, f)
            vset.update((p1, p2))
            eset.add(tuple(sorted((p1, p2))))
        else:
            ncells += 1
            poly = cell_polygon(sub, f)
            for i in range(len(poly)):
                p1, p2 = poly[i], poly[(i + 1) % len(poly)]
                vset.update((p1, p2))
                eset.add(tuple(sorted((p1, p2))))
    chi = len(vset) - len(eset) + ncells
    if components > 1:
        return ContractibilityReport("disconnected", False, components, chi)
    if chi != 1:
        return ContractibilityReport("not-simply-connected", False, components, chi)
    return ContractibilityReport("ok", True, components, chi)


# ---------------------------------------------------------------------------
# rendering

_RAMP_LO = (0xF4, 0xF8, 0xFD)
_RAMP_HI = (0x08, 0x30, 0x6B)


def _ramp(value: Fraction, vmax: Fraction) -> str:
    if vmax <= 0:
        t_num, t_den = 0, 1
    else:
        t = Fraction(value) / vmax
        t_num, t_den = t.numerator, t.denominator
    channels = []
    for lo, hi in zip(_RAMP_LO, _RAMP_HI):
        channels.append(lo + (hi - lo) * t_num // t_den)
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _fmt(x: Fraction) -> str:
    return f"{float(x):.3f}"


def render_svg(sub: PlanarSubdivision, table: DepthTable, deepest=None, size=1000) -> str:
    """Deterministic SVG depth map: cells on a color ramp, lines, vertices, legend.

    Identical inputs produce byte-identical output.
    """
    xmin, ymin, xmax, ymax = sub.bbox
    sx = Fraction(size) / (xmax - xmin)
    sy = Fraction(size) / (ymax - ymin)

    def tx(p):
        return (sx * (p[0] - xmin), Fraction(size) - sy * (p[1] - ymin))

    values = [table.values[f.index] for f in sub.faces]
    vmax = max(values) if values else Fraction(0)
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    )
    out.append(f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>')
    out.append('<g id="faces">')
    for f in sub.cells:
        if not f.signs:
            continue  # empty arrangement: background stands for the single cell
        poly = cell_polygon(sub, f)
        if len(poly) < 3:
            continue
        pts = " ".join(f"{_fmt(tx(p)[0])},{_fmt(tx(p)[1])}" for p in poly)
        out.append(f'<polygon points="{pts}" fill="{_ramp(table.values[f.index], vmax)}" stroke="none"/>')
    out.append("</g>")
    out.append('<g id="lines" stroke="#222222" stroke-width="1.5">')
    for li in range(len(sub.lines)):
        full = [f for f in sub.edges if f.line == li]
        if not full:
            continue
        ends = []
        for f in full:
            if f.span[0] is None:
                ends.append(_edge_segment(sub, f)[0])
            if f.span[1] is None:
                ends.append(_edge_segment(sub, f)[1])
        if len(ends) < 2:  # fully degenerate; draw the single clipped edge
            p1, p2 = _edge_segment(sub, full[0])
        else:
            p1, p2 = ends[0], ends[1]
        a1, a2 = tx(p1), tx(p2)
        out.append(f'<line x1="{_fmt(a1[0])}" y1="{_fmt(a1[1])}" x2="{_fmt(a2[0])}" y2="{_fmt(a2[1])}"/>')
    out.append("</g>")
    out.append('<g id="vertices" fill="#000000">')
    for f in sub.vertices:
        p = tx(f.rep)
        out.append(f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="3"/>')
    out.append("</g>")
    if deepest is not None:
        p = tx(deepest)
        out.append(
            f'<g id="deepest"><circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="7" '
            f'fill="none" stroke="#d62728" stroke-width="2.5"/></g>'
        )
    out.append('<g id="legend" font-family="monospace" font-size="14">')
    seen = sorted(set(values))
    for i, v in enumerate(seen):
        y = 20 + 22 * i
        out.append(f'<rect x="12" y="{y - 12}" width="14" height="14" fill="{_ramp(v, vmax)}" stroke="#222222"/>')
        out.append(f'<text x="32" y="{y}">{table.measure.value} = {v}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"

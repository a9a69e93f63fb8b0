"""Planar line-arrangement face complexes, depth labeling, regions and SVG maps.

Faces come from `cells.enumerate_faces` and are kept combinatorially (sign
vectors and their bitmasks plus one exact interior representative each).
Geometry is read from the face lattice, with nothing clipped: the closure of
a face inside a bounding box at twice the vertex extent is spanned by the
candidate corners in it, which are the arrangement vertices, the two box
points of each line and the four box corners. A point lies in the closure of
a face iff its sign bitmasks are subsets of the face's. Region topology is
decided on the combinatorial complex; the box only enters the
Euler-characteristic bookkeeping, where it is a deformation retract of the
unbounded complex.
"""

from fractions import Fraction
from functools import cached_property, cmp_to_key

from .cells import _angle_cmp, enumerate_faces
from .depth import MeasureKind, _depth_at_masks
from .errors import DimensionError
from .geometry import Arrangement, record


@record
class PlanarFace:
    index: int
    dim: int
    signs: tuple
    rep: tuple
    pos: int  # bit i set iff signs[i] > 0
    neg: int  # bit i set iff signs[i] < 0
    degenerate: bool = False  # vertex where more than two distinct lines meet


@record
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
        xmin, ymin, xmax, ymax = self.bbox
        return all(xmin < x < xmax and ymin < y < ymax for x, y in self.polygons[face.index])

    @cached_property
    def polygons(self):
        """Each face's closure within the bounding box, as a tuple indexed like `faces`.

        A face's corners are the candidate points in its closure: a cell lists
        them counter-clockwise about their mean, starting from the +x direction
        (`cells._angle_cmp`), an edge gives the two ends of its segment and a
        vertex its point. An edge tests only the corners on its own line, and
        passes them to the two cells it bounds, whose signs are the edge's with
        its zero bits set to + or to -; a cell adds the box corners inside it.
        Computed on first use and kept with the subdivision.
        """
        xmin, ymin, xmax, ymax = self.bbox
        pts = [p for a, c in self.lines for p in _box_points(self.bbox, a, c)]
        pts += [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
        # a vertex is its own corner; dict.fromkeys drops a box corner that is also a line's box point
        corners = [(f.rep, f.pos, f.neg) for f in self.vertices]
        corners += [(p, *_masks(self.arrangement, p)) for p in dict.fromkeys(pts)]
        full = (1 << len(self.arrangement)) - 1
        cell_of = {(f.pos, f.neg): f.index for f in self.cells}
        owned = {f.index: set() for f in self.cells}  # cell index -> indices of its corners
        on_line = {}  # bit of a hyperplane -> indices of the corners on it, in order
        for j, (_, pos, neg) in enumerate(corners):
            zero = full & ~(pos | neg)
            if not zero:  # a box corner off every line lies in one cell
                owned[cell_of[pos, neg]].add(j)
            while zero:
                on_line.setdefault(zero & -zero, []).append(j)
                zero &= zero - 1
        out = [(f.rep,) for f in self.faces]
        for f in self.edges:
            zero = full & ~(f.pos | f.neg)
            own = []
            for j in on_line[zero & -zero]:
                _, pos, neg = corners[j]
                if pos & f.pos == pos and neg & f.neg == neg:
                    own.append(j)
            out[f.index] = tuple(corners[j][0] for j in own)
            owned[cell_of[f.pos | zero, f.neg]].update(own)
            owned[cell_of[f.pos, f.neg | zero]].update(own)
        for f in self.cells:  # about k times the corners' mean: rep itself may lie outside the box
            poly = [corners[j][0] for j in sorted(owned[f.index])]
            k, sx, sy = len(poly), sum(p[0] for p in poly), sum(p[1] for p in poly)
            rel = [((k * p[0] - sx, k * p[1] - sy), p) for p in poly]
            out[f.index] = tuple(p for _, p in sorted(rel, key=cmp_to_key(lambda u, v: _angle_cmp(u[0], v[0]))))
        return tuple(out)


def incident(lower, upper):
    """True iff the lower-dimensional face lies in the closure of the other."""
    return lower.dim < upper.dim and lower.pos & upper.pos == lower.pos and lower.neg & upper.neg == lower.neg


def _masks(arr, p):
    """Residual signs of p as (pos, neg) bitmasks."""
    pos, zero = arr.sign_masks(p)
    return pos, ((1 << len(arr)) - 1) & ~(pos | zero)


def _sign_bits(signs):
    """A sign vector as (pos, neg) bitmasks."""
    pos = neg = 0
    for i, s in enumerate(signs):
        if s > 0:
            pos |= 1 << i
        elif s < 0:
            neg |= 1 << i
    return pos, neg


def _box_points(bbox, a, c):
    """The two points where the line a.x = c meets the box boundary, counter-clockwise from (xmin, ymin)."""
    xmin, ymin, xmax, ymax = bbox
    pts = {(x, (c - a[0] * x) / a[1]) for x in (xmin, xmax) if a[1]}
    pts |= {((c - a[1] * y) / a[0], y) for y in (ymin, ymax) if a[0]}

    def side(p):  # bottom, right, top, left: a line meets each side at most once
        x, y = p
        return 0 if y == ymin else 1 if x == xmax else 2 if y == ymax else 3

    return sorted((p for p in pts if xmin <= p[0] <= xmax and ymin <= p[1] <= ymax), key=side)


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
    distinct = _distinct_lines_of(arr)
    keys = [h.geometry() for h in arr]
    faces = []
    for i, (signs, rep, dim) in enumerate(enumerate_faces(arr)):
        on = {key for key, s in zip(keys, signs) if s == 0}
        faces.append(PlanarFace(i, dim, signs, rep, *_sign_bits(signs), dim == 0 and len(on) > 2))
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


@record
class DepthTable:
    measure: MeasureKind
    values: dict  # face index -> Fraction

    def __getitem__(self, face_index):
        return self.values[face_index]


def label_depth(sub: PlanarSubdivision, arr: Arrangement, measure) -> DepthTable:
    """Evaluate a combinatorial measure once per face, from the face's sign bitmasks.

    The masks are the faces' own when arr has the subdivision's hyperplanes
    (weights may differ), and are read at each face's representative
    otherwise.
    """
    if isinstance(measure, str):
        measure = MeasureKind(measure)
    if arr.int_rows == sub.arrangement.int_rows:
        masks = [(f.pos, f.neg) for f in sub.faces]
    else:
        masks = [_masks(arr, f.rep) for f in sub.faces]
    values = {f.index: _depth_at_masks(arr, pos, neg, measure)[0] for f, (pos, neg) in zip(sub.faces, masks)}
    return DepthTable(measure, values)


@record
class DepthRegion:
    k: Fraction
    measure: MeasureKind
    face_indices: frozenset


def extract_region(sub: PlanarSubdivision, table: DepthTable, k) -> DepthRegion:
    k = Fraction(k)
    idx = frozenset(f.index for f in sub.faces if table.values[f.index] >= k)
    return DepthRegion(k, table.measure, idx)


def cell_polygon(sub: PlanarSubdivision, face) -> list:
    """The face's closure within the bounding box: a cell's polygon, an edge's segment or a vertex's point."""
    return list(sub.polygons[face.index])


def euler_counts(sub: PlanarSubdivision):
    """V, E, F of the complex within the bounding box; V - E + F = 2 certifies consistency."""
    V = len({p for poly in sub.polygons for p in poly})
    # the boundary cycle has one edge per consecutive pair of box points
    E = len(sub.edges) + V - len(sub.vertices)
    F = len(sub.cells) + 1  # outer face
    return V, E, F


@record
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
    in_region = region.face_indices
    faces = [f for f in sub.faces if f.index in in_region]
    if not faces:
        return ContractibilityReport("empty", False)
    higher = [[g for g in faces if g.dim > d] for d in range(3)]  # the faces that f.dim = d may bound
    # closure check: every face bounding a region face must itself be in the region
    for f in sub.faces:
        if f.index not in in_region and any(incident(f, g) for g in higher[f.dim]):
            return ContractibilityReport("not-closed", False)

    # connectivity via incidence chains
    parent = {f.index: f.index for f in faces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in faces:
        for g in higher[f.dim]:
            if incident(f, g):
                parent[find(f.index)] = find(g.index)
    components = len({find(f.index) for f in faces})

    # Euler characteristic of the region within the box
    vset = set()
    eset = set()
    for f in faces:
        poly = sub.polygons[f.index]
        vset.update(poly)
        if f.dim > 0:  # a segment's two sides are one edge
            eset.update(tuple(sorted((p, poly[i - 1]))) for i, p in enumerate(poly))
    chi = len(vset) - len(eset) + sum(1 for f in faces if f.dim == 2)
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
    screen = {}

    def tx(p):
        """p's formatted screen coordinates, transformed once per distinct point."""
        xy = screen.get(p)
        if xy is None:
            xy = screen[p] = (_fmt(sx * (p[0] - xmin)), _fmt(size - sy * (p[1] - ymin)))
        return xy

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
        poly = sub.polygons[f.index]
        if len(poly) < 3:
            continue
        pts = " ".join(f"{x},{y}" for x, y in map(tx, poly))
        out.append(f'<polygon points="{pts}" fill="{_ramp(table.values[f.index], vmax)}" stroke="none"/>')
    out.append("</g>")
    out.append('<g id="lines" stroke="#222222" stroke-width="1.5">')
    for a, c in sub.lines:
        (x1, y1), (x2, y2) = map(tx, _box_points(sub.bbox, a, c))
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    out.append("</g>")
    out.append('<g id="vertices" fill="#000000">')
    for f in sub.vertices:
        x, y = tx(f.rep)
        out.append(f'<circle cx="{x}" cy="{y}" r="3"/>')
    out.append("</g>")
    if deepest is not None:
        x, y = tx(deepest)
        out.append(
            f'<g id="deepest"><circle cx="{x}" cy="{y}" r="7" '
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

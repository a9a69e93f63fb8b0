"""Planar line-arrangement face complexes, depth labeling, regions and SVG maps.

Faces come from the face recursion `cells._faces` and are kept
combinatorially: the (pos, neg) sign bitmasks it returns, with bit i for
hyperplane i, plus one exact interior representative each. Geometry is read
from the face lattice, with nothing clipped: the closure of a face inside a
bounding box at twice the vertex extent is spanned by the candidate corners
in it, which are the arrangement vertices, the two box points of each line
and the four box corners. A point lies in the closure of a face iff its sign
bitmasks are subsets of the face's. Region topology is decided on the
combinatorial complex; the box only enters the Euler-characteristic
bookkeeping, where it is a deformation retract of the unbounded complex.
"""

import math
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .cells import _angle_cmp, _faces
from .depth import MeasureKind, _depth_at_masks, _masks_at
from .errors import DimensionError
from .geometry import Arrangement, record


@record
class PlanarFace:
    index: int
    dim: int
    rep: tuple
    pos: int  # bit i set iff hyperplane i's residual is positive on the face
    neg: int  # bit i set iff hyperplane i's residual is negative on the face
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
    def corners(self):
        """The candidate corners as (point, pos, neg): the vertices, then the box points and box corners.

        Each point is listed once, with its sign bitmasks. These are the
        corners of `polygons` and the V of `euler_counts`.
        """
        xmin, ymin, xmax, ymax = self.bbox
        pts = [p for a, c in self.lines for p in _box_points(self.bbox, a, c)]
        pts += [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
        # a vertex is its own corner; dict.fromkeys drops a box corner that is also a line's box point
        corners = [(f.rep, f.pos, f.neg) for f in self.vertices]
        return corners + [(p, *_masks_at(self.arrangement, p)) for p in dict.fromkeys(pts)]

    @cached_property
    def polygons(self):
        """Each face's closure within the bounding box, as a tuple indexed like `faces`.

        A face's corners are the candidate points in its closure: a cell lists
        them counter-clockwise about their mean, starting from the +x direction
        (`cells._angle_cmp`), an edge gives the two ends of its segment and a
        vertex its point. An edge tests only the corners on its own line, and
        passes them to the two cells it bounds, whose masks are the edge's with
        its zero bits moved to pos or to neg; a cell adds the box corners inside it.
        A cell's corners are sorted on integer numerators over one common
        denominator. Computed on first use and kept with the subdivision.
        """
        corners = self.corners
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
        ints = [_over_one_den(p) for p, _, _ in corners]  # (xn, yn, den) with p = (xn, yn) / den
        for f in self.cells:  # about k times the corners' mean: rep itself may lie outside the box
            own = sorted(owned[f.index])
            den = math.lcm(*(ints[j][2] for j in own))
            xy = [(xn * (den // dn), yn * (den // dn)) for xn, yn, dn in map(ints.__getitem__, own)]
            k, sx, sy = len(xy), sum(x for x, _ in xy), sum(y for _, y in xy)
            rel = [((k * x - sx, k * y - sy), j) for (x, y), j in zip(xy, own)]
            rel.sort(key=cmp_to_key(lambda u, v: _angle_cmp(u[0], v[0])))
            out[f.index] = tuple(corners[j][0] for _, j in rel)
        return tuple(out)


def incident(lower, upper):
    """True iff the lower-dimensional face lies in the closure of the other."""
    return lower.dim < upper.dim and lower.pos & upper.pos == lower.pos and lower.neg & upper.neg == lower.neg


def _over_one_den(p):
    """A rational point as integers (xn, yn, den), den > 0, with p = (xn / den, yn / den)."""
    x, y = p
    den = math.lcm(x.denominator, y.denominator)
    return x.numerator * (den // x.denominator), y.numerator * (den // y.denominator), den


def _box_points(bbox, a, c):
    """The two points where the line a.x = c meets the box boundary, counter-clockwise from (xmin, ymin).

    The sides come in the order bottom, right, top, left; a line meets each at
    most once, and a box corner counts for the first of its two sides.
    """
    xmin, ymin, xmax, ymax = bbox
    out = []
    if a[0]:
        x = (c - a[1] * ymin) / a[0]
        if xmin <= x <= xmax:
            out.append((x, ymin))
    if a[1]:
        y = (c - a[0] * xmax) / a[1]
        if ymin < y <= ymax:
            out.append((xmax, y))
    if a[0]:
        x = (c - a[1] * ymax) / a[0]
        if xmin <= x < xmax:
            out.append((x, ymax))
    if a[1]:
        y = (c - a[0] * xmin) / a[1]
        if ymin < y < ymax:
            out.append((xmin, y))
    return out


def build_subdivision(arr: Arrangement) -> PlanarSubdivision:
    """Exact face complex of a 2D arrangement (degeneracies allowed)."""
    if arr.dimension != 2:
        raise DimensionError("planar subdivision requires d = 2")
    first = {}  # integer row -> index of its first copy: hyperplanes are canonical on construction
    lead = 0  # bitmask of the first copies, one bit per distinct line
    for i, row in enumerate(arr.int_rows):
        if first.setdefault(row, i) == i:
            lead |= 1 << i
    distinct = [((arr[i].normal[0], arr[i].normal[1]), arr[i].offset) for i in first.values()]
    faces = []
    for i, ((pos, neg), (nums, den), dim) in enumerate(_faces(arr.int_rows, 2)):
        rep = tuple(Fraction(v, den) for v in nums)
        faces.append(PlanarFace(i, dim, rep, pos, neg, dim == 0 and (lead & ~(pos | neg)).bit_count() > 2))
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
        masks = [_masks_at(arr, f.rep) for f in sub.faces]
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


def euler_counts(sub: PlanarSubdivision):
    """V, E, F of the complex within the bounding box; V - E + F = 2 certifies consistency."""
    V = len(sub.corners)  # every corner lies in some face's closure
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


def _fmt(num: int, den: int) -> str:
    """num / den to three decimals: the one float made, correctly rounded as float(Fraction(num, den)) is."""
    return f"{num / den:.3f}"


def _screen(bbox, size):
    """The map from p to its formatted screen coordinates, on integer numerators and positive denominators.

    x maps to size (x - xmin) / (xmax - xmin) and y to size (ymax - y) / (ymax - ymin),
    exactly until `_fmt` rounds them.
    """
    xmin, ymin, xmax, ymax = bbox
    w, h = xmax - xmin, ymax - ymin
    xa, xb, kx, lx = xmin.numerator, xmin.denominator, size * w.denominator, xmin.denominator * w.numerator
    ya, yb, ky, ly = ymax.numerator, ymax.denominator, size * h.denominator, ymax.denominator * h.numerator

    def tx(p):
        x, y = p
        return (
            _fmt(kx * (x.numerator * xb - xa * x.denominator), lx * x.denominator),
            _fmt(ky * (ya * y.denominator - y.numerator * yb), ly * y.denominator),
        )

    return tx


def render_svg(sub: PlanarSubdivision, table: DepthTable, deepest=None, size=1000) -> str:
    """Deterministic SVG depth map: cells on a color ramp, lines, vertices, legend.

    Identical inputs produce byte-identical output.
    """
    tx = _screen(sub.bbox, size)
    values = [table.values[f.index] for f in sub.faces]
    vmax = max(values) if values else Fraction(0)
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    )
    out.append(f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>')
    out.append('<g id="faces">')
    for f in sub.cells if len(sub.arrangement) else ():  # empty arrangement: background stands for the single cell
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

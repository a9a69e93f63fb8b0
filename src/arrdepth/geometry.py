"""Hyperplanes, weighted arrangements, residual/dual-point evaluation and instance I/O.

A hyperplane is stored as ``normal . x = offset`` with a nonnegative rational
weight. Construction canonicalizes (normal, offset) to coprime integers with a
positive leading normal entry, so two representations of the same hyperplane
compare and hash equal. All arithmetic is exact.
"""

from __future__ import annotations

import json
import math
import operator
import random
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from . import cells, linalg
from .errors import DimensionError, GenerationError, InvalidHyperplane

Point = tuple[Fraction, ...]


def frac(value) -> Fraction:
    """Parse a rational from int/str/Fraction ('p/q' strings round-trip)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def point(coords) -> Point:
    return tuple(frac(c) for c in coords)


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, as ``dataclass(frozen=True)`` would.

    Adds ``__init__`` (positional or keyword arguments; a class attribute
    named like a field is its default; ``__post_init__`` runs last),
    ``__eq__`` within the class and ``__hash__``, both on the tuple of
    fields, the dataclass ``__repr__``, ``__match_args__``, and a
    ``__setattr__`` and ``__delattr__`` that raise AttributeError. Fields
    live in the instance ``__dict__``, so `functools.cached_property`,
    `pickle` and `copy` work as usual. The methods are closures over the
    field names: no source is generated, so defining a record costs little
    at import.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    if any(name in defaults for name in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows a field with one")
    key = operator.attrgetter(*names)  # the tuple of fields (every record has two or more)
    size = len(names)
    post_init = hasattr(cls, "__post_init__")
    setfield = object.__setattr__

    def bind(args, kwargs):
        """The field values in order, from the arguments and the defaults."""
        where = f"{cls.__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required argument(s): {', '.join(map(repr, missing))}")
        return [values[name] if name in values else defaults[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setfield(self, name, value)  # not through __dict__, which would slow every later attribute read
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(f"{n}={getattr(self, n)!r}" for n in names) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def _canonical_pair(normal, offset):
    normal = [frac(c) for c in normal]
    if all(c == 0 for c in normal):
        raise InvalidHyperplane("zero normal vector")
    ints = linalg.integer_vector(normal + [frac(offset)])
    if next(v for v in ints if v != 0) < 0:
        ints = tuple(-v for v in ints)
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


@record
class Hyperplane:
    """An affine hyperplane ``normal . x = offset`` with weight >= 0."""

    normal: Point
    offset: Fraction
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        n, o = _canonical_pair(self.normal, self.offset)
        w = frac(self.weight)
        if w < 0:
            raise InvalidHyperplane("negative weight")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", o)
        object.__setattr__(self, "weight", w)

    @property
    def dimension(self) -> int:
        return len(self.normal)

    def residual(self, q: Point) -> Fraction:
        if len(q) != self.dimension:
            raise DimensionError(f"point has dimension {len(q)}, expected {self.dimension}")
        return linalg.dot(self.normal, q) - self.offset

    def foot(self, q: Point) -> Point:
        """The point of the hyperplane closest to q (orthogonal projection)."""
        s = self.residual(q)
        nn = linalg.dot(self.normal, self.normal)
        return tuple(qi - s / nn * ai for qi, ai in zip(q, self.normal))

    def geometry(self):
        """Identity of the hyperplane ignoring weight."""
        return (self.normal, self.offset)

    def to_json(self) -> dict:
        out = {"normal": [frac_str(c) for c in self.normal], "offset": frac_str(self.offset)}
        if self.weight != 1:
            out["weight"] = frac_str(self.weight)
        return out


def canonicalize(h: Hyperplane) -> Hyperplane:
    """The unique canonical representative (idempotent; applied on construction)."""
    return Hyperplane(h.normal, h.offset, h.weight)


def hyperplane(normal, offset, weight=1) -> Hyperplane:
    return Hyperplane(point(normal), frac(offset), frac(weight))


@record
class Arrangement:
    """A weighted arrangement: an ordered list of hyperplanes in R^d."""

    dimension: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        for h in self.hyperplanes:
            if h.dimension != self.dimension:
                raise DimensionError(
                    f"hyperplane normal has dimension {h.dimension}, arrangement is {self.dimension}-dimensional"
                )
        object.__setattr__(self, "hyperplanes", tuple(self.hyperplanes))

    def __len__(self):
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

    def __getitem__(self, i):
        return self.hyperplanes[i]

    @property
    def total_weight(self) -> Fraction:
        return sum((h.weight for h in self.hyperplanes), Fraction(0))

    @cached_property
    def circuits(self) -> list[tuple[int, int]]:
        """Signed circuits of the normals, as (support, positive) bitmasks.

        Computed on first use and kept with the arrangement; see
        `linalg.signed_circuits`.
        """
        return linalg.signed_circuits([h.normal for h in self.hyperplanes])

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(normal, offset) of each hyperplane as Python ints (they are canonical coprime integers)."""
        return tuple((tuple(c.numerator for c in h.normal), h.offset.numerator) for h in self.hyperplanes)

    @cached_property
    def direction_cells(self) -> tuple[tuple, tuple[tuple[int, int], ...]]:
        """Direction-cell representatives of the normals and their sign masks.

        Returns (reps, masks) with masks[j] = (pos, neg): bit i of pos (neg) is
        set when a_i . reps[j] > 0 (< 0). Both depend only on the normals, so
        every query on the arrangement reuses them. See `cells.direction_cells`.
        """
        reps = tuple(cells.direction_cells([h.normal for h in self.hyperplanes], self.dimension))
        masks = []
        for u in reps:
            pos = neg = 0
            for i, (a, _) in enumerate(self.int_rows):
                s = linalg.dot(a, u)
                if s > 0:
                    pos |= 1 << i
                elif s < 0:
                    neg |= 1 << i
            masks.append((pos, neg))
        return reps, tuple(masks)

    @cached_property
    def weight_tables(self) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
        """The weights as integers over one common denominator, for bitmask sums.

        Returns (den, tables). The weight of the hyperplanes in a bitmask m is
        popcount(m) / den when tables is None (every weight is 1); otherwise it
        is sum(tables[c][m >> 8c & 255]) / den, where tables[c][b] is the sum
        of the integer weights of hyperplanes 8c + j over the bits j of b.
        """
        weights = [h.weight for h in self.hyperplanes]
        if all(w == 1 for w in weights):
            return 1, None
        den = math.lcm(*(w.denominator for w in weights))
        nums = [w.numerator * (den // w.denominator) for w in weights]
        tables = []
        for start in range(0, len(nums), 8):
            chunk = nums[start : start + 8]
            table = [0] * 256
            for b in range(1, 256):
                low = (b & -b).bit_length() - 1
                table[b] = table[b & (b - 1)] + (chunk[low] if low < len(chunk) else 0)
            tables.append(tuple(table))
        return den, tuple(tables)

    def sign_masks(self, q) -> tuple[int, int]:
        """Residual signs of q as (pos, zero) bitmasks: bit i of pos (zero) is set when a_i . q - b_i > 0 (= 0).

        Exact integer arithmetic over the lcm of q's denominators.
        """
        q = point(q)
        if len(q) != self.dimension:
            raise DimensionError(f"query has dimension {len(q)}, expected {self.dimension}")
        den = math.lcm(*(c.denominator for c in q))
        qn = [c.numerator * (den // c.denominator) for c in q]
        pos = zero = 0
        for i, (a, b) in enumerate(self.int_rows):
            s = sum(map(operator.mul, a, qn)) - b * den
            if s > 0:
                pos |= 1 << i
            elif s == 0:
                zero |= 1 << i
        return pos, zero

    def subset(self, indices) -> "Arrangement":
        return Arrangement(self.dimension, tuple(self.hyperplanes[i] for i in indices))

    def with_hyperplane(self, h: Hyperplane) -> "Arrangement":
        return Arrangement(self.dimension, self.hyperplanes + (h,))

    def without(self, index: int) -> "Arrangement":
        return Arrangement(self.dimension, self.hyperplanes[:index] + self.hyperplanes[index + 1 :])

    def to_json(self) -> dict:
        return {"d": self.dimension, "hyperplanes": [h.to_json() for h in self.hyperplanes]}


def arrangement(d: int, rows: Sequence[tuple]) -> Arrangement:
    """Build an arrangement from (normal, offset[, weight]) tuples."""
    hs = []
    for row in rows:
        if len(row) == 2:
            hs.append(hyperplane(row[0], row[1]))
        else:
            hs.append(hyperplane(row[0], row[1], row[2]))
    return Arrangement(d, tuple(hs))


@record
class QueryEvaluation:
    """Per-hyperplane residuals and closest points (the dual point set at q)."""

    point: Point
    residuals: tuple[Fraction, ...]
    dual_points: tuple[Point, ...]
    on_set: frozenset[int]


def evaluate(arr: Arrangement, q) -> QueryEvaluation:
    """Residuals s_h = a_h.q - b_h and duals p(h) = q - (s_h/|a_h|^2) a_h, exactly."""
    q = point(q)
    if len(q) != arr.dimension:
        raise DimensionError(f"query has dimension {len(q)}, expected {arr.dimension}")
    residuals = []
    duals = []
    on = []
    for i, h in enumerate(arr):
        s = h.residual(q)
        residuals.append(s)
        duals.append(h.foot(q))
        if s == 0:
            on.append(i)
    return QueryEvaluation(q, tuple(residuals), tuple(duals), frozenset(on))


@record
class GeneralPositionReport:
    """Outcome of the general-position predicate, with per-check flags."""

    normals_independent: bool
    no_excess_incidence: bool
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.normals_independent and self.no_excess_incidence

    def __bool__(self) -> bool:
        return self.ok


def is_general_position(arr: Arrangement) -> GeneralPositionReport:
    """Exact general-position test by rank computations.

    Checks (a) every min(d, n) normals are linearly independent (rules out
    parallels and degenerate flats) and (b) no d+1 hyperplanes share a point.
    """
    from itertools import combinations

    d, n = arr.dimension, len(arr)
    normals = [h.normal for h in arr]
    k = min(d, n)
    for idx in combinations(range(n), k):
        if linalg.rank([normals[i] for i in idx]) < k:
            return GeneralPositionReport(False, True, witness=idx)
    for idx in combinations(range(n), d + 1):
        mat = [normals[i] for i in idx]
        rhs = [arr[i].offset for i in idx]
        if linalg.solve_consistent(mat, rhs) is not None:
            return GeneralPositionReport(True, False, witness=idx)
    return GeneralPositionReport(True, True)


def generate_instance(seed: int, d: int, n: int, profile: str = "generic", max_attempts: int = 200) -> Arrangement:
    """Deterministic seeded instance generator.

    Profiles: "generic" (unit weights, verified general position) and
    "weighted" (general position plus random rational weights). Integer
    coordinates are drawn from [-1000, 1000] to keep bit sizes small.
    """
    if d < 1:
        raise GenerationError("dimension must be >= 1")
    if n < 0:
        raise GenerationError("n must be >= 0")
    if profile not in ("generic", "weighted"):
        raise GenerationError(f"unknown profile {profile!r}")
    rng = random.Random(f"arrdepth:{seed}:{d}:{n}:{profile}")
    for _ in range(max_attempts):
        hs = []
        ok = True
        for _ in range(n):
            normal = [rng.randint(-1000, 1000) for _ in range(d)]
            if all(v == 0 for v in normal):
                ok = False
                break
            offset = rng.randint(-1000, 1000)
            if profile == "weighted":
                weight = Fraction(rng.randint(1, 16), rng.randint(1, 16))
            else:
                weight = Fraction(1)
            hs.append(hyperplane(normal, offset, weight))
        if not ok:
            continue
        arr = Arrangement(d, tuple(hs))
        if len({h.geometry() for h in arr}) < n:
            continue
        if n == 0 or is_general_position(arr):
            return arr
    raise GenerationError(f"could not generate a general-position instance in {max_attempts} attempts")


def load_json(data) -> Arrangement:
    """Parse the instance format {"d": int, "hyperplanes": [{normal, offset, weight?}]}."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    d = int(data["d"])
    hs = []
    for entry in data["hyperplanes"]:
        hs.append(
            hyperplane(
                [frac(c) for c in entry["normal"]],
                frac(entry["offset"]),
                frac(entry.get("weight", 1)),
            )
        )
    return Arrangement(d, tuple(hs))


def dump_json(arr: Arrangement) -> str:
    return json.dumps(arr.to_json(), sort_keys=True)


def triangle() -> Arrangement:
    """The three-line arrangement x=0, y=0, x+y=1 used throughout the tests."""
    return arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)])

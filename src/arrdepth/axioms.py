"""Executable axiom suite for depth measures on weighted arrangements.

Checks, on an instance and seeded perturbations of it:
  (i)    inserting a hyperplane changes the measure by at most its weight,
  (ii)   zero on unbounded cells,
  (iii)  at least the minimum weight on bounded cells and incident points,
  (iv)   super-additivity over disjoint sub-arrangements,
  (iii') at least k whenever a k-enclosure of the query exists,
  (iv')  monotone under insertion.
Each axiom reports applicability, pass/fail and a witness for failures.
"""

import random
from fractions import Fraction

from .depth import (
    MeasureKind,
    cell_unbounded,
    open_regression_depth,
    regression_depth,
    truncated_regression_depth,
)
from .enclosing import hyperplane_enclosing_depth
from .errors import ExactBudgetExceeded
from .geometry import Arrangement, hyperplane, point, record
from .tverberg import hyperplane_tverberg_depth


def measure_value(kind, arr, q) -> Fraction:
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    if kind == MeasureKind.RD:
        return regression_depth(arr, q)[0]
    if kind == MeasureKind.RD_OPEN:
        return open_regression_depth(arr, q)[0]
    if kind == MeasureKind.TRD:
        return truncated_regression_depth(arr, q)
    if kind == MeasureKind.HTVD:
        return Fraction(hyperplane_tverberg_depth(arr, q))
    if kind == MeasureKind.HED:
        return Fraction(hyperplane_enclosing_depth(arr, q)[0])
    raise ValueError(f"unknown measure {kind!r}")


@record
class AxiomResult:
    axiom: str
    applicable: bool
    passed: bool | None
    witness: tuple = ()


@record
class AxiomReport:
    kind: MeasureKind
    results: tuple

    def result(self, axiom):
        return next(r for r in self.results if r.axiom == axiom)

    def passed(self, axiom):
        r = self.result(axiom)
        return r.passed is not False

    @property
    def all_passed(self):
        return all(r.passed is not False for r in self.results)


def _random_hyperplane(rng, d, integer_weight):
    while True:
        normal = [rng.randint(-10, 10) for _ in range(d)]
        if any(c != 0 for c in normal):
            break
    offset = rng.randint(-10, 10)
    if integer_weight:
        w = Fraction(1)
    else:
        w = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    return hyperplane(normal, offset, w)


def check_axioms(kind, arr: Arrangement, q, trials=6, seed=0) -> AxiomReport:
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    q = point(q)
    d = arr.dimension
    n = len(arr)
    rng = random.Random(f"arrdepth-axioms:{seed}:{kind.value}")
    integer_weight = kind in (MeasureKind.HTVD, MeasureKind.HED)

    def value(a, p=q):
        return measure_value(kind, a, p)

    try:
        base = value(arr)
    except ExactBudgetExceeded:
        return AxiomReport(kind, tuple(AxiomResult(a, False, None) for a in ("i", "ii", "iii", "iv", "iii'", "iv'")))

    results = []

    # (i) insertion changes the value by at most the new weight
    wit = ()
    ok = True
    for _ in range(trials):
        h = _random_hyperplane(rng, d, integer_weight)
        v2 = value(arr.with_hyperplane(h))
        if abs(v2 - base) > h.weight:
            ok, wit = False, (h, base, v2)
            break
    results.append(AxiomResult("i", True, ok, wit))

    # (ii) zero on unbounded cells
    unbounded = cell_unbounded(arr, q)
    results.append(AxiomResult("ii", unbounded, (base == 0) if unbounded else None))

    # (iii) at least the minimum weight on bounded cells / incident points
    applicable = n >= 1 and not unbounded
    if applicable:
        min_w = min(h.weight for h in arr)
        ok = base >= min_w
        results.append(AxiomResult("iii", True, ok, () if ok else (base, min_w)))
    else:
        results.append(AxiomResult("iii", False, None))

    # (iv) super-additivity over disjoint sub-arrangements. All measures here
    # are insertion-monotone, so complete bipartitions dominate partial ones;
    # small instances are checked exhaustively, larger ones by sampling.
    ok = True
    wit = ()
    if n <= 8:
        splits = (
            ([i for i in range(n) if mask >> i & 1], [i for i in range(n) if not mask >> i & 1])
            for mask in range(1, 1 << (n - 1))
        ) if n >= 2 else iter(())
    else:
        def _sampled():
            for _ in range(trials):
                labels = [rng.randint(0, 2) for _ in range(n)]
                yield ([i for i, l in enumerate(labels) if l == 0], [i for i, l in enumerate(labels) if l == 1])
        splits = _sampled()
    for part1, part2 in splits:
        if not part1 or not part2:
            continue
        v1 = value(arr.subset(part1))
        v2 = value(arr.subset(part2))
        if base < v1 + v2:
            ok, wit = False, (tuple(part1), tuple(part2), base, v1, v2)
            break
    results.append(AxiomResult("iv", True, ok, wit))

    # (iii') at least k under an existing k-enclosure
    try:
        k_enc, _ = hyperplane_enclosing_depth(arr, q)
    except ExactBudgetExceeded:
        k_enc = 0
    if k_enc >= 1:
        ok = base >= k_enc
        results.append(AxiomResult("iii'", True, ok, () if ok else (base, k_enc)))
    else:
        results.append(AxiomResult("iii'", False, None))

    # (iv') monotone under insertion
    ok = True
    wit = ()
    for _ in range(trials):
        h = _random_hyperplane(rng, d, integer_weight)
        v2 = value(arr.with_hyperplane(h))
        if v2 < base:
            ok, wit = False, (h, base, v2)
            break
    results.append(AxiomResult("iv'", True, ok, wit))

    return AxiomReport(kind, tuple(results))

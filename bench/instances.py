"""Seeded inputs for the benchmark: arrangements, degenerate arrangements and queries.

`arrdepth.generate_instance` only makes general-position inputs, so the
degenerate ones are built here: concurrent hyperplanes (d+1 or more through
one rational point), a parallel pair, a duplicate (same hyperplane, scaled
representation) and, optionally, zero weights. Coordinates stay small so the
exact arithmetic stays cheap and the incidences are exact.
"""

import random
from fractions import Fraction
from itertools import combinations

from arrdepth import Arrangement, generate_instance, hyperplane, linalg


def _small_normal(rng, d, lo, hi):
    while True:
        a = tuple(rng.randint(lo, hi) for _ in range(d))
        if any(a):
            return a


def degenerate_instance(tag, d, n, zero_weights=False):
    """An arrangement with concurrent, parallel and duplicate hyperplanes.

    Returns (arrangement, center); `center` lies on the d+1 concurrent
    hyperplanes, so it is an on-hyperplane query with a degenerate incidence.
    """
    rng = random.Random(f"arrdepth-bench-degenerate:{tag}:{d}:{n}:{zero_weights}")
    center = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
    rows = []
    lines = set()
    while len(rows) < d + 1:
        a = _small_normal(rng, d, -4, 4)
        key = hyperplane(a, linalg.dot(a, center)).geometry()
        if key not in lines:
            lines.add(key)
            rows.append((a, linalg.dot(a, center)))
    a, b = rows[0]
    rows.append((a, b + rng.choice((-3, -2, -1, 1, 2, 3))))
    a, b = rows[1]
    rows.append((tuple(2 * c for c in a), 2 * b))
    while len(rows) < n:
        rows.append((_small_normal(rng, d, -6, 6), Fraction(rng.randint(-12, 12), rng.randint(1, 2))))
    rows = rows[:n]
    rng.shuffle(rows)
    weights = [1] * n
    if zero_weights:
        for i in rng.sample(range(n), 2):
            weights[i] = 0
    hs = tuple(hyperplane(a, b, w) for (a, b), w in zip(rows, weights))
    return Arrangement(d, hs), center


def generic_instance(tag, d, n, profile="generic"):
    """A general-position arrangement from the package's own generator."""
    seed = random.Random(f"arrdepth-bench-generic:{tag}:{d}:{n}:{profile}").randrange(2**31)
    return generate_instance(seed, d, n, profile)


def random_instance(tag, d, n):
    """Random integer hyperplanes without the general-position check (cheap to make)."""
    rng = random.Random(f"arrdepth-bench-random:{tag}:{d}:{n}")
    hs = tuple(hyperplane(_small_normal(rng, d, -1000, 1000), rng.randint(-1000, 1000)) for _ in range(n))
    return Arrangement(d, hs)


def random_query(rng, d):
    return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d))


def _vertices(arr):
    d = arr.dimension
    for subset in combinations(range(len(arr)), d):
        sol = linalg.solve([arr[i].normal for i in subset], [arr[i].offset for i in subset])
        if sol is not None:
            yield sol


def vertex_query(arr, rng):
    """A vertex of the arrangement: an on-hyperplane query."""
    verts = sorted(set(_vertices(arr)))
    return verts[rng.randrange(len(verts))]


def deep_query(arr):
    """The coordinate-wise median of the vertices, nudged off every hyperplane."""
    verts = list(_vertices(arr))
    d = arr.dimension
    median = tuple(sorted(v[k] for v in verts)[len(verts) // 2] for k in range(d))
    # Nudge along (1, k, k^2, ...), a direction crossing every hyperplane: each
    # normal is orthogonal to it for at most d-1 values of k, and the nudged
    # point then lies on each hyperplane for at most one step size.
    k = 1
    while any(linalg.dot(h.normal, [k**j for j in range(d)]) == 0 for h in arr):
        k += 1
    step = Fraction(1, 1009)
    while True:
        q = tuple(c + step * k**j for j, c in enumerate(median))
        if all(h.residual(q) != 0 for h in arr):
            return q
        step /= 2

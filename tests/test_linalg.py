"""The integer elimination behind `arrdepth.linalg`, against the Fraction oracle it replaced.

`rank`, `_solve` (one solution and whether it is unique), `solve`,
`kernel_vector` and `signed_circuits` read one fraction-free elimination on
Python ints. Each must return exactly what the Gauss-Jordan elimination on
`Fraction`s in `tests/linalg_oracle.py` returns, `Fraction` entries included, on int and `Fraction` matrices with
zero rows, dependent rows and inconsistent right-hand sides, wide and tall.

`is_general_position` reads both of its checks from one pass over the
d-subsets and their vertices. `_two_loop_general_position` is the scan it
replaced, on the oracle's rank and `solve_consistent`: the reports, witness
included, must be equal on generic, weighted and degenerate arrangements.
`cells.subset_vertices` reads each d-subset's vertex off one elimination
as an integer point (nums, den); it must be the oracle's solve in lowest
terms. The instances `generate_instance` draws are pinned by their digests.
"""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import linalg_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrdepth import cells, linalg
from arrdepth.geometry import (
    Arrangement,
    GeneralPositionReport,
    dump_json,
    generate_instance,
    hyperplane,
    is_general_position,
)

values = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def systems(draw):
    """(rows, rhs, ncols): some rows zero or combinations of earlier rows, rhs consistent or not."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and i:
            a, b = draw(values), draw(values)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append(draw(st.lists(values, min_size=n, max_size=n)))
    if draw(st.booleans()):  # consistent: the image of some x
        x = draw(st.lists(values, min_size=n, max_size=n))
        rhs = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(values, min_size=m, max_size=m))
    return rows, rhs, n


def _same(got, expected):
    """Equal, and every entry of a returned vector is a `Fraction`, as the oracle's are."""
    assert got == expected
    assert got is None or all(type(c) is Fraction for c in got)


@settings(max_examples=600, deadline=None)
@given(systems())
@example(([], [], 0))
@example(([], [], 3))
@example(([[0]], [0], 1))
@example(([[0]], [1], 1))
@example(([[3]], [Fraction(1, 2)], 1))
@example(([[], []], [1, 0], 0))
def test_elimination_matches_fraction_oracle(system):
    rows, rhs, n = system
    assert linalg.rank(rows) == oracle.rank(rows)
    _same(linalg.solve(rows, rhs), oracle.solve(rows, rhs))
    x, unique = linalg._solve(rows, rhs)
    _same(x, oracle.solve_consistent(rows, rhs))
    assert unique == (oracle.rank(rows) == (len(rows[0]) if rows else 0))
    _same(linalg.kernel_vector(rows, ncols=n), oracle.kernel_vector(rows, ncols=n))
    assert linalg.signed_circuits(rows) == oracle.signed_circuits(rows)
    among = [i for i in range(len(rows)) if i % 3 != 1]  # the circuits among a subset, in the list's bits
    mask = sum(1 << i for i in among)

    def spread(bits):
        return sum(1 << i for j, i in enumerate(among) if bits >> j & 1)

    expected = [(spread(supp), spread(plus)) for supp, plus in oracle.signed_circuits([rows[i] for i in among])]
    assert linalg.signed_circuits(rows, mask) == expected


def test_signed_circuits_from_the_kernel_and_the_scan_match_oracle():
    """Both sides of `signed_circuits` give the oracle's list, in its order, on masked families at d = 1-4.

    A family holds zero, parallel, duplicate and combined vectors; its
    selected vectors have a kernel of dimension c <= max(d, 3) (read off
    the kernel) or c > max(d, 3) (the subset scan), and both sides are met
    often. Pencils of incident normals then give selected sets with c > d
    at d = 2 and 3, on both sides.
    """
    rng = random.Random("linalg:circuit-sides")
    sides = {False: 0, True: 0}
    for trial in range(1500):
        d = 1 + trial % 4
        vecs = []
        for _ in range(rng.randint(1, 8)):
            r = rng.random()
            if r < 0.05:
                vecs.append((0,) * d)
            elif r < 0.3 and vecs:
                vecs.append(tuple(Fraction(rng.choice((1, -1, -2, 3)), rng.choice((1, 2))) * c for c in rng.choice(vecs)))
            elif r < 0.45 and len(vecs) >= 2:
                u, v = rng.sample(vecs, 2)
                vecs.append(tuple(rng.randint(-2, 2) * a + rng.randint(-2, 2) * b for a, b in zip(u, v)))
            else:
                vecs.append(tuple(rng.randint(-3, 3) for _ in range(d)))
        among = [i for i in range(len(vecs)) if rng.random() < 0.75]
        mask = sum(1 << i for i in among)

        def spread(bits):
            return sum(1 << i for j, i in enumerate(among) if bits >> j & 1)

        chosen = [vecs[i] for i in among]
        expected = [(spread(supp), spread(plus)) for supp, plus in oracle.signed_circuits(chosen)]
        assert linalg.signed_circuits(vecs, mask) == expected, (vecs, among)
        assert linalg.signed_circuits(vecs) == oracle.signed_circuits(vecs), vecs
        if chosen:
            sides[len(chosen) - oracle.rank([list(r) for r in zip(*chosen)]) <= max(d, 3)] += 1

    # Incident sets whose kernel dimension c exceeds d: pencils of 5-8 lines
    # through a point at d = 2, and 6-7 planes through a point at d = 3, with
    # duplicates, among vectors off the point. Up to c = 3 they are read off
    # the kernel, beyond it scanned.
    wide = 0
    for trial in range(400):
        d, m = (2, rng.randint(5, 8)) if trial % 2 else (3, rng.randint(6, 7))
        pencil = []
        while len(pencil) < m:
            if pencil and rng.random() < 0.25:
                pencil.append(tuple(rng.choice((1, -2, 3)) * c for c in rng.choice(pencil)))
            else:
                pencil.append(tuple(rng.randint(-3, 3) for _ in range(d)))
        others = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        vecs = pencil + others
        order = rng.sample(range(len(vecs)), len(vecs))
        vecs = [vecs[i] for i in order]
        among = sorted(order.index(i) for i in range(m))
        mask = sum(1 << i for i in among)
        chosen = [vecs[i] for i in among]
        expected = [(spread(supp), spread(plus)) for supp, plus in oracle.signed_circuits(chosen)]
        assert linalg.signed_circuits(vecs, mask) == expected, (vecs, among)
        c = m - oracle.rank([list(r) for r in zip(*chosen)])
        sides[c <= max(d, 3)] += 1
        wide += c > d
    assert wide >= 250, wide
    assert min(sides.values()) >= 300, sides


def _two_loop_general_position(arr):
    """The scan `is_general_position` replaced: min(d, n)-subsets by rank, then (d+1)-subsets by a solve."""
    d, n = arr.dimension, len(arr)
    normals = [h.normal for h in arr]
    k = min(d, n)
    for idx in combinations(range(n), k):
        if oracle.rank([normals[i] for i in idx]) < k:
            return GeneralPositionReport(False, True, witness=idx)
    for idx in combinations(range(n), d + 1):
        if oracle.solve_consistent([normals[i] for i in idx], [arr[i].offset for i in idx]) is not None:
            return GeneralPositionReport(True, False, witness=idx)
    return GeneralPositionReport(True, True)


def _degenerate(rng, d, n):
    """Hyperplanes with small coordinates: some through one point, some parallel or duplicate."""
    center = [rng.randint(-2, 2) for _ in range(d)]
    rows = []
    while len(rows) < n:
        r = rng.random()
        if r < 0.15 and rows:
            rows.append(rows[rng.randrange(len(rows))])  # duplicate
            continue
        if r < 0.3 and rows:
            a = rows[rng.randrange(len(rows))][0]  # parallel
        else:
            a = tuple(rng.randint(-2, 2) for _ in range(d))
            if not any(a):
                continue
        b = sum(x * c for x, c in zip(a, center)) if r < 0.6 else rng.randint(-3, 3)  # through the center
        rows.append((a, b))
    return Arrangement(d, tuple(hyperplane(a, b, rng.choice((1, 2, Fraction(1, 3)))) for a, b in rows))


def _general_position_cases():
    rng = random.Random("general-position")
    for d in (1, 2, 3, 4):
        for n in range(0, 9 - d):
            for _ in range(12):
                yield _degenerate(rng, d, n)
    for seed, d, n in ((0, 1, 6), (1, 2, 9), (2, 3, 7), (3, 4, 6)):
        arr = generate_instance(seed, d, n, ("generic", "weighted")[seed % 2])
        yield arr
        yield arr.with_hyperplane(arr[n // 2])  # a duplicate
        p = tuple(Fraction(rng.randint(-9, 9), 7) for _ in range(d))
        through_p = tuple(hyperplane(h.normal, sum(a * c for a, c in zip(h.normal, p))) for h in arr[:2])
        yield Arrangement(d, arr.hyperplanes + through_p)  # parallel to two of them, through one point


def test_general_position_matches_two_loop_scan():
    outcomes = set()
    for arr in _general_position_cases():
        expected = _two_loop_general_position(arr)
        assert is_general_position(arr) == expected, arr
        outcomes.add((expected.normals_independent, expected.no_excess_incidence, len(arr) < arr.dimension))
    # every report, at n >= d and at n < d
    both = {(True, True), (True, False), (False, True)}
    assert outcomes == {(*report, False) for report in both} | {(True, True, True), (False, True, True)}



def test_integer_subset_vertices_match_fraction_solve():
    # each d-subset's vertex, as an integer point in lowest terms, is the oracle's Fraction solution
    kinds = set()
    for arr in _general_position_cases():
        for subset, vertex in cells.subset_vertices(arr):
            expected = oracle.solve([arr[i].normal for i in subset], [arr[i].offset for i in subset])
            kinds.add(expected is None)
            if expected is None:
                assert vertex is None, (arr, subset)
                continue
            nums, den = vertex
            assert type(den) is int and den > 0 and all(type(v) is int for v in nums), vertex
            assert math.gcd(den, *nums) == 1, vertex
            assert tuple(Fraction(v, den) for v in nums) == expected, (arr, subset)
    assert kinds == {True, False}

# sha256 of `dump_json(generate_instance(seed, d, n, profile))`, computed before the one-pass check.
INSTANCE_DIGESTS = {
    (0, 1, 0, 'generic'): "eac479e26863bca6c21db1c167cccbbdf9e3f1b1cda6d02deb726357d512e6aa",
    (0, 1, 0, 'weighted'): "eac479e26863bca6c21db1c167cccbbdf9e3f1b1cda6d02deb726357d512e6aa",
    (0, 1, 1, 'generic'): "c2b5c6c79b07d1268eb49b7ff5d985a43f30b1c0628b417d7412ed77d5d870d8",
    (0, 1, 1, 'weighted'): "ce281666ad880a01ae38ebb47734d644ec962ea56712b67ad6b72da805e8b391",
    (0, 1, 9, 'generic'): "3341ff3f1854d2754ffc0e684fd12a201f77310b1aeeec165758cfca8ceaee89",
    (0, 1, 9, 'weighted'): "2cefff7e035c1a2ea5197b4cdf1709a624ca377f8a5786c3d5882eced8b4dd80",
    (0, 2, 2, 'generic'): "f2737673df0327c41636bd95619157340a8e7b01fa4c0f1ceaddc630f8c78b94",
    (0, 2, 2, 'weighted'): "8825a79193c3ca7328b5eb94122890a16bad1e3375a62ab2f448f2b3ade55e1f",
    (0, 2, 3, 'generic'): "87c3f50c635ee811a399ea52a0314a5e9776bc91f0571a1e28f5b77e94a2f151",
    (0, 2, 3, 'weighted'): "e91758d6053bc65061c91f0f67e718a1539ff2b710384b1dc57347a0a48e08cb",
    (0, 2, 12, 'generic'): "951222c155317c2f73620d86d6a420f429d7bed33737b71c450aef89e11f2cef",
    (0, 2, 12, 'weighted'): "c970ec0a0e9f662f151bf9cafad38c70083692ad8cda5f6037fc7ce94a6bebe5",
    (0, 3, 3, 'generic'): "754d1cfc3957ca1f218be83586689096d587f5ea81fd1e2b4bd4f893e18c55b5",
    (0, 3, 3, 'weighted'): "871daa97e001c2a26fda7688b2877690446564c32cacf6d0ba44fb604bb6b3f7",
    (0, 3, 4, 'generic'): "009f47c4121bd7981029c318dcb4fd7025e0f5a24979f7af7d4a5c2f66a05a3d",
    (0, 3, 4, 'weighted'): "bbec8148637aed3e3987153ad6508ab35c745e9b9c33848d511e6b18924163a5",
    (0, 3, 10, 'generic'): "d79b2201b28bb91c66a249a1a4dc949e8bea4ef04257b10377a72d9b580c41ef",
    (0, 3, 10, 'weighted'): "c6cfe1ba651869ce8b7352414fdb11f281da3c7c6473faafe1cdc35d8e3f8ba1",
    (0, 4, 7, 'generic'): "e315066e0f32059978d5f3ba229288ad02f8943384d03202533367881ac0f0ce",
    (0, 4, 7, 'weighted'): "b360d4aff7d48b07bbd28941d3d95ae6ddcd82eb266f8d5b9003f61dfcc3ccec",
    (5, 1, 0, 'generic'): "eac479e26863bca6c21db1c167cccbbdf9e3f1b1cda6d02deb726357d512e6aa",
    (5, 1, 0, 'weighted'): "eac479e26863bca6c21db1c167cccbbdf9e3f1b1cda6d02deb726357d512e6aa",
    (5, 1, 1, 'generic'): "f46fa46276bbe6142479d4ae5486db5d0ac641d0d2693629166a1f9486a9d12d",
    (5, 1, 1, 'weighted'): "2d7c44d22f4bc167208e102a8f3c801f9a443bedf0352519975973589dc79b70",
    (5, 1, 9, 'generic'): "efdaa8852593600c1e90b73d339880618b2988941a7816a77d25f6f63f5a57d5",
    (5, 1, 9, 'weighted'): "313d71a87b2cfd461fa8b0458f452a8f9007fcfbf0625b788a22b9cc3578b48a",
    (5, 2, 2, 'generic'): "c6578ffa1e118b489b416ef2d71744fb1fd49f8fa6eb4fa924fa56d3c851b8c7",
    (5, 2, 2, 'weighted'): "3491e4fc72e688c72908c737780c941b8244755c80e50927b594a423f799831c",
    (5, 2, 3, 'generic'): "e52bc194454f896cd717f2d5fcb4354c6db739187b713ab58345b6c3ec215240",
    (5, 2, 3, 'weighted'): "723e632535c8ab7272b618f800432280874eb060f5a34d5bca3f4f24833743a3",
    (5, 2, 12, 'generic'): "0b20acd0dd0473227a9d6eba3461d6cebfa7d8b04f5ad757381fa4c282b9f8f6",
    (5, 2, 12, 'weighted'): "f36c2d504982f774e14e317ceaa340aeb75b5e682ff4e9e0ceca6622cb610f73",
    (5, 3, 3, 'generic'): "ba6da4d7716ba682ba821b2d6d4eca094fcdb3616a269efaca5841bfe1a86a36",
    (5, 3, 3, 'weighted'): "ca32a707608c1c364612efd82911d747530644d495d479c53efe901053bb67c6",
    (5, 3, 4, 'generic'): "fa2b46ed741066dd240c0a5f29d3b870f9623bd4fa06c29c6ab957d5e122cc9e",
    (5, 3, 4, 'weighted'): "6d5eb88206dd2da6dd1890af638fcb86d7d94eac774817d3fa7d1dd991cd267b",
    (5, 3, 10, 'generic'): "3fd7f43ad0608224fc467736af1f70f6fd6f44a566e6d5f2c4bc731fc35f5648",
    (5, 3, 10, 'weighted'): "6dd9d6a03d9576106a81634267421f702d01fbc31efb1e87c715a18bd40f3c06",
    (5, 4, 7, 'generic'): "c1e5766a33809b32e3d1ee3d262c7727d3da99678009fcd1090b1a46b06dcf44",
    (5, 4, 7, 'weighted'): "1e8dca712e4850f8cb76109cdecf06b07f91c7070c8e700b2b0fe5d97b6727e5",
    (0, 2, 30, 'generic'): "77f6c834eaf346fc78ee7e28d513aa073a98342622c433cc471a0feaaf7f14df",
    (1, 3, 15, 'weighted'): "657f34444a5f29eb07dc39845d7f5bbc2342bb1f1ff6eff315483a7b869485e7",
}


def test_generated_instances_are_pinned():
    for case, digest in INSTANCE_DIGESTS.items():
        assert hashlib.sha256(dump_json(generate_instance(*case)).encode()).hexdigest() == digest, case

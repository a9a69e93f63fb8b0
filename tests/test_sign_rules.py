"""The circuit sign rules behind HTvD, HED and RD', against geometric oracles.

HTvD and HED read hull membership of q in the dual points of a set S from
the residual signs of q and the signed circuits of S's normals; RD' reads its
perturbed cells from the circuits of the incident normals. These tests draw
seeded degenerate arrangements (concurrent, parallel and scaled duplicate
hyperplanes, zero weights, queries at vertices and concurrency points) and
check each rule against an independent decision: exact hull tests and the
dual point-set measures for HTvD and HED, and exact LPs for RD'.
"""

import random
from fractions import Fraction
from itertools import combinations

import lp_oracle

from arrdepth import linalg, linprog
from arrdepth.depth import _new_perturbed_cells, open_regression_depth
from arrdepth.enclosing import hyperplane_enclosing_depth, point_enclosing_depth, verify_enclosure
from arrdepth.geometry import Arrangement, evaluate, hyperplane
from arrdepth.tverberg import coverable_pieces, hyperplane_tverberg_depth, tverberg_point_depth


def _normal(rng, d, lo, hi):
    while True:
        a = tuple(rng.randint(lo, hi) for _ in range(d))
        if any(a):
            return a


def degenerate_case(seed, d, n):
    """(arrangement, queries): hyperplanes through a common center, parallels,
    scaled duplicates and zero weights; queries at the center, at a vertex
    (when there is one) and on one hyperplane."""
    rng = random.Random(f"sign-rules:{seed}:{d}:{n}")
    center = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
    rows = []
    while len(rows) < n:
        r = rng.random()
        if r < 0.4:
            a = _normal(rng, d, -3, 3)
            b = linalg.dot(a, center)
        elif r < 0.6 and rows:
            a0, b0 = rows[rng.randrange(len(rows))]
            k = rng.choice((1, 2, -3))
            a = tuple(k * c for c in a0)
            b = k * b0 + rng.choice((0, 0, 1, -2))  # 0: a duplicate, written scaled
        else:
            a = _normal(rng, d, -4, 4)
            b = Fraction(rng.randint(-5, 5))
        rows.append((a, b))
    weights = [rng.choice((0, 1, 1, 1, 2)) for _ in rows]
    arr = Arrangement(d, tuple(hyperplane(a, b, w) for (a, b), w in zip(rows, weights)))
    vertices = sorted(
        {
            v
            for combo in combinations(range(n), d)
            if (v := linalg.solve([arr[i].normal for i in combo], [arr[i].offset for i in combo])) is not None
        }
    )
    queries = [center]
    if vertices:
        queries.append(vertices[rng.randrange(len(vertices))])
    h = arr[rng.randrange(n)]
    j = next(k for k, c in enumerate(h.normal) if c != 0)
    on_h = [Fraction(rng.randint(-3, 3), 2) for _ in range(d)]
    on_h[j] = 0
    on_h[j] = (h.offset - linalg.dot(h.normal, on_h)) / h.normal[j]
    queries.append(tuple(on_h))
    return arr, queries


def _cases():
    for d in (2, 3):
        for seed in range(150):
            yield degenerate_case(seed, d, 5 + seed % 3)


def test_signed_circuits_match_definition():
    """Supports are the minimal dependent subsets; signs are the kernel's."""
    rng = random.Random("sign-rules:circuits")
    for trial in range(150):
        d = rng.choice((2, 3))
        vecs = []
        for _ in range(rng.randint(1, 7)):
            r = rng.random()
            if r < 0.1:
                vecs.append((0,) * d)
            elif r < 0.35 and vecs:
                vecs.append(tuple(Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2))) * c for c in rng.choice(vecs)))
            elif r < 0.5 and len(vecs) >= 2:
                u, v = rng.sample(vecs, 2)
                vecs.append(tuple(rng.randint(-2, 2) * a + rng.randint(-2, 2) * b for a, b in zip(u, v)))
            else:
                vecs.append(tuple(rng.randint(-3, 3) for _ in range(d)))
        expected = []
        for k in range(1, d + 2):
            for subset in combinations(range(len(vecs)), k):
                cols = [vecs[i] for i in subset]
                rows = [[c[r] for c in cols] for r in range(d)]
                if linalg.rank(rows) != k - 1:
                    continue
                without_one = ([[c[r] for c in cols[:j] + cols[j + 1 :]] for r in range(d)] for j in range(k))
                if any(linalg.rank(m) < k - 1 for m in without_one):
                    continue  # a proper subset is dependent
                x = linalg.kernel_vector(rows, ncols=k)
                supp = sum(1 << i for i in subset)
                plus = sum(1 << i for i, v in zip(subset, x) if v > 0)
                expected += [(supp, plus), (supp, supp ^ plus)]
        assert linalg.signed_circuits(vecs) == expected, (trial, vecs)


def test_degenerate_duality_and_sign_rule():
    """HTvD = TvD and HED = ED on degenerate inputs, and the piece rule is the hull test."""
    arrangements = 0
    for arr, qs in _cases():
        arrangements += 1
        d, n = arr.dimension, len(arr)
        for q in qs:
            duals = evaluate(arr, q).dual_points
            pieces = coverable_pieces(arr, q)
            for size in range(1, d + 2):
                for subset in combinations(range(n), size):
                    mask = sum(1 << i for i in subset)
                    by_signs = any(p & mask == p for p in pieces)
                    assert by_signs == linprog.hull_membership_small([duals[i] for i in subset], q), (arr, q, subset)
            htvd = hyperplane_tverberg_depth(arr, q)
            assert htvd == tverberg_point_depth(duals, q), (arr, q)
            for strict in (False, True):
                hed, cert = hyperplane_enclosing_depth(arr, q, strict=strict)
                assert hed == point_enclosing_depth(duals, q, strict=strict), (arr, q, strict)
                assert hed <= htvd
                assert (cert is None) == (hed == 0)
                if cert is not None:
                    assert verify_enclosure(arr, cert, strict=strict), (arr, q, strict, cert)
    assert arrangements >= 300


def _lambda_polytope(normals, sigma):
    d = len(normals[0])
    m = len(normals)
    A = [[Fraction(sigma[j]) * normals[j][k] for j in range(m)] for k in range(d)]
    A.append([Fraction(1)] * m)
    b = [Fraction(0)] * d + [Fraction(1)]
    return A, b


def _optimize_lambda(A, b, j, fixed, sense):
    keep = [k for k in range(len(A[0])) if k not in fixed]
    if j not in keep:
        return lp_oracle.OPTIMAL, Fraction(0)
    colmap = {k: i for i, k in enumerate(keep)}
    A2 = [[row[k] for k in keep] for row in A]
    c = [Fraction(0)] * len(keep)
    c[colmap[j]] = Fraction(-1) if sense == "max" else Fraction(1)
    status, _, value = lp_oracle.simplex(A2, b, c)
    if status != lp_oracle.OPTIMAL:
        return status, None
    return status, (-value if sense == "max" else value)


def _perturbed_cell_feasible(normals, indices, sigma):
    """Does {sigma_j (a_j . y - eps^(i_j + 1)) > 0} have a solution for every
    small enough eps > 0?

    Through the Motzkin transposition dual: the system is infeasible iff some
    lambda >= 0 with sum lambda_j sigma_j a_j = 0 has a lexicographically
    nonnegative offset combination. Its lex sign is resolved stage by stage
    with exact LPs, in order of increasing hyperplane index.
    """
    A, b = _lambda_polytope(normals, sigma)
    fixed = set()
    for j in sorted(range(len(indices)), key=lambda j: indices[j]):
        if sigma[j] > 0:
            status, val = _optimize_lambda(A, b, j, fixed, "max")
            if status != lp_oracle.OPTIMAL:
                return True  # dual polytope empty: no certificate, cell exists
            if val > 0:
                return False
        else:
            status, val = _optimize_lambda(A, b, j, fixed, "min")
            if status != lp_oracle.OPTIMAL:
                return True
            if val > 0:
                return True  # all duals lex-negative: cell exists
        fixed.add(j)
    return False  # zero objective: degenerate dual certificate


def _central_cell_feasible(normals, sigma):
    rows = [linalg.vscale(s, a) for s, a in zip(sigma, normals)]
    return lp_oracle.cone_witness(rows) is not None


def test_open_depth_cell_rule_matches_lp():
    """For every sign pattern of every degenerate query, the circuit rule for
    a new perturbed cell agrees with the LP decision it replaced."""
    patterns = degenerate = 0
    for arr, qs in _cases():
        for q in qs:
            on_idx = [i for i, h in enumerate(arr) if h.residual(q) == 0]
            normals = [arr[i].normal for i in on_idx]
            circuits = linalg.signed_circuits(normals)
            m = len(on_idx)
            # locally generic iff the incident normals are independent
            assert (not circuits) == (m == 0 or linalg.rank(normals) == m)

            def spread(bits):  # a bitmask over the incident hyperplanes, in the arrangement's bits
                return sum(1 << i for j, i in enumerate(on_idx) if bits >> j & 1)

            # the incident normals' circuits are the arrangement's with support among them, in order
            zero = spread((1 << m) - 1)
            incident = [(supp, plus) for supp, plus in arr.circuits if supp & zero == supp]
            assert [(spread(supp), spread(plus)) for supp, plus in circuits] == incident
            assert linalg.signed_circuits([a for a, _ in arr.int_rows], zero) == incident
            rule = open_regression_depth(arr, q)[1].rule
            if not circuits:
                assert rule == "open"
                continue
            degenerate += 1
            expected = []
            for bits in range(2**m):
                sigma = tuple(1 if bits >> j & 1 else -1 for j in range(m))
                if not _central_cell_feasible(normals, sigma) and _perturbed_cell_feasible(normals, on_idx, sigma):
                    expected.append(bits)
            patterns += 2**m
            assert list(_new_perturbed_cells(incident, zero)) == [spread(bits) for bits in expected], (arr, q)
            assert rule == ("open-perturbed" if expected else "open")
    assert degenerate >= 300 and patterns >= 3000

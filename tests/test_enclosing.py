import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from test_kernel import _arrangement, _unpruned_search, _valid_sets
from test_sign_rules import degenerate_case

from arrdepth import depth, enclosing, linalg
from arrdepth.depth import deepest_point, regression_depth
from arrdepth.enclosing import (
    EnclosureCertificate,
    _refuted,
    hyperplane_enclosing_depth,
    point_enclosing_depth,
    verify_enclosure,
)
from arrdepth.errors import CertificateError, ExactBudgetExceeded
from arrdepth.geometry import Arrangement, evaluate, generate_instance
from arrdepth.tverberg import _packing_size, coverable_pieces


Q_IN = (Fraction(1, 4), Fraction(1, 4))


def test_verify_singletons_inside(tri):
    cert = EnclosureCertificate(1, ((0,), (1,), (2,)), Q_IN)
    assert verify_enclosure(tri, cert)


def test_verify_fails_outside(tri):
    cert = EnclosureCertificate(1, ((0,), (1,), (2,)), (9, 9))
    assert not verify_enclosure(tri, cert)


def test_verify_malformed(tri):
    with pytest.raises(CertificateError):
        verify_enclosure(tri, EnclosureCertificate(1, ((0,), (0,), (2,)), Q_IN))
    with pytest.raises(CertificateError):
        verify_enclosure(tri, EnclosureCertificate(2, ((0,), (1,), (2,)), Q_IN))
    with pytest.raises(CertificateError):
        verify_enclosure(tri, EnclosureCertificate(1, ((0,), (1,)), Q_IN))


def test_fig1_mixed_grouping_fails(fig1_union):
    # any pairing of the six lines into three 2-groups has a failing transversal
    cert = EnclosureCertificate(2, ((0, 3), (1, 4), (2, 5)), (0, 0))
    assert not verify_enclosure(fig1_union, cert)


def test_hed_triangle_interior(tri):
    k, cert = hyperplane_enclosing_depth(tri, Q_IN)
    assert k == 1
    assert cert is not None and verify_enclosure(tri, cert)


def test_hed_unbounded_zero(tri):
    assert hyperplane_enclosing_depth(tri, (9, 9)) == (0, None)


def test_hed_fig1_union_still_one(fig1_union, fig1_parts):
    a1, a2 = fig1_parts
    assert hyperplane_enclosing_depth(a1, (0, 0))[0] == 1
    assert hyperplane_enclosing_depth(a2, (0, 0))[0] == 1
    assert hyperplane_enclosing_depth(fig1_union, (0, 0))[0] == 1


def test_hed_can_reach_two():
    # two nested triangles that do compose: rotate the outer one so pairs align
    from arrdepth.geometry import arrangement

    arr = arrangement(
        2,
        [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((2, 1), 5), ((-1, 2), 5), ((-1, -2), 5)],
    )
    k, cert = hyperplane_enclosing_depth(arr, (0, 0))
    assert k == 2
    assert verify_enclosure(arr, cert)


def test_hed_budget():
    arr = generate_instance(6, 2, 13, "generic")
    with pytest.raises(ExactBudgetExceeded):
        hyperplane_enclosing_depth(arr, (0, 0), exact_threshold=12)


def test_point_enclosing_simplex():
    pts = [(2, 0), (0, 2), (-2, -2)]
    assert point_enclosing_depth(pts, (0, 0)) == 1
    assert point_enclosing_depth(pts, (9, 9)) == 0


def test_enclosing_duality():
    import random

    rng = random.Random(2)
    for trial in range(8):
        arr = generate_instance(200 + trial, 2, rng.randint(4, 9), "generic")
        q = (Fraction(rng.randint(-10, 10), 3), Fraction(rng.randint(-10, 10), 4))
        ev = evaluate(arr, q)
        primal = hyperplane_enclosing_depth(arr, q)[0]
        dual = point_enclosing_depth(ev.dual_points, q)
        assert primal == dual


def test_strict_interior_flag(tri):
    # q on an edge of the dual simplex: non-strict containment only
    k_loose, _ = hyperplane_enclosing_depth(tri, (Fraction(1, 2), 0))
    k_strict, _ = hyperplane_enclosing_depth(tri, (Fraction(1, 2), 0), strict=True)
    assert k_loose >= k_strict


def _certificates():
    """HED, plain and strict, at d = 2 and 3: degenerate cases, and generated instances at the deepest point and a vertex."""
    for seed in range(12):
        for d, n in ((2, 9), (2, 12), (3, 8)):
            arr, qs = degenerate_case(seed, d, n)
            generated = generate_instance(seed, d, n, ("generic", "weighted")[seed % 2])
            rows = [generated[i] for i in range(d)]
            vertex = linalg.solve([h.normal for h in rows], [h.offset for h in rows])
            for arr, qs in ((arr, qs), (generated, [deepest_point(generated)[0], vertex])):
                for q in qs:
                    for strict in (False, True):
                        k, cert = hyperplane_enclosing_depth(arr, q, strict=strict)
                        yield f"{d} {seed} {q} {strict} {k} {cert.groups if cert else None}"


def test_hed_certificates_are_pinned():
    """Which groups HED returns, not only its level, is fixed: the certificates hash to a committed digest.

    A change to rule (B), (A) or the padding at d = 2, or to the search at
    d = 3, that still finds valid certificates moves this digest.
    """
    lines = list(_certificates())
    assert len(lines) == 360
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f802aab37158146ef67d851a92727056c9444a4168dc66090197fb3c4941279d"


def _refutation_cases():
    """(arrangement, queries) at d = 1 and 3: 320 generic, weighted, zero-weight and degenerate arrangements.

    The degenerate ones hold concurrent, parallel and scaled duplicate
    hyperplanes; the queries are a deepest point, a center or vertex, the
    coordinate-wise median of the vertices (where levels above HED are
    often searched), the same moved by a small step, and a random point.
    """
    rng = random.Random("enclosing:refutation")
    for trial in range(320):
        d = (1, 3)[trial % 2]
        n = rng.randint(d + 2, 10 if d == 1 else 9)
        kind = ("generic", "weighted", "zero", "degenerate")[trial // 2 % 4]
        if kind in ("generic", "weighted"):
            arr = generate_instance(trial, d, n, kind)
            near = linalg.solve(*_rows(arr, range(d)))
        else:
            arr, near = _arrangement(rng, d, n, "zero" if kind == "zero" else "unit")
        verts = [v for c in combinations(range(n), d) if (v := linalg.solve(*_rows(arr, c))) is not None]
        median = tuple(sorted(v[j] for v in verts)[len(verts) // 2] for j in range(d))
        moved = tuple(c + Fraction(1, 97 + j) for j, c in enumerate(median))
        far = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(d))
        yield arr, [deepest_point(arr)[0], near, median, moved, far]


def _rows(arr, indices):
    return [arr[i].normal for i in indices], [arr[i].offset for i in indices]


def _fresh(arr):
    return Arrangement(arr.dimension, arr.hyperplanes)


def _hits(arr, q):
    """The distinct closed hit sets of the direction cells at q, smallest first."""
    pos, zero = arr.sign_masks(q)
    return sorted(set(depth._cell_masks(arr, pos, ((1 << len(arr)) - 1) & ~(pos | zero), "closed")), key=int.bit_count)


def test_refuted_levels_have_no_enclosure():
    """Every level k >= 2 the hit sets refute has no k-enclosure under the unpruned search.

    Also the lemma's easy half: every hit set holds a group of each
    certificate HED returns.
    """
    refuted = {1: 0, 3: 0}
    for arr, qs in _refutation_cases():
        n, d = len(arr), arr.dimension
        for q in qs:
            hits = _hits(arr, q)
            valid = _valid_sets(n, d, coverable_pieces(arr, q))
            for k in range(2, n // (d + 1) + 1):
                if _refuted(hits, d, k):
                    refuted[d] += 1
                    assert _unpruned_search(n, d, valid, k)[0] < k, (arr, q, k)
            _, cert = hyperplane_enclosing_depth(arr, q)
            if cert is not None:
                masks = [sum(1 << h for h in g) for g in cert.groups]
                assert all(any(g & hit == g for g in masks) for hit in hits), (arr, q)
    assert min(refuted.values()) >= 50, refuted


def test_search_never_receives_a_refuted_level(monkeypatch):
    """After RD at q, `_search_max_k` starts at the highest level the hit sets leave, and finds the same certificate.

    The certificate is the one the search finds from HED's start level
    min(n // (d+1), packing size) with no refutation, which is where HED
    with no RD before it, and strict HED, start.
    """
    search = enclosing._search_max_k
    received = []

    def spy(n, d, pieces, k_cap, *args, **kwargs):
        received.append(k_cap)
        return search(n, d, pieces, k_cap, *args, **kwargs)

    monkeypatch.setattr(enclosing, "_search_max_k", spy)
    lowered = 0
    for arr, qs in _refutation_cases():
        n, d = len(arr), arr.dimension
        for q in qs:
            start = min(n // (d + 1), _packing_size(_fresh(arr), q))
            expected = search(n, d, coverable_pieces(_fresh(arr), q), start)
            cold = _fresh(arr)
            received.clear()
            k, cert = hyperplane_enclosing_depth(cold, q)
            assert received == [start] and (k, cert.groups if cert else None) == expected, (arr, q)
            warm = _fresh(arr)
            regression_depth(warm, q)
            received.clear()
            k, cert = hyperplane_enclosing_depth(warm, q)
            assert len(received) == 1 and received[0] <= start
            assert received[0] < 2 or not _refuted(_hits(arr, q), d, received[0])
            assert (k, cert.groups if cert else None) == expected, (arr, q)
            lowered += received[0] < start
            received.clear()
            hyperplane_enclosing_depth(warm, q, strict=True)
            assert received == [start]  # strict HED refutes nothing
    assert lowered >= 20, lowered


def test_hed_reads_the_hit_sets_of_rd(monkeypatch):
    """HED builds no cell masks: after RD at q it reads RD's, and with no RD before it, it reads none."""
    passes = []
    build = depth._cell_masks

    def counted(*args):
        passes.append(args[3])
        return build(*args)

    monkeypatch.setattr(depth, "_cell_masks", counted)
    for arr, qs in _refutation_cases():
        for q in qs:
            warm = _fresh(arr)
            passes.clear()
            regression_depth(warm, q)
            hyperplane_enclosing_depth(warm, q)
            assert passes == ["closed"]  # RD's one pass
            passes.clear()
            hyperplane_enclosing_depth(_fresh(arr), q)
            assert passes == []

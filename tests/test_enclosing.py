import hashlib
from fractions import Fraction

import pytest
from test_sign_rules import degenerate_case

from arrdepth import linalg
from arrdepth.depth import deepest_point
from arrdepth.enclosing import (
    EnclosureCertificate,
    hyperplane_enclosing_depth,
    point_enclosing_depth,
    verify_enclosure,
)
from arrdepth.errors import CertificateError, ExactBudgetExceeded
from arrdepth.geometry import evaluate, generate_instance


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

import random
from fractions import Fraction

import pytest
from partition_oracle import exhaustive_tverberg

from arrdepth.depth import regression_depth
from arrdepth.errors import ExactBudgetExceeded, PartitionError
from arrdepth.geometry import Arrangement, arrangement, evaluate, generate_instance, hyperplane
from arrdepth.tverberg import (
    hyperplane_tverberg_depth,
    solve_tverberg,
    tverberg_point_depth,
    verify_partition,
)


def test_solve_r1_uses_incidence():
    arr = generate_instance(9, 2, 3, "generic")
    cert = solve_tverberg(arr, 1)
    assert cert.verified
    assert regression_depth(arr, cert.q)[0] >= 1


def test_solve_small_configs_verified():
    for seed, d, r, n in [(0, 2, 2, 4), (1, 2, 3, 7), (2, 3, 2, 5)]:
        arr = generate_instance(seed, d, n, "generic")
        cert = solve_tverberg(arr, r, seed=seed)
        assert cert.verified and len(cert.partition) == r
        for part, (val, _) in zip(cert.partition, cert.part_depths):
            assert val >= 1
            assert regression_depth(arr.subset(part), cert.q)[0] == val


def test_solve_absorbs_extra_hyperplanes():
    # n > r(d+1): the solver works on a core sub-arrangement and deals the
    # rest onto the parts, which cannot lower their depth
    arr = generate_instance(8, 2, 8, "generic")
    cert = solve_tverberg(arr, 2, seed=3)
    assert cert.verified
    assert sorted(i for p in cert.partition for i in p) == list(range(8))


def test_solve_precondition():
    # n = 3 < (r-1)(d+1)+1 = 4: the bound is sufficient, not necessary, and a
    # partition exists here; the scan finds it exactly as the oracle does
    arr = generate_instance(3, 2, 3, "generic")
    assert exhaustive_tverberg(arr, 2) is not None
    cert = solve_tverberg(arr, 2)
    assert cert is not None and verify_partition(arr, cert.partition, cert.q) is not None
    with pytest.raises(PartitionError):
        solve_tverberg(arr, 0)


def test_exhaustive_matches_solver():
    arr = generate_instance(21, 2, 4, "generic")
    cert = exhaustive_tverberg(arr, 2)
    assert cert is not None
    cert2 = solve_tverberg(arr, 2, seed=0)
    assert cert2 is not None  # both find certificates on guaranteed instances


def test_exhaustive_3d():
    arr = generate_instance(2, 3, 5, "generic")
    cert = exhaustive_tverberg(arr, 2)
    assert cert is not None
    for part in cert.partition:
        assert regression_depth(arr.subset(part), cert.q)[0] >= 1


def test_exhaustive_all_singletons_none():
    arr = generate_instance(33, 2, 4, "generic")
    # r = n forces every part to be a single hyperplane: q would lie on all of them
    assert exhaustive_tverberg(arr, 4) is None
    assert solve_tverberg(arr, 4) is None


def _small_arrangement(rng, d, n):
    """Unit-weight hyperplanes with coordinates in [-2, 2]: parallel,
    concurrent and duplicate hyperplanes are common."""
    hs = []
    while len(hs) < n:
        normal = [rng.randint(-2, 2) for _ in range(d)]
        if any(normal):
            hs.append(hyperplane(normal, rng.randint(-2, 2)))
    return Arrangement(d, tuple(hs))


def test_solver_matches_partition_oracle():
    rng = random.Random("tverberg:oracle")
    arrs = [
        # all parallel: the normals have rank 1 < d, so faces are scanned
        arrangement(2, [((1, 1), b) for b in (-2, -1, 0, 1, 2)]),
        arrangement(3, [((1, 2, 0), b) for b in (-1, 0, 1, 2)]),
    ]
    for t in range(320):
        d = 4 if t % 40 == 0 else 2 + t % 2
        arrs.append(_small_arrangement(rng, d, rng.randint(1, 6 if d == 2 else 5)))
    found = missing = 0
    for arr in arrs:
        for r in range(1, len(arr) + 1):
            cert = solve_tverberg(arr, r)
            expected = exhaustive_tverberg(arr, r)
            assert (cert is None) == (expected is None), (arr, r)
            if cert is None:
                missing += 1
                continue
            found += 1
            assert len(cert.partition) == r
            assert sorted(i for p in cert.partition for i in p) == list(range(len(arr)))
            assert verify_partition(arr, cert.partition, cert.q) is not None
    assert found >= 500 and missing >= 200


def test_verify_partition_rejects_shallow(tri):
    assert verify_partition(tri, ((0,), (1,), (2,)), (Fraction(8), Fraction(9))) is None


def test_verify_partition_rejects_non_partitions(tri):
    origin = (0, 0)  # on lines 0 and 1: every part holding either has depth >= 1
    assert verify_partition(tri, ((0,), (1, 2)), origin) is not None
    for bad in (((0,), (0, 1, 2)), ((0, 1),), ((0,), (-1, 1)), ((0,), (1, 3)), ((0, 1, 2), ())):
        with pytest.raises(PartitionError):
            verify_partition(tri, bad, origin)


def test_htvd_triangle(tri):
    assert hyperplane_tverberg_depth(tri, (0, 0)) == 2
    assert hyperplane_tverberg_depth(tri, (9, 9)) == 0
    assert hyperplane_tverberg_depth(tri, (Fraction(1, 4), Fraction(1, 4))) == 1


def test_htvd_sandwich():
    import random

    rng = random.Random(1)
    for trial in range(12):
        arr = generate_instance(300 + trial, 2, rng.randint(3, 8), "generic")
        q = (Fraction(rng.randint(-10, 10), 3), Fraction(rng.randint(-10, 10), 3))
        rd, _ = regression_depth(arr, q)
        htvd = hyperplane_tverberg_depth(arr, q)
        assert htvd <= rd <= 2 * htvd or rd == 0


def test_htvd_budget():
    arr = generate_instance(5, 2, 13, "generic")
    with pytest.raises(ExactBudgetExceeded) as exc:
        hyperplane_tverberg_depth(arr, (0, 0), exact_threshold=12)
    assert exc.value.bound is not None


def test_tverberg_point_depth_dual():
    arr = generate_instance(17, 2, 6, "generic")
    q = (Fraction(1, 3), Fraction(-2, 5))
    ev = evaluate(arr, q)
    assert hyperplane_tverberg_depth(arr, q) == tverberg_point_depth(ev.dual_points, q)


def test_tverberg_point_depth_simplex():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert tverberg_point_depth(pts, (1, 1)) == 2  # two diagonals
    assert tverberg_point_depth(pts, (9, 9)) == 0


def test_htvd_past_threshold_returns_greedy_when_it_meets_its_bound():
    # Past the threshold at d != 2 no exact packing runs: a greedy packing that meets its upper
    # bound is the value, and otherwise its size is the raised lower bound.
    from arrdepth.depth import deepest_point

    exact = bounded = 0
    for seed, d, n in [(0, 1, 13), (1, 1, 14), (0, 3, 13), (1, 3, 14), (2, 3, 15)]:
        q = deepest_point(generate_instance(seed, d, n))[0]
        truth = hyperplane_tverberg_depth(generate_instance(seed, d, n), q, exact_threshold=n)
        try:
            value = hyperplane_tverberg_depth(generate_instance(seed, d, n), q)
        except ExactBudgetExceeded as exc:
            assert exc.bound <= truth, (seed, d, n)
            bounded += 1
        else:
            assert value == truth, (seed, d, n)
            exact += 1
    assert exact >= 1 and bounded >= 1

import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from arrdepth.errors import DimensionError, GenerationError, InvalidHyperplane
from arrdepth.geometry import (
    Arrangement,
    arrangement,
    canonicalize,
    dump_json,
    evaluate,
    generate_instance,
    hyperplane,
    is_general_position,
    load_json,
)
from arrdepth import linalg


def test_canonicalize_common_factor():
    h = hyperplane((2, 0), 4)
    assert h.normal == (1, 0) and h.offset == 2


def test_canonicalize_sign():
    h = hyperplane((-1, 0), -2)
    assert h.normal == (1, 0) and h.offset == 2


def test_canonicalize_zero_normal_rejected():
    with pytest.raises(InvalidHyperplane):
        hyperplane((0, 0), 1)


def test_canonicalize_idempotent():
    h = hyperplane((Fraction(2, 3), Fraction(-4, 5)), Fraction(7, 15))
    assert canonicalize(h) == h


def test_canonical_equality_across_scalings():
    assert hyperplane((2, 4), 6) == hyperplane((-1, -2), -3)
    assert hash(hyperplane((2, 4), 6)) == hash(hyperplane((1, 2), 3))


def test_negative_weight_rejected():
    with pytest.raises(InvalidHyperplane):
        hyperplane((1, 0), 0, -1)


def test_evaluate_axis_aligned():
    arr = arrangement(2, [((1, 0), 1)])
    ev = evaluate(arr, (0, 0))
    assert ev.residuals == (-1,)
    assert ev.dual_points == ((1, 0),)
    assert not ev.on_set


def test_evaluate_point_on_hyperplane():
    arr = arrangement(2, [((1, 0), 1)])
    ev = evaluate(arr, (1, 5))
    assert ev.residuals == (0,)
    assert ev.dual_points[0] == (1, 5)
    assert ev.on_set == {0}


def test_evaluate_projection():
    arr = arrangement(2, [((1, 1), 1)])
    ev = evaluate(arr, (0, 0))
    assert ev.residuals == (-1,)
    assert ev.dual_points[0] == (Fraction(1, 2), Fraction(1, 2))
    # p(h) lies on h and q - p(h) is parallel to the normal
    h = arr[0]
    assert linalg.dot(h.normal, ev.dual_points[0]) == h.offset


def test_evaluate_dimension_mismatch():
    arr = arrangement(2, [((1, 0), 1)])
    with pytest.raises(DimensionError):
        evaluate(arr, (1, 2, 3))


def test_evaluate_permutation_equivariant(tri):
    q = (Fraction(1, 3), Fraction(2, 7))
    ev = evaluate(tri, q)
    perm = [2, 0, 1]
    shuffled = Arrangement(2, tuple(tri[i] for i in perm))
    ev2 = evaluate(shuffled, q)
    assert ev2.residuals == tuple(ev.residuals[i] for i in perm)
    assert ev2.dual_points == tuple(ev.dual_points[i] for i in perm)


def test_general_position_triangle(tri):
    assert is_general_position(tri)


def test_general_position_concurrent():
    arr = arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    rep = is_general_position(arr)
    assert not rep
    assert not rep.no_excess_incidence and rep.normals_independent


def test_general_position_parallel_flagged():
    arr = arrangement(2, [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)])
    rep = is_general_position(arr)
    assert not rep
    assert not rep.normals_independent


def test_generate_deterministic():
    a = generate_instance(1, 2, 3, "generic")
    b = generate_instance(1, 2, 3, "generic")
    assert a == b


def test_generate_seed_sensitivity():
    assert generate_instance(1, 2, 3, "generic") != generate_instance(2, 2, 3, "generic")


def test_generate_general_position():
    arr = generate_instance(7, 3, 8, "generic")
    assert is_general_position(arr)


def test_generate_weighted_profile():
    arr = generate_instance(3, 2, 6, "weighted")
    assert is_general_position(arr)
    assert any(h.weight != 1 for h in arr)


def test_generate_bad_profile():
    with pytest.raises(GenerationError):
        generate_instance(0, 2, 3, "bogus")


def test_json_round_trip():
    arr = generate_instance(5, 2, 4, "weighted")
    again = load_json(dump_json(arr))
    assert again == arr


def test_json_rational_strings():
    arr = arrangement(2, [((1, 2), Fraction(3, 7), Fraction(5, 2))])
    text = dump_json(arr)
    # canonicalization scales (normal, offset) to coprime integers: (7, 14), 3
    assert '"7"' in text and '"14"' in text and '"5/2"' in text
    assert load_json(text) == arr


def test_total_weight_exact():
    arr = arrangement(2, [((1, 0), 0, Fraction(1, 3)), ((0, 1), 0, Fraction(1, 6))])
    assert arr.total_weight == Fraction(1, 2)


def _integer_vector_by_fractions(v):
    """The lcm/gcd scaling with every entry made a Fraction first, which `linalg.integer_vector` no longer does."""
    v = [Fraction(c) for c in v]
    scale = reduce(math.lcm, (c.denominator for c in v), 1)
    ints = [c.numerator * (scale // c.denominator) for c in v]
    g = reduce(math.gcd, ints, 0)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def test_integer_vector_matches_fraction_scaling():
    rng = random.Random("integer_vector")
    cases = [  # empty and zero vectors, all-negative entries, Fractions over 1 (no scaling) and mixed types
        (),
        (0, 0, 0),
        (0, Fraction(0, 7), 0),
        (-4, -6, 0),
        (Fraction(-2, 3), Fraction(-4, 9)),
        (Fraction(4), Fraction(-6), Fraction(10)),
        (3, Fraction(1, 2), -2),
        (2**70, Fraction(2**71, 3), -(2**69)),
    ]
    for trial in range(3000):
        n = rng.randint(0, 6)
        if trial % 3 == 0:  # ints with a common factor, zeros and big values
            g = rng.choice((1, 2, 6, 2**70))
            v = [g * rng.choice((0, 1, -1, rng.randint(-10**6, 10**6))) for _ in range(n)]
        elif trial % 3 == 1:  # Fractions, some of them integral
            v = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
        else:  # ints mixed with Fractions
            v = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))) for _ in range(n)]
        cases.append(v)
    for _ in range(1000):  # zero or negative entries, Fractions over 1 among them
        cases.append([rng.choice((0, -rng.randint(1, 40), Fraction(-rng.randint(1, 40)))) for _ in range(rng.randint(0, 6))])
    for v in cases:
        got = linalg.integer_vector(v)
        assert got == _integer_vector_by_fractions(v) and all(type(c) is int for c in got), v
        assert math.gcd(*got) in (0, 1), v  # coprime, or all zero
        assert all((c > 0) - (c < 0) == (x > 0) - (x < 0) for c, x in zip(got, v)), v  # a positive scale

"""The package's records behave as the frozen dataclasses they replace.

`geometry.record` builds each record's methods as closures. The oracle for
every class is its dataclass twin, made here with `dataclasses.make_dataclass`
from the same field names and defaults with ``frozen=True`` (and the class's
own ``__post_init__``). The fields are listed here, not read from the
records, so a dropped or renamed field fails too.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from arrdepth import axioms, depth, enclosing, geometry, planar, transversal, tverberg
from arrdepth.errors import DimensionError, InvalidHyperplane
from arrdepth.geometry import Arrangement, Hyperplane, arrangement, evaluate, hyperplane, triangle

NO_DEFAULT = object()


def _cases():
    """(class, [(field, default or NO_DEFAULT)], sample positional argument tuples)."""
    tri = triangle()
    two = tri.subset([0, 1])
    sub = planar.build_subdivision(tri)
    other = planar.build_subdivision(two)
    f0, f1 = sub.faces[0], sub.faces[1]
    rd, rd_open = depth.MeasureKind.RD, depth.MeasureKind.RD_OPEN
    cert = depth.DepthCertificate((Fraction(1), Fraction(0)), Fraction(1), "closed")
    half = Fraction(1, 2)
    return [
        (
            Hyperplane,
            [("normal", NO_DEFAULT), ("offset", NO_DEFAULT), ("weight", Fraction(1))],
            [
                ((Fraction(2), Fraction(4)), Fraction(6), Fraction(1)),
                ((Fraction(1), Fraction(2)), Fraction(3), Fraction(1)),  # the same hyperplane, canonical
                ((Fraction(1), Fraction(0)), Fraction(0), half),
                ((Fraction(-1), Fraction(0)), Fraction(0), half),
            ],
        ),
        (
            Arrangement,
            [("dimension", NO_DEFAULT), ("hyperplanes", NO_DEFAULT)],
            [(2, tri.hyperplanes), (2, list(tri.hyperplanes)), (2, two.hyperplanes), (2, ())],
        ),
        (
            geometry.QueryEvaluation,
            [("point", NO_DEFAULT), ("residuals", NO_DEFAULT), ("dual_points", NO_DEFAULT), ("on_set", NO_DEFAULT)],
            [tuple(vars(evaluate(tri, q)).values()) for q in [(0, 0), (0, 0), (1, 1)]],
        ),
        (
            geometry.GeneralPositionReport,
            [("normals_independent", NO_DEFAULT), ("no_excess_incidence", NO_DEFAULT), ("witness", None)],
            [(True, True, None), (True, True, None), (False, True, (0, 1)), (True, False, (0, 1, 2))],
        ),
        (
            depth.DirectionalCount,
            [("direction", NO_DEFAULT), ("count_closed", NO_DEFAULT), ("count_open", NO_DEFAULT)],
            [((1, 0), Fraction(2), Fraction(1)), ((1, 0), Fraction(2), Fraction(1)), ((0, 1), Fraction(2), Fraction(1))],
        ),
        (
            depth.DepthCertificate,
            [("direction", NO_DEFAULT), ("count", NO_DEFAULT), ("rule", NO_DEFAULT)],
            [((1, 0), Fraction(1), "closed"), ((1, 0), Fraction(1), "open"), ((1, 0), Fraction(1), "closed")],
        ),
        (
            planar.PlanarFace,
            [
                ("index", NO_DEFAULT),
                ("dim", NO_DEFAULT),
                ("rep", NO_DEFAULT),
                ("pos", NO_DEFAULT),
                ("neg", NO_DEFAULT),
                ("degenerate", False),
            ],
            [tuple(vars(f0).values()), tuple(vars(f1).values()), tuple(vars(f0).values())[:-1] + (True,)],
        ),
        (
            planar.PlanarSubdivision,
            [("arrangement", NO_DEFAULT), ("faces", NO_DEFAULT), ("lines", NO_DEFAULT), ("bbox", NO_DEFAULT)],
            [
                (tri, sub.faces, sub.lines, sub.bbox),
                (two, other.faces, other.lines, other.bbox),
                (tri, sub.faces, sub.lines, sub.bbox),
            ],
        ),
        (
            planar.DepthTable,
            [("measure", NO_DEFAULT), ("values", NO_DEFAULT)],
            [(rd, {0: Fraction(1)}), (rd, {0: Fraction(1)}), (rd_open, {})],
        ),
        (
            planar.DepthRegion,
            [("k", NO_DEFAULT), ("measure", NO_DEFAULT), ("face_indices", NO_DEFAULT)],
            [(Fraction(1), rd, frozenset({0, 2})), (Fraction(1), rd, frozenset({2, 0})), (Fraction(2), rd, frozenset())],
        ),
        (
            planar.ContractibilityReport,
            [("status", NO_DEFAULT), ("contractible", NO_DEFAULT), ("components", 0), ("chi", None)],
            [("ok", True, 1, 1), ("empty", False, 0, None), ("disconnected", False, 2, 2)],
        ),
        (
            transversal.FlatRestriction,
            [
                ("basis", NO_DEFAULT),
                ("restricted", NO_DEFAULT),
                ("restricted_indices", NO_DEFAULT),
                ("parallel_indices", NO_DEFAULT),
                ("parallel_weight", NO_DEFAULT),
            ],
            [
                (((1, 0),), arrangement(1, [((1,), 1)]), (0,), (1,), Fraction(1)),
                (((1, 0),), arrangement(1, [((1,), 1)]), (0,), (1,), Fraction(1)),
                (((0, 1),), arrangement(1, [((2,), 1)]), (1,), (0,), Fraction(3)),
            ],
        ),
        (
            transversal.RayCounts,
            [("left", NO_DEFAULT), ("right", NO_DEFAULT), ("parallel", NO_DEFAULT)],
            [(Fraction(1), Fraction(2), Fraction(0)), (Fraction(2), Fraction(1), Fraction(0))],
        ),
        (
            transversal.TransversalSolution,
            [("direction", NO_DEFAULT), ("t", NO_DEFAULT), ("q", NO_DEFAULT), ("counts", NO_DEFAULT), ("status", "exact")],
            [
                ((1, 1), half, (half, half), (transversal.RayCounts(Fraction(1), Fraction(1), Fraction(0)),), "exact"),
                ((1, 1), half, (half, half), (), "approximate"),
            ],
        ),
        (
            axioms.AxiomResult,
            [("axiom", NO_DEFAULT), ("applicable", NO_DEFAULT), ("passed", NO_DEFAULT), ("witness", ())],
            [("i", True, True, ()), ("ii", False, None, ()), ("i", True, False, (1, 2))],
        ),
        (
            axioms.AxiomReport,
            [("kind", NO_DEFAULT), ("results", NO_DEFAULT)],
            [(rd, (axioms.AxiomResult("i", True, True),)), (rd, (axioms.AxiomResult("i", True, True),)), (rd_open, ())],
        ),
        (
            enclosing.EnclosureCertificate,
            [("k", NO_DEFAULT), ("groups", NO_DEFAULT), ("query", NO_DEFAULT)],
            [(1, ((0,), (1,), (2,)), (half, half)), (1, ((0,), (2,), (1,)), (half, half))],
        ),
        (
            tverberg.TverbergCertificate,
            [("partition", NO_DEFAULT), ("q", NO_DEFAULT), ("part_depths", NO_DEFAULT), ("verified", True)],
            [(((0, 1, 2),), (half, half), ((Fraction(1), cert),), True), (((0, 1, 2),), (half, half), (), False)],
        ),
    ]


CASES = _cases()


def _twin(cls, spec):
    fields = [
        (name, object) if default is NO_DEFAULT else (name, object, dataclasses.field(default=default))
        for name, default in spec
    ]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


def _outcome(fn):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


def test_every_record_class_is_covered():
    modules = (geometry, depth, planar, transversal, axioms, enclosing, tverberg)
    records = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "__match_args__" in vars(obj)
    }
    assert records == {cls for cls, _, _ in CASES}
    assert len(records) == 18
    assert not any(dataclasses.is_dataclass(cls) for cls in records)


@pytest.mark.parametrize("cls,spec,samples", CASES, ids=[cls.__name__ for cls, _, _ in CASES])
def test_record_matches_frozen_dataclass(cls, spec, samples):
    twin = _twin(cls, spec)
    names = [name for name, _ in spec]
    required = sum(default is NO_DEFAULT for _, default in spec)
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    records = [cls(*args) for args in samples]
    twins = [twin(*args) for args in samples]
    for args, r, t in zip(samples, records, twins):
        assert repr(r) == repr(t)
        assert [getattr(r, n) for n in names] == [getattr(t, n) for n in names]
        assert _outcome(lambda: hash(r)) == _outcome(lambda: hash(t))  # a dict field makes both unhashable
        assert cls(**dict(zip(names, args))) == r
        assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == r
        if required < len(names):  # defaults fill the missing fields
            assert repr(cls(*args[:required])) == repr(twin(*args[:required]))
        assert r != t and t != r and r != tuple(args)  # equality holds only within one class
        restored = pickle.loads(pickle.dumps(r))
        assert type(restored) is cls and repr(restored) == repr(r)
        assert repr(copy.copy(r)) == repr(r) and repr(copy.deepcopy(r)) == repr(r)
    for r1, t1 in zip(records, twins):
        for r2, t2 in zip(records, twins):
            assert (r1 == r2) == (t1 == t2) and (r1 != r2) == (t1 != t2)
    # constructor errors: missing, surplus, repeated and unknown arguments
    args = samples[0]
    calls = [
        lambda c: c(),
        lambda c: c(*args[: required - 1]),
        lambda c: c(*args, None),
        lambda c: c(*args, **{names[0]: args[0]}),
        lambda c: c(*args, bogus=1),
    ]
    for call in calls:
        assert _outcome(lambda: call(cls)) is _outcome(lambda: call(twin)) is TypeError
    # frozen: fields and new attributes can be neither assigned nor deleted
    r, t = records[0], twins[0]
    for action in (
        lambda x: setattr(x, names[0], None),
        lambda x: setattr(x, "bogus", None),
        lambda x: delattr(x, names[-1]),
    ):
        with pytest.raises(AttributeError):
            action(r)
        with pytest.raises(AttributeError):
            action(t)
    assert repr(r) == repr(t)


def test_hyperplane_post_init_canonicalises():
    h = Hyperplane((Fraction(-2), Fraction(4)), Fraction(6), Fraction(3, 2))
    assert h == Hyperplane((Fraction(1), Fraction(-2)), Fraction(-3), Fraction(3, 2))
    assert hash(h) == hash(hyperplane((1, -2), -3, Fraction(3, 2)))
    assert h.normal == (1, -2) and h.offset == -3 and all(type(c) is Fraction for c in h.normal)
    assert Hyperplane(normal=(2, 0), offset=4).weight == 1
    with pytest.raises(InvalidHyperplane):
        Hyperplane((0, 0), 1)
    with pytest.raises(InvalidHyperplane):
        Hyperplane((1, 0), 1, -1)


def test_arrangement_post_init_validates():
    tri = triangle()
    arr = Arrangement(2, list(tri.hyperplanes))
    assert type(arr.hyperplanes) is tuple and arr == tri
    with pytest.raises(DimensionError):
        Arrangement(3, tri.hyperplanes)


def test_cached_properties_are_kept_with_the_instance():
    tri = triangle()
    fresh = triangle()
    assert tri.circuits is tri.circuits and tri.int_rows is tri.int_rows
    assert "circuits" in vars(tri) and "circuits" not in vars(fresh)
    assert tri == fresh and hash(tri) == hash(fresh) and repr(tri) == repr(fresh)  # the cache is not a field
    restored = pickle.loads(pickle.dumps(tri))
    assert restored == tri and restored.circuits == tri.circuits
    sub = planar.build_subdivision(tri)
    polygons = sub.polygons
    assert sub.polygons is polygons and "polygons" in vars(sub)
    assert sub == planar.build_subdivision(tri)
    assert pickle.loads(pickle.dumps(sub)).polygons == polygons


def test_query_slot_is_not_a_field():
    """The query slot leaves ==, hash, repr, pickle and copy of an arrangement as they are."""
    tri, fresh = triangle(), triangle()
    assert depth.regression_depth(tri, (0, 0)) == depth.regression_depth(fresh, (0, 0))
    enclosing.hyperplane_enclosing_depth(tri, (0, 0))
    assert "_slot" in vars(tri)
    assert tri == fresh and hash(tri) == hash(fresh) and repr(tri) == repr(fresh)
    for twin in (pickle.loads(pickle.dumps(tri)), copy.copy(tri), copy.deepcopy(tri)):
        assert twin == tri and hash(twin) == hash(tri) and repr(twin) == repr(tri)
        assert tverberg.hyperplane_tverberg_depth(twin, (9, 9)) == tverberg.hyperplane_tverberg_depth(fresh, (9, 9))
        assert vars(twin)["_slot"].q == (9, 9)
    assert vars(tri)["_slot"].q == (0, 0)  # each copy has its own record
    assert depth.regression_depth(tri, (0, 0)) == depth.regression_depth(fresh, (0, 0))

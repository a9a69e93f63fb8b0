"""The package's exported names, which `arrdepth/__init__.py` resolves lazily."""

import importlib
import inspect
import sys

import pytest

import arrdepth

EXPORTED = [
    "Arrangement", "AxiomReport", "DepthCertificate", "DepthRegion", "DepthTable", "DirectionalCount",
    "EnclosureCertificate", "FlatRestriction", "GeneralPositionReport", "Hyperplane", "MeasureKind",
    "PlanarSubdivision", "QueryEvaluation", "TransversalSolution", "TverbergCertificate", "arrangement", "axioms",
    "build_subdivision", "canonicalize", "cell_unbounded", "cells", "check_axioms", "check_contractible",
    "count_both", "deepest_point", "depth", "directional_count", "dual_tukey_depth", "dump_json", "enclosing",
    "enumerate_faces", "errors", "euler_counts", "evaluate", "extract_region", "frac", "generate_instance", "geometry", "hyperplane",
    "hyperplane_enclosing_depth", "hyperplane_tverberg_depth", "is_general_position", "label_depth", "linalg",
    "linprog", "load_json", "measure_value", "open_regression_depth", "oracle_depth", "planar", "point",
    "point_enclosing_depth", "regression_depth", "render_svg", "restrict", "restricted_depth",
    "restricted_truncated_depth", "solve_planar_transversal", "solve_tverberg", "transversal", "triangle",
    "truncated_regression_depth", "tverberg", "tverberg_point_depth", "verify_enclosure", "verify_partition",
]


def test_all_is_pinned():
    # 55 functions and classes, and the 11 modules that define or support them
    assert arrdepth.__all__ == EXPORTED
    assert sum(inspect.ismodule(getattr(arrdepth, name)) for name in EXPORTED) == 11


def test_names_resolve_to_their_defining_module():
    for name in EXPORTED:
        obj = getattr(arrdepth, name)
        if inspect.ismodule(obj):
            assert obj is importlib.import_module(f"arrdepth.{name}")
        else:
            assert obj.__module__.startswith("arrdepth.") and obj.__name__ == name
            assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_and_module_imports():
    namespace = {}
    exec("from arrdepth import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(EXPORTED)
    assert namespace["regression_depth"] is arrdepth.depth.regression_depth
    from arrdepth import linalg

    assert linalg is sys.modules["arrdepth.linalg"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arrdepth.no_such_name
    assert not hasattr(arrdepth, "cli_main")
    with pytest.raises(ImportError):
        exec("from arrdepth import no_such_name", {})

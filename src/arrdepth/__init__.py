"""Exact depth measures and constructive solvers for weighted hyperplane arrangements.

The names below are exported lazily (PEP 562): ``arrdepth.regression_depth``
or ``from arrdepth import regression_depth`` imports only the module that
defines it, so a process loads just the modules it uses.
"""

import importlib

_EXPORTS = {
    "geometry": (
        "Arrangement",
        "GeneralPositionReport",
        "Hyperplane",
        "QueryEvaluation",
        "arrangement",
        "canonicalize",
        "dump_json",
        "evaluate",
        "frac",
        "generate_instance",
        "hyperplane",
        "is_general_position",
        "load_json",
        "point",
        "triangle",
    ),
    "cells": ("enumerate_faces",),
    "depth": (
        "DepthCertificate",
        "DirectionalCount",
        "MeasureKind",
        "cell_unbounded",
        "count_both",
        "deepest_point",
        "directional_count",
        "dual_tukey_depth",
        "open_regression_depth",
        "oracle_depth",
        "regression_depth",
        "truncated_regression_depth",
    ),
    "tverberg": (
        "TverbergCertificate",
        "hyperplane_tverberg_depth",
        "solve_tverberg",
        "tverberg_point_depth",
        "verify_partition",
    ),
    "enclosing": (
        "EnclosureCertificate",
        "hyperplane_enclosing_depth",
        "point_enclosing_depth",
        "verify_enclosure",
    ),
    "planar": (
        "DepthRegion",
        "DepthTable",
        "PlanarSubdivision",
        "build_subdivision",
        "check_contractible",
        "euler_counts",
        "extract_region",
        "label_depth",
        "render_svg",
    ),
    "transversal": (
        "FlatRestriction",
        "TransversalSolution",
        "restrict",
        "restricted_depth",
        "restricted_truncated_depth",
        "solve_planar_transversal",
    ),
    "axioms": ("AxiomReport", "check_axioms", "measure_value"),
}
_MODULES = ("axioms", "cells", "depth", "enclosing", "errors", "geometry", "linalg", "linprog", "planar",
            "transversal", "tverberg")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_MODULES])


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

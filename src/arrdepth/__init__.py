"""Exact depth measures and constructive solvers for weighted hyperplane arrangements."""

from .geometry import (
    Arrangement,
    GeneralPositionReport,
    Hyperplane,
    QueryEvaluation,
    arrangement,
    canonicalize,
    dump_json,
    evaluate,
    frac,
    generate_instance,
    hyperplane,
    is_general_position,
    load_json,
    point,
    triangle,
)
from .depth import (
    DepthCertificate,
    DirectionalCount,
    MeasureKind,
    cell_unbounded,
    count_both,
    deepest_point,
    directional_count,
    dual_tukey_depth,
    open_regression_depth,
    oracle_depth,
    regression_depth,
    truncated_regression_depth,
)
from .tverberg import (
    TverbergCertificate,
    hyperplane_tverberg_depth,
    solve_tverberg,
    tverberg_point_depth,
    verify_partition,
)
from .enclosing import (
    EnclosureCertificate,
    hyperplane_enclosing_depth,
    point_enclosing_depth,
    verify_enclosure,
)
from .planar import (
    DepthRegion,
    DepthTable,
    PlanarSubdivision,
    build_subdivision,
    check_contractible,
    euler_counts,
    extract_region,
    label_depth,
    render_svg,
)
from .transversal import (
    FlatRestriction,
    TransversalSolution,
    restrict,
    restricted_depth,
    restricted_truncated_depth,
    solve_planar_transversal,
)
from .axioms import AxiomReport, check_axioms, measure_value

__all__ = [name for name in dir() if not name.startswith("_")]

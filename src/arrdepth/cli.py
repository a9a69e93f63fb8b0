"""Command-line entry point: depth queries, solvers, generators and cross-checks.

Reports are deterministic JSON (sorted keys, exact rationals as strings);
timing is opt-in via --timing so that identical seeds give byte-identical
output. Exit codes: 0 success, 1 input/usage error, 2 verification failure,
3 exhausted budget or precision ceiling.
"""

import argparse
import hashlib
import json
import os
import random
import re
import sys
import time
from fractions import Fraction

from .errors import ArrDepthError, ExactBudgetExceeded, PrecisionExceeded
from .geometry import dump_json, evaluate, frac, frac_str, generate_instance, load_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path):
    with open(path) as fh:
        return load_json(fh.read())


def _parse_point(text):
    return tuple(frac(part) for part in text.split(","))


def _rat(x):
    return frac_str(Fraction(x))


def _point_out(p):
    return [_rat(c) for c in p]


def _default_seed():
    return int(os.environ.get("ARRDEPTH_SEED", "0"))


_OUT = ("--out", {})
_QUERY = ("--query", {"required": True})
_THRESHOLD = ("--exact-threshold", {"type": int, "default": 12})
_MEASURE = ("--measure", {"choices": ["rd", "rd-open", "trd"], "default": "rd"})

# name -> (help, (flag or name, add_argument options) of each argument, in order)
_COMMANDS = {
    "depth": ("depth of a query point", (_MEASURE, _QUERY, ("file", {}), _OUT)),
    "deepest": ("a point of maximum regression depth", (("file", {}), _OUT)),
    "htvd": ("hyperplane Tverberg depth of a query point", (_QUERY, _THRESHOLD, ("file", {}), _OUT)),
    "hed": (
        "hyperplane enclosing depth of a query point",
        (_QUERY, ("--strict", {"action": "store_true"}), _THRESHOLD, ("file", {}), _OUT),
    ),
    "hed-verify": ("verify a k-enclosure certificate", (("--cert", {"required": True}), ("file", {}), _OUT)),
    "tverberg": (
        "solve for a Tverberg partition",
        (
            ("--r", {"type": int, "required": True}),
            ("--seed", {"type": int, "default": None, "help": "recorded in the report; the solver is deterministic"}),
            ("file", {}),
            _OUT,
        ),
    ),
    "depthmap": (
        "SVG depth map of a planar arrangement",
        (
            _MEASURE,
            ("--out", {"required": True}),
            ("--deepest", {"action": "store_true", "help": "mark a deepest point"}),
            ("file", {}),
        ),
    ),
    "transversal": ("planar center transversal of two arrangements", (("file1", {}), ("file2", {}), _OUT)),
    "oracle": (
        "cross-check the engine against the direction oracle and the dual measures",
        (
            ("--trials", {"type": int, "default": 50}),
            ("--seed", {"type": int, "default": None}),
            ("--d", {"type": int, "default": 2}),
            ("--n", {"type": int, "default": 8}),
            ("--samples", {"type": int, "default": 16}),
            _OUT,
        ),
    ),
    "gen": (
        "generate a seeded instance",
        (
            ("--seed", {"type": int, "required": True}),
            ("--d", {"type": int, "required": True}),
            ("--n", {"type": int, "required": True}),
            ("--profile", {"choices": ["generic", "weighted"], "default": "generic"}),
            _OUT,
        ),
    ),
    "axioms": (
        "run the axiom suite for a measure",
        (
            ("--kind", {"choices": ["rd", "rd-open", "trd", "htvd", "hed"], "required": True}),
            _QUERY,
            ("--trials", {"type": int, "default": 6}),
            ("--seed", {"type": int, "default": None}),
            ("file", {}),
            _OUT,
        ),
    ),
}


def build_parser(only=None):
    """The CLI parser: every subcommand, or just the one named ``only``."""
    p = _Parser(prog="arrdepth", description="Exact depth measures for hyperplane arrangements.")
    p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in _COMMANDS.items():
        if only is None or name == only:
            sp = sub.add_parser(name, help=text)
            for flag, options in arguments:
                sp.add_argument(flag, **options)
    return p


def _parser_for(argv):
    """The parser of the one subcommand argv runs, or the full parser.

    The subcommand is the first token after any ``--timing`` flags. When
    that token names a subcommand, the rest of argv is parsed by its own
    parser, which is built exactly as in the full one, so the result,
    message and exit code are the same. Anything else (no subcommand, an
    unknown one, other top-level options) gets the full parser, whose help
    and errors list every subcommand.
    """
    i = 0
    while i < len(argv) and argv[i] == "--timing":
        i += 1
    return build_parser(argv[i] if i < len(argv) and argv[i] in _COMMANDS else None)


def cross_check(arr, q):
    """Evaluate every measure and its dual companion, asserting the identities
    and inequalities that relate them; returns per-check pass/fail entries."""
    from .depth import dual_tukey_depth, open_regression_depth, regression_depth, truncated_regression_depth
    from .enclosing import hyperplane_enclosing_depth, point_enclosing_depth
    from .tverberg import hyperplane_tverberg_depth, tverberg_point_depth

    d = arr.dimension
    ev = evaluate(arr, q)
    rd, _ = regression_depth(arr, q)
    rdo, _ = open_regression_depth(arr, q)
    trd = truncated_regression_depth(arr, q)
    td = dual_tukey_depth(ev.dual_points, q, [h.weight for h in arr])
    checks = {}
    values = {"rd": _rat(rd), "rd_open": _rat(rdo), "trd": _rat(trd), "dual_td": _rat(td)}
    checks["rd_equals_dual_tukey"] = rd == td
    checks["open_le_rd"] = rdo <= rd
    checks["trd_formula"] = trd == min(arr.total_weight / (d + 1), rd)
    try:
        htvd = hyperplane_tverberg_depth(arr, q)
        tvd = tverberg_point_depth(ev.dual_points, q)
        values["htvd"] = htvd
        values["dual_tvd"] = tvd
        checks["htvd_equals_dual_tverberg"] = htvd == tvd
        checks["sandwich_htvd_le_rd"] = htvd <= rd
        checks["sandwich_rd_le_d_htvd"] = rd <= d * htvd
    except ExactBudgetExceeded:
        checks["htvd_equals_dual_tverberg"] = None
    try:
        hed, _ = hyperplane_enclosing_depth(arr, q)
        ed = point_enclosing_depth(ev.dual_points, q)
        values["hed"] = hed
        values["dual_ed"] = ed
        checks["hed_equals_dual_enclosing"] = hed == ed
        checks["hed_le_rd"] = hed <= rd
    except ExactBudgetExceeded:
        checks["hed_equals_dual_enclosing"] = None
    passed = all(v is not False for v in checks.values())
    return {"values": values, "checks": checks, "passed": passed}


def _cmd_depth(args):
    from .depth import directional_count, open_regression_depth, regression_depth, truncated_regression_depth

    arr = _load(args.file)
    q = _parse_point(args.query)
    if args.measure == "rd":
        value, cert = regression_depth(arr, q)
    elif args.measure == "rd-open":
        value, cert = open_regression_depth(arr, q)
    else:
        value = truncated_regression_depth(arr, q)
        cert = None
    outputs = {"measure": args.measure, "value": _rat(value), "query": _point_out(q)}
    verification = {}
    if cert is not None:
        outputs["witness"] = _point_out(cert.direction)
        if cert.rule != "open-perturbed":
            rule = "closed" if cert.rule == "closed" else "open"
            verification["witness_reproduces"] = directional_count(arr, q, cert.direction, rule) == cert.count
    return 0, outputs, verification


def _cmd_deepest(args):
    from .depth import deepest_point, directional_count

    arr = _load(args.file)
    pt, value, cert = deepest_point(arr)
    outputs = {"point": _point_out(pt), "value": _rat(value), "witness": _point_out(cert.direction)}
    verification = {"witness_reproduces": directional_count(arr, pt, cert.direction) == cert.count}
    return 0, outputs, verification


def _cmd_htvd(args):
    from .tverberg import hyperplane_tverberg_depth

    arr = _load(args.file)
    q = _parse_point(args.query)
    try:
        value = hyperplane_tverberg_depth(arr, q, exact_threshold=args.exact_threshold)
        return 0, {"value": value, "exact": True}, {}
    except ExactBudgetExceeded as exc:
        return 3, {"value": exc.bound, "exact": False, "bound": True}, {}


def _cmd_hed(args):
    from .enclosing import hyperplane_enclosing_depth, verify_enclosure

    arr = _load(args.file)
    q = _parse_point(args.query)
    try:
        value, cert = hyperplane_enclosing_depth(
            arr, q, strict=args.strict, exact_threshold=args.exact_threshold
        )
    except ExactBudgetExceeded as exc:
        return 3, {"value": exc.bound, "exact": False, "bound": True}, {}
    outputs = {"value": value, "exact": True}
    verification = {}
    if cert is not None:
        outputs["groups"] = [list(g) for g in cert.groups]
        verification["certificate_verifies"] = verify_enclosure(arr, cert, strict=args.strict)
    return 0, outputs, verification


def _cmd_hed_verify(args):
    from .enclosing import EnclosureCertificate, verify_enclosure

    arr = _load(args.file)
    with open(args.cert) as fh:
        data = json.load(fh)
    cert = EnclosureCertificate(
        int(data["k"]),
        tuple(tuple(int(i) for i in g) for g in data["groups"]),
        tuple(frac(c) for c in data["query"]),
    )
    ok = verify_enclosure(arr, cert, strict=bool(data.get("strict", False)))
    return (0 if ok else 2), {"verified": ok, "k": cert.k}, {}


def _cmd_tverberg(args):
    from .tverberg import solve_tverberg

    arr = _load(args.file)
    cert = solve_tverberg(arr, args.r, seed=args.seed)
    if cert is None:
        return 2, {"parts": None, "q": None, "verified": False}, {}
    outputs = {
        "parts": [list(p) for p in cert.partition],
        "q": _point_out(cert.q),
        "verified": True,
    }
    verification = {"part_depths": [_rat(v) for v, _ in cert.part_depths]}
    return 0, outputs, verification


def _cmd_depthmap(args):
    from .depth import MeasureKind, _depth_at_masks, deepest_point
    from .planar import build_subdivision, euler_counts, label_depth, render_svg

    arr = _load(args.file)
    sub = build_subdivision(arr)
    table = label_depth(sub, arr, args.measure)
    deepest = None
    vertices = sub.vertices
    if args.deepest and vertices:
        # the vertices are `deepest_point`'s candidates when there are any: RD at each, ties to the smallest
        if table.measure is MeasureKind.RD:
            rd = {f.index: table.values[f.index] for f in vertices}
        else:
            rd = {f.index: _depth_at_masks(arr, f.pos, f.neg, MeasureKind.RD)[0] for f in vertices}
        deepest = min(vertices, key=lambda f: (-rd[f.index], f.rep)).rep
    elif args.deepest and len(arr):
        deepest, _, _ = deepest_point(arr)
    svg = render_svg(sub, table, deepest=deepest)
    with open(args.out, "w") as fh:
        fh.write(svg)
    v, e, f = euler_counts(sub)
    outputs = {
        "out": args.out,
        "svg_sha256": hashlib.sha256(svg.encode()).hexdigest(),
        "faces": len(sub.faces),
        "cells": len(sub.cells),
    }
    return 0, outputs, {"euler_ok": v - e + f == 2}


def _cmd_transversal(args):
    from .transversal import solve_planar_transversal

    a1 = _load(args.file1)
    a2 = _load(args.file2)
    sol = solve_planar_transversal(a1, a2)
    outputs = {
        "direction": _point_out(sol.direction),
        "t": _rat(sol.t),
        "q": _point_out(sol.q),
        "counts": [
            {"left": _rat(c.left), "right": _rat(c.right), "parallel": _rat(c.parallel)}
            for c in sol.counts
        ],
        "status": sol.status,
    }
    verification = {
        "ray_bounds_hold": all(
            c.left + c.parallel >= arr.total_weight / 2 and c.right + c.parallel >= arr.total_weight / 2
            for c, arr in zip(sol.counts, (a1, a2))
        )
    }
    return 0, outputs, verification


def _cmd_oracle(args):
    from .depth import oracle_depth, regression_depth

    agree = 0
    mismatches = []
    failures = []
    for t in range(args.trials):
        arr = generate_instance(args.seed + t, args.d, args.n, "generic")
        rng = random.Random(f"arrdepth-oracle-cli:{args.seed}:{t}")
        q = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(args.d))
        engine, _ = regression_depth(arr, q)
        oracle = oracle_depth(arr, q, samples=args.samples, seed=args.seed + t)
        if engine == oracle:
            agree += 1
        else:
            mismatches.append({"trial": t, "seed": args.seed + t, "engine": _rat(engine), "oracle": _rat(oracle)})
        checks = cross_check(arr, q)
        if not checks["passed"]:
            failed = sorted(name for name, ok in checks["checks"].items() if ok is False)
            failures.append({"trial": t, "seed": args.seed + t, "query": _point_out(q), "failed": failed})
    outputs = {"agreements": f"{agree}/{args.trials}", "mismatches": mismatches, "cross_check_failures": failures}
    return (0 if agree == args.trials and not failures else 2), outputs, {}


def _cmd_gen(args):
    arr = generate_instance(args.seed, args.d, args.n, args.profile)
    text = dump_json(arr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        return 0, {"out": args.out, "n": len(arr), "d": arr.dimension}, {}
    print(text)
    return 0, None, {}


def _cmd_axioms(args):
    from .axioms import check_axioms

    arr = _load(args.file)
    q = _parse_point(args.query)
    report = check_axioms(args.kind, arr, q, trials=args.trials, seed=args.seed)
    outputs = {
        "kind": args.kind,
        "axioms": {
            r.axiom: {"applicable": r.applicable, "passed": r.passed}
            for r in report.results
        },
        "all_passed": report.all_passed,
    }
    return 0, outputs, {}


_HANDLERS = {
    "depth": _cmd_depth,
    "deepest": _cmd_deepest,
    "htvd": _cmd_htvd,
    "hed": _cmd_hed,
    "hed-verify": _cmd_hed_verify,
    "tverberg": _cmd_tverberg,
    "depthmap": _cmd_depthmap,
    "transversal": _cmd_transversal,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "axioms": _cmd_axioms,
}


def run(argv):
    """Dispatch a CLI invocation; returns (exit code, report dict or None)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 2, -1, -1):
        # argparse takes "-1/2,3" for an option, so "--query -1/2,3" is read as "--query=-1/2,3"
        if argv[i] == "--query" and re.match(r"-[0-9.]", argv[i + 1]):
            argv[i : i + 2] = ["--query=" + argv[i + 1]]
    parser = _parser_for(argv)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()
    t0 = time.monotonic()
    try:
        code, outputs, verification = _HANDLERS[args.command](args)
    except (PrecisionExceeded, ExactBudgetExceeded) as exc:
        report = {"command": args.command, "error": str(exc)}
        print(json.dumps(report, sort_keys=True))
        return 3, report
    except (ArrDepthError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    if outputs is None:
        return code, None
    report = {
        "command": args.command,
        "input_digest": _digest(args.file) if getattr(args, "file", None) else None,
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "verification": verification,
    }
    if args.command == "transversal":
        report["input_digest"] = [_digest(args.file1), _digest(args.file2)]
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - t0, 6)
    text = json.dumps(report, sort_keys=True)
    out = getattr(args, "out", None)
    if out and args.command != "depthmap" and args.command != "gen":
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code, report


def main(argv=None):
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())

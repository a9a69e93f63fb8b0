"""Spans around calls into the public functions of each `arrdepth` module.

The program is not edited: `Tracer.install` replaces each listed function by
a wrapper in every `arrdepth.*` namespace that holds it, because
`from .x import f` copies the binding (`depth.direction_cells`,
`tverberg.regression_depth`, `planar.regression_depth`, ...). Calls made
through those module attributes, by the program or by the benchmark, are
then recorded. `planar._MEASURES` keeps the function objects it captured at
import, so a TRD label shows up only through the `regression_depth` span
inside it.

A span is (name, start, end, parent span, request id). Spans are recorded
only while a request id is set, kept in flat arrays, and written out once at
the end. A listed function that does not exist is reported as absent.
"""

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = {
    "geometry": ("evaluate", "is_general_position", "load_json"),
    "linalg": ("rank", "solve", "solve_consistent", "kernel_vector"),
    "linprog": (
        "simplex",
        "hull_membership",
        "hull_membership_small",
        "cone_witness",
        "interior_point",
        "recession_direction",
    ),
    "cells": ("direction_cells", "faces_2d", "enumerate_faces"),
    "depth": (
        "regression_depth",
        "open_regression_depth",
        "truncated_regression_depth",
        "deepest_point",
        "directional_count",
    ),
    "tverberg": (
        "solve_tverberg",
        "descent_step",
        "repartition_move",
        "nearest_in_hull",
        "verify_partition",
        "exhaustive_tverberg",
        "hyperplane_tverberg_depth",
    ),
    "enclosing": ("hyperplane_enclosing_depth", "verify_enclosure"),
    "planar": ("build_subdivision", "label_depth", "render_svg", "euler_counts"),
    "transversal": ("solve_planar_transversal",),
    "cli": ("run",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names)

# Outcome counters: function -> (counter suffix, amount added per returned value).
OUTCOMES = {
    "linprog.simplex": ("infeasible", lambda r: int(r[0] == "infeasible")),
    "linprog.hull_membership_small": ("true", lambda r: int(bool(r))),
    "linprog.cone_witness": ("feasible", lambda r: int(r is not None)),
    "linprog.interior_point": ("feasible", lambda r: int(r is not None)),
    "cells.direction_cells": ("cells_out", len),
    "cells.enumerate_faces": ("faces_out", len),
    "tverberg.descent_step": ("stalled", lambda r: int(r.status == "stalled")),
    "tverberg.verify_partition": ("accept", lambda r: int(r is not None)),
}

# (metric, numerator outcome, denominator function, unit, better)
RATIOS = (
    ("linprog.simplex.infeasible_ratio", "linprog.simplex.infeasible", "linprog.simplex", "ratio", "lower"),
    ("linprog.hull_membership_small.true_ratio", "linprog.hull_membership_small.true",
     "linprog.hull_membership_small", "ratio", "higher"),
    ("linprog.cone_witness.feasible_ratio", "linprog.cone_witness.feasible", "linprog.cone_witness", "ratio", "higher"),
    ("linprog.interior_point.feasible_ratio", "linprog.interior_point.feasible", "linprog.interior_point",
     "ratio", "higher"),
    ("tverberg.descent_step.stalled_ratio", "tverberg.descent_step.stalled", "tverberg.descent_step", "ratio", "lower"),
    ("tverberg.verify_partition.accept_ratio", "tverberg.verify_partition.accept", "tverberg.verify_partition",
     "ratio", "higher"),
)
TOTALS = (
    ("cells.direction_cells.cells_out", "count", "lower"),
    ("cells.enumerate_faces.faces_out", "count", "lower"),
)
DERIVED = (
    ("depth.direction_cells_per_query", "calls/query", "lower"),
    ("enclosing.hull_tests_per_call", "tests/call", "lower"),
    ("cli.process_start_s", "s", "lower"),
    ("trace.untraced_requests_per_s", "1/s", "higher"),
    ("trace.overhead_requests_per_s", "1/s", "lower"),
)

RD_SPANS = ("depth.regression_depth", "depth.open_regression_depth")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, _, _, unit, better in RATIOS)
    out.extend(TOTALS)
    out.extend(DERIVED)
    return out


class Tracer:
    """Span recorder for one process; `request` is None outside timed requests."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.req = array("l")
        self.stack = []
        self.request = None
        self.outcomes = Counter()
        self.absent = []

    def install(self):
        """Wrap every listed function that exists, in every arrdepth namespace."""
        for m, names in LAYERS.items():
            mod = importlib.import_module(f"arrdepth.{m}")
            for f in names:
                full = f"{m}.{f}"
                fn = getattr(mod, f, None)
                if not callable(fn):
                    self.absent.append(full)
                    continue
                wrapper = self._wrap(self.names.index(full), fn, OUTCOMES.get(full))
                for other in list(sys.modules.values()):
                    mod_name = getattr(other, "__name__", "")
                    if mod_name != "arrdepth" and not mod_name.startswith("arrdepth."):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapper)

    def _wrap(self, nid, fn, outcome):
        tracer = self
        key = None if outcome is None else f"{self.names[nid]}.{outcome[0]}"
        count = None if outcome is None else outcome[1]

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            i = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.req.append(tracer.request)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                stack.pop()
            if key is not None:
                try:
                    tracer.outcomes[key] += count(result)
                except (TypeError, AttributeError, IndexError):
                    pass  # a return value of another shape goes uncounted; the call itself succeeded
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- transfer between processes (CLI children write, the client merges) --

    def dump(self):
        return {
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "outcomes": dict(self.outcomes),
            "absent": self.absent,
        }

    def merge(self, data, request):
        """Append a child's spans under one request id of this tracer."""
        base = len(self.start)
        self.name.extend(data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.req.extend([request] * len(data["name"]))
        self.outcomes.update(data["outcomes"])
        for name in data["absent"]:
            if name not in self.absent:
                self.absent.append(name)

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            names = self.names
            for nid, s, e, p, r in zip(self.name, self.start, self.end, self.parent, self.req):
                fh.write(f"{names[nid]}\t{s!r}\t{e!r}\t{p}\t{r}\n")

    # -- aggregation --

    def summary(self):
        """Per-function calls and self time, and the ancestry-based counts.

        A span's self time is its duration minus its direct children's; spans
        of one process nest, and a parent is always recorded before its child.
        """
        n = len(self.start)
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        self_s = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
        rd_ids = {names.index(x) for x in RD_SPANS}
        hed_id = names.index("enclosing.hyperplane_enclosing_depth")
        cells_id = names.index("cells.direction_cells")
        hull_id = names.index("linprog.hull_membership_small")
        under_rd = array("b", [0]) * n
        under_hed = array("b", [0]) * n
        cells_under_rd = Counter()  # request id -> direction_cells calls under RD/RD'
        rd_calls = Counter()  # request id -> RD and RD' calls
        hull_under_hed = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                under_rd[i] = under_rd[p] or self.name[p] in rd_ids
                under_hed[i] = under_hed[p] or self.name[p] == hed_id
            nid = self.name[i]
            if nid in rd_ids:
                rd_calls[self.req[i]] += 1
            elif nid == cells_id and under_rd[i]:
                cells_under_rd[self.req[i]] += 1
            elif nid == hull_id and under_hed[i]:
                hull_under_hed += 1
        return {
            "calls": {names[k]: v for k, v in calls.items()},
            "self_s": {names[k]: v for k, v in self_s.items()},
            "cells_under_rd": cells_under_rd,
            "rd_calls": rd_calls,
            "hull_under_hed": hull_under_hed,
            "cli_run_s": sum(d for d, nid in zip(dur, self.name) if names[nid] == "cli.run"),
        }


def per_layer_metrics(tracer, summary, extra):
    """Every per-layer metric as {name: value}; `extra` supplies the non-span ones."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = calls.get(fn, 0)
        out[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for name, num, den, _, _ in RATIOS:
        base = calls.get(den, 0)
        out[name] = tracer.outcomes.get(num, 0) / base if base else 0.0
    for name, _, _ in TOTALS:
        out[name] = tracer.outcomes.get(name, 0)
    rd_calls = sum(summary["rd_calls"].values())
    out["depth.direction_cells_per_query"] = sum(summary["cells_under_rd"].values()) / rd_calls if rd_calls else 0.0
    hed_calls = calls.get("enclosing.hyperplane_enclosing_depth", 0)
    out["enclosing.hull_tests_per_call"] = summary["hull_under_hed"] / hed_calls if hed_calls else 0.0
    out.update(extra)
    return out

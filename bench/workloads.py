"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, then serves an
endless deterministic sequence of requests. `prepare(i, twin)` makes request
i outside the timed region; `run` is the timed part; `check` verifies the
answer against the oracles the package ships, outside the timed region;
`values` lists the parts of an answer that go into the answers digest
(values only: witnesses and chosen points are verified, not digested).
A twin is a request of the same kind and size that the traced run times with
tracing off, to measure the tracing overhead.

Calls into the package go through module attributes (`depth.regression_depth`)
so that a traced run sees them.
"""

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace as Request

from arrdepth import depth, dump_json, enclosing, geometry, tverberg

import instances as inst


def _rat(x):
    return str(Fraction(x))


def _rd_witness_failures(arr, q, value, cert, rule):
    if depth.directional_count(arr, q, cert.direction, rule) != value:
        return [f"{rule} witness does not reproduce {value}"]
    return []


def _check_rd(arr, q, rd, cert, generic=False):
    """RD against an independent oracle, and its witness direction.

    On generic inputs the cheap direction oracle is exact; it is an upper
    bound in general, so a mismatch is settled by the dual Tukey depth.
    """
    fails = _rd_witness_failures(arr, q, rd, cert, "closed")
    if generic and depth.oracle_depth(arr, q, samples=8) == rd:
        return fails
    ev = geometry.evaluate(arr, q)
    if rd != depth.dual_tukey_depth(ev.dual_points, q, [h.weight for h in arr]):
        fails.append("RD differs from the dual Tukey depth")
    return fails


class QueryMix:
    """Many queries against arrangements loaded once and reused.

    Each request evaluates RD, RD', TRD, HTvD and HED at one query. The
    direction cells of every arrangement are computed in setup, so requests
    time the hull tests and the per-query loops, not `cells`.
    """

    name = "query-mix"
    # (label, d, n, profile); exact HTvD and HED need n <= 12 and d <= 3.
    ARRANGEMENTS = (
        ("g2a", 2, 8, "generic"),
        ("g2b", 2, 9, "generic"),
        ("g2c", 2, 10, "generic"),
        ("w2", 2, 9, "weighted"),
        ("d2a", 2, 9, "degenerate"),
        ("d2b", 2, 10, "degenerate-zero-weights"),
        ("g3a", 3, 6, "generic"),
        ("g3b", 3, 7, "generic"),
        ("w3", 3, 7, "weighted"),
        ("d3", 3, 8, "degenerate"),
        ("g3c", 3, 8, "generic"),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.oracle = {}  # pool index -> dual Tukey, Tverberg and enclosing depths

    def setup(self):
        rng = random.Random(f"arrdepth-bench:query-mix:{self.seed}")
        per_arr = []
        for label, d, n, profile in self.ARRANGEMENTS:
            tag = f"{self.seed}:{label}"
            degenerate = profile.startswith("degenerate")
            if degenerate:
                arr, center = inst.degenerate_instance(tag, d, n, zero_weights=profile.endswith("weights"))
                queries = [("center", center)]
            else:
                arr = inst.generic_instance(tag, d, n, profile)
                queries = []
            deep = inst.deep_query(arr)
            queries += [("vertex", inst.vertex_query(arr, rng)), ("deep", deep)]
            queries += [("random", inst.random_query(rng, d)) for _ in range(2)]
            depth.regression_depth(arr, deep)  # computes and caches the direction cells
            per_arr.append([(arr, q, kind, degenerate or kind in ("center", "vertex")) for kind, q in queries])
        # Round-robin over arrangements, so any prefix of the sequence is a balanced mix.
        self.pool = [row[j] for j in range(max(map(len, per_arr))) for row in per_arr if j < len(row)]

    def cycle(self):
        return len(self.pool)

    def prepare(self, i, twin=False):
        arr, q, kind, degenerate = self.pool[i % len(self.pool)]
        return Request(kind=kind, degenerate=degenerate, arr=arr, q=q, slot=i % len(self.pool))

    def run(self, req):
        arr, q = req.arr, req.q
        rd, rd_cert = depth.regression_depth(arr, q)
        rdo, rdo_cert = depth.open_regression_depth(arr, q)
        trd = depth.truncated_regression_depth(arr, q)
        htvd = tverberg.hyperplane_tverberg_depth(arr, q)
        hed, hed_cert = enclosing.hyperplane_enclosing_depth(arr, q)
        return rd, rd_cert, rdo, rdo_cert, trd, htvd, hed, hed_cert

    def _oracle(self, req):
        """The dual measures of a pool entry; they cost as much as the request, so once per entry."""
        hit = self.oracle.get(req.slot)
        if hit is None:
            arr, q = req.arr, req.q
            duals = geometry.evaluate(arr, q).dual_points
            hit = (
                depth.dual_tukey_depth(duals, q, [h.weight for h in arr]),
                tverberg.tverberg_point_depth(duals, q),
                enclosing.point_enclosing_depth(duals, q),
            )
            self.oracle[req.slot] = hit
        return hit

    def check(self, req, ans):
        arr, q = req.arr, req.q
        rd, rd_cert, rdo, rdo_cert, trd, htvd, hed, hed_cert = ans
        d = arr.dimension
        tukey, tverberg_depth, enclosing_depth = self._oracle(req)
        fails = _rd_witness_failures(arr, q, rd, rd_cert, "closed")
        if rd != tukey:
            fails.append("RD differs from the dual Tukey depth")
        if rdo_cert.rule == "open":
            fails += _rd_witness_failures(arr, q, rdo, rdo_cert, "open")
        if htvd != tverberg_depth:
            fails.append("HTvD differs from the dual Tverberg depth")
        if hed != enclosing_depth:
            fails.append("HED differs from the dual enclosing depth")
        if (hed_cert is None) != (hed == 0) or (hed_cert is not None and not enclosing.verify_enclosure(arr, hed_cert)):
            fails.append("HED certificate does not verify")
        if trd != min(arr.total_weight / (d + 1), rd):
            fails.append("TRD does not match min(w(A)/(d+1), RD)")
        if not rdo <= rd:
            fails.append("RD' > RD")
        # The sandwich counts hyperplanes, so it holds for unit weights only.
        if all(h.weight == 1 for h in arr) and not (htvd <= rd <= d * htvd and hed <= rd):
            fails.append("sandwich HTvD <= RD <= d*HTvD, HED <= RD fails")
        return fails

    def values(self, req, ans):
        rd, _, rdo, _, trd, htvd, hed, _ = ans
        return [_rat(rd), _rat(rdo), _rat(trd), htvd, hed]


class ColdSolve:
    """One-shot constructions, each on an arrangement the process has not seen.

    Direction cells are computed inside the request (cold), so `cells` and the
    `linprog` simplex dominate; the descent is timed by the Tverberg requests.
    """

    name = "cold-solve"
    # (kind, d, n, extra): extra is r for Tverberg (the criterion-5
    # configurations) and the input profile otherwise. Every cycle of the
    # sequence has the same shapes; the seed only moves coordinates and queries.
    MIX = (
        ("tverberg", 2, 4, 2),
        ("deepest", 2, 10, "weighted"),
        ("rd", 3, 9, "degenerate"),
        ("deepest", 2, 11, "weighted"),
        ("tverberg", 3, 5, 2),
        ("rd", 4, 5, "random"),
        ("deepest", 2, 13, "generic"),
        ("rd", 3, 8, "random"),
        ("deepest", 2, 11, "degenerate"),
        ("rd", 3, 9, "random"),
        ("deepest", 2, 12, "degenerate"),
        ("tverberg", 2, 7, 3),
        ("rd", 3, 11, "random"),
        ("rd", 3, 14, "degenerate"),
        ("rd", 3, 13, "random"),
        ("deepest", 3, 5, "degenerate"),
        ("rd", 3, 16, "random"),
        ("rd", 4, 7, "random"),
        ("deepest", 3, 5, "degenerate"),
        ("rd", 4, 8, "random"),
        ("rd", 4, 8, "random"),
    )
    WARM = (("tverberg", 2, 4, 2), ("deepest", 2, 5, "generic"), ("deepest", 3, 4, "degenerate"),
            ("rd", 3, 5, "random"), ("rd", 4, 5, "random"))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.seen = set()

    def setup(self):
        for j, spec in enumerate(self.WARM):
            req = self._make(spec, f"warm:{j}", 0)
            self.check(req, self.run(req))

    def cycle(self):
        return len(self.MIX)

    def prepare(self, i, twin=False):
        return self._make(self.MIX[i % len(self.MIX)], f"{i}:{'twin' if twin else 'main'}", i)

    def _make(self, spec, tag, solver_seed):
        kind, d, n, extra = spec
        for variant in range(1000):
            t = f"{self.seed}:{tag}:{variant}"
            if kind == "tverberg":
                arr = inst.generic_instance(t, d, n)
            elif extra == "degenerate":
                arr, _ = inst.degenerate_instance(t, d, n)
            elif extra == "random":
                arr = inst.random_instance(t, d, n)
            else:
                arr = inst.generic_instance(t, d, n, extra)
            key = (d, tuple(sorted(h.normal for h in arr)))
            if key not in self.seen:
                self.seen.add(key)
                break
        else:
            raise RuntimeError("could not make an unseen arrangement")
        degenerate = extra == "degenerate"
        if kind == "rd":
            rng = random.Random(t)
            q = inst.deep_query(arr) if rng.random() < 0.5 else inst.random_query(rng, d)
            return Request(kind=kind, degenerate=degenerate, arr=arr, q=q)
        return Request(kind=kind, degenerate=degenerate, arr=arr, r=extra, solver_seed=solver_seed)

    def run(self, req):
        if req.kind == "rd":
            return depth.regression_depth(req.arr, req.q)
        if req.kind == "tverberg":
            return tverberg.solve_tverberg(req.arr, req.r, seed=req.solver_seed)
        return depth.deepest_point(req.arr)

    def check(self, req, ans):
        arr = req.arr
        if req.kind == "rd":
            return _check_rd(arr, req.q, *ans, generic=not req.degenerate)
        if req.kind == "tverberg":
            fails = []
            parts = ans.partition
            if len(parts) != req.r or sorted(i for p in parts for i in p) != list(range(len(arr))):
                fails.append("Tverberg partition is not a partition into r parts")
            if tverberg.verify_partition(arr, parts, ans.q) is None:
                fails.append("Tverberg certificate does not verify")
            return fails
        pt, value, cert = ans
        fails = []
        if value < arr.total_weight / (arr.dimension + 1):
            fails.append("deepest point below w(A)/(d+1)")
        rd, _ = depth.regression_depth(arr, pt)
        if rd != value:
            fails.append("RD at the deepest point differs from its reported value")
        return fails + _rd_witness_failures(arr, pt, value, cert, "closed")

    def values(self, req, ans):
        if req.kind == "rd":
            return [req.kind, len(req.arr), _rat(ans[0])]
        if req.kind == "tverberg":
            return [req.kind, len(req.arr), len(ans.partition)]
        return [req.kind, len(req.arr), _rat(ans[1])]


_LEGEND = re.compile(r'<text x="32" y="\d+">[a-z-]+ = ([0-9/-]+)</text>')


class PlanarCli:
    """Whole `arrdepth` CLI processes on planar inputs, run as a user runs them.

    Each request is one `python -m arrdepth.cli` process; the traced run
    starts `cli_launcher.py` instead, which installs the span wrappers first.
    """

    name = "planar-cli"
    # (command, measure, profile, n). Seven of ten requests draw a depth map.
    # A cycle is the rows twice over, each slot with its own instance; the seed
    # only moves coordinates and queries. Six of the depth maps cost about the
    # same, so the median request falls among them and not in the gap between
    # the short commands and the depth maps, where it would jump between seeds.
    MIX = (
        ("depthmap", "rd", "generic", 11),
        ("depthmap", "rd-open", "degenerate", 10),
        ("depth", "rd-open", "degenerate", 12),
        ("depthmap", "rd", "degenerate", 11),
        ("depthmap", "rd-open", "generic", 10),
        ("deepest", None, "generic", 12),
        ("depthmap", "rd", "degenerate", 12),
        ("depthmap", "rd-open", "generic", 10),
        ("transversal", None, "generic", 7),
        ("depthmap", "rd", "generic", 11),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.tracer = None  # set by a traced run; the CLI children record the spans
        self.span_file = os.path.join(workdir, "child-spans.json")
        self.rss_kb = 0
        self.traced_wall_s = 0.0

    def setup(self):
        self.slots = []
        for j in range(2 * len(self.MIX)):
            command, measure, profile, n = self.MIX[j % len(self.MIX)]
            tag = f"{self.seed}:cli:{j}"
            query = None
            if command == "transversal":
                arrs = [self._no_origin(tag, n), self._no_origin(f"{tag}:second", n)]
            elif profile == "degenerate":
                arr, query = inst.degenerate_instance(tag, 2, n)  # on-hyperplane query
                arrs = [arr]
            else:
                arrs = [inst.generic_instance(tag, 2, n)]
            if command == "depth" and query is None:
                query = inst.deep_query(arrs[0])
            files = [self._write(f"in{j}{part}.json", arr) for part, arr in zip("ab", arrs)]
            argv = [command]
            if measure is not None:
                argv += ["--measure", measure]
            if command == "depth":
                argv.append("--query=" + ",".join(_rat(c) for c in query))  # a query may start with "-"
            if command == "depthmap":
                argv += ["--deepest", "--out", os.path.join(self.workdir, f"map{j}.svg")]
            argv += files
            self.slots.append((command, measure, profile == "degenerate", arrs, query, argv))
        self._spawn(self.slots[0][-1], None)  # first start compiles and caches the package

    def _write(self, name, arr):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(dump_json(arr) + "\n")
        return path

    def _no_origin(self, tag, n):
        for variant in range(100):
            arr = inst.generic_instance(f"{tag}:{variant}", 2, n)
            if all(h.offset != 0 for h in arr):
                return arr
        raise RuntimeError("no arrangement avoiding the origin")

    def cycle(self):
        return len(self.slots)

    def prepare(self, i, twin=False):
        command, measure, degenerate, arrs, query, argv = self.slots[i % len(self.slots)]
        return Request(kind=command, degenerate=degenerate, measure=measure, arrs=arrs, query=query, argv=argv)

    def _spawn(self, argv, span_file):
        if span_file is None:
            cmd = [sys.executable, "-m", "arrdepth.cli"] + argv
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
            cmd = [sys.executable, launcher, span_file, "--"] + argv
        # os.wait4 reaps the child and gives its own peak RSS.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def run(self, req):
        traced = self.tracer is not None and self.tracer.request is not None
        t0 = perf_counter()
        code, out = self._spawn(req.argv, self.span_file if traced else None)
        if traced:
            self.traced_wall_s += perf_counter() - t0
            with open(self.span_file) as fh:
                self.tracer.merge(json.load(fh), self.tracer.request)
        return code, out

    def check(self, req, ans):
        code, out = ans
        if code != 0:
            return [f"exit code {code}: {out.strip()[-300:]}"]
        report = json.loads(out.strip().splitlines()[-1])
        fails = [f"verification {k} is false" for k, v in report["verification"].items() if v is False]
        outputs = report["outputs"]
        arr = req.arrs[0]
        if req.kind == "depth":
            fails += self._check_depth(arr, req.query, Fraction(outputs["value"]))
        elif req.kind == "deepest":
            pt = tuple(Fraction(c) for c in outputs["point"])
            value = Fraction(outputs["value"])
            if value < arr.total_weight / 3 or depth.regression_depth(arr, pt)[0] != value:
                fails.append("deepest point value does not verify")
        elif req.kind == "transversal":
            if outputs["status"] != "exact":
                fails.append("transversal is not exact")
        else:
            n = len(arr)
            if not req.degenerate:
                v = math.comb(n, 2)
                if outputs["faces"] != v + n * n + v + n + 1 or outputs["cells"] != v + n + 1:
                    fails.append("face counts differ from the simple-arrangement formula")
            labels = self._legend(req.argv)
            if not labels or min(labels) != 0:
                fails.append("depth map legend lacks the depth-0 label")
            if req.measure == "rd" and max(labels, default=0) < arr.total_weight / 3:
                fails.append("depth map maximum is below w(A)/3")
        return fails

    def _check_depth(self, arr, q, value):
        fails = []
        if value != depth.open_regression_depth(arr, q)[0]:
            fails.append("CLI RD' differs from the in-process value")
        ev = geometry.evaluate(arr, q)
        if value > depth.dual_tukey_depth(ev.dual_points, q, [h.weight for h in arr]):
            fails.append("RD' exceeds the dual Tukey depth")
        return fails

    def _legend(self, argv):
        with open(argv[argv.index("--out") + 1]) as fh:
            return [Fraction(v) for v in _LEGEND.findall(fh.read())]

    def values(self, req, ans):
        outputs = json.loads(ans[1].strip().splitlines()[-1])["outputs"]
        if req.kind in ("depth", "deepest"):
            return [req.kind, outputs["value"]]
        if req.kind == "transversal":
            return [req.kind, outputs["status"]]
        return [req.kind, outputs["faces"], outputs["cells"], [_rat(v) for v in self._legend(req.argv)]]


WORKLOADS = {w.name: w for w in (QueryMix, ColdSolve, PlanarCli)}

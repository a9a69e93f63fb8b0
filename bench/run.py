"""The arrdepth benchmark: one closed-loop client with no think time.

    python3 bench/run.py --workload {query-mix,cold-solve,planar-cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
`src/`, never from an installed copy, and the run fails without printing a
result when `src/arrdepth` is missing.

--trace 0 sends requests for S seconds of wall time and reports the
end-to-end metrics, with every timing scaled by the host's speed at that
moment (see REFERENCE_S below). --trace 1 sends a fixed number of request
pairs, each a traced request and an untraced twin of the same kind and size,
reports the per-layer metrics and writes the spans to `.bench_out/`. Every
answer is checked outside the timed region. The last line of standard output is the
JSON result; the lines before it are a report with the run's context.
"""

from fractions import Fraction
from time import perf_counter

# Times are reported in reference milliseconds. The host's speed for one fixed
# computation moves by a quarter or more within tens of seconds (on a 2-vCPU
# Intel Xeon VM: interquartile range / median 0.28 over the medians of 30 s
# blocks of a fixed loop, process CPU time as noisy as wall time), while the
# ratio of a request's time to the time of `reference()` measured just before
# and after it stays within a few percent. Each timing is therefore that ratio
# times REFERENCE_S, the median time of `reference()` on that VM, and reads as
# its wall time on that VM at its typical speed. The raw wall-clock figures
# are in the report line.
REFERENCE_S = 0.0044


def reference():
    """A fixed computation of the same kind as the program's: Python loops over exact rationals."""
    x, s = Fraction(1, 3), 0
    for i in range(1, 400):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        s += i * i % 7
    return x, s


def reference_s(times=1):
    """Mean wall time of `times` back-to-back runs of `reference()`."""
    t0 = perf_counter()
    for _ in range(times):
        reference()
    return (perf_counter() - t0) / times


SETUP_REFERENCES = 4  # runs of `reference()` timed right before and right after a set-up
REF_BEFORE_SETUP = reference_s(SETUP_REFERENCES)
T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

# cold-solve is not listed in BENCHMARK.json: its p75 tail spread over ten
# seeds (0.29 of the median) was above the largest bound a metric may have.
WORKLOADS = ("query-mix", "cold-solve", "planar-cli")
END_TO_END = (
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Traced request pairs per second of --seconds: a traced run then lasts about
# as long as an untraced one did when the benchmark was defined, and the same
# --seconds always gives the same requests, so the span counts repeat exactly.
TRACE_PAIRS_PER_S = {"query-mix": 6.0, "cold-solve": 1.1, "planar-cli": 1.0}
SETUP_PROBES = 6  # extra set-ups, each in a fresh interpreter; setup_s is the median
DEFAULT_SEED = 0  # the seed the committed answers digest belongs to


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "arrdepth", "__init__.py")):
        raise SystemExit(f"error: {src}/arrdepth not found; run from the root of a source checkout")
    sys.path.insert(0, src)
    import arrdepth

    if os.path.dirname(os.path.dirname(os.path.abspath(arrdepth.__file__))) != src:
        raise SystemExit(f"error: imported arrdepth from {arrdepth.__file__}, not from {src}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def percentile(xs, p):
    """Linear interpolation between the closest ranks of sorted `xs`."""
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(xs):
    """The highest of p99, p95, p90, p75 with at least ten samples beyond it."""
    n = len(xs)
    for p in (99, 95, 90, 75):
        if n - math.ceil(n * p / 100) >= 10:
            return p, percentile(xs, p), True
    return 75, percentile(xs, 75), False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []  # (request id, message)
        self.latencies = []  # seconds, requests that succeeded
        self.scaled = []  # the same latencies in reference seconds, when the reference was timed
        self.timed_s = 0.0
        self.degenerate = 0
        self.values = []  # digest values of requests 0, 1, 2, ...
        self.kinds = {}

    def add(self, i, req, ans, dt, fails, wl, ref=None):
        self.attempted += 1
        self.timed_s += dt
        self.kinds[i] = req.kind
        self.degenerate += bool(req.degenerate)
        if fails:
            self.failures.append((i, "; ".join(fails)))
            return
        self.latencies.append(dt)
        if ref is not None:
            self.scaled.append(dt * REFERENCE_S / ref)
        if i == len(self.values):
            self.values.append(wl.values(req, ans))

    @property
    def failed(self):
        return len(self.failures)

    def requests_per_s(self):
        return len(self.latencies) / self.timed_s

    def scaled_requests_per_s(self):
        """Requests per reference second of request time (requests over their summed scaled latency)."""
        return len(self.scaled) / sum(self.scaled)


def one(wl, i, twin=False, tracer=None, timed_reference=False):
    """Make, time and check request i; a request that raises counts as failed.

    With `timed_reference`, `reference()` is timed right before and right
    after the request, and the fifth value returned is the mean of the two.
    """
    req = wl.prepare(i, twin)
    ref = reference_s() if timed_reference else None
    if tracer is not None:
        tracer.request = i
    t0 = perf_counter()
    try:
        ans, fails = wl.run(req), None
    except Exception as exc:  # the run goes on; the failure is counted and reported
        ans, fails = None, [f"{type(exc).__name__}: {exc}"]
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.request = None
    if timed_reference:
        ref = (ref + reference_s()) / 2
    if fails is None:
        try:
            fails = wl.check(req, ans)
        except Exception as exc:  # a check that crashes is a failed check
            fails = [f"check raised {type(exc).__name__}: {exc}"]
    return req, ans, dt, fails, ref


def digest_report(name, seed, values, cycle):
    """Digest of the first `cycle` answers, compared with the committed one for its seed."""
    out = {"requests": min(len(values), cycle), "sha256": None, "compared": False, "matches": None}
    if len(values) < cycle:
        return out
    out["sha256"] = hashlib.sha256(json.dumps(values[:cycle]).encode()).hexdigest()
    with open(os.path.join(BENCH, "digests.json")) as fh:
        committed = json.load(fh).get(name)
    if committed is not None and committed["seed"] == seed and committed["requests"] == cycle:
        out["compared"] = True
        out["matches"] = committed["sha256"] == out["sha256"]
    return out


def setup_probes(args):
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stdout[-400:]}{proc.stderr[-800:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def untraced(wl, seconds):
    tally = Tally()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        req, ans, dt, fails, ref = one(wl, i, timed_reference=True)
        tally.add(i, req, ans, dt, fails, wl, ref)
        i += 1
        if perf_counter() >= deadline:
            return tally


def traced(wl, seconds, tracer):
    """Request pairs k = 0, 1, ...: request k traced and its twin untraced, alternating which goes first."""
    main, twins = Tally(), Tally()
    for k in range(max(1, round(seconds * TRACE_PAIRS_PER_S[wl.name]))):
        for is_traced in ((True, False) if k % 2 == 0 else (False, True)):
            req, ans, dt, fails, _ = one(wl, k, twin=not is_traced, tracer=tracer if is_traced else None)
            (main if is_traced else twins).add(k, req, ans, dt, fails, wl)
    return main, twins


def hygiene(name, tracer, summary, kinds):
    """Cache-hygiene assertions on the traced counts."""
    needed = ("cells.direction_cells", "depth.regression_depth", "depth.open_regression_depth")
    if any(fn in tracer.absent for fn in needed):
        return []
    cells, rd_calls = summary["cells_under_rd"], summary["rd_calls"]
    if name == "query-mix" and sum(cells.values()):
        return [f"{sum(cells.values())} direction_cells calls under RD/RD' spans; the warm cells were not reused"]
    if name == "cold-solve":
        bad = [k for k, kind in kinds.items() if kind == "rd" and (cells[k], rd_calls[k]) != (1, 1)]
        if bad:
            return [f"cold RD requests {bad[:5]} did not compute their direction cells exactly once"]
    return []


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    load = os.getloadavg()
    import_program()
    sys.path.insert(0, BENCH)
    import spans
    from workloads import WORKLOADS as CLASSES

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = CLASSES[args.workload](args.seed, workdir)
        wl.setup()
        setup_wall_s = perf_counter() - T_START
        ref = (REF_BEFORE_SETUP + reference_s(SETUP_REFERENCES)) / 2
        setup = {"setup_s": setup_wall_s * REFERENCE_S / ref, "wall_s": setup_wall_s}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
                   "loadavg_at_start": load}
        if args.trace:
            return report_traced(args, wl, spans, context)
        return report_untraced(args, wl, context, [setup] + setup_probes(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def latency_summary(seconds):
    """(p50 ms, tail percentile, tail ms, whether it has ten samples beyond it) of latencies in seconds."""
    lat = sorted(1000 * x for x in seconds)
    if not lat:
        return 0.0, 75, 0.0, False
    p_tail, v_tail, enough = tail(lat)
    return statistics.median(lat), p_tail, v_tail, enough


def report_untraced(args, wl, context, setups):
    tally = untraced(wl, args.seconds)
    p50, p_tail, v_tail, enough = latency_summary(tally.scaled)
    wall_p50, _, wall_tail, _ = latency_summary(tally.latencies)
    n = len(tally.latencies)
    if args.workload == "planar-cli":
        rss_kb = wl.rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "requests_per_s": tally.scaled_requests_per_s() if n else 0.0,
        "request_ms_p50": p50,
        "request_ms_tail": v_tail,
        "setup_s": statistics.median(x["setup_s"] for x in setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    wall = {
        "requests_per_s": tally.requests_per_s() if n else 0.0,
        "request_ms_p50": wall_p50,
        "request_ms_tail": wall_tail,
        "setup_s": statistics.median(x["wall_s"] for x in setups),
    }
    samples = {
        "requests_per_s": tally.attempted,
        "request_ms_p50": n,
        "request_ms_tail": n,
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    digest = digest_report(args.workload, args.seed, tally.values, wl.cycle())
    correct = not tally.failures and digest["matches"] is not False
    report = dict(context)
    report.update({
        "metrics": {k: {"value": values[k], "unit": u, "samples": samples[k]} for k, u in END_TO_END},
        "request_ms_tail_percentile": f"p{p_tail}",
        "request_ms_tail_samples_beyond": n - math.ceil(n * p_tail / 100),
        "request_ms_tail_has_10_beyond": enough,
        "failed_ratio": tally.failed / tally.attempted,
        "degenerate_share": tally.degenerate / tally.attempted,
        "setup_s_samples": setups,
        "wall_clock": wall,
        "reference_s": REFERENCE_S,
        "digest": digest,
        "failures": tally.failures[:5],
    })
    for k, u in END_TO_END:
        print(f"{args.workload:11s} {k:16s} {values[k]:14.4f} {u:4s} samples={samples[k]}")
    print(f"{args.workload:11s} failed_ratio     {report['failed_ratio']:14.4f}      "
          f"attempted={tally.attempted} tail=p{p_tail}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END},
    }))
    return 0


def report_traced(args, wl, spans, context):
    tracer = spans.Tracer()
    tracer.install()
    wl.tracer = tracer
    main_tally, twins = traced(wl, args.seconds, tracer)
    summary = tracer.summary()
    traced_rps = main_tally.requests_per_s()
    untraced_rps = twins.requests_per_s()
    extra = {
        "cli.process_start_s": wl.traced_wall_s - summary["cli_run_s"] if args.workload == "planar-cli" else 0.0,
        "trace.untraced_requests_per_s": untraced_rps,
        "trace.overhead_requests_per_s": untraced_rps - traced_rps,
    }
    values = spans.per_layer_metrics(tracer, summary, extra)
    span_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(span_path)
    problems = hygiene(args.workload, tracer, summary, main_tally.kinds)
    digest = digest_report(args.workload, args.seed, main_tally.values, wl.cycle())
    failures = main_tally.failures + twins.failures
    correct = not failures and not problems and digest["matches"] is not False
    specs = spans.metric_specs()
    report = dict(context)
    report.update({
        "traced_requests": main_tally.attempted,
        "traced_requests_per_s": traced_rps,
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(span_path, ROOT),
        "absent": tracer.absent,
        "hygiene_problems": problems,
        "digest": digest,
        "failures": failures[:5],
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": main_tally.attempted + twins.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

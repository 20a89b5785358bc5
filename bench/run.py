"""swcalc benchmark: one seeded workload, timed end to end, checked against
independent references.

    python3 bench/run.py --workload knot_skein --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports swcalc from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines above it say the same for a
reader. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import oracle as O                       # noqa: E402
import spans as tr                       # noqa: E402
from workloads import WORKLOADS          # noqa: E402

SETUP_REPS = 5
MAX_OPS = 100000
PROBES_PER_SHAPE = 3
PLAN_LENGTH = {"knot_skein": 240, "knot_fox": 240, "sw_walk": 300,
               "script": 150}
clock = time.perf_counter
REFERENCE_S = 0.00135
SAMPLE_EVERY_S = 0.5
NEAREST = 11


class Speed:
    """How fast the machine runs now, against a reference speed.

    On a shared cloud VM the host's speed swings by up to 1.7 times,
    within seconds and over minutes, in CPU time as much as in wall time,
    and every op slows alike. So the benchmark also times one fixed pure-Python job of its
    own, oracle.pmul on two fixed 120-term polynomials, between ops about
    every SAMPLE_EVERY_S of wall time and around each set-up. A sample is
    the faster of two runs of the job. factor(t) is REFERENCE_S, the
    job's time on the reference machine (a 2-vCPU x86 cloud VM in a
    quiet minute), over the median of the NEAREST samples around time t.
    A time multiplied by factor(t) is the time the reference machine
    would take.
    """

    def __init__(self):
        rng = random.Random(0)
        self.a = {e: rng.randint(1, 9) for e in range(-60, 60)}
        self.b = {e: rng.randint(1, 9) for e in range(-60, 60)}
        self.at, self.took = [], []
        self.due = 0.0

    def sample(self):
        best = None
        for _ in range(2):
            t0 = clock()
            O.pmul(self.a, self.b)
            t1 = clock()
            best = t1 - t0 if best is None else min(best, t1 - t0)
        self.at.append(t0)
        self.took.append(best)
        self.due = t1 + SAMPLE_EVERY_S

    def sample_if_due(self):
        if clock() >= self.due:
            self.sample()

    def factor(self, t):
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REFERENCE_S / statistics.median(self.took[lo:lo + NEAREST])

    def scale(self, spans):
        """(start, duration) pairs -> durations at the reference speed."""
        return [d * self.factor(t + d / 2) for t, d in spans]


class API:
    """Attribute access to the swcalc package and its CLI, looked up at each
    call so that the traced run sees the wrapped entry points."""

    def __init__(self, modules):
        self._modules = modules

    def __getattr__(self, name):
        for mod in self._modules:
            if hasattr(mod, name):
                return getattr(mod, name)
        raise AttributeError(name)


def import_swcalc() -> API:
    for name in [m for m in sys.modules
                 if m == "swcalc" or m.startswith("swcalc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("swcalc")
    cli = importlib.import_module("swcalc.cli")
    return API((pkg, cli))


def set_up(wl, plan, speed):
    """Import swcalc and build the inputs SETUP_REPS times, with speed
    samples between; returns the (start, duration) of each and the last
    API and inputs."""
    reps = []
    for _ in range(SETUP_REPS):
        gc.collect()
        for _ in range(3):
            speed.sample()
        t0 = clock()
        sc = import_swcalc()
        inputs = wl.build(sc, plan)
        reps.append((t0, clock() - t0))
    for _ in range(3):
        speed.sample()
    return reps, sc, inputs


def timed_loop(wl, sc, inputs, plan, seconds, speed, tracer=None):
    """Closed loop, one op at a time, until the ops have run `seconds`
    (or the loop has run three times as long).

    The clock runs only while an op runs. Each result is checked against
    its reference between ops, off the clock, and then dropped, so memory
    does not grow with the op count. Speed samples are taken between ops.
    Returns per op its (start, latency) and its (plan index, ok, failure
    shape, result length), and the summed op time.
    """
    lat, out = [], []
    busy = 0.0
    gc.collect()
    # if ops fail at once, the op clock barely moves: stop on wall time or
    # op count instead of looping for minutes
    give_up = clock() + 3 * seconds
    i = 0
    while busy < seconds and clock() < give_up and i < MAX_OPS:
        k = i % len(inputs)
        speed.sample_if_due()
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            res = wl.run(sc, inputs[k])
        except Exception as exc:     # a failed op, counted and reported
            t1 = clock()
            ok, shape, size = False, type(exc).__name__, 0
        else:
            t1 = clock()
            try:
                ok, shape = wl.check(res, plan[k])
                size = len(res)
            except Exception as exc:     # a result of the wrong type
                ok, shape, size = False, f"unreadable_{type(exc).__name__}", 0
        lat.append((t0, t1 - t0))
        busy += t1 - t0
        out.append((k, ok, shape, size))
        i += 1
    speed.sample()
    return lat, out, busy


def bucket_medians(wl, plan, out, lat):
    """Median latency in ms per bucket key (the scaling curve)."""
    per = {}
    for (k, ok, _, _), t in zip(out, lat):
        key = wl.bucket(plan[k])
        if ok and key is not None:
            per.setdefault(key, []).append(t * 1e3)
    return {key: (statistics.median(v), len(v)) for key, v in sorted(per.items())}


def range_medians(wl, plan, out, lat):
    """Median latency in ms per named bucket range, e.g. c8-10."""
    medians = {}
    for label, (lo, hi) in wl.buckets.items():
        vals = [t * 1e3 for (k, ok, _, _), t in zip(out, lat)
                if ok and wl.bucket(plan[k]) is not None
                and lo <= wl.bucket(plan[k]) <= hi]
        medians[label] = (statistics.median(vals) if vals else 0.0, len(vals))
    return medians


def run_probe(wl, sc, rng):
    """The sw_walk defect shapes, untimed and untraced: shape -> outcomes."""
    items = wl.probe_plan(rng, PROBES_PER_SHAPE)
    inputs = wl.build(sc, items)
    report = {}
    for item, desc in zip(items, inputs):
        try:
            ok, shape = wl.check(wl.run(sc, desc), item)
        except Exception as exc:     # the defect shape being reported
            ok, shape = False, type(exc).__name__
        report.setdefault(item["kind"], []).append(
            "correct" if ok else shape)
    return report


def percentiles(times_s):
    """Median and 90th percentile in ms."""
    ms = [t * 1e3 for t in times_s]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else 0.0
    return (statistics.median(ms) if ms else 0.0), p90


def summarise(lat, out, busy, speed):
    """Counts, ops_per_s and latency percentiles (ms) over the correct ops,
    at the reference speed and as measured ("raw_")."""
    good = [ok for _, ok, _, _ in out]
    scaled = speed.scale(lat)
    p50, p90 = percentiles([t for t, ok in zip(scaled, good) if ok])
    raw_p50, raw_p90 = percentiles([t for (_, t), ok in zip(lat, good) if ok])
    correct = sum(good)
    return {"attempted": len(out), "failed": len(out) - correct,
            "correct": correct, "busy": busy, "scaled_busy": sum(scaled),
            "ops_per_s": correct / sum(scaled), "p50": p50, "p90": p90,
            "raw_ops_per_s": correct / busy, "raw_p50": raw_p50,
            "raw_p90": raw_p90, "factor": sum(scaled) / busy,
            "beyond_p90": sum(1 for t, ok in zip(scaled, good)
                              if ok and t * 1e3 > p90)}


def print_verdicts(out, plan):
    marks = "".join("." if ok else "F" for _, ok, _, _ in out)
    print(f"verdicts ({len(out)} ops, '.' = equal to the reference, "
          f"'F' = failed):")
    for lo in range(0, len(marks), 100):
        print("  " + marks[lo:lo + 100])
    for i, (k, ok, shape, _) in enumerate(out):
        if not ok:
            print(f"  op {i} (plan item {k}, {plan[k].get('kind', '')}): "
                  f"FAILED {shape}")


def print_curve(wl, curve):
    if wl.bucket_name and curve:
        print(f"scaling curve, median ms by {wl.bucket_name}:")
        for key, (med, n) in curve.items():
            print(f"  {key:>4}  {med:10.3f} ms  (n = {n})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "swcalc" / "__init__.py").is_file():
        print(f"error: no swcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")

    t0 = clock()
    plan = wl.plan(rng, PLAN_LENGTH[wl.name])
    plan_s = clock() - t0
    speed = Speed()
    setup_reps, sc, inputs = set_up(wl, plan, speed)
    setup_times = speed.scale(setup_reps)
    setup_s = statistics.median(setup_times)
    origin = Path(sys.modules["swcalc"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: swcalc was imported from {origin}", file=sys.stderr)
        return 2

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"plan: {len(plan)} inputs with references in {plan_s:.2f} s "
          f"(not timed)")
    print("set-up times (s): " + " ".join(f"{t:.4f}" for t in setup_times)
          + "  as measured: "
          + " ".join(f"{d:.4f}" for _, d in setup_reps))

    if args.trace:
        return traced_run(wl, args, plan, sc, inputs, rng, speed)

    lat, out, busy = timed_loop(wl, sc, inputs, plan, args.seconds, speed)
    s = summarise(lat, out, busy, speed)
    print_verdicts(out, plan)
    print_curve(wl, bucket_medians(wl, plan, out, speed.scale(lat)))
    probe = run_probe(wl, sc, rng) if hasattr(wl, "probe_plan") else None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (s["ops_per_s"], "ops/s"),
        "latency_p50_ms": (s["p50"], "ms"),
        "latency_p90_ms": (s["p90"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print("times are at the reference speed: measured times x "
          f"{s['factor']:.4f} on average, from {len(speed.took)} speed "
          "samples")
    print(f"ops_per_s       {s['ops_per_s']:.4f} ops/s  "
          f"({s['correct']} correct ops in {s['scaled_busy']:.3f} s of op "
          f"time; as measured {s['raw_ops_per_s']:.4f} in {s['busy']:.3f} s)")
    print(f"latency_p50_ms  {s['p50']:.4f} ms  (n = {s['correct']}; as "
          f"measured {s['raw_p50']:.4f})")
    print(f"latency_p90_ms  {s['p90']:.4f} ms  (n = {s['correct']}, "
          f"{s['beyond_p90']} beyond it; as measured {s['raw_p90']:.4f})")
    print(f"error_rate      {s['failed'] / s['attempted']:.4f} ratio  "
          f"({s['failed']} failed of {s['attempted']} attempted)")
    print(f"setup_s         {setup_s:.4f} s  (median of {SETUP_REPS})")
    print(f"peak_rss_mb     {peak_mb:.2f} MB")
    if probe is not None:
        print_probe(probe)
    print(json.dumps({
        "correct": s["failed"] == 0, "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_probe(probe):
    print("known defects (probe outside the timed loop, "
          f"{PROBES_PER_SHAPE} trees per shape):")
    for kind, outcomes in probe.items():
        failed = sum(1 for o in outcomes if o != "correct")
        print(f"  {kind:18s} {failed}/{len(outcomes)} fail: "
              + ", ".join(outcomes))


def traced_run(wl, args, plan, sc, inputs, rng, speed):
    half = args.seconds / 2
    lat_u, out_u, busy_u = timed_loop(wl, sc, inputs, plan, half, speed)
    su = summarise(lat_u, out_u, busy_u, speed)

    tracer = tr.Tracer()
    tracer.install()
    limit = sys.getrecursionlimit()
    try:
        traced_inputs = wl.build(sc, plan)       # spans of op -1: set-up
        # every wrapped entry point adds a frame; give them their own room
        sys.setrecursionlimit(2 * limit)
        lat_t, out_t, busy_t = timed_loop(wl, sc, traced_inputs, plan, half,
                                          speed, tracer)
    finally:
        sys.setrecursionlimit(limit)
        tracer.uninstall()
    st = summarise(lat_t, out_t, busy_t, speed)
    probe = run_probe(wl, sc, rng) if hasattr(wl, "probe_plan") else None

    scaled_u, scaled_t = speed.scale(lat_u), speed.scale(lat_t)
    common = min(len(lat_u), len(lat_t))
    overhead = sum(scaled_t[:common]) / sum(scaled_u[:common])
    calls, seconds, skein_in_walker = tracer.layer_totals()
    curve = bucket_medians(wl, plan, out_u, scaled_u)
    ranges = range_medians(wl, plan, out_u, scaled_u)
    attempted = su["attempted"] + st["attempted"]
    failed = su["failed"] + st["failed"]
    result_terms = [size for _, ok, _, size in out_t
                    if ok and wl.name == "sw_walk"]
    nodes = len(tracer.walker_nodes)
    canon = calls["knots.canonical_form"]
    memo = tracer.counters["knots.skein.memo_entries"]
    probe_fail = {kind: sum(1 for o in v if o != "correct")
                  for kind, v in (probe or {}).items()}

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for layer in ("knots.canonical_form", "knots.reduce_kinks",
                  "knots.alexander_skein", "knots.alexander_fox",
                  "laurent.mul", "laurent.exact_div", "sw.from_manifold"):
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", seconds[layer], "s")
    for layer in ("knots.alexander_skein", "knots.alexander_fox",
                  "sw.from_manifold"):
        put(f"{layer}.errors", tracer.errors[layer], "count")
    put("knots.skein.memo_entries", memo, "count")
    put("knots.skein.memo_hit_ratio", 1 - memo / canon if canon else 0.0,
        "ratio")
    engine_ranges = {"knot_skein": "knots.alexander_skein",
                     "knot_fox": "knots.alexander_fox",
                     "sw_walk": "sw.ladder"}
    for wname in ("knot_skein", "knot_fox", "sw_walk"):
        for label in WORKLOADS[wname].buckets:
            value = ranges[label][0] if wname == wl.name else 0.0
            put(f"{engine_ranges[wname]}.median_ms.{label}", value, "ms")
    put("laurent.mul.terms_out", tracer.counters["laurent.mul.terms_out"],
        "count")
    for layer in ("laurent.parse_poly", "laurent.str", "sw.glue",
                  "sw.blowup_formula", "sw.knot_surgery_formula",
                  "sw.log_transform", "cli.statement", "knots.parse_pd",
                  "manifolds.build", "knots.braid_closure"):
        put(f"{layer}.self_s", seconds[layer], "s")
    put("sw.from_manifold.evals_per_node",
        calls["sw.from_manifold"] / nodes if nodes else 0.0, "ratio")
    put("sw.result_terms",
        statistics.median(result_terms) if result_terms else 0.0, "count")
    put("sw.alexander_skein.self_s", skein_in_walker, "s")
    put("cli.statements", calls["cli.statement"], "count")
    put("trace.ops_per_s_untraced", su["ops_per_s"], "ops/s")
    put("trace.ops_per_s_traced", st["ops_per_s"], "ops/s")
    put("trace.overhead", overhead, "ratio")
    put("error_rate", failed / attempted, "ratio")
    put("sw.defect.chain_recursion_error", probe_fail.get("chain1000", 0),
        "count")
    put("sw.defect.collapsed_classes",
        probe_fail.get("blowup_both_sides", 0), "count")

    out_path = (HERE / "out" /
                f"spans-{wl.name}-seed{args.seed}.bin.gz")
    n_spans = tracer.write(out_path)

    print_verdicts(out_u + out_t, plan)
    print_curve(wl, curve)
    if probe is not None:
        print_probe(probe)
    print(f"untraced half: {su['correct']} correct ops in "
          f"{su['scaled_busy']:.3f} s, {su['ops_per_s']:.4f} ops/s")
    print(f"traced half:   {st['correct']} correct ops in "
          f"{st['scaled_busy']:.3f} s, {st['ops_per_s']:.4f} ops/s")
    print(f"tracing overhead: {overhead:.4f} (traced / untraced time of the "
          f"first {common} ops, at the reference speed)")
    print(f"memo hit ratio base: {canon} canonical_form calls, "
          f"{memo} memo entries")
    print(f"walker: {calls['sw.from_manifold']} from_manifold calls on "
          f"{nodes} distinct nodes")
    print(f"spans: {n_spans} written to {out_path.relative_to(ROOT)}")
    print("per-layer metrics:")
    for name, (value, unit) in m.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

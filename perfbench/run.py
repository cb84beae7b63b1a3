"""Benchmark of the leibnizalg package: one seeded request stream per run.

    python3 perfbench/run.py --workload reduce|identify --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One client drives a closed loop in this single process: the
next request is generated only after the previous reply was checked.
Every reply goes through the workload's oracle, and a wrong or failed
reply counts against `failed`.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics, taken over the fastest request of each request
shape of the workload's fixed mix; with `--trace 1` every per-layer
metric, where every other request is traced and the rest measure the
tracing overhead.  Spans of a traced run are written to
`perfbench/out/`.  The lines before the last one explain each metric
with its sample count, the workload's property shares, and a fixed
`Fraction` machine-speed probe taken before and after the run, which is
a diagnostic only and never rescales a metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Extra set-ups, each in a fresh interpreter, for the median of setup_s.
SETUP_REPEATS = 12
# latency_tail_ms is p90 on every workload.  The highest percentile with ten
# samples beyond it depends on how many requests a run completes, so on a
# host whose speed drifts it would switch between p90 and p99; it is
# printed, not gated.
TAIL_PERCENTILE = 90.0
TAIL_PERCENTILES = ((99.9, "p99.9"), (99.0, "p99"), (90.0, "p90"))
# The host's speed flips between levels up to three times apart, in phases
# from a fraction of a second to minutes, so each end-to-end timing is taken
# over the fastest successful request of each request shape, the shape
# weighted by its share of a round (see mix_minimum).  No metric is rescaled.
DRIVER_SPANS = ("driver.generate", "driver.check")
# The spans and cache groups behind the per-layer metrics.  Every workload
# reports all of them; each opens only the spans in its own SPANS.
LAYER_SPANS = (
    "isomorphism.fingerprint",
    "isomorphism.compare",
    "core.check_leibniz",
    "extension.central_extension",
    "extension.reduce_extension",
    "isomorphism.verify",
    "cohomology.cocycle_space",
    "cohomology.cohomology_basis",
    "isomorphism.search",
    "files.parse",
    "files.serialize",
)
LAYER_CACHES = ("core", "cohomology")
# Per-request values computed by the benchmark, and how a run aggregates them.
COMPUTED = {
    "isomorphism.search_trials": statistics.mean,
    "isomorphism.search_found_ratio": statistics.mean,
    "linalg.condition_rows": statistics.median,
    "linalg.coeff_bits": statistics.median,
}
UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "core.cache_hit_ratio": "ratio",
    "core.cache_entries": "count",
    "cohomology.cache_hit_ratio": "ratio",
    "cohomology.cache_entries": "count",
    "isomorphism.search_trials": "count",
    "isomorphism.search_found_ratio": "ratio",
    "linalg.condition_rows": "count",
    "linalg.coeff_bits": "bits",
    "trace.overhead_rps": "1/s",
}


def fraction_probe() -> float:
    """Milliseconds for a fixed pure-Python Fraction loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 6001):
        acc = acc * Fraction(i, i + 1) + Fraction(1, i)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
    return (time.perf_counter() - start) * 1e3


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of a sorted sample."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(ordered: list[float]) -> tuple[str, float, int]:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else the maximum."""
    for p, label in TAIL_PERCENTILES:
        value = percentile(ordered, p)
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= 10:
            return label, value, beyond
    return "max", ordered[-1], 0


def import_package() -> None:
    """Import leibnizalg from this checkout's src/, or exit with code 2."""
    if not (SRC / "leibnizalg" / "__init__.py").is_file():
        print("perfbench: no package source at %s; run from a source checkout" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import leibnizalg

    if Path(leibnizalg.__file__).resolve().parent != SRC / "leibnizalg":
        print("perfbench: imported leibnizalg from %s, not from this checkout" % leibnizalg.__file__,
              file=sys.stderr)
        sys.exit(2)


def setup_elsewhere(args) -> float:
    """setup_s measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Service time of every request in order, None where it failed, and
    # whether that request was traced.
    service: list[float | None] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    computed: dict[str, list[float]] = field(default_factory=dict)
    # (hits, misses) over the loop and entries at its end, per cache group;
    # None once a group lacks cache_info.
    cache: dict[str, list[int] | None] = field(default_factory=dict)
    rss_mb: float | None = None
    # The shape of every request in order (the workload's shape()).
    shapes: list = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(workload, tracer, seconds: float, trace: bool) -> LoopResult:
    from tracing import NullTracer
    from workloads import cache_snapshot

    null = NullTracer()
    res = LoopResult()
    deadline = time.perf_counter() + seconds
    while True:
        res.attempted += 1
        traced = trace and res.attempted % 2 == 1
        spans = tracer if traced else null
        spans.begin_request(res.attempted)
        with spans.span("driver.generate"):
            req = workload.next_request()
        before = cache_snapshot()
        with spans.span("request"):
            start = time.perf_counter()
            try:
                reply, problems = workload.serve(req, spans), []
            except Exception as exc:  # a failed request is counted, not fatal
                reply, problems = None, ["%s: %s" % (type(exc).__name__, exc)]
            elapsed = time.perf_counter() - start
        after = cache_snapshot()
        for group, now in after.items():
            then = before[group]
            if now is None or then is None or res.cache.get(group, 0) is None:
                res.cache[group] = None
                continue
            acc = res.cache.setdefault(group, [0, 0, 0])
            acc[0] += now[0] - then[0]
            acc[1] += now[1] - then[1]
            acc[2] = now[2]
        with spans.span("driver.check"):
            if reply is not None:
                problems = workload.check(req, reply)
                if traced:
                    for name, value in workload.computed(req, reply).items():
                        res.computed.setdefault(name, []).append(value)
        if problems:
            res.failed += 1
            if len(res.failures) < 5:
                res.failures.append("request %d: %s" % (res.attempted, "; ".join(problems)))
        res.service.append(None if problems else elapsed)
        res.traced.append(traced)
        res.shapes.append(workload.shape(req))
        if res.attempted == workload.RSS_AFTER:
            res.rss_mb = peak_rss_mb()
        # Stop only between rounds, so that every run serves whole rounds and
        # its timings do not depend on which requests a cut-off round held.
        if res.attempted % workload.ROUND == 0 and time.perf_counter() >= deadline:
            break
    return res


def mix_minimum(res: LoopResult, size: int) -> list[tuple[float, int]]:
    """(fastest service time, requests per round) of every request shape of the mix.

    A shape recurs every round with new inputs; its fastest request is the
    one the host disturbed least, whatever phase the host was in.
    """
    fastest: dict = {}
    for shape, took in zip(res.shapes, res.service):
        if took is not None:
            fastest[shape] = min(took, fastest.get(shape, took))
    mix = Counter(s for s in res.shapes[:size] if s in fastest)
    return [(fastest[s], n) for s, n in mix.items()]


def weighted_percentile(samples: list[tuple[float, float]], p: float) -> float:
    """Percentile of (value, weight) samples, each value placed at the middle of its weight.

    Between those places the percentile is linearly interpolated, so it does
    not jump from one value to the next when two shapes trade places.
    """
    ordered = sorted(samples)
    target = sum(w for _, w in ordered) * p / 100.0
    places, acc = [], 0.0
    for value, weight in ordered:
        places.append((acc + weight / 2.0, value))
        acc += weight
    for (x0, v0), (x1, v1) in zip(places, places[1:]):
        if x0 <= target <= x1:
            return v0 + (v1 - v0) * (target - x0) / (x1 - x0)
    return places[0][1] if target < places[0][0] else places[-1][1]


def end_to_end(res: LoopResult, setup_samples: list[float], workload, out: list[str]) -> dict[str, float]:
    shapes = mix_minimum(res, workload.ROUND)
    everything = sorted(x for x in res.service if x is not None)
    label, highest, beyond = tail(everything)
    metrics = {
        "throughput_rps": sum(n for _, n in shapes) / sum(t * n for t, n in shapes),
        "latency_p50_ms": weighted_percentile(shapes, 50) * 1e3,
        "latency_tail_ms": weighted_percentile(shapes, TAIL_PERCENTILE) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res.rss_mb if res.rss_mb is not None else peak_rss_mb(),
    }
    out.append("throughput_rps %.3f 1/s: a round of %d shapes at each shape's fastest request; over "
               "the whole run %d requests, %.3f 1/s" % (metrics["throughput_rps"], len(shapes),
                                                       len(everything), len(everything) / sum(everything)))
    out.append("latency_p50_ms %.3f ms: of the shapes' fastest requests; over the whole run %.3f ms"
               % (metrics["latency_p50_ms"], percentile(everything, 50) * 1e3))
    out.append("latency_tail_ms %.3f ms is p90 of the shapes' fastest requests; over the whole run "
               "p90 = %.3f ms, and the highest percentile with ten beyond it is %s = %.3f ms "
               "(%d beyond)" % (metrics["latency_tail_ms"], percentile(everything, TAIL_PERCENTILE) * 1e3,
                                label, highest * 1e3, beyond))
    out.append("setup_s %.4f s is the median of %d set-ups: %s"
               % (metrics["setup_s"], len(setup_samples), ", ".join("%.4f" % s for s in setup_samples)))
    out.append("peak_rss_mb %.2f MB: ru_maxrss after %s; %.2f MB at the end of the run"
               % (metrics["peak_rss_mb"],
                  "the first %d requests" % workload.RSS_AFTER if res.rss_mb is not None
                  else "all %d requests (fewer than %d)" % (res.attempted, workload.RSS_AFTER),
                  peak_rss_mb()))
    return metrics


def per_layer(tracer, res: LoopResult, workload, out: list[str]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, on every workload, and the missing cache counters.

    A span the workload never opens reads 0 ms, a cache group without
    lookups a hit ratio of 0, and a value the workload does not compute 0;
    the lines in `out` say which.  A group whose functions lack
    `cache_info()` reads -1 and is listed as missing.
    """
    requests = {r for _, _, _, parent, r in tracer.spans if r is not None and parent is None}
    per_request = tracer.per_request(requests)
    request_total = sum(e - s for n, s, e, p, r in tracer.spans if n == "request")
    zeros = [0.0] * len(requests)

    def share(values: list[float]) -> float:
        return 100.0 * sum(values) / request_total

    metrics: dict[str, float] = {}
    for name in LAYER_SPANS:
        values = per_request.get(name, zeros)
        metrics[name + "_ms"] = statistics.median(values) * 1e3
        if name in workload.SPANS:
            out.append("%s_ms %.4f ms median self time per request, %.1f%% of request time, %d requests"
                       % (name, metrics[name + "_ms"], share(values), len(values)))
        else:
            out.append("%s_ms 0: %s does not call it" % (name, workload.NAME))
    driver = [sum(col) for col in zip(*(per_request.get(n, zeros) for n in DRIVER_SPANS + ("request",)))]
    metrics["driver.self_ms"] = statistics.median(driver) * 1e3
    out.append("driver.self_ms %.4f ms median per request (generation, oracle and glue); "
               "%.1f%% of request time" % (metrics["driver.self_ms"], share(driver)))
    metrics["catalog.make_ms"] = sum(e - s for n, s, e, p, r in tracer.spans
                                     if n == "catalog.make" and r is None) * 1e3
    out.append("catalog.make_ms %.3f ms summed over set-up" % metrics["catalog.make_ms"])
    missing = []
    for group in LAYER_CACHES:
        delta = res.cache.get(group)
        if delta is None:
            missing.extend((group + ".cache_hit_ratio", group + ".cache_entries"))
            metrics[group + ".cache_hit_ratio"] = metrics[group + ".cache_entries"] = -1.0
            continue
        hits, misses, entries = delta
        metrics[group + ".cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics[group + ".cache_entries"] = entries
        out.append("%s cache: %d hits and %d misses over the timed loop, %d entries at its end"
                   % (group, hits, misses, entries))
    for name, aggregate in COMPUTED.items():
        values = res.computed.get(name)
        metrics[name] = float(aggregate(values)) if values else 0.0
        if values:
            out.append("%s %.3f (computed by the benchmark) over %d traced requests"
                       % (name, metrics[name], len(values)))
        else:
            out.append("%s 0: %s does not compute it" % (name, workload.NAME))
    rps, count = {}, {}
    for flag in (True, False):
        lat = [s for s, t in zip(res.service, res.traced) if t == flag and s is not None]
        rps[flag], count[flag] = (len(lat) / sum(lat) if lat else 0.0), len(lat)
    metrics["trace.overhead_rps"] = rps[True] - rps[False]
    out.append("trace.overhead_rps %.3f 1/s: traced %.3f over %d requests, untraced %.3f over %d"
               % (metrics["trace.overhead_rps"], rps[True], count[True], rps[False], count[False]))
    return metrics, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("reduce", "identify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    probe_before = None if args.setup_only else fraction_probe()
    start = time.perf_counter()
    import_package()
    sys.path.insert(0, str(HERE))
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(tracer)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    res = run_loop(workload, tracer, args.seconds, bool(args.trace))
    probe_after = fraction_probe()
    if not args.trace and all(s is None for s in res.service):
        print("perfbench: no request succeeded; %s" % "; ".join(res.failures), file=sys.stderr)
        return 1
    out: list[str] = []
    missing: list[str] = []
    if args.trace:
        metrics, missing = per_layer(tracer, res, workload, out)
    else:
        setups = [setup_s] + [setup_elsewhere(args) for _ in range(SETUP_REPEATS)]
        metrics = end_to_end(res, setups, workload, out)
    out.append("error_rate %.6f: %d of %d requests failed or were wrong"
               % (res.failed / res.attempted, res.failed, res.attempted))
    out.extend("failure " + line for line in res.failures)
    if missing:
        out.append("missing counters (no cache_info): " + ", ".join(missing))
    out.append("properties " + json.dumps(workload.properties(), sort_keys=True))
    out.append("probe_ms before %.3f after %.3f (diagnostic only)" % (probe_before, probe_after))
    if args.trace:
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / ("trace-%s-%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "metrics": metrics, "spans": tracer.dump()}))
        out.append("spans written to %s" % path.relative_to(ROOT))
    print("\n".join(out))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "ms")}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

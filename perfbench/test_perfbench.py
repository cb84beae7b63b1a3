"""Planted-fault checks for the benchmark's oracles, plus its span arithmetic.

    python3 -m pytest perfbench -q

A corrupted reply must be counted as an error, so that a benchmark run
reporting no failures means the oracles looked and found none.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from leibnizalg import Matrix, SearchResult  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def served(request):
    """A set-up workload with one request and its honest reply."""
    wl = workloads.WORKLOADS[request.param](7)
    wl.setup(NullTracer())
    req = wl.next_request()
    return wl, req, wl.serve(req, NullTracer())


def test_honest_replies_pass(served):
    wl, req, reply = served
    assert wl.check(req, reply) == []


def _perturbed(m: Matrix, r: int, c: int) -> Matrix:
    rows = [list(row) for row in m.data]
    rows[r][c] += 1
    return Matrix(rows, cols=m.cols)


def test_reduce_perturbed_change_of_basis_is_an_error():
    wl = workloads.Reduce(11)
    wl.setup(NullTracer())
    req = wl.next_request()
    reply = wl.serve(req, NullTracer())
    n = wl.bases[req.family, req.n].dim
    # Scaling e_1, or giving e_n (a bracket of generators) a central part,
    # breaks the bracket.  A central part on a generator's image would not.
    for r, c in ((0, 0), (n + len(req.forms) - 1, n - 1)):
        report = dataclasses.replace(
            reply.report, change_of_basis=_perturbed(reply.report.change_of_basis, r, c))
        bad = dataclasses.replace(reply, report=report)
        assert wl.check(req, bad), (r, c)


def test_reduce_wrong_class_rank_is_an_error():
    wl = workloads.Reduce(12)
    wl.setup(NullTracer())
    req = wl.next_request()
    reply = wl.serve(req, NullTracer())
    report = dataclasses.replace(reply.report, class_rank=5)
    assert wl.check(req, dataclasses.replace(reply, report=report))


def test_identify_corrupted_replies_are_errors():
    wl = workloads.Identify(3)
    wl.setup(NullTracer())
    req = wl.next_request()
    while req.kind != "sparse":
        req = wl.next_request()
    reply = wl.serve(req, NullTracer())
    assert reply.search.status == "found"
    assert wl.check(req, reply) == []
    bad_matrix = dataclasses.replace(
        reply, search=SearchResult("found", _perturbed(reply.search.matrix, 0, 1), trials=1))
    assert wl.check(req, bad_matrix)
    assert wl.check(req, dataclasses.replace(reply, search=SearchResult("distinguished", invariant="dim")))
    assert wl.check(req, dataclasses.replace(reply, verdict="distinguished"))
    assert wl.check(req, dataclasses.replace(reply, text=reply.text.replace('"c": "1"', '"c": "2"', 1)))


def test_loop_counts_corrupted_replies():
    """A serve path that corrupts every reply makes every request fail."""
    wl = workloads.Reduce(13)
    wl.setup(NullTracer())
    honest = wl.serve

    def corrupt(req, tracer):
        reply = honest(req, tracer)
        cob = _perturbed(reply.report.change_of_basis, 0, 0)
        return dataclasses.replace(reply, report=dataclasses.replace(reply.report, change_of_basis=cob))

    wl.serve = corrupt
    res = run.run_loop(wl, NullTracer(), 0.0, False)
    assert res.attempted >= 1 and res.failed == res.attempted and res.failures
    assert res.service == [None] * res.attempted


def test_loop_counts_exceptions():
    wl = workloads.Reduce(1)
    wl.setup(NullTracer())

    def explode(req, tracer):
        raise ArithmeticError("planted")

    wl.serve = explode
    res = run.run_loop(wl, NullTracer(), 0.0, False)
    assert res.failed == res.attempted == wl.ROUND and "planted" in res.failures[0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.begin_request(1)
    with tracer.span("request"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    spans = tracer.spans
    own = tracer.self_times()
    duration = [e - s for _, s, e, _, _ in spans]
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])
    assert own[2] == pytest.approx(duration[2] - duration[3])
    assert own[3] == duration[3]
    per = tracer.per_request({1})
    assert per["a"] == [own[1]] and per["request"] == [own[0]]


MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(metrics: dict) -> dict:
    return {name: run.UNITS.get(name, "ms") for name in metrics}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    wl = workloads.WORKLOADS[name](2)
    tracer = Tracer()
    wl.setup(tracer)
    res = run.run_loop(wl, tracer, 0.0, True)
    metrics, missing = run.per_layer(tracer, res, wl, [])
    assert _result(metrics) == {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} and not missing
    for span in run.LAYER_SPANS:
        assert (metrics[span + "_ms"] > 0) == (span in wl.SPANS), span
    assert metrics["catalog.make_ms"] > 0 and metrics["driver.self_ms"] > 0
    assert metrics["cohomology.cache_hit_ratio"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    wl = workloads.Reduce(2)
    wl.setup(NullTracer())
    res = run.run_loop(wl, NullTracer(), 0.0, False)
    metrics = run.end_to_end(res, [0.5], wl, [])
    assert _result(metrics) == {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_mix_minimum_weights_shapes_as_a_round_does():
    # A round is a, a, b, c; failed requests (None) are left out.
    res = run.LoopResult(
        service=[0.2, 0.1, 1.0, None, 0.3, 0.1, 3.0, 5.0, 0.1, 0.3, 2.0, 4.0],
        shapes=["a", "a", "b", "c"] * 3,
    )
    shapes = sorted(run.mix_minimum(res, 4))
    assert shapes == [(0.1, 2), (1.0, 1), (4.0, 1)]
    # 0.1 weighs 2 and sits at 1, 1.0 at 2.5, 4.0 at 3.5 of a total weight of 4.
    assert run.weighted_percentile(shapes, 20) == 0.1
    assert run.weighted_percentile(shapes, 50) == pytest.approx(0.7)
    assert run.weighted_percentile(shapes, 75) == pytest.approx(2.5)
    assert run.weighted_percentile(shapes, 90) == 4.0


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 90)])[0] == "max"
    assert run.tail([float(i) for i in range(1, 102)])[0] == "p90"
    label, value, beyond = run.tail([float(i) for i in range(1, 2001)])
    assert label == "p99" and beyond >= 10


def test_cache_snapshot_reports_missing_cache_info(monkeypatch):
    monkeypatch.setitem(workloads.CACHE_GROUPS, "core", (lambda a: a,))
    snap = workloads.cache_snapshot()
    assert snap["core"] is None and snap["cohomology"] is not None


def test_fraction_values_in_bits():
    assert workloads.coeff_bits([Fraction(1, 3), Fraction(-255)]) == 8

"""The benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q

Span self time, sample summaries, the CPU speed gauge, parallel
efficiency, and the digest check that must reject a corrupted result.
Needs no simulator run.
"""

import copy
import os
import statistics
import sys
from dataclasses import dataclass

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import gauge  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


# -- span self time ----------------------------------------------------------


def test_self_time_subtracts_nested_children():
    recorded = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0),
                span("c", 5.0, 9.0, 0), span("d", 6.0, 7.0, 2)]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [span("a", 0.0, 10.0), span("b", 2.0, 6.0, 0),
                span("c", 4.0, 8.0, 0), span("d", 5.0, 7.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    recorded = [span("a", 2.0, 6.0), span("b", 0.0, 3.0, 0),
                span("c", 5.0, 9.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(2.0)


def test_totals_aggregate_by_name_and_tolerate_unfinished_spans():
    recorded = [span("run", 0.0, 4.0), span("tick", 1.0, 2.0, 0),
                span("tick", 2.5, 3.0, 0), span("tick", 3.5, None, 0)]
    by_name = spans.totals(recorded)
    assert by_name["run"] == pytest.approx(
        {"count": 1, "total_s": 4.0, "self_s": 2.5})
    assert by_name["tick"]["count"] == 3
    assert by_name["tick"]["total_s"] == pytest.approx(1.5)


def test_recorder_wraps_and_restores_functions_and_methods():
    class Clock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 1.0
            return self.now

    class Worker:
        def step(self, n):
            return n * 2

    recorder = spans.SpanRecorder(clock=Clock())
    original = Worker.step
    recorder.patch(Worker, "step", recorder.wrap("step", original))
    outer = recorder.wrap("outer", lambda: Worker().step(3))
    assert outer() == 6
    recorder.restore()
    assert Worker.step is original
    assert [s[0] for s in recorder.spans] == ["outer", "step"]
    assert recorder.spans[1][3] == 0          # parent is "outer"
    assert spans.self_times(recorder.spans) == [2.0, 1.0]


# -- sample summaries --------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = stats.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)


def test_one_sample_summary_has_equal_quartiles():
    summary = stats.summarize([2.5])
    assert summary == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5}


@pytest.mark.parametrize("n, expected", [
    (10, None), (99, None), (100, 90), (199, 90), (200, 95),
    (1000, 99), (10_000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summary_reports_tail_and_sample_count():
    values = list(range(1, 201))
    summary = stats.summarize(values)
    assert summary["n"] == 200
    assert summary["p"] == 95
    assert sum(1 for v in values if v > summary["tail"]) >= 10
    text = stats.format_summary(summary, "s")
    assert "(n=200)" in text and "p95" in text


def test_summary_without_tail_says_so():
    text = stats.format_summary(stats.summarize([1.0, 2.0, 3.0]), "ms")
    assert text == "median 2 ms [q1 1, q3 3] (n=3)"


# -- CPU speed gauge ---------------------------------------------------------


def test_gauge_scale_reads_host_seconds_at_the_reference_speed():
    # a CPU twice as slow as the reference halves every timing
    factor = gauge.scale(2 * gauge.REFERENCE_LOOP_S)
    assert factor == pytest.approx(0.5)
    assert 6.0 * factor == pytest.approx(3.0)


def test_gauge_mean_weighs_each_cpu_alike_within_the_window():
    samples = {0: [(0.5, 9.0), (1.0, 1.0), (2.0, 3.0), (9.0, 9.0)],
               1: [(1.5, 4.0)]}
    # cpu 0: (1 + 3) / 2 = 2; cpu 1: 4; mean of the two CPUs
    assert gauge.mean_loop_s(samples, (0, 1), 1.0, 2.0) == pytest.approx(3.0)
    assert gauge.mean_loop_s(samples, (0,), 1.0, 2.0) == pytest.approx(2.0)


def test_gauge_mean_falls_back_to_the_latest_earlier_sample():
    samples = {0: [(1.0, 2.0), (3.0, 5.0), (9.0, 7.0)], 1: []}
    assert gauge.mean_loop_s(samples, (0, 1), 4.0, 4.5) == pytest.approx(5.0)
    assert gauge.mean_loop_s(samples, (0,), 0.0, 0.5) is None


def test_gauge_samples_each_cpu_until_closed():
    cpu = min(os.sched_getaffinity(0))
    with gauge.Gauge((cpu,), period_s=0.001) as running:
        while len(running.samples[cpu]) < 3:
            pass
    taken = list(running.samples[cpu])
    assert all(loop_s > 0 for _when, loop_s in taken)
    assert running.loop_s((cpu,), taken[0][0], taken[-1][0]) > 0
    assert len(running.samples[cpu]) == len(taken)   # stopped


# -- parallel efficiency -----------------------------------------------------


def test_par_idle_and_efficiency():
    # 2 workers for 10 s give 20 worker-seconds; cells used 15 of them
    assert stats.par_idle_s(2 * 10.0, 15.0) == pytest.approx(5.0)
    assert stats.par_efficiency(2 * 10.0, 15.0) == pytest.approx(0.75)


def test_par_efficiency_of_an_inline_run_is_one_and_idle_zero():
    assert stats.par_efficiency(1 * 4.0, 4.0) == pytest.approx(1.0)
    assert stats.par_idle_s(1 * 4.0, 4.0) == pytest.approx(0.0)
    assert stats.par_efficiency(0.0, 0.0) == 0.0


def test_par_metrics_from_runner_stats():
    import layers

    @dataclass
    class RunStats:
        cells: int
        executed: int
        failed: int
        jobs: int
        backend: str
        wall_s: float
        cell_wall_s: float
        cache: dict

    spawn = RunStats(11, 11, 0, 2, "spawn", 10.0, 15.0, {"misses": 11})
    spans_ = [span("par.run", 100.0, 110.0)]
    # cells finished at 103 (took 2 s) and 109 (took 6 s): first start 101
    metrics = layers.par_metrics(spans_, spans.totals(spans_),
                                 [(103.0, 2.0), (109.0, 6.0)], [spawn])
    assert metrics["par.idle_s"] == pytest.approx(5.0)
    assert metrics["par.efficiency"] == pytest.approx(0.75)
    assert metrics["par.first_cell_s"] == pytest.approx(1.0)
    assert metrics["par.slowest_cell_s"] == pytest.approx(6.0)
    assert metrics["par.run_s"] == pytest.approx(10.0)
    assert metrics["par.cache.misses"] == 11

    inline = RunStats(2, 2, 0, 1, "inline", 4.0, 3.9, {})
    spans_ = [span("par.run", 0.0, 4.0), span("par.cell", 0.05, 2.0, 0),
              span("par.cell", 2.0, 3.95, 0)]
    metrics = layers.par_metrics(spans_, spans.totals(spans_),
                                 [(2.0, 1.95), (3.95, 1.95)], [inline])
    assert metrics["par.run_s"] == pytest.approx(0.1)
    assert metrics["par.idle_s"] == pytest.approx(0.1)
    assert metrics["par.first_cell_s"] == pytest.approx(0.05)


# -- output digests ----------------------------------------------------------


@dataclass
class Outcome:
    name: str
    injections: int
    violations: int
    matches: bool = True


@dataclass
class Campaign:
    seed: int
    outcomes: list


def _campaigns():
    return [Campaign(7, [Outcome("a", 3, 0), Outcome("b", 1, 2)])]


def _reference(workload, outputs, key="7"):
    whole, cells = workloads.fingerprint(workload, outputs)
    entry = {"digest": whole, "cells": cells, "events": 1}
    if workload == "sweep":
        return {"sweep": entry}
    return {workload: {key: entry}}


def test_digest_is_canonical():
    assert workloads.digest({"b": 1, "a": [1.5, 2]}) == workloads.digest(
        {"a": [1.5, 2], "b": 1})
    assert workloads.digest({"a": 1}) != workloads.digest({"a": 2})


def test_faults_check_accepts_its_reference_and_rejects_corruption(
        monkeypatch):
    monkeypatch.setattr(workloads, "operations", lambda workload: 2)
    outputs = {"campaigns": _campaigns()}
    reference = _reference("faults-soak", outputs)
    assert workloads.check("faults-soak", 7, outputs, None, reference)[:2] \
        == (2, 0)

    corrupted = copy.deepcopy(outputs)
    corrupted["campaigns"][0].outcomes[1].violations = 3
    attempted, failed, problems = workloads.check(
        "faults-soak", 7, corrupted, None, reference)
    assert (attempted, failed) == (2, 1)
    assert problems


def test_faults_check_fails_a_scenario_that_missed_its_expectation(
        monkeypatch):
    monkeypatch.setattr(workloads, "operations", lambda workload: 2)
    outputs = {"campaigns": _campaigns()}
    outputs["campaigns"][0].outcomes[0].matches = False
    reference = _reference("faults-soak", outputs)
    assert workloads.check("faults-soak", 7, outputs, None, reference)[1] == 1


def test_sweep_check_counts_each_corrupted_cell(monkeypatch):
    monkeypatch.setattr(workloads, "operations", lambda workload: 3)
    outputs = {"payloads": [{"cell": name, "text": name + " ok\n"}
                            for name in ("fig3", "fig6", "sidechannel")]}
    reference = _reference("sweep", outputs)
    assert workloads.check("sweep", 0, outputs, None, reference)[1] == 0
    corrupted = copy.deepcopy(outputs)
    corrupted["payloads"][2]["text"] = "sidechannel 0% ok\n"
    assert workloads.check("sweep", 0, corrupted, None, reference)[1] == 1
    del corrupted["payloads"][0]           # every later cell shifts
    assert workloads.check("sweep", 0, corrupted, None, reference)[1] == 3


def test_cluster_check_rejects_a_corrupted_result(tmp_path):
    import json

    bench = {"experiment": "cluster", "seed": 3, "budget_w": 12.5}
    outputs = {"bench": bench}
    reference = {"cluster": {"3": {"digest": workloads.digest(bench),
                                   "cells": [workloads.digest(bench)],
                                   "events": 1}}}
    (tmp_path / "BENCH_cluster.json").write_text(json.dumps(bench))
    assert workloads.check("cluster", 3, outputs, str(tmp_path),
                           reference)[:2] == (1, 0)
    # a seed selects its program seed: 19 % 16 == 3
    assert workloads.check("cluster", 19, outputs, str(tmp_path),
                           reference)[:2] == (1, 0)
    corrupted = {"bench": dict(bench, budget_w=12.6)}
    (tmp_path / "BENCH_cluster.json").write_text(
        json.dumps(corrupted["bench"]))
    assert workloads.check("cluster", 3, corrupted, str(tmp_path),
                           reference)[:2] == (1, 1)


def test_a_seed_without_reference_fails_every_operation(monkeypatch):
    monkeypatch.setattr(workloads, "operations", lambda workload: 28)
    attempted, failed, problems = workloads.check(
        "faults-soak", 5, {"campaigns": []}, None, {})
    assert attempted == failed == 28
    assert problems

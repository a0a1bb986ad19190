"""ParallelRunner behaviour: determinism, cache flow, errors, metrics.

Pool tests here use the tiny spawn-safe runners from
:mod:`repro.par.testing`; the full-simulation differential proof lives in
``test_par_differential.py``.
"""

import io

import pytest

from repro.par import (
    CellError,
    ParallelRunner,
    ResultCache,
    effective_jobs,
    work_list,
)


def test_effective_jobs_caps_at_the_core_count():
    stream = io.StringIO()
    assert effective_jobs(8, cpu_count=4, stream=stream) == 4
    warning = stream.getvalue()
    assert "--jobs 8" in warning
    assert "4 available CPU cores" in warning
    assert warning.count("\n") == 1


def test_effective_jobs_passes_reasonable_requests_through():
    stream = io.StringIO()
    assert effective_jobs(4, cpu_count=4, stream=stream) == 4
    assert effective_jobs(1, cpu_count=4, stream=stream) == 1
    # Unknown core count (cpu_count() may return None): trust the caller.
    assert effective_jobs(16, cpu_count=0, stream=stream) == 16
    assert stream.getvalue() == ""


def test_effective_jobs_single_core_grammar():
    stream = io.StringIO()
    assert effective_jobs(2, cpu_count=1, stream=stream) == 1
    assert "1 available CPU core;" in stream.getvalue()


def test_effective_jobs_rejects_nonpositive_requests():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        effective_jobs(0, cpu_count=4)


def _square_items(n, offset=7):
    return work_list("demo", "repro.par.testing:square_cell",
                     [(seed, {"offset": offset}) for seed in range(n)])


def test_serial_runs_in_work_list_order():
    runner = ParallelRunner(jobs=1)
    payloads = runner.run(_square_items(6))
    assert [p["seed"] for p in payloads] == list(range(6))
    assert [p["value"] for p in payloads] == [s * s + 7 for s in range(6)]
    assert runner.stats.cells == 6
    assert runner.stats.executed == 6
    assert runner.stats.cached == 0


def test_parallel_equals_serial():
    serial = ParallelRunner(jobs=1).run(_square_items(9))
    parallel = ParallelRunner(jobs=3).run(_square_items(9))
    assert parallel == serial


def test_merge_ignores_completion_order():
    """Cells sleep in *reverse* index order, so completion order inverts the
    work-list; the merge must still return index order.  Four spawn
    workers run the four cells at once, so they finish out of order."""
    items = work_list(
        "demo", "repro.par.testing:sleep_cell",
        [(seed, {"s": 0.15 - 0.04 * seed}) for seed in range(4)],
    )
    runner = ParallelRunner(jobs=4, backend="spawn")
    payloads = runner.run(items)
    assert [p["seed"] for p in payloads] == [0, 1, 2, 3]
    assert runner.stats.backend == "spawn"


def test_cache_skips_completed_cells(tmp_path):
    items = _square_items(5)
    first = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads_first = first.run(items)
    assert first.stats.executed == 5

    second = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads_second = second.run(items)
    assert payloads_second == payloads_first
    assert second.stats.cached == 5
    assert second.stats.executed == 0
    assert "all cells cached" in second.stats.summary()


def test_cache_partial_hit_runs_only_the_rest(tmp_path):
    cache = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache).run(_square_items(3))
    runner = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads = runner.run(_square_items(6))
    assert runner.stats.cached == 3
    assert runner.stats.executed == 3
    assert [p["value"] for p in payloads] == [s * s + 7 for s in range(6)]


def test_config_change_misses_cache(tmp_path):
    ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path))).run(
        _square_items(3, offset=7))
    runner = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads = runner.run(_square_items(3, offset=8))
    assert runner.stats.cached == 0
    assert [p["value"] for p in payloads] == [8, 9, 12]


def test_cell_error_carries_identity_serial():
    items = work_list("demo", "repro.par.testing:boom_cell", [(3, {})])
    with pytest.raises(CellError, match=r"seed=3"):
        ParallelRunner(jobs=1).run(items)


def test_cell_error_propagates_from_pool():
    items = work_list("demo", "repro.par.testing:boom_cell",
                      [(seed, {}) for seed in range(2)])
    with pytest.raises(CellError, match="boom"):
        ParallelRunner(jobs=2, backend="spawn").run(items)


def test_failed_cells_no_longer_discard_completed_ones(tmp_path):
    """The PR 10 bugfix: completed cells are persisted as they finish and
    every failed cell is reported, with its identity, in one error."""
    items = work_list("demo", "repro.par.testing:mixed_cell",
                      [(seed, {"boom_seeds": [1, 3]})
                       for seed in range(5)])
    cache = ResultCache(str(tmp_path))
    runner = ParallelRunner(jobs=1, cache=cache)
    with pytest.raises(CellError) as excinfo:
        runner.run(items)
    message = str(excinfo.value)
    assert "2 of 5 executed cell(s) failed" in message
    assert "3 completed cell(s) persisted to the result cache" in message
    assert "seed=1" in message and "seed=3" in message
    assert runner.stats.failed == 2
    assert cache.writes == 3

    # the replay only pays for the failed cells
    retry = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    with pytest.raises(CellError):
        retry.run(items)
    assert retry.stats.cached == 3
    assert retry.stats.executed == 2


def test_invalid_runner_spec():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)
    items = work_list("demo", "no-colon-here", [(0, {})])
    with pytest.raises(ValueError, match="package.module:function"):
        ParallelRunner(jobs=1).run(items)


def test_worker_obs_metrics_aggregate():
    items = work_list("demo", "repro.par.testing:sim_cell",
                      [(seed, {"horizon_ns": 50_000}) for seed in range(4)])
    runner = ParallelRunner(jobs=2, obs_metrics=True, backend="spawn")
    payloads = runner.run(items)
    assert [p["fired"] for p in payloads] == [51] * 4
    snap = runner.obs_snapshot
    assert snap is not None
    assert snap["counters"]["par.testing.pings"] == 4 * 51
    assert snap["histograms"]["par.testing.horizon_ns"]["count"] == 4


def test_serial_path_leaves_parent_obs_runtime_alone():
    """jobs=1 must not arm or drain the parent's observability runtime."""
    from repro.obs import runtime as obs_runtime

    runner = ParallelRunner(jobs=1, obs_metrics=True)
    runner.run(work_list("demo", "repro.par.testing:sim_cell",
                         [(0, {"horizon_ns": 10_000})]))
    assert runner.obs_snapshot is None
    assert not obs_runtime.is_active()


def test_serial_path_preserves_observing_parent_sessions():
    """Regression: with the parent's runtime armed (--trace/--metrics), an
    in-process run_cell must NOT drain the accumulated sessions — the
    CLI's export step still needs them, including ones from experiments
    that ran earlier in the same invocation."""
    from repro.obs import runtime as obs_runtime

    obs_runtime.configure(tracing=False, metrics=True, profiling=False)
    try:
        # a session from an "earlier experiment" in the same invocation
        import repro.par.testing as testing

        testing.sim_cell(7, {"horizon_ns": 5_000})
        assert len(obs_runtime.sessions()) == 1

        runner = ParallelRunner(jobs=1)
        runner.run(work_list("demo", "repro.par.testing:sim_cell",
                             [(0, {"horizon_ns": 10_000}),
                              (1, {"horizon_ns": 10_000})]))
        # worker metrics come back only from pool children; in-process
        # cells stay in the parent's sessions for _export_observability
        assert runner.obs_snapshot is None
        assert len(obs_runtime.sessions()) == 3
    finally:
        obs_runtime.reset()

"""Unit tests for the executor backends, the cost model, and auto selection.

The full-simulation byte-identity proof across every backend lives in
``tests/par/test_backend_matrix.py``; these tests pin the mechanics with
the tiny spawn-safe cells from :mod:`repro.par.testing`.
"""

import json
import os

import pytest

from repro.par import (
    CostModel,
    ParallelRunner,
    ResultCache,
    choose_backend,
    make_executor,
    work_list,
)
from repro.par.cost import COST_FILE
from repro.par.executors import BACKENDS, SPAWN_BOOT_S
from repro.par.executors.socket import parse_addr

ALL_BACKENDS = sorted(BACKENDS)


def _square_items(n, offset=7):
    return work_list("demo", "repro.par.testing:square_cell",
                     [(seed, {"offset": offset}) for seed in range(n)])


# ---------------------------------------------------------------- backends

def test_backend_registry_is_complete():
    assert ALL_BACKENDS == ["inline", "socket", "spawn"]
    with pytest.raises(KeyError):
        make_executor("fork")
    with pytest.raises(ValueError, match="unknown backend"):
        ParallelRunner(jobs=1, backend="fork")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_equals_serial(backend):
    items = _square_items(6)
    serial = ParallelRunner(jobs=1, backend="inline").run(items)
    runner = ParallelRunner(jobs=2, backend=backend)
    assert runner.run(items) == serial
    assert runner.stats.backend == backend
    assert runner.stats.executed == 6


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_streams_events(backend):
    executor = make_executor(backend, jobs=2)
    specs = [item.spec() for item in _square_items(4)]
    events = list(executor.run(specs))
    assert len(events) == 4
    assert all(event["ok"] for event in events)
    assert sorted(e["cell"]["index"] for e in events) == [0, 1, 2, 3]
    values = {e["cell"]["index"]: e["cell"]["payload"]["value"]
              for e in events}
    assert values == {i: i * i + 7 for i in range(4)}


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_reports_failures_as_events(backend):
    items = work_list("demo", "repro.par.testing:mixed_cell",
                      [(seed, {"boom_seeds": [1]}) for seed in range(3)])
    executor = make_executor(backend, jobs=2)
    events = list(executor.run([item.spec() for item in items]))
    failed = [e for e in events if not e["ok"]]
    assert len(failed) == 1
    assert failed[0]["index"] == 1
    assert "boom (seed=1)" in failed[0]["error"]
    assert len([e for e in events if e["ok"]]) == 2


def test_executors_run_nothing_on_empty_lists():
    for backend in ALL_BACKENDS:
        assert list(make_executor(backend, jobs=2).run([])) == []


def test_socket_parse_addr():
    assert parse_addr("127.0.0.1:80") == ("127.0.0.1", 80)
    assert parse_addr("[::1]:80") == ("[::1]", 80)
    with pytest.raises(ValueError):
        parse_addr("no-port")


def test_socket_backend_runs_cells_across_worker_processes():
    """Local subprocess workers over the line-JSON protocol; payloads
    identical to serial, metrics snapshots cross the wire."""
    items = work_list("demo", "repro.par.testing:sim_cell",
                      [(seed, {"horizon_ns": 50_000}) for seed in range(3)])
    serial = ParallelRunner(jobs=1, backend="inline").run(items)
    runner = ParallelRunner(jobs=2, backend="socket", obs_metrics=True)
    assert runner.run(items) == serial
    snap = runner.obs_snapshot
    assert snap is not None
    assert snap["counters"]["par.testing.pings"] == 3 * 51


# -------------------------------------------------------------- cost model

def test_cost_model_ewma_and_estimate():
    model = CostModel()
    assert model.estimate("faults") is None
    model.observe("faults", 2.0)
    assert model.estimate("faults") == 2.0
    model.observe("faults", 4.0)
    assert 2.0 < model.estimate("faults") < 4.0
    assert model.snapshot()["faults"]["count"] == 2


def test_cost_model_round_trips_through_its_file(tmp_path):
    path = str(tmp_path / COST_FILE)
    model = CostModel(path)
    model.observe("sweep", 1.5)
    model.save()
    assert json.load(open(path))["experiments"]["sweep"]["count"] == 1
    reloaded = CostModel(path)
    assert reloaded.estimate("sweep") == 1.5
    # torn file: start cold instead of crashing
    with open(path, "w") as handle:
        handle.write("{torn")
    assert CostModel(path).estimate("sweep") is None


def test_runner_persists_costs_beside_the_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache).run(_square_items(3))
    doc = json.load(open(os.path.join(str(tmp_path), COST_FILE)))
    assert doc["experiments"]["demo"]["count"] == 3
    assert doc["experiments"]["demo"]["mean_s"] >= 0.0


# ----------------------------------------------------------- auto selection

def test_auto_is_inline_when_a_pool_cannot_help():
    assert choose_backend(10, jobs=1, cpu_count=8, est_cell_s=60) == "inline"
    assert choose_backend(10, jobs=8, cpu_count=1, est_cell_s=60) == "inline"
    assert choose_backend(1, jobs=8, cpu_count=8, est_cell_s=60) == "inline"
    assert choose_backend(0, jobs=8, cpu_count=8) == "inline"


def test_auto_is_spawn_only_when_the_saving_clears_the_boot_bill():
    # 28 cells x 0.25 s on 2 workers saves ~3.5 s against a ~2 s boot
    # bill: spawn.  The same cells at 10 ms save 0.14 s: inline.
    assert choose_backend(28, jobs=2, cpu_count=2,
                          est_cell_s=0.25) == "spawn"
    assert choose_backend(28, jobs=2, cpu_count=2,
                          est_cell_s=0.01) == "inline"
    # unknown cost on a multicore host: optimistic spawn (the run itself
    # records the estimate that informs the next decision)
    assert choose_backend(28, jobs=2, cpu_count=2,
                          est_cell_s=None) == "spawn"
    # the boundary scales with the worker count
    workers = 4
    cheap = SPAWN_BOOT_S * workers / (28 * (1 - 1 / workers)) * 0.9
    assert choose_backend(28, jobs=4, cpu_count=4,
                          est_cell_s=cheap) == "inline"


def test_runner_auto_resolves_per_run(tmp_path):
    """auto picks inline on this host when the cost model says cells are
    cheap; the stats record the *resolved* backend."""
    cache = ResultCache(str(tmp_path))
    runner = ParallelRunner(jobs=2, cache=cache, backend="auto")
    runner.run(_square_items(4))
    assert runner.stats.backend in ("inline", "spawn")
    # second run has a measured (tiny) cost estimate: inline wherever the
    # first run landed
    second = ParallelRunner(jobs=2, cache=ResultCache(str(tmp_path)),
                            backend="auto")
    second.run(_square_items(8, offset=9))
    assert second.stats.backend == "inline"

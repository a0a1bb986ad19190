"""repro.par — the parallel sharded experiment runner.

Every multi-run workload in this repo — fault soaks, powercap sweeps, the
figure experiments, cluster calibration — is a list of independent,
bit-reproducible (experiment, seed, config) cells.  This package fans
such a work-list across a pluggable executor backend (``inline`` /
``spawn`` / ``socket`` — see :mod:`repro.par.executors`) with
work-stealing scheduling, and merges the results by shard key, so
parallel output is byte-identical to the serial run; a content-addressed
cache keyed on (experiment, seed, config hash, code fingerprint) lets
re-runs and resumed soaks skip completed cells, optionally read-through
from a shared remote cache directory.  The default backend is ``auto``:
a persisted cost model decides whether a pool's spawn boots would beat
just running inline.

Typical use::

    from repro.par import ParallelRunner, ResultCache, work_list

    items = work_list("faults", "repro.experiments.faults_exp:run_scenario_cell",
                      [(seed, {"scenario": name}) for ...])
    runner = ParallelRunner(jobs=8, cache=ResultCache(".parcache"))
    payloads = runner.run(items)        # ordered by work-list index
"""

from repro.par.cache import MISS, ResultCache, code_fingerprint, config_hash
from repro.par.cost import CostModel, shared_model
from repro.par.executors import BACKENDS, choose_backend, make_executor
from repro.par.metrics import merge_snapshots
from repro.par.runner import ParallelRunner, RunStats, effective_jobs
from repro.par.shard import WorkItem, merge_results, work_list
from repro.par.worker import CellError, resolve_runner, run_cell

__all__ = [
    "BACKENDS",
    "CellError",
    "CostModel",
    "MISS",
    "ParallelRunner",
    "ResultCache",
    "RunStats",
    "WorkItem",
    "choose_backend",
    "code_fingerprint",
    "config_hash",
    "effective_jobs",
    "make_executor",
    "merge_results",
    "merge_snapshots",
    "resolve_runner",
    "run_cell",
    "shared_model",
    "work_list",
]

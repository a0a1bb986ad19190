"""The parallel experiment runner over pluggable executor backends.

``ParallelRunner.run(items)`` fans a work-list of independent simulation
cells across an :mod:`executor backend <repro.par.executors>` and returns
their payloads *in work-list order* — the merge sorts by shard key, never
completion order, so with deterministic cells the output is byte-identical
to a serial run whatever the backend.

The default backend is ``auto``: inline (no pool, zero overhead) unless
the host has spare cores *and* the persisted cost model projects that the
parallel saving clears the spawn-boot bill — the measured-cost answer to
BENCH_par.json's parallel-slower-than-serial regression.  Scheduling is
work-stealing everywhere (workers pull cells one at a time from a shared
queue), so a skewed cell no longer strands the fast workers the old
round-robin shard plan pinned behind it.

A :class:`~repro.par.cache.ResultCache` short-circuits completed cells
before anything is dispatched, and fresh results are *streamed* back:
each cell is persisted the moment it finishes, so a failure late in the
run no longer discards the completed cells — failed cells are collected
and reported together, with their identities, at the end.
"""

import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

from repro.par.cache import MISS
from repro.par.cost import shared_model
from repro.par.executors import BACKENDS, choose_backend, make_executor
from repro.par.metrics import merge_snapshots
from repro.par.shard import merge_results
from repro.par.worker import CellError


def effective_jobs(requested, cpu_count=None, stream=None):
    """Clamp a ``--jobs`` request to the host's core count.

    BENCH_par.json shows oversubscribing a small host is a pure loss
    (``--jobs 4`` is *slower* than ``--jobs 2`` on one core): every spawned
    worker pays an interpreter boot and then time-slices the same cores.
    The CLIs route their ``--jobs`` through here so the request is capped
    at ``os.cpu_count()`` with a one-line stderr warning instead of
    silently oversubscribing.  Returns the capped job count.
    """
    if requested < 1:
        raise ValueError("jobs must be >= 1, got {}".format(requested))
    cores = cpu_count if cpu_count is not None else os.cpu_count()
    if not cores:          # cpu_count() may return None on exotic hosts
        return requested
    if requested <= cores:
        return requested
    print("warning: --jobs {} exceeds the {} available CPU core{}; "
          "capping at {} (oversubscribed workers only add spawn cost)"
          .format(requested, cores, "" if cores == 1 else "s", cores),
          file=stream if stream is not None else sys.stderr)
    return cores


@dataclass
class RunStats:
    """What one ``run()`` did; ``summary()`` is the one-line stderr form."""

    cells: int = 0
    cached: int = 0
    executed: int = 0
    failed: int = 0
    jobs: int = 1
    backend: str = "inline"      # the backend that actually ran (post-auto)
    wall_s: float = 0.0
    cell_wall_s: float = 0.0     # summed per-cell time (the serial cost)
    cache: dict = field(default_factory=dict)

    def summary(self):
        line = ("par[{0.backend}]: {0.cells} cells, {0.cached} cached, "
                "{0.executed} executed on {0.jobs} jobs, "
                "wall {0.wall_s:.2f}s (serial cost {0.cell_wall_s:.2f}s)"
                .format(self))
        if self.failed:
            line += " — {} FAILED".format(self.failed)
        if self.cells and self.cached == self.cells:
            line += " — all cells cached"
        return line


class ParallelRunner:
    """Fan a work-list across an executor backend; merge deterministically."""

    def __init__(self, jobs=1, cache=None, obs_metrics=False,
                 backend="auto"):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got {}".format(jobs))
        if backend != "auto" and backend not in BACKENDS:
            raise ValueError("unknown backend {!r} (available: {})".format(
                backend, ", ".join(sorted(BACKENDS) + ["auto"])))
        self.jobs = jobs
        self.cache = cache
        self.obs_metrics = obs_metrics
        self.backend = backend
        self.stats = RunStats(jobs=jobs)
        #: merged per-worker ``repro.obs`` metrics (subprocess runs only;
        #: in-process cells register with the parent's runtime directly)
        self.obs_snapshot = None

    def run(self, items):
        """Execute every cell; returns payloads ordered by work-list index.

        Completed cells are cached as they finish.  If any cell fails, the
        remaining cells still run, every completed cell is persisted, and
        one :class:`CellError` naming each failed cell is raised at the
        end — a single bad cell no longer discards the whole run.
        """
        items = list(items)
        start = perf_counter()
        self.stats = RunStats(jobs=self.jobs, cells=len(items))
        self.obs_snapshot = None

        indexed = []      # (index, payload) from cache and executor alike
        todo = []
        for item in items:
            payload = self.cache.get(item) if self.cache else MISS
            if payload is not MISS:
                indexed.append((item.index, payload))
            else:
                todo.append(item)
        self.stats.cached = len(indexed)
        self.stats.executed = len(todo)

        cost = shared_model(self.cache)
        backend = self.backend
        if backend == "auto":
            estimate = (cost.estimate(todo[0].experiment)
                        if todo else None)
            backend = choose_backend(len(todo), self.jobs,
                                     est_cell_s=estimate)
        self.stats.backend = backend

        failures = []
        by_index = {item.index: item for item in todo}
        metric_snaps = {}
        if todo:
            executor = make_executor(backend,
                                     jobs=min(self.jobs, len(todo)),
                                     obs_metrics=self.obs_metrics)
            for event in executor.run([item.spec() for item in todo]):
                if not event["ok"]:
                    failures.append((event["index"], event["error"]))
                    continue
                cell = event["cell"]
                index = cell["index"]
                self.stats.cell_wall_s += cell["wall_s"]
                cost.observe(by_index[index].experiment, cell["wall_s"])
                indexed.append((index, cell["payload"]))
                if self.cache is not None:
                    # streamed write-back: a later failure cannot lose it
                    self.cache.put(by_index[index], cell["payload"])
                if cell["metrics"]:
                    metric_snaps[index] = cell["metrics"]
        if metric_snaps:
            # merge in index order so last-writer gauges stay deterministic
            self.obs_snapshot = merge_snapshots(
                [metric_snaps[index] for index in sorted(metric_snaps)])
        cost.save()

        self.stats.failed = len(failures)
        if self.cache is not None:
            self.stats.cache = self.cache.stats()
        self.stats.wall_s = perf_counter() - start
        if failures:
            failures.sort()
            completed = self.stats.executed - len(failures)
            persisted = (" {} completed cell(s) persisted to the result "
                         "cache;".format(completed) if self.cache is not None
                         else "")
            raise CellError(
                "{} of {} executed cell(s) failed;{} failures:\n{}".format(
                    len(failures), self.stats.executed, persisted,
                    "\n".join("  " + error for _index, error in failures)))
        return merge_results(indexed, len(items))

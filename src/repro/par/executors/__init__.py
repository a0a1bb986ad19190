"""repro.par.executors — pluggable execution backends for the runner.

Three strategies behind one :class:`~repro.par.executors.base.Executor`
protocol, all streaming cell events so the runner can persist results as
they finish and all feeding the same index-keyed merge (the byte-identity
gate):

=============  ======================================================
``inline``     this process, zero overhead — what serial always was
``spawn``      spawn process pool, scheduled cell-by-cell (pull model)
``socket``     multi-host workers over a line-JSON socket protocol
=============  ======================================================

:func:`choose_backend` is the ``auto`` policy: inline unless a real pool
is possible (cores, jobs, and cells all > 1) *and* the cost model's
measured per-cell estimate projects a saving that clears the spawn-boot
bill.  That single comparison is the fix for BENCH_par.json's
parallel-slower-than-serial regression.
"""

import os

from repro.par.executors.base import CellQueue, Executor, run_cell_event
from repro.par.executors.inline import InlineExecutor
from repro.par.executors.socket import SocketExecutor
from repro.par.executors.spawn import SpawnExecutor

#: name -> class, in documentation order
BACKENDS = {cls.name: cls for cls in (
    InlineExecutor, SpawnExecutor, SocketExecutor)}

#: what one spawned worker's interpreter boot costs, dominated by the
#: ``import repro`` a fresh interpreter pays before its first cell
SPAWN_BOOT_S = 1.0


def choose_backend(n_cells, jobs, cpu_count=None, est_cell_s=None):
    """The ``auto`` policy: pick a backend name from measured capacity.

    ``inline`` whenever a pool cannot help (one core, one job, one cell)
    or the cost model projects the spawn boots outweigh the parallel
    saving; ``spawn`` otherwise.  With no estimate yet the choice is
    optimistic (``spawn`` when a pool is possible) — the run itself then
    records the costs that inform the next decision.
    """
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    workers = min(jobs, max(1, cores), n_cells)
    if workers <= 1:
        return "inline"
    if est_cell_s is None:
        return "spawn"
    serial_s = est_cell_s * n_cells
    saved_s = serial_s - serial_s / workers
    if saved_s > SPAWN_BOOT_S * workers:
        return "spawn"
    return "inline"


def make_executor(backend, jobs=1, obs_metrics=False):
    """Instantiate a :data:`BACKENDS` entry by name (``auto`` resolved
    already; :class:`~repro.par.runner.ParallelRunner` validates names)."""
    return BACKENDS[backend](jobs=jobs, obs_metrics=obs_metrics)


__all__ = [
    "BACKENDS",
    "CellQueue",
    "Executor",
    "InlineExecutor",
    "SPAWN_BOOT_S",
    "SocketExecutor",
    "SpawnExecutor",
    "choose_backend",
    "make_executor",
    "run_cell_event",
]

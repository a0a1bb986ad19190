"""The spawn process-pool backend, scheduled cell-by-cell.

Each worker is a fresh ``spawn``-started interpreter (no inherited
simulator state) that imports cells by dotted name, exactly the worker
protocol :mod:`repro.par.worker` defines.  Dispatch is per *cell*, not
per pre-planned shard: the pool's shared call queue is the steal source,
so an idle worker always takes the oldest unstarted cell instead of
idling behind a skewed shard — the work-stealing replacement for the old
round-robin shard plan.  Events stream back through ``as_completed``,
letting the runner persist finished cells while the pool is still busy.

Every worker pays an interpreter-boot cost (importing ``repro`` is the
bulk of it), which is the whole reason ``auto`` only picks this backend
when the cost model says the workload amortises it.
"""

import os
import sys

from repro.par.executors.base import Executor
from repro.par.worker import CellError, run_cell, worker_init


def parent_sys_path():
    """The import-path entries a fresh worker interpreter needs.

    Whatever path the parent imported ``repro`` from must be visible to
    the child too (``PYTHONPATH=src`` runs, editable installs from a
    different cwd, ...).
    """
    import repro

    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    return [package_parent] + [entry for entry in sys.path if entry]


class SpawnExecutor(Executor):
    name = "spawn"

    def run(self, specs):
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from multiprocessing import get_context

        specs = list(specs)
        if not specs:
            return
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("spawn"),
            initializer=worker_init,
            initargs=(parent_sys_path(), self.obs_metrics),
        ) as pool:
            futures = {pool.submit(run_cell, spec): spec["index"]
                       for spec in specs}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    cell = future.result()
                except CellError as exc:
                    yield {"ok": False, "index": index, "error": str(exc)}
                    continue
                yield {"ok": True, "cell": cell}

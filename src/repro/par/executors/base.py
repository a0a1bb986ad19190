"""The executor protocol and the work-stealing cell queue.

An :class:`Executor` turns a list of primitive cell specs (the wire form
from :meth:`repro.par.shard.WorkItem.spec`) into a *stream* of cell
events, yielded as cells finish rather than when the whole pool drains.
The runner consumes the stream to persist completed cells immediately
(a late failure no longer discards finished work) and merges by
work-list index afterwards, so completion order — which differs per
backend and per run — never reaches the output.

Events are plain dicts:

* ``{"ok": True, "cell": {"index", "payload", "wall_s", "metrics"}}`` —
  one finished cell, as :func:`~repro.par.worker.run_cell` returns it;
  ``metrics`` is a per-cell ``repro.obs`` snapshot from pool children
  (``None`` from the inline backend, whose cells register with the
  parent's runtime directly);
* ``{"ok": False, "index": i, "error": "..."}`` — the cell's runner
  raised :class:`~repro.par.worker.CellError`; the message carries the
  cell identity.  Any *other* exception (a bad runner spec, a dead
  worker pool) is a programming error and propagates.

Scheduling is pull-based everywhere: workers take the next cell from a
shared queue the moment they go idle (:class:`CellQueue` for the socket
backend, the process pool's own call queue for spawn), so a fast worker
steals the cells a round-robin shard plan would have stranded behind a
slow one.
"""

import threading
from collections import deque

from repro.par.worker import CellError, run_cell


class Executor:
    """One execution strategy for a list of independent cells.

    Subclasses set :attr:`name` (the ``--backend`` token) and implement
    :meth:`run`; construction takes ``(jobs, obs_metrics)`` and must be
    cheap — any real resources (pools, sockets, subprocesses) are
    acquired inside :meth:`run` and released before it finishes.
    """

    #: the CLI token (``--backend <name>``); set by each subclass
    name = None

    def __init__(self, jobs=1, obs_metrics=False):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got {}".format(jobs))
        self.jobs = jobs
        self.obs_metrics = obs_metrics

    def run(self, specs):
        """Yield one event per cell in ``specs``, in completion order."""
        raise NotImplementedError


class CellQueue:
    """The shared deque work-stealing workers pull cells from.

    FIFO hand-out keeps early (usually expensive, skew-prone) cells
    starting first; fairness beyond that is whatever the workers'
    relative speed produces — which is exactly the point, and exactly
    what the index-keyed merge makes invisible.
    """

    def __init__(self, specs):
        self._cells = deque(specs)
        self._lock = threading.Lock()

    def steal(self):
        """The next cell spec, or ``None`` when the queue is dry."""
        with self._lock:
            try:
                return self._cells.popleft()
            except IndexError:
                return None

    def push_back(self, spec):
        """Return a cell to the front (a worker died mid-cell)."""
        with self._lock:
            self._cells.appendleft(spec)

    def __len__(self):
        with self._lock:
            return len(self._cells)


def run_cell_event(spec):
    """Run one cell in-process; returns its event (never raises CellError).

    The inline backend's success/failure path; non-CellError exceptions
    (bad runner spec, import failure) propagate — they are caller bugs,
    not cell outcomes.
    """
    try:
        cell = run_cell(spec)
    except CellError as exc:
        return {"ok": False, "index": spec["index"], "error": str(exc)}
    return {"ok": True, "cell": cell}

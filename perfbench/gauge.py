"""CPU speed gauge: scales host timings to a fixed reference speed.

On a shared virtual host a vCPU's speed swings by up to 2x within seconds
as other tenants come and go.  No steal time shows: a pass's own CPU time
grows with its wall time, so the swing cannot be subtracted, only
measured.  The gauge runs one thread per CPU the passes use, pinned to
that CPU.  Every :data:`PERIOD_S` it times a fixed loop by its own thread
CPU time (time spent waiting for the CPU does not count) and keeps the
sample in memory.  The loop does what the simulator does most — slot
attribute and dict updates, float arithmetic, a bounded heap of tuples —
so it slows as the workloads do.  On a shared 2-vCPU Xeon guest the
cluster workload's host wall time moved with this loop's time at a
log-log slope of 0.9; with a plain integer loop the slope was 1.3 (the
workload slowed more than that loop did).

A pass pinned to some CPUs gets the mean loop time those CPUs' samples
show while it ran; its timings are multiplied by
``REFERENCE_LOOP_S / mean``, i.e. read as they would on a CPU on which the
loop takes :data:`REFERENCE_LOOP_S`.  Code made faster still reads faster,
because the loop does not touch the program.  The gauge costs each CPU
about 5% of its time.
"""

import heapq
import os
import threading
from time import perf_counter, thread_time

#: iterations of the timed loop (1.1 to 2 ms on a 2.1 GHz Xeon vCPU)
LOOP_ITERATIONS = 2000

#: pause between samples on each CPU
PERIOD_S = 0.025

#: seconds the loop takes on the reference CPU the scaled timings refer to
REFERENCE_LOOP_S = 1.5e-3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = 0.0


def spin():
    """The timed loop."""
    heap = []
    table = {}
    items = [_Item(key) for key in range(64)]
    for i in range(LOOP_ITERATIONS):
        item = items[i & 63]
        item.value += item.key * 0.5
        table[i & 127] = item.value
        heapq.heappush(heap, (item.value, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return len(table)


def scale(loop_s):
    """Factor that turns host seconds into reference seconds."""
    return REFERENCE_LOOP_S / loop_s


def mean_loop_s(samples, cpus, start, end):
    """Mean loop seconds over ``cpus`` between ``start`` and ``end``.

    ``samples`` maps a CPU to its ``(time, loop seconds)`` list in time
    order.  Each CPU weighs the same.  A CPU with no sample inside the
    window lends its latest sample before ``end``; None if no CPU has any.
    """
    means = []
    for cpu in cpus:
        taken = samples.get(cpu, ())
        inside = [loop_s for when, loop_s in taken if start <= when <= end]
        if not inside:
            inside = [loop_s for when, loop_s in taken if when <= end][-1:]
        if inside:
            means.append(sum(inside) / len(inside))
    return sum(means) / len(means) if means else None


class Gauge:
    """One sampling thread per CPU, from ``with`` entry to exit."""

    def __init__(self, cpus, period_s=PERIOD_S):
        self.cpus = tuple(cpus)
        self.period_s = period_s
        self.samples = {cpu: [] for cpu in self.cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,),
                                          daemon=True)
                         for cpu in self.cpus]

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu):
        os.sched_setaffinity(0, {cpu})  # this thread only
        taken = self.samples[cpu]
        while not self._stop.is_set():
            start = thread_time()
            spin()
            taken.append((perf_counter(), thread_time() - start))
            self._stop.wait(self.period_s)

    def loop_s(self, cpus, start, end):
        """Mean loop seconds on ``cpus`` between two ``perf_counter``
        readings (see :func:`mean_loop_s`)."""
        return mean_loop_s(self.samples, cpus, start, end)

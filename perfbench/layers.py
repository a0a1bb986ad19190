"""Per-layer metrics: wrapper spans, the profile pass, and their reduction.

Layers are the ``src/repro`` packages.  Two sources feed them:

* **Spans** from :class:`spans.SpanRecorder` wrappers around public calls
  that run rarely enough to wrap without distorting the run (the
  simulator's ``run``, psbox power reads, powercap ticks, cluster phases,
  obs exporters, the par runner and its cache, fault scenarios, DTW).
* **A deterministic-profile pass** (``cProfile``) for everything that runs
  too often to wrap: package self time, and call counts / cumulative time
  of hot methods such as ``StepTrace.set`` and CFS ``settle``.  Builtins
  are not profiled, so their time counts toward the Python function that
  called them.  Its seconds are profiled seconds — inflated by the
  profiler, comparable only with another profile pass.  Its counts are
  exact.
"""

import cProfile
import importlib
import json
import os
import pstats
import types

import stats
from spans import SpanRecorder, totals

#: (target, span name) wrapped in the traced run
WRAPPED = (
    ("repro.sim.engine:Simulator.run", "sim.run"),
    ("repro.core.manager:PsboxManager.read_power", "core.read_power"),
    ("repro.core.vmeter:VirtualPowerMeter.windows", "core.vmeter.windows"),
    ("repro.powercap.controller:PowerCapController._tick", "powercap.tick"),
    ("repro.cluster.placement:PlacementEngine.place_all",
     "cluster.place_all"),
    ("repro.cluster.calibrate:calibrate", "cluster.calibrate"),
    ("repro.cluster.cluster:Cluster.run", "cluster.run"),
    ("repro.cluster.allocators:WaterFillingAllocator.allocate",
     "cluster.allocate"),
    ("repro.cluster.allocators:PIBaselineAllocator.allocate",
     "cluster.allocate"),
    ("repro.obs.runtime:finalize_telemetry", "obs.finalize"),
    ("repro.obs.exporters:export_chrome_trace", "obs.export.chrome"),
    ("repro.obs.openmetrics:export_openmetrics", "obs.export.openmetrics"),
    ("repro.obs.exporters:export_timeline_jsonl", "obs.export.timeline"),
    ("repro.obs.exporters:export_events_jsonl", "obs.export.events"),
    ("repro.obs.flight:FlightRecorder.flush", "obs.flight.flush"),
    ("repro.par.runner:ParallelRunner.run", "par.run"),
    ("repro.par.worker:run_cell", "par.cell"),
    ("repro.par.cache:ResultCache.get", "par.cache.get"),
    ("repro.par.cache:ResultCache.put", "par.cache.put"),
    ("repro.experiments.faults_exp:run_scenario", "faults.run_scenario"),
    ("repro.sidechannel.dtw:dtw_distance", "sidechannel.dtw"),
)

#: obs modules whose ``json.dump``/``json.dumps`` count as obs encoding
JSON_MODULES = ("repro.obs.exporters", "repro.obs.flight")

#: span name -> metric name for total seconds
SPAN_SECONDS = {
    "sim.run": "sim.run_s",
    "core.read_power": "core.read_power_s",
    "core.vmeter.windows": "core.vmeter.windows_s",
    "powercap.tick": "powercap.tick_s",
    "cluster.place_all": "cluster.place_all_s",
    "cluster.calibrate": "cluster.calibrate_s",
    "cluster.run": "cluster.run_s",
    "cluster.allocate": "cluster.allocate_s",
    "obs.json_encode": "obs.json_encode_s",
    "obs.finalize": "obs.finalize_s",
    "obs.export.chrome": "obs.export.chrome_s",
    "obs.export.openmetrics": "obs.export.openmetrics_s",
    "obs.export.timeline": "obs.export.timeline_s",
    "obs.export.events": "obs.export.events_s",
    "obs.flight.flush": "obs.flight.flush_s",
    "par.cache.get": "par.cache.get_s",
    "par.cache.put": "par.cache.put_s",
    "faults.run_scenario": "faults.run_scenario_s",
    "sidechannel.dtw": "sidechannel.dtw_s",
}

#: span name -> metric name for call counts
SPAN_CALLS = {
    "core.read_power": "core.read_power.calls",
    "core.vmeter.windows": "core.vmeter.windows.calls",
    "powercap.tick": "powercap.ticks",
    "cluster.allocate": "cluster.allocate.calls",
    "sidechannel.dtw": "sidechannel.dtw.calls",
}

#: packages whose profiled self time is reported as ``<package>.self_s``
SELF_TIME_PACKAGES = ("sim", "hw", "kernel", "core", "obs", "check")

#: metric -> (function, what): "calls" and "seconds" (cumulative) of one
#: function (or the calls of several, summed), or ("calls_from", caller)
#: for the calls one caller made
PROFILED = {
    "sim.steptrace.set.calls": ("repro.sim.trace:StepTrace.set", "calls"),
    "sim.steptrace.integrate_s": ("repro.sim.trace:StepTrace.integrate",
                                  "seconds"),
    "hw.meter.reads": (("repro.hw.meter:PowerMeter.sample",
                        "repro.hw.rail:PowerRail.energy"), "calls"),
    "kernel.cfs.settle.calls": ("repro.kernel.cfs:CoreScheduler.settle",
                                "calls"),
    "kernel.cfs.settle_s": ("repro.kernel.cfs:CoreScheduler.settle",
                            "seconds"),
    "kernel.cfs.dispatches": ("repro.hw.cpu:CpuCore.start",
                              ("calls_from",
                               "repro.kernel.cfs:CoreScheduler.reschedule")),
    "kernel.smp.balloons": ("repro.kernel.smp:_Coschedule.__init__",
                            "calls"),
    "kernel.smp.ipi_sent": ("repro.sim.engine:Simulator.call_later",
                            ("calls_from",
                             "repro.kernel.smp:SmpScheduler.begin_coschedule")),
    "kernel.accel.balloons": ("repro.kernel.accel_sched:"
                              "AccelScheduler._open_window", "calls"),
    "kernel.net.balloons": ("repro.kernel.net_sched:"
                            "PacketScheduler._open_window", "calls"),
}

#: the simulator's dispatch loop: every call it makes, except its own
#: set-up, is one dispatched event (builtins such as its heap pops are not
#: profiled, so they never show as calls)
DISPATCH_LOOP = "repro.sim.engine:Simulator.run"
LOOP_SETUP = "repro.sim.engine:Simulator._latch_dispatch"


class Tracing:
    """The traced run's wrappers; ``with Tracing() as t:`` installs them."""

    def __init__(self):
        self.recorder = SpanRecorder()
        #: (host time, cell wall_s) for every cell the parent saw finish
        self.cells_done = []

    def __enter__(self):
        recorder = self.recorder
        for target, name in WRAPPED:
            recorder.instrument(target, name)
        for module_name in JSON_MODULES:
            module = importlib.import_module(module_name)
            proxy = types.SimpleNamespace(**vars(json))
            proxy.dump = recorder.wrap("obs.json_encode", json.dump)
            proxy.dumps = recorder.wrap("obs.json_encode", json.dumps)
            recorder.patch(module, "json", proxy)

        from repro.par.cost import CostModel

        observe = CostModel.observe
        done = self.cells_done
        clock = recorder.clock

        def observe_cell(model, experiment, wall_s):
            done.append((clock(), wall_s))
            return observe(model, experiment, wall_s)

        recorder.patch(CostModel, "observe", observe_cell)
        return self

    def __exit__(self, *exc):
        self.recorder.restore()
        return False

    def metrics(self, outputs):
        """Per-layer metrics from the recorded spans and run outputs."""
        spans = self.recorder.spans
        by_name = totals(spans)
        out = {metric: by_name.get(name, {}).get("total_s", 0.0)
               for name, metric in SPAN_SECONDS.items()}
        out.update({metric: by_name.get(name, {}).get("count", 0)
                    for name, metric in SPAN_CALLS.items()})
        out.update(par_metrics(spans, by_name, self.cells_done,
                               outputs.get("par", ())))
        return out, by_name


def par_metrics(spans, by_name, cells_done, run_stats):
    """The ``par.*`` metrics of one traced run.

    ``par.run_s`` is runner time outside cells run in this process;
    ``par.first_cell_s`` is how long each runner took to start its first
    cell (spawn boot and dispatch), summed over runners.  A runner's pool
    capacity is its wall time times the workers it ran (one, inline).
    """
    run_s = (by_name.get("par.run", {}).get("total_s", 0.0)
             - by_name.get("par.cell", {}).get("total_s", 0.0))
    first_cell_s = 0.0
    for name, start, end, _parent in spans:
        if name != "par.run" or end is None:
            continue
        starts = [t - wall for t, wall in cells_done if start <= t <= end]
        if starts:
            first_cell_s += max(0.0, min(starts) - start)
    capacity_s = sum(
        (1 if run.backend == "inline" else min(run.jobs, run.executed))
        * run.wall_s for run in run_stats)
    serial_s = sum(run.cell_wall_s for run in run_stats)
    return {
        "par.run_s": run_s,
        "par.cells": sum(run.cells for run in run_stats),
        "par.cells_failed": sum(run.failed for run in run_stats),
        "par.first_cell_s": first_cell_s,
        "par.slowest_cell_s": max((wall for _t, wall in cells_done),
                                  default=0.0),
        "par.idle_s": stats.par_idle_s(capacity_s, serial_s),
        "par.efficiency": stats.par_efficiency(capacity_s, serial_s),
        "par.cache.misses": sum(run.cache.get("misses", 0)
                                for run in run_stats),
    }


def profiled(fn):
    """Run ``fn()`` under cProfile; returns ``(result, pstats.Stats)``."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, pstats.Stats(profile)


def _code_key(target):
    module_name, _, attr_path = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    code = getattr(obj, "__func__", obj).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_metrics(profile_stats):
    """Per-layer metrics of a profile pass (see the module docstring)."""
    table = profile_stats.stats
    out = {package + ".self_s": 0.0 for package in SELF_TIME_PACKAGES}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) \
            in table.items():
        parts = filename.replace(os.sep, "/").split("/repro/")
        if len(parts) > 1:
            package = parts[-1].split("/")[0]
            if package + ".self_s" in out:
                out[package + ".self_s"] += tottime
    for metric, (target, what) in PROFILED.items():
        if isinstance(target, tuple):
            out[metric] = sum(table[key][1] for key in map(_code_key, target)
                              if key in table)
            continue
        entry = table.get(_code_key(target))
        if entry is None:
            out[metric] = 0
        elif what == "calls":
            out[metric] = entry[1]
        elif what == "seconds":
            out[metric] = entry[3]
        else:
            caller = entry[4].get(_code_key(what[1]))
            out[metric] = caller[1] if caller else 0
    out["sim.events"] = dispatched_events(table)
    return out


def dispatched_events(table):
    """Events the dispatch loop ran: the calls it made, minus internals."""
    loop = _code_key(DISPATCH_LOOP)
    setup = _code_key(LOOP_SETUP)
    events = 0
    for key, entry in table.items():
        caller = entry[4].get(loop)
        if caller and key != setup:
            events += caller[1]
    return events


def output_metrics(workload, outputs, out_dir):
    """Per-layer counts read off a run's results and artifacts."""
    campaigns = outputs.get("campaigns", ())
    outcomes = [o for campaign in campaigns for o in campaign.outcomes]
    trace = os.path.join(out_dir, "telemetry", "trace.json")
    flight = os.path.join(out_dir, "flight")
    return {
        "obs.trace_events": outputs.get("trace_events") or 0,
        "obs.trace_bytes": (os.path.getsize(trace)
                            if os.path.exists(trace) else 0),
        "obs.flight.dumps": (sum(1 for name in os.listdir(flight)
                                 if name.startswith("flight-"))
                             if os.path.isdir(flight) else 0),
        "faults.injections": sum(o.injections for o in outcomes),
        "check.violations": sum(o.violations for o in outcomes),
    }

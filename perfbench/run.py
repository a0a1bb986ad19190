"""The repository's benchmark: end-to-end and per-layer timings.

Run from the repository root::

    python3 perfbench/run.py --workload cluster --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # all four, round-robin

``--trace 0`` measures the end-to-end metrics with nothing traced: set-up
probes (fresh interpreters importing the workload's modules), then
repeats of the workload, each in a fresh interpreter, for about
``--seconds`` seconds.  ``--trace 1`` makes one plain pass, one pass with
span wrappers, an inline traced pass for the parallel workloads, and one
deterministic-profile pass, and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end timings are scaled to a reference CPU speed by
:mod:`gauge`, which samples each CPU's speed while the passes run; every
pass is pinned to the CPUs whose samples scale it (one for a
single-process pass, ``workloads.JOBS`` for a pass with workers).

Every pass runs in a child interpreter with ``PYTHONPATH`` set to the
checkout's ``src`` and writes only under ``.perfbench-tmp/`` in the
checkout, which is removed before the benchmark exits.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from time import perf_counter

import gauge
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: fresh interpreters timed for ``setup_s`` besides the workload's own
SETUP_PROBES = 5

#: busy-loop seconds before measuring, so the CPU leaves its idle state
#: (the set-up probes that follow keep it busy for another second)
WARMUP_S = 1.0

#: no pass may outlive this many seconds per workload after the start
DEADLINE_S = 170.0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated benchmark still stops its passes and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    # the CPUs passes may run on: the gauge samples each of them
    cpus = sorted(os.sched_getaffinity(0))[:workloads.JOBS]
    bench = Bench(root, args.seed,
                  deadline=perf_counter() + DEADLINE_S * len(names),
                  cpus=cpus)
    print("perfbench: workloads {} seed {} (program seed {}, repeat k "
          "on seed + k); nproc {}, "
          "python {}, git {}; passes on cpus {}".format(
              ",".join(names), args.seed, workloads.program_seed(args.seed),
              os.cpu_count(), platform.python_version(), git_sha(root),
              ",".join(map(str, cpus))))
    try:
        with gauge.Gauge(cpus) as bench.gauge:
            warm_up(WARMUP_S)
            if args.trace:
                results = {name: bench.layers(name) for name in names}
                wanted = spec["per_layer"]
            else:
                results = bench.end_to_end(names, args.seconds)
                wanted = spec["end_to_end"]
    finally:
        bench.cleanup()

    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = results[name]
        report["attempted"] += result["attempted"]
        report["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "/"
        print("== {}: {} of {} operations failed (failed_ratio {:.4g})"
              .format(name, result["failed"], result["attempted"],
                      result["failed"] / result["attempted"]))
        for problem in result["problems"]:
            print("   problem: " + problem)
        for note in result.get("notes", ()):
            print("   " + note)
        for metric in wanted:
            value = result["metrics"].get(metric["name"])
            if value is None:
                report["correct"] = False
                print("   {:<34} missing".format(metric["name"]))
                continue
            detail = result["samples"].get(metric["name"])
            print("   {:<34} {:.6g} {}{}".format(
                metric["name"], value, metric["unit"],
                "  " + stats.format_summary(detail, metric["unit"])
                if detail else ""))
            report["metrics"][prefix + metric["name"]] = {
                "value": value, "unit": metric["unit"]}
    report["correct"] = report["correct"] and report["failed"] == 0
    print(json.dumps(report))
    return 0


class Bench:
    """Child-interpreter passes under one checkout and one seed."""

    def __init__(self, root, seed, deadline, cpus):
        self.seed = seed
        self.deadline = deadline
        self.cpus = tuple(cpus)
        self.gauge = None
        self.reference = workloads.load_reference()
        self.tmp = os.path.join(root, ".perfbench-tmp", str(os.getpid()))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._runs = 0

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass     # another benchmark still owns a directory there

    def pass_cpus(self, mode, workload):
        """CPUs a pass runs on: one unless it starts workers."""
        workers = (workload in ("sweep", "faults-soak")
                   and mode in ("plain", "traced"))
        return self.cpus if workers else self.cpus[:1]

    def child(self, mode, workload, repeat=0):
        """One pass on seed ``seed + repeat``; returns its result dict plus
        ``seed``, ``elapsed_s``/``setup_s`` and the gauge's
        ``setup_scale``/``scale`` for its set-up and run.

        A pass that dies or overruns the deadline returns no ``wall_s``
        and counts every operation as failed.
        """
        seed = self.seed + repeat
        self._runs += 1
        out_dir = os.path.join(self.tmp, "{}-{}".format(mode, self._runs))
        cpus = self.pass_cpus(mode, workload)
        # affinity is per thread and the child inherits this thread's:
        # only the child (and its workers) is pinned, not the gauge
        os.sched_setaffinity(0, cpus)
        start = perf_counter()
        # its own process group, so a kill takes its spawn workers too
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, workload, str(seed), out_dir],
            stdout=subprocess.PIPE, env=self.env, text=True,
            start_new_session=True)
        watchdog = threading.Timer(max(1.0, self.deadline - start),
                                   _kill_group, (proc,))
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            ready_at = perf_counter()
            lines = proc.stdout.read().strip().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                _kill_group(proc)
                proc.wait()
            shutil.rmtree(out_dir, ignore_errors=True)
        result = {}
        if lines and proc.returncode == 0:
            result = json.loads(lines[-1])
        elif mode != "probe":
            entry = workloads.reference_entry(self.reference, workload, seed)
            attempted = len(entry["cells"]) if entry else 1
            result = {"mode": mode, "attempted": attempted,
                      "failed": attempted,
                      "problems": ["{} pass exited with code {}".format(
                          mode, proc.returncode)]}
        end = perf_counter()
        result["seed"] = seed
        result["elapsed_s"] = end - start
        result["setup_s"] = ready_at - start if ready else None
        result["setup_scale"] = self._scale(cpus, start, ready_at)
        result["scale"] = self._scale(cpus, ready_at, end)
        return result

    def _scale(self, cpus, start, end):
        loop_s = self.gauge.loop_s(cpus, start, end)
        return gauge.scale(loop_s) if loop_s else None

    def end_to_end(self, names, seconds):
        """Set-up probes, then round-robin repeats for ``seconds`` each.

        Repeat ``k`` runs seed ``seed + k``, so one run's medians cover
        several inputs and the cluster workloads' seed-dependent size
        (events, bundle bytes, memory) differs less from run to run.
        """
        setups = {name: [self.child("probe", name)
                         for _ in range(SETUP_PROBES)] for name in names}
        runs = {name: [] for name in names}
        budget = seconds * len(names)
        start = perf_counter()
        last_round = 0.0
        while not runs[names[0]] or (perf_counter() - start + last_round
                                     <= budget):
            round_start = perf_counter()
            for name in names:
                runs[name].append(self.child("plain", name,
                                             repeat=len(runs[name])))
            last_round = perf_counter() - round_start
        return {name: self._end_to_end(name, setups[name], runs[name])
                for name in names}

    def _end_to_end(self, name, setups, runs):
        runs_ok = [r for r in runs if r.get("wall_s") is not None]
        host_walls = [r["wall_s"] for r in runs_ok]
        walls = [r["wall_s"] * r["scale"] for r in runs_ok]
        entries = [workloads.reference_entry(self.reference, name, r["seed"])
                   for r in runs_ok]
        samples = {}
        notes = []
        if walls:
            samples["wall_s"] = stats.summarize(walls)
            notes.append("host wall_s " + stats.format_summary(
                stats.summarize(host_walls), "s") + "; gauge scale "
                + stats.format_summary(
                    stats.summarize([r["scale"] for r in runs_ok]), "x"))
            samples["peak_rss_mb"] = stats.summarize(
                [r["peak_rss_mb"] for r in runs if "wall_s" in r])
            samples["output_mb"] = stats.summarize(
                [r["output_bytes"] / 1e6 for r in runs if "wall_s" in r])
        setups = setups + runs
        if all(r["setup_s"] is not None for r in setups):
            samples["setup_s"] = stats.summarize(
                [r["setup_s"] * r["setup_scale"] for r in setups])
            notes.append("host setup_s " + stats.format_summary(
                stats.summarize([r["setup_s"] for r in setups]), "s"))
        if walls and None not in entries:
            samples["events_per_s"] = stats.summarize(
                [entry["events"] / wall
                 for entry, wall in zip(entries, walls)])
        metrics = {key: summary["median"] for key, summary in samples.items()}
        result = self._tally(runs, metrics, samples)
        result["notes"] = notes
        return result

    def layers(self, name):
        """The traced run: plain, traced, inline (parallel workloads) and
        profile passes, reduced to the per-layer metrics."""
        passes = [self.child("plain", name), self.child("traced", name)]
        if name in ("sweep", "faults-soak"):
            passes.append(self.child("inline", name))
        passes.append(self.child("profile", name))
        metrics = {}
        for result in passes[1:]:
            found = result.get("layers", {})
            if result["mode"] == "inline":
                # spawn workers are invisible to the parent's wrappers:
                # everything but the runner itself comes from this pass
                found = {key: value for key, value in found.items()
                         if not key.startswith("par.")}
            metrics.update(found)
        plain, traced = passes[0].get("wall_s"), passes[1].get("wall_s")
        if plain and traced:
            metrics["bench.tracing_overhead_ratio"] = (
                traced * passes[1]["scale"] / (plain * passes[0]["scale"]))
        for result in passes[1:-1]:
            print_spans(name, result)
        reference = workloads.reference_entry(self.reference, name,
                                              self.seed)
        problems = []
        if reference is not None and "sim.events" in metrics \
                and metrics["sim.events"] != reference["events"]:
            problems.append("profile pass dispatched {} events, reference "
                            "{}".format(metrics["sim.events"],
                                        reference["events"]))
        return self._tally(passes, metrics, {}, problems)

    @staticmethod
    def _tally(runs, metrics, samples, problems=()):
        return {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": sorted({p for r in runs for p in r["problems"]})
            + list(problems),
            "metrics": metrics,
            "samples": samples,
        }


def print_spans(name, result):
    spans = result.get("spans")
    if not spans:
        return
    print("-- {} {} pass spans (wall {:.3f} s):".format(
        name, result["mode"], result.get("wall_s") or 0.0))
    print("   {:<24} {:>9} {:>12} {:>12}".format("span", "count", "total s",
                                                "self s"))
    for span, entry in sorted(spans.items(),
                              key=lambda item: -item[1]["total_s"]):
        print("   {:<24} {:>9} {:>12.4f} {:>12.4f}".format(
            span, entry["count"], entry["total_s"], entry["self_s"]))


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm_up(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        sum(range(1000))


def git_sha(root):
    """HEAD's commit from ``.git`` (no git process), else ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads and the checks on their outputs.

Every workload drives the public library entry points the experiment CLI
uses, with every artifact written under the run's own output directory:

* ``cluster`` — ``run_cluster(seed, nodes=2, horizon_s=6.0)``, obs off,
  ``jobs=1``, plus ``write_bench``: the full sim, hw, kernel, core,
  powercap and cluster stack;
* ``cluster-telemetry`` — the same run and seed with tracing, metrics,
  telemetry and the flight recorder armed, then the telemetry bundle
  exported in the order the CLI's ``--telemetry --flight`` path does;
* ``sweep`` — the paper figure cells plus ``powercap@0.60/0.70/0.80`` on
  ``jobs=2``, the ``auto`` backend and a cold result cache (the cells
  carry the paper's fixed seeds; the benchmark seed does not reach them);
* ``faults-soak`` — ``run_faults_parallel(soak_seeds(2, entropy=seed))``
  on ``jobs=2`` with an empty cache: 28 small, even cells.

The benchmark seed selects one of :data:`RECORDED_SEEDS` program seeds
(``seed % RECORDED_SEEDS``), each with a reference digest recorded in
``reference.json`` by ``record.py``; every run's output is checked against
it.  ``inline=True`` runs the parallel workloads' cells in this process
(jobs=1, inline backend) so wrappers and the profiler can see inside them.
"""

import hashlib
import json
import os
from dataclasses import asdict
from time import perf_counter

WORKLOADS = ("cluster", "cluster-telemetry", "sweep", "faults-soak")

#: program seeds with a recorded reference digest
RECORDED_SEEDS = 16

#: worker processes for the parallel workloads (one parent plus two
#: workers fits a 2-core host)
JOBS = 2

CLUSTER_NODES = 2
CLUSTER_HORIZON_S = 6.0
SOAK_SEEDS = 2

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: files the telemetry bundle must hold
BUNDLE_FILES = ("metrics.om", "series.jsonl", "trace.json", "events.jsonl",
                "report.json")


def program_seed(seed):
    """The program seed a benchmark seed selects."""
    return seed % RECORDED_SEEDS


def import_workload(workload):
    """Import what the workload needs before its first layer call."""
    if workload in ("cluster", "cluster-telemetry"):
        import repro.experiments.cluster_exp  # noqa: F401
        import repro.obs  # noqa: F401
    elif workload == "sweep":
        import repro.experiments.sweep  # noqa: F401
    elif workload == "faults-soak":
        import repro.experiments.faults_exp  # noqa: F401
    else:
        raise ValueError("unknown workload {!r}".format(workload))
    import repro.par  # noqa: F401


def execute(workload, seed, out_dir, inline=False):
    """Run the workload once; returns ``(wall_s, outputs)``.

    The clock starts at the first layer call and stops when the last
    artifact is written.
    """
    import_workload(workload)
    seed = program_seed(seed)
    start = perf_counter()
    if workload == "cluster":
        outputs = _cluster(seed, out_dir, telemetry=False)
    elif workload == "cluster-telemetry":
        outputs = _cluster(seed, out_dir, telemetry=True)
    elif workload == "sweep":
        outputs = _sweep(out_dir, inline)
    else:
        outputs = _faults_soak(seed, out_dir, inline)
    return perf_counter() - start, outputs


def _parallel(inline):
    return ({"jobs": 1, "backend": "inline"} if inline
            else {"jobs": JOBS, "backend": "auto"})


def _cluster(seed, out_dir, telemetry):
    from repro.experiments import cluster_exp
    from repro.obs import runtime

    if telemetry:
        runtime.configure(tracing=True, metrics=True, telemetry=True,
                          flight=True,
                          flight_dir=os.path.join(out_dir, "flight"))
        runtime.set_label_prefix("cluster")
    try:
        result, runner = cluster_exp.run_cluster(
            seed=seed, nodes=CLUSTER_NODES, horizon_s=CLUSTER_HORIZON_S,
            jobs=1)
        cluster_exp.write_bench(
            result, os.path.join(out_dir, "BENCH_cluster.json"))
        trace_events = (_export_bundle(os.path.join(out_dir, "telemetry"))
                        if telemetry else None)
    finally:
        runtime.reset()
    return {"bench": result.bench(), "par": [runner.stats],
            "trace_events": trace_events}


def _export_bundle(bundle):
    """The CLI's telemetry export, call for call; returns the trace count."""
    import repro.obs as obs
    from repro.obs import runtime

    sessions = runtime.sessions()
    engine = runtime.finalize_telemetry()
    os.makedirs(bundle, exist_ok=True)
    obs.export_openmetrics(sessions, os.path.join(bundle, "metrics.om"))
    obs.export_timeline_jsonl(sessions, os.path.join(bundle, "series.jsonl"))
    events = obs.export_chrome_trace(sessions,
                                     os.path.join(bundle, "trace.json"))
    obs.export_events_jsonl(sessions, os.path.join(bundle, "events.jsonl"))
    with open(os.path.join(bundle, "report.json"), "w") as handle:
        json.dump(engine.summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    runtime.flight_recorder().flush()
    return events


def _sweep(out_dir, inline):
    from repro.experiments import sweep
    from repro.par import ResultCache

    payloads, runner = sweep.run_sweep(
        cache=ResultCache(os.path.join(out_dir, "cache")), **_parallel(inline))
    return {"payloads": payloads, "par": [runner.stats]}


def _faults_soak(seed, out_dir, inline):
    from repro.experiments import faults_exp
    from repro.par import ResultCache

    campaigns, runner = faults_exp.run_faults_parallel(
        faults_exp.soak_seeds(SOAK_SEEDS, entropy=seed),
        cache=ResultCache(os.path.join(out_dir, "cache")), **_parallel(inline))
    return {"campaigns": campaigns, "par": [runner.stats]}


# -- digests and checks ------------------------------------------------------


def digest(value):
    """sha256 of a canonical JSON text (or of a string as is)."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()


def fingerprint(workload, outputs):
    """``(digest, [per-operation digests])`` of a workload's result."""
    if workload in ("cluster", "cluster-telemetry"):
        whole = digest(outputs["bench"])
        return whole, [whole]
    if workload == "sweep":
        cells = [[p["cell"], p["text"]] for p in outputs["payloads"]]
        return digest(cells), [digest(cell) for cell in cells]
    campaigns = [asdict(c) for c in outputs["campaigns"]]
    cells = [outcome for c in campaigns for outcome in c["outcomes"]]
    return digest(campaigns), [digest(cell) for cell in cells]


def reference_entry(reference, workload, seed):
    """The recorded entry the workload's output must match (or None)."""
    if workload == "sweep":
        return reference.get("sweep")
    table = reference.get("cluster" if workload.startswith("cluster")
                          else workload, {})
    return table.get(str(program_seed(seed)))


def load_reference(path=REFERENCE_PATH):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def operations(workload):
    """Operations one run attempts: the run itself, or each cell."""
    if workload == "sweep":
        from repro.experiments.sweep import cell_names

        return len(cell_names())
    if workload == "faults-soak":
        from repro.faults import SCENARIOS

        return SOAK_SEEDS * len(SCENARIOS)
    return 1


def check(workload, seed, outputs, out_dir, reference):
    """Compare a run with its reference; returns ``(attempted, failed,
    problems)``.  A mismatching operation digest is a failed operation."""
    attempted = operations(workload)
    entry = reference_entry(reference, workload, seed)
    if entry is None:
        return attempted, attempted, ["no reference digest for seed {}"
                                      .format(program_seed(seed))]
    _whole, cells = fingerprint(workload, outputs)
    expected = entry["cells"]
    problems = []
    bad = set()
    for index in range(attempted):
        got = cells[index] if index < len(cells) else None
        want = expected[index] if index < len(expected) else None
        if got is None or got != want:
            bad.add(index)
    if bad:
        problems.append("{} of {} output digests differ from the reference"
                        .format(len(bad), attempted))
    if workload == "faults-soak":
        for index, campaign in enumerate(outputs["campaigns"]):
            for offset, outcome in enumerate(campaign.outcomes):
                if not outcome.matches:
                    bad.add(index * len(campaign.outcomes) + offset)
                    problems.append("seed {} scenario {} did not match its "
                                    "expectation".format(campaign.seed,
                                                         outcome.name))
    if workload.startswith("cluster"):
        file_problems = _cluster_files(workload, outputs, out_dir)
        if file_problems:
            bad.add(0)
            problems.extend(file_problems)
    return attempted, len(bad), problems


def _cluster_files(workload, outputs, out_dir):
    problems = []
    with open(os.path.join(out_dir, "BENCH_cluster.json")) as handle:
        if json.load(handle) != outputs["bench"]:
            problems.append("BENCH_cluster.json differs from the result")
    if workload != "cluster-telemetry":
        return problems
    bundle = os.path.join(out_dir, "telemetry")
    missing = [name for name in BUNDLE_FILES
               if not os.path.isfile(os.path.join(bundle, name))]
    if missing:
        return problems + ["bundle lacks " + ", ".join(missing)]
    try:
        with open(os.path.join(bundle, "trace.json")) as handle:
            trace = json.load(handle)
        with open(os.path.join(bundle, "report.json")) as handle:
            json.load(handle)
    except ValueError as exc:
        return problems + ["bundle does not parse: {}".format(exc)]
    if len(trace.get("traceEvents", ())) != outputs["trace_events"]:
        problems.append("trace.json holds {} events, the export reported {}"
                        .format(len(trace.get("traceEvents", ())),
                                outputs["trace_events"]))
    with open(os.path.join(bundle, "metrics.om")) as handle:
        if not handle.read().endswith("# EOF\n"):
            problems.append("metrics.om does not end in '# EOF'")
    return problems


def output_bytes(out_dir):
    """Bytes of every file the run wrote."""
    total = 0
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total

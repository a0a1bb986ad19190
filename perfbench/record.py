"""Record ``reference.json``: output digests and dispatched-event counts.

    python3 perfbench/record.py

Run from the repository root.  Every recorded program seed of every
workload gets one profile pass (cells in-process, so the event count
covers them all); the pass's output digests become the reference the
benchmark checks each run against.  Re-record only when a change is meant
to alter the workloads' outputs, and say so in the change.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: concurrent passes (each is single-process in profile mode)
PARALLEL = 2


def record(root, workload, seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out_dir = os.path.join(root, ".perfbench-tmp", "record-{}-{}".format(
        workload, seed))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "profile",
             workload, str(seed), out_dir],
            stdout=subprocess.PIPE, text=True, env=env, check=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    events = result["layers"]["sim.events"]
    if not events:
        raise RuntimeError("{} seed {}: no dispatched events counted".format(
            workload, seed))
    print("{} seed {}: {} events, digest {}".format(
        workload, seed, events, result["digest"][:12]), flush=True)
    return {"digest": result["digest"], "cells": result["cells"],
            "events": events}


def main():
    root = os.getcwd()
    jobs = [("sweep", 0)] + [
        (workload, seed) for seed in range(workloads.RECORDED_SEEDS)
        for workload in ("cluster", "faults-soak")]
    with ThreadPoolExecutor(PARALLEL) as pool:
        entries = list(pool.map(lambda job: record(root, *job), jobs))
    reference = {"recorded_seeds": workloads.RECORDED_SEEDS,
                 "cluster": {}, "faults-soak": {}}
    for (workload, seed), entry in zip(jobs, entries):
        if workload == "sweep":
            reference["sweep"] = entry
        else:
            reference[workload][str(seed)] = entry
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    try:
        os.rmdir(os.path.join(root, ".perfbench-tmp"))
    except OSError:
        pass     # a benchmark run still owns a directory there
    return 0


if __name__ == "__main__":
    sys.exit(main())

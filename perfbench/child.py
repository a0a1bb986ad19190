"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR

The child imports ``repro`` and the workload's experiment modules,
prints ``ready`` (the parent times set-up up to that line), runs one pass,
and prints one JSON object as its last line.  Modes:

* ``probe``   — set-up only, exits after ``ready``;
* ``plain``   — the workload as users run it, nothing traced;
* ``traced``  — the same run with the span wrappers installed;
* ``inline``  — wrappers on, parallel cells run in this process;
* ``profile`` — cells in this process under the deterministic profiler.

``PYTHONPATH`` must name the checkout's ``src``; the parent sets it.
"""

import json
import os
import resource
import sys
import traceback

import workloads


def run(mode, workload, seed, out_dir):
    import layers

    reference = workloads.load_reference()
    inline = mode in ("inline", "profile")
    result = {"mode": mode}
    tracing = layers.Tracing() if mode in ("traced", "inline") else None
    try:
        if tracing is not None:
            with tracing:
                wall_s, outputs = workloads.execute(workload, seed, out_dir,
                                                    inline)
        elif mode == "profile":
            (wall_s, outputs), profile = layers.profiled(
                lambda: workloads.execute(workload, seed, out_dir, inline))
            result["layers"] = layers.profile_metrics(profile)
        else:
            wall_s, outputs = workloads.execute(workload, seed, out_dir,
                                                inline)
    except Exception:
        traceback.print_exc()
        attempted = workloads.operations(workload)
        result.update(attempted=attempted, failed=attempted,
                      problems=["the run raised; traceback on stderr"])
        return result
    attempted, failed, problems = workloads.check(workload, seed, outputs,
                                                  out_dir, reference)
    result["digest"], result["cells"] = workloads.fingerprint(workload,
                                                              outputs)
    result.update(wall_s=wall_s, attempted=attempted, failed=failed,
                  problems=problems,
                  output_bytes=workloads.output_bytes(out_dir))
    if tracing is not None:
        span_metrics, by_name = tracing.metrics(outputs)
        span_metrics.update(layers.output_metrics(workload, outputs,
                                                  out_dir))
        result["layers"] = span_metrics
        result["spans"] = by_name
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = usage / 1024.0
    return result


def main(argv):
    mode, workload, seed, out_dir = argv[0], argv[1], int(argv[2]), argv[3]
    workloads.import_workload(workload)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    os.makedirs(out_dir, exist_ok=True)
    print(json.dumps(run(mode, workload, seed, out_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

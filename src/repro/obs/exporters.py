"""Exporters: Chrome trace-event JSON, metrics snapshots, text tables.

The trace exporter emits the Chrome trace-event format (the ``traceEvents``
array form), which Perfetto, ``chrome://tracing``, and Speedscope all open
directly.  Spans become async begin/end pairs (``ph: "b"``/``"e"``) grouped
by the id of their *root* span, which is what renders a balloon's per-core
IPI shootdowns nested under the balloon span.  Instants become ``"i"``
events and counter samples become ``"C"`` events (graphed tracks).

One exported file can hold many simulator runs: each :class:`~repro.obs
.session.Obs` session becomes one trace "process" (pid), and each track
within it one named "thread" (tid) — so ``python -m repro.experiments fig6
--trace t.json`` yields a single timeline with every boot of the experiment
side by side.
"""

import json
from itertools import islice

from repro.analysis.report import format_table
from repro.obs.metrics import MetricsRegistry


def span_roots(spans):
    """Each span's root, in begin order — one dict lookup per span.

    A parent is always begun before its child, so its root is already
    known: ``roots[span.id] = roots[parent_id]``.  A span whose parent is
    not among ``spans`` (an orphan) is its own root.
    """
    roots = {}
    out = []
    for span in spans:
        parent_id = span.parent_id
        root = span if parent_id is None else roots.get(parent_id, span)
        roots[span.id] = root
        out.append(root)
    return out


# body event kinds (the low two bits of a sort key)
_BEGIN, _INSTANT, _SAMPLE, _END = range(4)


def iter_chrome_trace_events(sessions):
    """The ``traceEvents`` of ``sessions``, built one at a time.

    Each body event is held as one int sort key until it is yielded; its
    dict is built then, from the span or record the key points at, so a
    streaming writer never holds the whole event list (the keys take
    about a third of the written file's size).  Timestamps are the
    simulator's integer nanoseconds.  :func:`chrome_trace_events` is
    this as a list.
    """
    sessions = list(sessions)
    tracers = [obs.tracer for obs in sessions]
    count = max((max(len(tracer.spans), len(tracer.instants),
                     len(tracer.samples)) for tracer in tracers), default=0)
    # key = t | rank | tiebreak | pid | kind, most significant first.  The
    # rank orders one instant's events: begins (0), then instants and
    # samples (1), then ends (2).  The tiebreak is the event's index in
    # its tracer list; ends take ``count - index``, so ends at the same
    # instant unwind LIFO (children close before parents), which keeps
    # every async stack properly nested.  pid, then kind, order what is
    # left: sessions in boot order, an instant before a sample.
    pid_bits = len(sessions).bit_length()
    low_bits = count.bit_length() + pid_bits + 2
    head = []
    runs = [None]   # by pid: (tids, spans, roots, instants, samples)
    keys = []
    for pid, (obs, tracer) in enumerate(zip(sessions, tracers), start=1):
        tracks = sorted(
            {span.track for span in tracer.spans}
            | {track for _t, track, _n, _c, _a in tracer.instants}
            | {track for _t, track, _n, _v in tracer.samples}
        )
        tids = {track: tid for tid, track in enumerate(tracks, start=1)}
        head.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": obs.label or
                                             "run-{}".format(pid)},
        })
        for track, tid in tids.items():
            head.append({
                "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": track or "main"},
            })
        runs.append((tids, tracer.spans, span_roots(tracer.spans),
                     tracer.instants, tracer.samples))

        trace_end = obs.sim.now
        append = keys.append
        try:
            for order, span in enumerate(tracer.spans):
                low = (order << pid_bits | pid) << 2 | _BEGIN
                append(span.start << 2 << low_bits | low)
                # an unclosed span (dropped IPI, stuck drain) closes at the
                # end of the trace
                end_t = span.end if span.end is not None else trace_end
                low = ((count - order) << pid_bits | pid) << 2 | _END
                append((end_t << 2 | 2) << low_bits | low)
            for order, instant in enumerate(tracer.instants):
                low = (order << pid_bits | pid) << 2 | _INSTANT
                append((instant[0] << 2 | 1) << low_bits | low)
            for order, sample in enumerate(tracer.samples):
                low = (order << pid_bits | pid) << 2 | _SAMPLE
                append((sample[0] << 2 | 1) << low_bits | low)
        except TypeError as err:
            raise TypeError(
                "trace timestamps must be integer nanoseconds (session "
                "{!r}: {})".format(obs.label, err)) from None

    yield from head
    keys.sort()
    pid_mask = (1 << pid_bits) - 1
    order_mask = (1 << (low_bits - pid_bits - 2)) - 1
    for key in keys:
        kind = key & 3
        pid = key >> 2 & pid_mask
        order = key >> (pid_bits + 2) & order_mask
        # "ts" is in microseconds, Chrome's unit, with ns resolution kept
        ts = (key >> (low_bits + 2)) / 1000.0
        tids, spans, roots, instants, samples = runs[pid]
        if kind == _BEGIN:
            span, root = spans[order], roots[order]
            yield {
                "ph": "b", "cat": root.cat or "span", "id": root.id,
                "name": span.name, "pid": pid, "tid": tids[span.track],
                "ts": ts, "args": dict(span.args),
            }
        elif kind == _END:
            order = count - order
            span, root = spans[order], roots[order]
            yield {
                "ph": "e", "cat": root.cat or "span", "id": root.id,
                "name": span.name, "pid": pid, "tid": tids[span.track],
                "ts": ts,
                # an unclosed span says so — the gap IS the finding
                "args": {} if span.end is not None else {"unfinished": True},
            }
        elif kind == _INSTANT:
            _t, track, name, cat, args = instants[order]
            yield {
                "ph": "i", "s": "t", "cat": cat or "event", "name": name,
                "pid": pid, "tid": tids[track], "ts": ts, "args": dict(args),
            }
        else:
            _t, track, name, values = samples[order]
            yield {
                "ph": "C", "name": name, "pid": pid, "tid": tids[track],
                "ts": ts, "args": dict(values),
            }


def chrome_trace_events(sessions):
    """The ``traceEvents`` list for a set of Obs sessions."""
    return list(iter_chrome_trace_events(sessions))


#: events encoded per ``json.dumps`` call by :func:`write_trace_json`
TRACE_BATCH = 1024


def write_trace_json(path, events, extra=None, sort_keys=False):
    """Write ``{"traceEvents": events, **extra}`` to ``path``; returns the count.

    The bytes equal ``json.dump(document, handle, sort_keys=sort_keys)``,
    but each :data:`TRACE_BATCH` events are encoded by one ``json.dumps``
    call — CPython's C encoder; ``json.dump`` runs the pure-Python one —
    and written before the next batch is built, so neither the whole
    document text nor (when ``events`` is an iterator) the whole event
    list is ever held.  ``extra`` must not hold a ``traceEvents`` key.
    """
    document = {"traceEvents": None}
    document.update(extra or {})
    head, tail = json.dumps(document, sort_keys=sort_keys).split(
        '"traceEvents": null', 1)
    events = iter(events)
    count = 0
    with open(path, "w") as handle:
        handle.write(head + '"traceEvents": [')
        while True:
            chunk = list(islice(events, TRACE_BATCH))
            if not chunk:
                break
            if count:
                handle.write(", ")
            handle.write(json.dumps(chunk, sort_keys=sort_keys)[1:-1])
            count += len(chunk)
        handle.write("]" + tail)
    return count


def export_chrome_trace(sessions, path):
    """Write one Chrome-trace/Perfetto JSON file covering ``sessions``.

    Events are streamed to the file in batches (:func:`write_trace_json`).
    Returns the number of trace events written.
    """
    return write_trace_json(path, iter_chrome_trace_events(sessions), {
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.obs",
            "sessions": [obs.label for obs in sessions],
        },
    })


# -- metrics snapshots -------------------------------------------------------------


def metrics_snapshot(sessions):
    """JSON-ready snapshot: per-session metrics plus a merged rollup.

    ``unfinished_spans`` counts the spans still open at snapshot time, per
    session and summed — the aggregate the exporter's per-span
    ``unfinished: true`` annotations never provided, and the number the
    alert engine's trace-liveness rule watches.
    """
    merged = MetricsRegistry()
    per_session = []
    unfinished_total = 0
    for obs in sessions:
        merged.merge_from(obs.metrics)
        unfinished = obs.tracer.unfinished_count()
        unfinished_total += unfinished
        per_session.append({
            "label": obs.label,
            "sim_ns": obs.sim.now,
            "metrics": obs.metrics.snapshot(),
            "logs": obs.log_stats(),
            "unfinished_spans": unfinished,
        })
    return {"sessions": per_session, "merged": merged.snapshot(),
            "unfinished_spans": unfinished_total}


def export_metrics(sessions, path):
    """Write the metrics snapshot as JSON; returns the snapshot dict."""
    snap = metrics_snapshot(sessions)
    with open(path, "w") as handle:
        json.dump(snap, handle, indent=2, sort_keys=True)
    return snap


# -- timeline series ---------------------------------------------------------------


def timeline_jsonl_lines(sessions):
    """One JSON document per line, one line per (session, series).

    Each line carries the session label, the series name and labels, the
    retained ``[t_ns, value]`` points (oldest first), and the ring's
    dropped- and disordered-sample counts — so a consumer can both replay
    the window and know exactly how much history it is missing (and
    whether any sampler fed it out of order).  Sessions keep boot order;
    series within a session are sorted by (name, labels), so the dump is
    deterministic.
    """
    lines = []
    for obs in sessions:
        timeline = getattr(obs, "timeline", None)
        if timeline is None:
            continue
        for series in timeline.all():
            lines.append(json.dumps({
                "session": obs.label,
                "series": series.name,
                "labels": dict(series.labels),
                "dropped": series.dropped,
                "disordered": series.disordered,
                "points": [[t, v] for t, v in series.points()],
            }, sort_keys=True))
    return lines


def export_timeline_jsonl(sessions, path):
    """Write the JSONL time-series dump; returns the number of series."""
    lines = timeline_jsonl_lines(sessions)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


# -- discrete events: actuator actions + fault injections --------------------------


def events_jsonl_lines(sessions):
    """One JSON document per line: actuator actions and fault injections.

    The timeline dump carries the continuous signals; this surface carries
    the discrete causes — every retained powercap actuator decision
    (``kind: "action"``, from each kernel's
    :class:`~repro.powercap.telemetry.TelemetryRing`) and every fault the
    installed :class:`~repro.faults.plan.FaultPlan` injected
    (``kind: "inject"``).  The explain engine joins these against breached
    series windows to name *why* an alert fired.  Order is deterministic:
    sessions in boot order, each session's rings oldest-first.
    """
    lines = []
    for obs in sessions:
        kernel = getattr(obs, "kernel", None)
        controller = getattr(kernel, "powercap", None)
        if controller is not None:
            for entry in controller.telemetry.records():
                doc = dict(entry, session=obs.label, kind="action")
                doc["t_ns"] = doc.pop("t")
                lines.append(json.dumps(doc, sort_keys=True))
        plan = getattr(obs.sim, "faults", None)
        if plan is not None:
            for t, kind, payload in plan.log:
                if kind != "inject":
                    continue
                doc = dict(payload, session=obs.label, kind="inject", t_ns=t)
                lines.append(json.dumps(doc, sort_keys=True, default=str))
    return lines


def export_events_jsonl(sessions, path):
    """Write the discrete-event JSONL dump; returns the line count."""
    lines = events_jsonl_lines(sessions)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def format_metrics_table(snapshot):
    """Aligned-text rendering of a merged metrics snapshot."""
    merged = snapshot.get("merged", snapshot)
    rows = []
    for name, value in merged["counters"].items():
        rows.append([name, "counter", str(value), "", ""])
    for name, gauge in merged["gauges"].items():
        rows.append([
            name, "gauge", _fmt(gauge["value"]),
            _fmt(gauge["min"]), _fmt(gauge["max"]),
        ])
    for name, hist in merged["histograms"].items():
        rows.append([
            name, "histogram",
            "n={} mean={}".format(hist["count"], _fmt(hist["mean"])),
            _fmt(hist["min"]), _fmt(hist["max"]),
        ])
    if not rows:
        return "(no metrics recorded)"
    return format_table(["metric", "kind", "value", "min", "max"], rows,
                        title="metrics snapshot")


def _fmt(value):
    if value is None:
        return "--"
    if isinstance(value, float):
        return "{:.6g}".format(value)
    return str(value)

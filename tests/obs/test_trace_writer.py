"""The streamed Chrome-trace writer and the memoized span roots.

``export_chrome_trace`` streams events through batched ``json.dumps``
calls instead of building the whole document; these tests pin that its
bytes are exactly the one-shot ``json.dumps(document)``, that the lazily
built event stream equals a straightforward build-everything-then-sort
reference, that ``span_roots`` equals the per-span parent walk on
tracer-shaped spans, and that the writer's peak memory stays well below
the file it writes.
"""

import json
import os
import tracemalloc

import pytest

from repro.obs import Obs, chrome_trace_events, export_chrome_trace, exporters
from repro.obs.exporters import TRACE_BATCH, span_roots, write_trace_json
from repro.obs.tracer import Span


def _root_of(span, by_id):
    """The per-span parent walk ``span_roots`` replaced, kept as reference."""
    seen = set()
    while span.parent_id is not None and span.parent_id not in seen:
        seen.add(span.id)
        parent = by_id.get(span.parent_id)
        if parent is None:
            break
        span = parent
    return span


class FakeSim:
    def __init__(self):
        self.now = 0
        self.obs = None
        self.faults = None
        self._ctx_tracer = None


def _reference_trace_events(sessions):
    """Every event built up front, roots by walking, one stable sort."""
    events, body = [], []
    for pid, obs in enumerate(sessions, start=1):
        tracer = obs.tracer
        tracks = sorted({s.track for s in tracer.spans}
                        | {i[1] for i in tracer.instants}
                        | {s[1] for s in tracer.samples})
        tids = {track: tid for tid, track in enumerate(tracks, start=1)}
        events.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                       "name": "process_name",
                       "args": {"name": obs.label or "run-{}".format(pid)}})
        for track, tid in tids.items():
            events.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                           "name": "thread_name",
                           "args": {"name": track or "main"}})
        by_id = {span.id: span for span in tracer.spans}
        for order, span in enumerate(tracer.spans):
            root = _root_of(span, by_id)
            common = {"cat": root.cat or "span", "id": root.id,
                      "name": span.name, "pid": pid,
                      "tid": tids[span.track]}
            body.append((span.start, 0, order, dict(
                {"ph": "b"}, **common, ts=span.start / 1000.0,
                args=dict(span.args))))
            end_t = span.end if span.end is not None else obs.sim.now
            body.append((end_t, 2, -order, dict(
                {"ph": "e"}, **common, ts=end_t / 1000.0,
                args={} if span.end is not None else {"unfinished": True})))
        for order, (t, track, name, cat, args) in enumerate(tracer.instants):
            body.append((t, 1, order, {
                "ph": "i", "s": "t", "cat": cat or "event", "name": name,
                "pid": pid, "tid": tids[track], "ts": t / 1000.0,
                "args": dict(args)}))
        for order, (t, track, name, values) in enumerate(tracer.samples):
            body.append((t, 1, order, {
                "ph": "C", "name": name, "pid": pid, "tid": tids[track],
                "ts": t / 1000.0, "args": dict(values)}))
    body.sort(key=lambda item: item[:3])
    return events + [event for _t, _r, _o, event in body]


def _session(label, n=6):
    """Nested spans, same-instant ties, unclosed spans, non-ASCII args."""
    obs = Obs(FakeSim(), label=label, tracing=True).install()
    tracer, sim = obs.tracer, obs.sim
    for i in range(n):
        sim.now = 100 * (i // 2)               # pairs share an instant
        outer = tracer.begin("balloon.cpu", cat="balloon", track="smp",
                             app=i, who="Zoë ☃ 电")
        inner = tracer.begin("ipi.shootdown", parent=outer, detached=True,
                             core=i % 2)
        tracer.instant("loan.grant", cat="loan", track="smp", app=i,
                       note="naïve")
        tracer.sample("opp.cpu", track="governor.cpu", opp=i)
        if i % 3:                               # every third stays open
            tracer.end(inner)
            tracer.end(outer, reason="done")
        else:
            tracer.end(inner, lost="IPI dropped")
    sim.now = 100 * n
    return obs


def _document(sessions, sort_keys=False):
    return json.dumps({
        "traceEvents": _reference_trace_events(sessions),
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs",
                      "sessions": [obs.label for obs in sessions]},
    }, sort_keys=sort_keys)


# -- the writer -----------------------------------------------------------


def _events(n):
    return [{"ph": "i", "name": "ev-{}-ü".format(i), "ts": i / 7.0,
             "args": {"k": i, "s": "naïve ☃"}} for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, TRACE_BATCH, TRACE_BATCH + 1])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_writer_bytes_equal_one_shot_dumps(tmp_path, n, sort_keys):
    events = _events(n)
    extra = {"displayTimeUnit": "ns", "otherData": {"sessions": ["a", "é"]}}
    path = tmp_path / "trace.json"
    assert write_trace_json(str(path), iter(events), extra,
                            sort_keys=sort_keys) == n
    expected = json.dumps(dict({"traceEvents": events}, **extra),
                          sort_keys=sort_keys)
    assert path.read_text() == expected


@pytest.mark.parametrize("n", range(8))
def test_writer_batch_boundaries(tmp_path, monkeypatch, n):
    monkeypatch.setattr(exporters, "TRACE_BATCH", 3)
    events = _events(n)
    path = tmp_path / "trace.json"
    write_trace_json(str(path), events)
    assert path.read_text() == json.dumps({"traceEvents": events})


def test_export_bytes_equal_one_shot_document(tmp_path):
    sessions = [_session("node00"), _session("ノード", n=5),
                _session("", n=0)]
    path = tmp_path / "trace.json"
    count = export_chrome_trace(sessions, str(path))
    assert path.read_text() == _document(sessions)
    # the explain overlay writes key-sorted through the same writer
    sorted_path = tmp_path / "sorted.json"
    write_trace_json(str(sorted_path), chrome_trace_events(sessions), {
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs",
                      "sessions": [obs.label for obs in sessions]},
    }, sort_keys=True)
    assert sorted_path.read_text() == _document(sessions, sort_keys=True)
    assert count == len(json.loads(path.read_text())["traceEvents"])
    unfinished = [e for e in json.loads(path.read_text())["traceEvents"]
                  if e["ph"] == "e" and e["args"].get("unfinished")]
    assert len(unfinished) == 4


def test_event_stream_equals_reference_build():
    sessions = [_session("a", n=9), _session("b", n=4), _session("c")]
    assert chrome_trace_events(sessions) == _reference_trace_events(sessions)


# -- memoized roots -------------------------------------------------------


def _span(span_id, parent_id, cat=""):
    return Span(span_id, parent_id, "s{}".format(span_id), cat, "t", 0, {})


def _walk_roots(spans):
    by_id = {span.id: span for span in spans}
    return [_root_of(span, by_id) for span in spans]


def test_roots_of_a_deep_chain():
    depth = 10_001
    spans = [_span(1, None, cat="top")] + [_span(i, i - 1)
                                          for i in range(2, depth + 1)]
    roots = span_roots(spans)
    assert all(root is spans[0] for root in roots)
    by_id = {span.id: span for span in spans}
    for index in list(range(0, depth, 997)) + [depth - 1]:
        assert roots[index] is _root_of(spans[index], by_id)


def test_roots_of_orphans_and_their_children():
    spans = [_span(1, None), _span(2, 99), _span(3, 2), _span(4, 3),
             _span(5, 1), _span(6, 42)]
    roots = span_roots(spans)
    assert roots == _walk_roots(spans)
    assert [r.id for r in roots] == [1, 2, 2, 2, 1, 6]


def test_roots_per_session_when_span_ids_collide():
    """Every tracer counts ids from 1: roots never leak across sessions."""
    sessions = [_session("a"), _session("b"), _session("c", n=3)]
    for obs in sessions:
        assert span_roots(obs.tracer.spans) == _walk_roots(obs.tracer.spans)


def test_float_timestamp_is_a_clear_error():
    obs = _session("late")
    obs.sim.now = 2.5e9        # e.g. Simulator.run(until=<float>)
    with pytest.raises(TypeError, match="integer nanoseconds.*'late'"):
        chrome_trace_events([obs])


# -- memory ---------------------------------------------------------------


def test_export_peak_memory_stays_well_below_the_file(tmp_path,
                                                     monkeypatch):
    """Streaming holds one int sort key per event plus one batch.

    Building the document and encoding it at once holds every event dict
    (several times the file) plus the whole text (the file itself): this
    fails loudly if the exporter ever goes back to that.  A small batch
    keeps the per-batch cost out of a test-sized trace, so what is
    measured is the part that grows with the trace.
    """
    monkeypatch.setattr(exporters, "TRACE_BATCH", 64)
    sessions = [_session("big-{}".format(i), n=1500) for i in range(2)]
    path = str(tmp_path / "trace.json")
    tracemalloc.start()
    try:
        export_chrome_trace(sessions, path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 2 * 1024 * 1024
    assert peak < 0.6 * size, (peak, size)

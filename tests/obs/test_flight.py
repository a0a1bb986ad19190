"""The flight recorder: arming, triggers, snapshot content, bounds."""

import json

from repro.check.checker import InvariantChecker
from repro.obs import flight
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.flight import FlightRecorder, _jsonable
from repro.obs.session import Obs
from repro.obs.timeline import Timeline
from repro.powercap.telemetry import TelemetryRing


class FakeSim:
    def __init__(self):
        self.now = 0
        self.obs = None
        self.faults = None
        self._ctx_tracer = None


class FakeKernel:
    """Just enough kernel for InvariantChecker._flag."""

    def __init__(self, sim):
        self.sim = sim


def make_session(label="test", rules=None, recorder=None):
    obs = Obs(FakeSim(), label=label, tracing=True,
              timeline=Timeline()).install()
    engine = AlertEngine(rules if rules is not None else [])
    engine.watch(obs)
    if recorder is not None:
        recorder.watch(obs)
    return obs, engine


def teardown_function(_fn):
    flight.disarm()


class TestArming:
    def test_disarmed_by_default(self):
        assert flight.active() is None

    def test_arm_disarm_roundtrip(self):
        recorder = flight.arm(FlightRecorder())
        assert flight.active() is recorder
        flight.disarm()
        assert flight.active() is None


class TestAlertTrigger:
    def test_fired_alert_snapshots(self):
        recorder = flight.arm(FlightRecorder())
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, _engine = make_session(rules=[rule], recorder=recorder)
        obs.sim.now = 50
        obs.timeline.record("w", 50, 2.0)
        assert len(recorder.dumps) == 1
        dump = recorder.dumps[0]
        assert dump["trigger"]["type"] == "alert"
        assert dump["trigger"]["rule"] == "hot"
        assert dump["alerts"][0]["rule"] == "hot"
        (session,) = dump["sessions"]
        assert session["label"] == "test"
        keys = {(s["name"], tuple(sorted(s["labels"].items())))
                for s in session["series"]}
        assert ("w", ()) in keys

    def test_no_recorder_no_effect(self):
        rule = AlertRule("hot", series="w", op=">", threshold=1.0)
        obs, engine = make_session(rules=[rule])
        obs.timeline.record("w", 0, 2.0)     # must not raise
        assert len(engine.alerts) == 1


class TestViolationTrigger:
    def test_checker_flag_snapshots(self):
        recorder = flight.arm(FlightRecorder())
        checker = InvariantChecker(FakeKernel(FakeSim()))
        checker.sim.now = 77
        checker._flag("balloon.exclusive", "smp", "cosched", "intruder")
        assert len(recorder.dumps) == 1
        trigger = recorder.dumps[0]["trigger"]
        assert trigger["type"] == "violation"
        assert trigger["invariant"] == "balloon.exclusive"
        assert trigger["t_ns"] == 77


class TestSnapshotBounds:
    def test_max_dumps_then_suppressed(self):
        recorder = FlightRecorder(max_dumps=2)
        for i in range(5):
            recorder.snapshot({"type": "test", "i": i})
        assert len(recorder.dumps) == 2
        assert recorder.suppressed == 3

    def test_series_tail_window(self):
        recorder = FlightRecorder(series_tail=3)
        obs, _ = make_session(recorder=recorder)
        for i in range(10):
            obs.timeline.record("w", i, float(i))
        dump = recorder.snapshot({"type": "test"})
        (series,) = dump["sessions"][0]["series"]
        assert series["points"] == [[7, 7.0], [8, 8.0], [9, 9.0]]

    def test_instants_tail_window(self):
        recorder = FlightRecorder(events_tail=2)
        obs, _ = make_session(recorder=recorder)
        for i in range(5):
            obs.tracer.instant("e{}".format(i), track="t")
        dump = recorder.snapshot({"type": "test"})
        names = [row[2] for row in dump["sessions"][0]["instants"]]
        assert names == ["e3", "e4"]


class TestActionRings:
    def test_note_ring_dedups_and_labels(self):
        recorder = FlightRecorder()
        ring = TelemetryRing()
        ring.record(10, "t0.web", 1.0, 2.0, "throttle", 0.25)
        recorder.note_ring(ring, "node00")
        recorder.note_ring(ring, "other-label")   # same object: ignored
        dump = recorder.snapshot({"type": "test"})
        (action,) = dump["actions"]
        assert action["session"] == "node00"
        assert action["node"] == "t0.web"
        assert action["action"] == "throttle"


class TestPersistence:
    def test_dump_files_and_manifest(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out), max_dumps=2)
        recorder.snapshot({"type": "test", "i": 0})
        recorder.snapshot({"type": "test", "i": 1})
        recorder.snapshot({"type": "test", "i": 2})   # suppressed
        assert recorder.flush() == 2
        names = sorted(p.name for p in out.iterdir())
        assert names == ["flight-000.json", "flight-001.json",
                         "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dumps"] == ["flight-000.json", "flight-001.json"]
        assert manifest["suppressed"] == 1
        dump = json.loads((out / "flight-000.json").read_text())
        assert dump["format"] == flight.FORMAT

    def test_out_dir_recorder_retains_no_snapshot_bodies(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out))
        obs, _engine = make_session(recorder=recorder)
        obs.timeline.record("w", 0, 1.0)
        for i in range(3):
            assert recorder.snapshot({"type": "test", "i": i})["seq"] == i
        assert recorder.dumps == []
        assert recorder.triggers == [{"type": "test", "i": i}
                                     for i in range(3)]
        assert len(recorder.paths) == 3
        assert recorder.flush() == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["triggers"] == recorder.triggers

    def test_in_memory_recorder_keeps_dumps(self):
        recorder = FlightRecorder()
        dump = recorder.snapshot({"type": "test"})
        assert recorder.dumps == [dump]
        assert recorder.triggers == [dump["trigger"]]
        assert recorder.flush() == 1

    def test_dump_file_is_compact_key_sorted_json(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out))
        obs, _engine = make_session(recorder=recorder)
        obs.timeline.record("w", 0, 1.0, node="ノード")
        dump = recorder.snapshot({"type": "test", "z": 1, "a": "é"})
        text = (out / "flight-000.json").read_text()
        assert text == json.dumps(dump, sort_keys=True) + "\n"
        assert json.loads(text) == dump

    def test_flush_without_dumps_writes_nothing(self, tmp_path):
        out = tmp_path / "flight"
        recorder = FlightRecorder(out_dir=str(out))
        assert recorder.flush() == 0
        assert not out.exists()


class TestJsonable:
    def test_primitives_pass_through(self):
        assert _jsonable({"a": [1, 2.5, "x", None, True]}) == {
            "a": [1, 2.5, "x", None, True]}

    def test_tuples_become_lists(self):
        assert _jsonable((1, (2, 3))) == [1, [2, 3]]

    def test_objects_become_type_names_not_reprs(self):
        class Widget:
            pass

        text = _jsonable(Widget())
        assert text == "<Widget>"        # no id()/address leakage
        assert json.dumps(_jsonable({"k": Widget()}))

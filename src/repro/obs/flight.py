"""The flight recorder: an always-on black box that dumps on trouble.

Production power stacks keep a bounded "flight recorder" running at all
times: rings of recent events, actuator decisions, fault injections, and
the tail of every telemetry series.  Nothing is written while the run is
healthy; the moment an :class:`~repro.obs.alerts.AlertRule` fires or the
:class:`~repro.check.checker.InvariantChecker` records a violation, the
recorder snapshots everything it can see into one self-contained JSON dump
— the evidence the :mod:`repro.obs.explain` engine later turns into a
root-cause incident report, even when the live rings have long since
evicted the breach.

Wiring follows the repo's dormant-cost rule (DESIGN.md §5h): a trigger or
source site pays exactly **one branch** when no recorder is armed —
``if flight._recorder is not None`` against this module's global.  The
armed sites are:

* ``AlertEngine._fire`` — every fired alert triggers a snapshot;
* ``InvariantChecker._flag`` — every recorded violation triggers one;
* the powercap daemon tick and the cluster epoch sampler — these never
  trigger dumps, they only *register* their decision rings (the
  :class:`~repro.powercap.telemetry.TelemetryRing` of actuator actions)
  so snapshots can include them.

Everything the recorder does is read-only with respect to the simulation:
it draws no RNG, schedules no events, and only ever reads rings that
already exist — so flight-recorder-on runs stay sha256 bit-identical to
bare ones (asserted by the differential matrix's ``flight-on`` column).
"""

import json
import os

#: the process-global armed recorder; trigger sites branch on this being
#: None — that read-and-branch is their entire dormant cost
_recorder = None

FORMAT = "psbox-flight"
VERSION = 1


def arm(recorder):
    """Make ``recorder`` the process-global flight recorder; returns it."""
    global _recorder
    _recorder = recorder
    return recorder


def disarm():
    """Detach the global recorder (trigger sites go back to one branch)."""
    global _recorder
    _recorder = None


def active():
    """The armed recorder, or None."""
    return _recorder


def _jsonable(value):
    """``value`` reduced to JSON-safe primitives, deterministically.

    Unknown objects become their type name (never ``repr`` — memory
    addresses would make dumps differ run to run).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return "<{}>".format(type(value).__name__)


class FlightRecorder:
    """Bounded black-box capture with snapshot-on-trigger semantics.

    ``sessions`` is a list of :class:`~repro.obs.session.Obs` sessions or
    a zero-argument callable returning one (the CLI passes
    ``obs_runtime.sessions`` so late-booted simulators are covered).
    ``out_dir`` of None keeps dumps in memory only (tests, the
    differential matrix), in :attr:`dumps`; a path writes each dump to a
    ``flight-NNN.json`` file as it is taken and keeps only its trigger
    and path (``dumps`` stays empty, so memory stays bounded however
    large the dumps are), plus a ``manifest.json`` on :meth:`flush`.
    """

    def __init__(self, out_dir=None, sessions=(), series_tail=256,
                 events_tail=256, max_dumps=16):
        if series_tail < 1 or events_tail < 1:
            raise ValueError("flight tails must be >= 1")
        if max_dumps < 1:
            raise ValueError("max_dumps must be >= 1")
        self.out_dir = out_dir
        self.series_tail = series_tail
        self.events_tail = events_tail
        self.max_dumps = max_dumps
        self.dumps = []          # snapshot dicts, trigger order (in memory)
        self.triggers = []       # every dump's trigger, trigger order
        self.paths = []          # files written (out_dir set)
        self.suppressed = 0      # triggers past max_dumps
        self._sessions = sessions
        self._rings = {}         # id -> (label, TelemetryRing); insertion order
        self._alerts = []        # every alert seen, dump order context

    # -- source registration (the "note" sites) -------------------------------

    def watch(self, obs):
        """Explicitly add one session (when ``sessions`` is a list)."""
        if not callable(self._sessions):
            self._sessions = list(self._sessions)
            if obs not in self._sessions:
                self._sessions.append(obs)
        return self

    def note_ring(self, ring, label):
        """Register one actuator-decision ring under a session label.

        Idempotent per ring object; called from the powercap tick (and,
        for every node, from the cluster epoch sampler), so the ring is
        known to the recorder before any trigger can fire.
        """
        key = id(ring)
        if key not in self._rings:
            self._rings[key] = (label, ring)

    def note_cluster(self, nodes):
        """Register every cluster node's controller ring (epoch sampler)."""
        for node in nodes:
            controller = getattr(node, "controller", None)
            if controller is None:
                continue
            obs = getattr(node.platform.sim, "obs", None)
            label = obs.label if obs is not None and obs.label else node.name
            self.note_ring(controller.telemetry, label)

    # -- triggers -------------------------------------------------------------

    def on_alert(self, alert, obs=None, engine=None):
        """An :class:`~repro.obs.alerts.Alert` fired: snapshot."""
        self._alerts.append(alert.to_dict())
        self.snapshot(dict(alert.to_dict(), type="alert"))

    def on_violation(self, violation, sim=None):
        """The invariant checker flagged ``violation``: snapshot."""
        self.snapshot({
            "type": "violation",
            "t_ns": violation.t,
            "invariant": violation.invariant,
            "component": violation.component,
            "event": violation.event,
            "message": violation.message,
        })

    # -- the snapshot itself --------------------------------------------------

    def sessions(self):
        sessions = self._sessions
        return list(sessions() if callable(sessions) else sessions)

    def snapshot(self, trigger):
        """Capture one self-contained dump; returns it (or None if capped).

        Read-only against the simulation: every ring it copies already
        exists, and nothing here draws RNG or schedules events.
        """
        if len(self.triggers) >= self.max_dumps:
            self.suppressed += 1
            return None
        trigger = _jsonable(trigger)
        dump = {
            "format": FORMAT,
            "version": VERSION,
            "seq": len(self.triggers),
            "trigger": trigger,
            "sessions": [self._session_snapshot(obs)
                         for obs in self.sessions()],
            "actions": self._actions_snapshot(),
            "alerts": list(self._alerts),
            "suppressed": self.suppressed,
        }
        self.triggers.append(trigger)
        if self.out_dir is None:
            self.dumps.append(dump)
        else:
            self._write(dump)
        return dump

    def _session_snapshot(self, obs):
        snap = {
            "label": obs.label,
            "now_ns": obs.sim.now,
            "series": [],
            "instants": [],
            "logs": {},
            "injections": [],
        }
        timeline = getattr(obs, "timeline", None)
        if timeline is not None:
            for series in timeline.all():
                points = series.points()[-self.series_tail:]
                snap["series"].append({
                    "name": series.name,
                    "labels": dict(series.labels),
                    "dropped": series.dropped,
                    "disordered": series.disordered,
                    "points": [[t, v] for t, v in points],
                })
        tracer = getattr(obs, "tracer", None)
        if tracer is not None:
            snap["instants"] = [
                [t, track, name, cat, _jsonable(args)]
                for t, track, name, cat, args
                in tracer.instants[-self.events_tail:]
            ]
        # the kernel's bounded event rings: the "recent dispatched events"
        # black box — scheduling decisions, drains, governor switches
        if getattr(obs, "kernel", None) is not None:
            from repro.obs.session import kernel_logs

            for log in kernel_logs(obs.kernel):
                records = list(log)[-self.events_tail:]
                # "seq" labels come from process-global counters (see
                # repro.faults.diff) — strip them so dumps from the same
                # seed are byte-identical run to run
                snap["logs"][log.name] = {
                    "retained": len(log),
                    "dropped": log.dropped,
                    "tail": [[t, kind, _jsonable(
                        {k: v for k, v in payload.items() if k != "seq"})]
                             for t, kind, payload in records],
                }
        plan = getattr(obs.sim, "faults", None)
        if plan is not None:
            snap["injections"] = [
                dict(_jsonable(payload), t_ns=t)
                for t, kind, payload in list(plan.log)[-self.events_tail:]
                if kind == "inject"
            ]
        return snap

    def _actions_snapshot(self):
        """Actuator decisions from every noted controller ring, tails."""
        out = []
        for label, ring in self._rings.values():
            for entry in ring.records()[-self.events_tail:]:
                out.append(dict(_jsonable(entry), session=label))
        return out

    def _write(self, dump):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir,
                            "flight-{:03d}.json".format(dump["seq"]))
        # json.dumps without an indent runs CPython's C encoder; json.dump
        # to a file, or any indent, runs the pure-Python one
        with open(path, "w") as handle:
            handle.write(json.dumps(dump, sort_keys=True))
            handle.write("\n")
        self.paths.append(path)
        return path

    def flush(self):
        """Write the manifest (out_dir set); returns the dump count."""
        if self.out_dir is not None and (self.paths or self.suppressed):
            os.makedirs(self.out_dir, exist_ok=True)
            manifest = {
                "format": FORMAT,
                "version": VERSION,
                "dumps": [os.path.basename(p) for p in self.paths],
                "suppressed": self.suppressed,
                "triggers": self.triggers,
            }
            path = os.path.join(self.out_dir, "manifest.json")
            with open(path, "w") as handle:
                json.dump(manifest, handle, indent=1, sort_keys=True)
                handle.write("\n")
        return len(self.triggers)

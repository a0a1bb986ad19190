"""Persisted per-experiment cell-cost estimates for backend selection.

The parallel-slower-than-serial regression (BENCH_par.json) happens when
the runner pays worker interpreter boots for a workload too cheap to
amortise them.  Fixing that needs a *measured* notion of what one cell
costs — so every run feeds each finished cell's ``wall_s`` into an
exponentially weighted mean per experiment name, and ``auto`` backend
selection compares the projected parallel saving against the spawn-boot
bill before committing to a pool (the same measured-cost-driven
scheduling posture as WattsApp's power predictor).

Estimates persist beside the result cache (``<cache>/cost_model.json``)
so the *first* cell of a resumed soak already knows what cells cost;
cache-less runs share one in-memory model per process, which is enough
for a benchmark or test that runs serial before parallel.  The file is
advisory: losing it only means one conservative first decision.
"""

import json
import os

from repro.par.cache import write_atomic

#: the file written next to the cache's experiment directories
COST_FILE = "cost_model.json"

#: EWMA weight of the newest observation once an estimate exists
ALPHA = 0.3

#: shared models: absolute path (or None for in-memory) -> CostModel
_MODELS = {}


def shared_model(cache=None):
    """The process-shared model for a cache (or the in-memory one)."""
    path = (os.path.join(cache.root, COST_FILE)
            if cache is not None else None)
    key = os.path.abspath(path) if path else None
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = CostModel(path)
    return model


class CostModel:
    """EWMA of observed cell wall-seconds, keyed by experiment name."""

    def __init__(self, path=None):
        self.path = path
        self._mean_s = {}
        self._count = {}
        self._dirty = False
        if path is not None:
            self._load()

    def _load(self):
        try:
            with open(self.path) as handle:
                doc = json.load(handle)
            experiments = doc["experiments"]
        except (OSError, ValueError, KeyError, TypeError):
            return   # absent or torn: start cold, the next save rewrites
        for name, entry in experiments.items():
            try:
                mean, count = float(entry["mean_s"]), int(entry["count"])
            except (KeyError, TypeError, ValueError):
                continue
            if mean >= 0 and count > 0:
                self._mean_s[name] = mean
                self._count[name] = count

    def estimate(self, experiment):
        """Mean cell seconds for an experiment, or ``None`` if unseen."""
        return self._mean_s.get(experiment)

    def observe(self, experiment, wall_s):
        """Fold one finished cell's wall clock into the estimate."""
        wall_s = max(0.0, float(wall_s))
        mean = self._mean_s.get(experiment)
        if mean is None:
            self._mean_s[experiment] = wall_s
        else:
            self._mean_s[experiment] = (1.0 - ALPHA) * mean + ALPHA * wall_s
        self._count[experiment] = self._count.get(experiment, 0) + 1
        self._dirty = True

    def save(self):
        """Atomically persist (no-op for in-memory or unchanged models)."""
        if self.path is None or not self._dirty:
            return
        doc = {"experiments": {
            name: {"mean_s": self._mean_s[name], "count": self._count[name]}
            for name in sorted(self._mean_s)
        }}
        write_atomic(self.path, json.dumps(doc, indent=2, sort_keys=True)
                     + "\n")
        self._dirty = False

    def snapshot(self):
        """The persisted shape, for tests and humans."""
        return {name: {"mean_s": self._mean_s[name],
                       "count": self._count[name]}
                for name in sorted(self._mean_s)}

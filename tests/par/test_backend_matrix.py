"""The backend differential matrix: every backend, byte for byte.

{inline, spawn, socket} × {faults, sweep, cluster-calibration}:
each backend's merged payloads must hash (sha256 over canonical JSON)
identically to the serial baseline's — the correctness gate the executor
refactor must clear before any wall-clock claim counts.  Serial baselines
are computed once per workload (module-scoped fixtures); workloads are
small on purpose, the scale lives in benchmarks and CI smokes.
"""

import hashlib
import json

import pytest

from repro.cluster import USERS_PER_INSTANCE, ClusterTopology, WorkloadSpec
from repro.cluster.calibrate import calibration_items
from repro.experiments.sweep import sweep_items
from repro.par import ParallelRunner, work_list
from repro.par.executors import BACKENDS

MATRIX_BACKENDS = sorted(BACKENDS)


def payload_sha(payloads):
    """Canonical sha256 of a payload list — the bit-identity witness."""
    canon = json.dumps(payloads, sort_keys=True, separators=(",", ":"),
                       allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()


def faults_items():
    """Two full mixed-board workloads whose payloads are themselves
    sha256 trace fingerprints."""
    return work_list(
        "diff", "repro.experiments.faults_exp:fingerprint_cell",
        [(seed, {"workload": "mixed"}) for seed in (0, 1)],
    )


def sweep_cells():
    return sweep_items(["sec63", "powercap@0.60"])


def cluster_items():
    topology = ClusterTopology.uniform(2)
    by_node = {
        "node00": [WorkloadSpec(name="a.web", tenant="t0", kind="web",
                                start_s=0.0, end_s=0.6,
                                users=USERS_PER_INSTANCE)],
        "node01": [WorkloadSpec(name="b.bulk", tenant="t1", kind="bulk",
                                start_s=0.1, end_s=0.6,
                                users=USERS_PER_INSTANCE)],
    }
    return calibration_items(topology, by_node, seed=5, horizon_s=0.6,
                             epoch_ms=250)

WORKLOADS = {
    "faults": faults_items,
    "sweep": sweep_cells,
    "cluster-calibration": cluster_items,
}


@pytest.fixture(scope="module")
def serial_sha():
    """Serial-baseline hash per workload, computed once."""
    return {
        name: payload_sha(
            ParallelRunner(jobs=1, backend="inline").run(build()))
        for name, build in WORKLOADS.items()
    }


@pytest.mark.parametrize("backend", MATRIX_BACKENDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_backend_matrix_bit_identity(backend, workload, serial_sha):
    runner = ParallelRunner(jobs=2, backend=backend)
    payloads = runner.run(WORKLOADS[workload]())
    assert payload_sha(payloads) == serial_sha[workload], (
        "{} backend diverged from serial on {}".format(backend, workload))
    assert runner.stats.backend == backend


def test_auto_backend_bit_identity(serial_sha):
    """Whatever auto resolves to on this host, the bytes must match."""
    runner = ParallelRunner(jobs=2, backend="auto")
    payloads = runner.run(WORKLOADS["faults"]())
    assert payload_sha(payloads) == serial_sha["faults"]
    assert runner.stats.backend in MATRIX_BACKENDS

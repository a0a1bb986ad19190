"""Differential proof: parallel == serial, byte for byte.

Two layers, both reusing the PR 2 sha256 fingerprint machinery:

* **worker protocol** — a full mixed-board workload booted inside a
  spawn-started worker must produce the exact trace fingerprint the same
  workload produces when booted in this (parent) process;
* **campaign report** — ``python -m repro.experiments faults --seeds N``
  must print byte-identical stdout with and without ``--jobs`` (and with a
  warm cache).
"""

import pytest

from repro.experiments import faults_exp
from repro.experiments.__main__ import main
from repro.faults import SCENARIOS, fingerprint
from repro.par import ParallelRunner, work_list

#: mixed-workload scenarios only: quick, and they exercise every injector
MIXED = [scn for scn in SCENARIOS if scn.workload == "mixed"]


@pytest.fixture(scope="module")
def parent_fingerprints():
    """Mixed-board fingerprints computed in-process, seeds 0 and 1."""
    prints = {}
    for seed in (0, 1):
        work = faults_exp.build_workload("mixed", seed)
        work.platform.sim.run(until=work.horizon_ns)
        prints[seed] = fingerprint(work.platform, work.kernel)
    return prints


def test_worker_boot_is_bit_identical_to_parent_boot(parent_fingerprints):
    items = work_list(
        "diff", "repro.experiments.faults_exp:fingerprint_cell",
        [(seed, {"workload": "mixed"}) for seed in (0, 1)],
    )
    payloads = ParallelRunner(jobs=2, backend="spawn").run(items)
    assert payloads[0]["fingerprint"] == parent_fingerprints[0]
    assert payloads[1]["fingerprint"] == parent_fingerprints[1]


def test_parallel_campaign_equals_serial_run():
    """run_faults_parallel across processes == the serial run_faults loop."""
    serial = [faults_exp.run_faults(seed=seed, scenarios=MIXED)
              for seed in (0, 1)]
    campaigns, runner = faults_exp.run_faults_parallel(
        [0, 1], jobs=2, scenarios=MIXED)
    assert runner.stats.executed == 2 * len(MIXED)
    for ours, theirs in zip(campaigns, serial):
        assert ours.seed == theirs.seed
        assert ours.outcomes == theirs.outcomes


def test_soak_cli_stdout_is_byte_identical(capsys, tmp_path):
    """--jobs N and a warm cache never change a byte of the report."""
    assert main(["faults", "--seeds", "1"]) == 0
    serial_out = capsys.readouterr().out

    cache_dir = str(tmp_path / "parcache")
    assert main(["faults", "--seeds", "1", "--jobs", "2",
                 "--cache", cache_dir]) == 0
    captured = capsys.readouterr()
    assert captured.out == serial_out

    # replay from cache: same bytes again, all cells skipped
    assert main(["faults", "--seeds", "1", "--jobs", "2",
                 "--cache", cache_dir]) == 0
    captured = capsys.readouterr()
    assert captured.out == serial_out
    assert "all cells cached" in captured.err


def test_sweep_parallel_equals_serial():
    """A cheap sweep subset: captured text identical across job counts."""
    from repro.experiments.sweep import run_sweep

    names = ["sec63", "powercap@0.60"]
    serial, _ = run_sweep(names, jobs=1)
    parallel, runner = run_sweep(names, jobs=2)
    assert parallel == serial
    assert runner.stats.cells == 2
    assert [p["cell"] for p in parallel] == names

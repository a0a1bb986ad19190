"""Tests for the `python -m repro.experiments` CLI."""

import importlib
import os

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main

#: every subcommand and the driver module backing it
DRIVER_MODULES = {
    "fig3": "repro.experiments.fig3",
    "fig6": "repro.experiments.fig6",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "fig9": "repro.experiments.fig9",
    "sec62": "repro.experiments.sec62",
    "sec63": "repro.experiments.sec63",
    "sidechannel": "repro.experiments.sidechannel_exp",
    "powercap": "repro.experiments.powercap_exp",
    "faults": "repro.experiments.faults_exp",
    "sweep": "repro.experiments.sweep",
    "cluster": "repro.experiments.cluster_exp",
}


def test_list_prints_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_registry_covers_every_eval_section():
    assert set(EXPERIMENTS) == set(DRIVER_MODULES)


def test_sweep_items_validates_names():
    """Typos fail fast in the library entry point, not as a CellError deep
    inside a worker; 'sweep' itself is rejected (it would recurse)."""
    from repro.experiments.sweep import sweep_items

    with pytest.raises(ValueError, match="unknown sweep cells: bogus"):
        sweep_items(["fig3", "bogus"])
    with pytest.raises(ValueError, match="unknown sweep cells: sweep"):
        sweep_items(["sweep"])


def test_faults_exits_1_when_a_scenario_mismatches(monkeypatch, capsys):
    """A mismatch must fail the process, or CI cannot catch one.  The
    stub reports every scenario as tolerated, which cannot match the
    scenarios that expect a detection."""
    from repro.experiments import faults_exp
    from repro.faults import TOLERATED

    def tolerate_everything(scn, seed=0):
        return faults_exp.ScenarioOutcome(
            name=scn.name, workload=scn.workload, expect=scn.expect,
            injections=1, violations=0, checks=1, outcome=TOLERATED,
            matches=scn.expect == TOLERATED)

    monkeypatch.setattr(faults_exp, "run_scenario", tolerate_everything)
    assert main(["faults"]) == 1
    assert "(MISMATCH!)" in capsys.readouterr().out
    assert main(["faults", "--seeds", "2"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_sweep_unknown_only_cell_is_clean_cli_error(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--only", "bogus"])


@pytest.mark.parametrize("name", sorted(DRIVER_MODULES))
def test_driver_module_imports(name):
    """Every registered subcommand's driver imports cleanly."""
    module = importlib.import_module(DRIVER_MODULES[name])
    assert module is not None


def test_run_one_experiment(capsys):
    assert main(["sec63"]) == 0
    out = capsys.readouterr().out
    assert "browser" in out
    assert "triangle" in out


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_every_experiment(name, capsys):
    """Full smoke over every subcommand (slow; nightly CI sets the gate)."""
    if not os.environ.get("PSBOX_SMOKE_ALL"):
        pytest.skip("set PSBOX_SMOKE_ALL=1 to smoke-run every experiment")
    assert main([name]) == 0
    assert name in capsys.readouterr().out


def test_cluster_telemetry_report_writes_the_bundle(tmp_path, capsys,
                                                    monkeypatch):
    """The tentpole surface end to end: ``cluster --telemetry --report``."""
    import json

    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "tele"
    assert main(["cluster", "--nodes", "2", "--telemetry", str(out_dir),
                 "--report", "--bench", str(tmp_path / "bench.json")]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert "SLO report" in out

    # OpenMetrics: valid terminator, per-session cluster series
    om = (out_dir / "metrics.om").read_text()
    assert om.endswith("# EOF\n")
    assert 'cluster_aggregate_w{session="cluster/waterfill"}' in om
    assert 'session="cluster/pi"' in om

    # JSONL series: every line parses; per-epoch cluster series present
    lines = (out_dir / "series.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    by_series = {(d["session"], d["series"]) for d in docs}
    assert ("cluster/waterfill", "cluster.compliance_err") in by_series
    assert ("cluster/pi", "cluster.node_power_w") in by_series
    assert ("cluster", "placement.drop_rate") in by_series

    # merged trace: every session is its own pid track
    trace = json.loads((out_dir / "trace.json").read_text())
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e.get("name") == "process_name"}
    assert {"cluster", "cluster/waterfill", "cluster/pi",
            "cal/node00", "cal/node01"} <= names
    assert any(name.startswith("waterfill/node") for name in names)

    # structured alert summary
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) == {"ok", "rules", "alerts", "counts"}
    assert {rule["name"] for rule in report["rules"]} >= {"cap.compliance"}


def test_report_implies_telemetry(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sec63", "--report"]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert (tmp_path / "telemetry" / "metrics.om").exists()
    assert (tmp_path / "telemetry" / "report.json").exists()

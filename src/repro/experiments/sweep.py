"""Parallel sweep over the paper's figure/section experiments.

``python -m repro.experiments sweep --jobs N`` runs every figure and
section experiment — plus a powercap cap-fraction sweep — as independent
cells on the :mod:`repro.par` process pool.  Each cell captures the stdout
its experiment would have printed; the merge re-emits the captured text in
work-list order, so ``--jobs 8`` output is byte-identical to ``--jobs 1``
(which runs the same cells in-process).

Cells are addressed by name: the plain experiment subcommands (``fig3`` ..
``sidechannel``) and ``powercap@<fraction>`` for the cap sweep.  With
``--cache DIR`` a finished sweep replays from the result cache instantly.
"""

import contextlib
import io

from repro.par import ParallelRunner, work_list

#: the dotted entry point spawn-started workers import
CELL_RUNNER = "repro.experiments.sweep:run_sweep_cell"

#: powercap cap fractions swept (70% is the paper-extension default)
CAP_FRACTIONS = (0.60, 0.70, 0.80)

#: cells in print order; the figure experiments first, then the cap sweep
FIG_CELLS = ("fig3", "fig6", "fig7", "fig8", "fig9",
             "sec62", "sec63", "sidechannel")


def cell_names():
    return list(FIG_CELLS) + [
        "powercap@{:.2f}".format(fraction) for fraction in CAP_FRACTIONS
    ]


def _powercap_cell(fraction):
    from repro.experiments.powercap_exp import run_powercap

    result = run_powercap(cap_fraction=fraction)
    print("cap {:>3.0%} of peak: uncapped {:.2f} W  cap {:.2f} W  "
          "steady {:.2f} W  compliance {:+.1f}%  throttle/relax {}".format(
              fraction, result.uncapped_w, result.cap_w, result.steady_w,
              result.compliance_pct, result.throttle_actions))


def run_sweep_cell(seed, config):
    """Spawn-safe cell runner: one experiment, stdout captured as text."""
    del seed    # sweep cells carry their seeds internally
    name = config["cell"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if name.startswith("powercap@"):
            _powercap_cell(float(name.split("@", 1)[1]))
        else:
            from repro.experiments.__main__ import EXPERIMENTS

            EXPERIMENTS[name]()
    return {"cell": name, "text": buffer.getvalue()}


def sweep_items(names=None):
    """The sweep's work-list; unknown cell names are a ValueError here,
    before anything reaches a worker (where a typo — or ``"sweep"`` itself,
    which would recurse — would surface as an opaque CellError)."""
    names = cell_names() if names is None else list(names)
    unknown = sorted(set(names) - set(cell_names()))
    if unknown:
        raise ValueError("unknown sweep cells: {} (available: {})".format(
            ", ".join(unknown), ", ".join(cell_names())))
    return work_list("sweep", CELL_RUNNER,
                     [(0, {"cell": name}) for name in names])


def run_sweep(names=None, jobs=1, cache=None, obs_metrics=False,
              backend="auto"):
    """Run the sweep; returns ``(payloads-in-order, runner)``."""
    runner = ParallelRunner(jobs=jobs, cache=cache, obs_metrics=obs_metrics,
                            backend=backend)
    payloads = runner.run(sweep_items(names))
    return payloads, runner

"""Experiment harness: one driver per paper table/figure.

- :mod:`repro.experiments.calibration` — every constant standing in
  for physical hardware, with its calibration story;
- :mod:`repro.experiments.params` — Table III, which is also the
  one declaration of the Fig. 6 grid (``PANELS``);
- :mod:`repro.experiments.parallel` — ``run_grid``: build, fan out and
  regroup a comparison's point × seed × competitor run list;
- :mod:`repro.experiments.scenario` — the Fig. 4 testbed builder;
- :mod:`repro.experiments.runner` — run one (system, scenario) pair
  and collect metrics;
- :mod:`repro.experiments.microbench` — Fig. 6(a)-(f) sweeps;
- :mod:`repro.experiments.xia_benchmark` — Fig. 5;
- :mod:`repro.experiments.handoff` — §IV-D handoff policies;
- :mod:`repro.experiments.tracedriven` — Fig. 7;
- :mod:`repro.experiments.report` — text rendering of tables/series.
"""

from repro.experiments.params import MicrobenchParams, PARAMETER_TABLE
from repro.experiments.scenario import TestbedScenario
from repro.experiments.runner import ExperimentResult, run_download

__all__ = [
    "ExperimentResult",
    "MicrobenchParams",
    "PARAMETER_TABLE",
    "TestbedScenario",
    "run_download",
]

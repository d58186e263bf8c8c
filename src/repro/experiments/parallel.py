"""Comparison grids: build, fan out and regroup point×seed×competitor runs.

Every comparison the paper makes (Fig. 6, Fig. 7, §IV-D, the policy
tournament) is the same design: some points, some competitors, the
same seeds for all.  :func:`run_grid` is the one place that run list
is built and its results regrouped.  It is embarrassingly parallel —
every ``run_download`` is an isolated simulator with its own seed — so
:func:`run_tasks` fans it over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism is the contract: a parallel sweep must be **byte-identical**
to the sequential one.  Three properties deliver that:

- every run is fully described by a picklable, frozen
  :class:`SweepTask` (the ``run_download`` inputs the drivers vary),
  and workers build their simulators from scratch — no shared state;
- :meth:`~concurrent.futures.Executor.map` yields results in task
  order regardless of completion order, so downstream aggregation
  sees the same sequence as a sequential loop;
- the returned :class:`RunSummary` holds simulation outcomes only,
  so summary comparison is exactly "did the simulation do the same
  thing".

When a worker pool cannot be set up at all (no ``fork``/``spawn``
support, resource limits), :func:`run_tasks` degrades to an
in-process sequential loop with identical results.  Errors *inside* a
run are not swallowed — a deterministic failure reproduces identically
in either mode.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import IO, Optional, Sequence

from repro.core.handoff import HandoffPolicy
from repro.errors import ConfigurationError
from repro.experiments.params import MicrobenchParams
from repro.mobility.coverage import Coverage
from repro.obs.wide import run_id_for


@dataclass(frozen=True)
class SweepTask:
    """One fully-specified run: everything a worker needs, picklable."""

    system: str
    params: MicrobenchParams
    seed: int
    #: Staging-policy registry name ("" / None = system default).
    #: A name rather than a policy object keeps the task picklable.
    policy: Optional[str] = None
    #: Connectivity timeline (``None`` = Fig. 6's alternating pattern).
    #: Only read during a run, so a driver's tasks may share one.
    coverage: Optional[Coverage] = None
    #: Stop the download at this simulated time (Fig. 7 drives).
    deadline: Optional[float] = None
    #: SoftStage client's handoff policy (``None`` = RSS-greedy).
    handoff_policy: Optional[HandoffPolicy] = None
    #: Trace-event identity (``None`` = the runner's default).
    run_id: Optional[str] = None


@dataclass(frozen=True)
class RunSummary:
    """The picklable outcome of one run.

    Carries the simulation-determined figures the sweep tables need;
    two summaries are equal iff the *simulations* agreed.
    """

    system: str
    seed: int
    download_time: float
    bytes_received: int
    chunks_completed: int
    chunks_from_edge: int
    chunks_from_origin: int
    fallbacks: int
    handoffs: int
    staging_signals: int
    policy: str = ""


def execute_task(
    task: SweepTask, trace_sink: Optional[IO[str]] = None
) -> RunSummary:
    """Run one task to completion (module-level: pool workers import it).

    ``trace_sink``: open file the run appends its JSONL trace to.
    """
    from repro.experiments.runner import run_download

    result = run_download(
        task.system,
        params=task.params,
        seed=task.seed,
        coverage=task.coverage,
        deadline=task.deadline,
        handoff_policy=task.handoff_policy,
        trace_path=trace_sink,
        run_id=task.run_id,
        policy=task.policy or None,
    )
    return RunSummary(
        system=task.system,
        seed=task.seed,
        download_time=result.download_time,
        **result.download.counters(),
        policy=result.policy,
    )


def run_tasks(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    trace_sink: Optional[IO[str]] = None,
) -> list[RunSummary]:
    """Execute ``tasks``, in order, on up to ``jobs`` processes.

    Results always come back in task order.  ``jobs <= 1``, a single
    task, or a ``trace_sink`` (one open JSONL file for every run's
    trace; workers cannot share it) runs sequentially in-process.  A
    pool that cannot be
    brought up or dies from infrastructure failure (``OSError``,
    :class:`~concurrent.futures.BrokenExecutor`) falls back to the
    sequential path; exceptions raised *by a task* propagate in both
    modes.
    """
    if jobs <= 1 or len(tasks) < 2 or trace_sink is not None:
        return [execute_task(task, trace_sink) for task in tasks]
    # Imported here, not above: ``concurrent.futures`` loads
    # ``logging`` at once and the process-pool machinery on first use,
    # and every driver imports this module.
    from concurrent import futures

    workers = min(jobs, len(tasks))
    summaries: list[RunSummary] = []
    try:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for summary in pool.map(execute_task, tasks):
                summaries.append(summary)
    except (OSError, futures.BrokenExecutor):
        # Pool infrastructure failed (fork limits, dead worker...):
        # same results, one process, resuming after what already
        # streamed back.
        summaries.extend(
            execute_task(task) for task in tasks[len(summaries):]
        )
    return summaries


@dataclass(frozen=True)
class GridPoint:
    """One x-axis point of a comparison: where every competitor runs."""

    label: str
    params: MicrobenchParams
    #: Connectivity timeline and stop time (see :class:`SweepTask`).
    coverage: Optional[Coverage] = None
    deadline: Optional[float] = None


@dataclass(frozen=True)
class Competitor:
    """One compared system: a ``SYSTEMS`` name plus what varies it."""

    name: str
    system: str
    policy: Optional[str] = None
    handoff_policy: Optional[HandoffPolicy] = None


def run_grid(
    points: Sequence[GridPoint],
    competitors: Sequence[Competitor],
    seeds: Sequence[int],
    jobs: int = 1,
    trace_sink: Optional[IO[str]] = None,
) -> dict[tuple[str, str], list[RunSummary]]:
    """Run every point × seed × competitor; group the summaries.

    Returns ``{(point label, competitor name): [summary per seed]}``.
    The run list is enumerated point → seed → competitor: that order
    is behaviour (it is the order runs land in a shared trace and the
    order a pool is fed), so it lives here and nowhere else.  Each run
    is traced as ``"{label}/{system}[-{policy}]-seed{n}"``.
    """
    if not seeds:
        raise ConfigurationError("a comparison needs at least one seed")
    runs = [
        (point, seed, competitor)
        for point in points
        for seed in seeds
        for competitor in competitors
    ]
    tasks = [
        SweepTask(
            system=competitor.system,
            params=point.params,
            seed=seed,
            policy=competitor.policy,
            coverage=point.coverage,
            deadline=point.deadline,
            handoff_policy=competitor.handoff_policy,
            run_id=(
                f"{point.label.replace(' ', '')}/"
                f"{run_id_for(competitor.system, seed, competitor.policy)}"
            ),
        )
        for point, seed, competitor in runs
    ]
    cells: dict[tuple[str, str], list[RunSummary]] = {}
    for (point, _seed, competitor), summary in zip(
        runs, run_tasks(tasks, jobs=jobs, trace_sink=trace_sink)
    ):
        cells.setdefault((point.label, competitor.name), []).append(summary)
    return cells


def cell_mean(cell: Sequence[RunSummary], metric: str = "download_time") -> float:
    """One grid cell's figure: the mean of ``metric`` over its seeds."""
    return statistics.mean(getattr(summary, metric) for summary in cell)

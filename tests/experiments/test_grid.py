"""Table III is the grid: one declaration, one enumeration.

Three layers, none of which simulates anything slow:

- the Table III rows are consistent with ``MicrobenchParams`` and with
  themselves;
- ``run_grid`` builds, orders, stamps and regroups a run list;
- goldens captured at the commit *before* the drivers moved onto
  ``run_grid``: the exact task list (order included) each driver hands
  to ``run_tasks``, and what it makes of canned summaries.
"""

import hashlib
import math

import pytest

from benchmarks import bench_policy_tournament
from repro.errors import ConfigurationError
from repro.experiments import handoff, microbench, parallel, tracedriven
from repro.experiments.microbench import BenchProfile
from repro.experiments.parallel import (
    Competitor,
    GridPoint,
    RunSummary,
    cell_mean,
    run_grid,
)
from repro.experiments.params import (
    CHUNK_SIZE_LADDER,
    PANELS,
    PARAMETER_TABLE,
    MicrobenchParams,
)
from repro.mobility.coverage import overlapping_coverage
from repro.util import MB

# -- Table III ---------------------------------------------------------------


def test_panels_are_the_six_table_rows_in_figure_order():
    assert list(PANELS) == list("abcdef")
    assert list(PANELS.values()) == list(PARAMETER_TABLE)


@pytest.mark.parametrize("row", PARAMETER_TABLE, ids=lambda row: row.panel)
def test_row_is_consistent_with_the_defaults_and_itself(row):
    assert row.default == getattr(MicrobenchParams(), row.field)
    assert row.default in row.values
    assert set(row.candidates) == set(row.values) - {row.default}
    points = list(row.points(MicrobenchParams()))
    labels = [label for label, _params, _gain in points]
    assert len(set(labels)) == len(labels) == len(row.grid)
    assert set(row.paper_gains) <= set(labels)
    for (_label, params, _gain), value in zip(points, row.values):
        # One parameter at a time, everything else at its default.
        assert params == MicrobenchParams().with_(**{row.field: value})
    ends = list(row.points(MicrobenchParams(), ends_only=True))
    assert len(ends) == 3 and ends[0] == points[0] and ends[-1] == points[-1]
    assert ends[1] in points[1:-1]


def test_chunk_ladder_names_panel_a():
    assert list(CHUNK_SIZE_LADDER.values()) == list(PANELS["a"].values)
    assert CHUNK_SIZE_LADDER["1080p"] == PANELS["a"].default == 2 * MB


# -- run_grid ----------------------------------------------------------------

SMALL = MicrobenchParams(file_size=MB)
PAIR = (Competitor("xftp", "xftp"), Competitor("rich", "softstage", "rich"))


def canned_run_tasks(monkeypatch):
    """Replace ``run_tasks`` with a recorder answering canned summaries
    (numbered across calls, so one call or two makes no difference)."""
    seen = []

    def canned(tasks, jobs=1, trace_sink=None):
        first = len(seen)
        seen.extend(tasks)
        return [
            RunSummary(t.system, t.seed, float(i + 1), 1000 * i, i, i // 2,
                       i - i // 2, 0, i % 5, i % 3, policy=t.policy or "")
            for i, t in enumerate(tasks, start=first)
        ]

    monkeypatch.setattr(parallel, "run_tasks", canned)
    return seen


def test_run_grid_enumerates_point_seed_competitor_and_groups(monkeypatch):
    seen = canned_run_tasks(monkeypatch)
    points = [GridPoint("3 s", SMALL), GridPoint("12 s", SMALL, deadline=9.0)]
    cells = run_grid(points, PAIR, seeds=(0, 1))
    assert [(t.run_id, t.deadline) for t in seen] == [
        ("3s/xftp-seed0", None), ("3s/softstage-rich-seed0", None),
        ("3s/xftp-seed1", None), ("3s/softstage-rich-seed1", None),
        ("12s/xftp-seed0", 9.0), ("12s/softstage-rich-seed0", 9.0),
        ("12s/xftp-seed1", 9.0), ("12s/softstage-rich-seed1", 9.0),
    ]
    assert list(cells) == [
        ("3 s", "xftp"), ("3 s", "rich"), ("12 s", "xftp"), ("12 s", "rich"),
    ]
    assert [s.download_time for s in cells["12 s", "rich"]] == [6.0, 8.0]
    assert cell_mean(cells["12 s", "rich"]) == 7.0
    assert cell_mean(cells["3 s", "xftp"], "handoffs") == 1.0


def test_run_grid_rejects_an_empty_seed_list_before_running(monkeypatch):
    seen = canned_run_tasks(monkeypatch)
    with pytest.raises(ConfigurationError, match="at least one seed"):
        run_grid([GridPoint("p", SMALL)], PAIR, seeds=())
    assert seen == []


def test_run_grid_cells_are_identical_for_any_jobs():
    # "r" pickles a lazily generated §IV-D coverage into the workers.
    overlap = overlapping_coverage(["ap-A", "ap-B"], encounter_time=12.0,
                                   overlap_time=3.0, total_time=24 * 3600.0)
    points = [GridPoint("p", SMALL), GridPoint("q", SMALL.with_(packet_loss=0.1)),
              GridPoint("r", SMALL, coverage=overlap)]
    fanned = run_grid(points, PAIR, seeds=(0, 1), jobs=2)
    assert fanned == run_grid(points, PAIR, seeds=(0, 1), jobs=1)
    assert all(len(cell) == 2 for cell in fanned.values())


# -- goldens captured before the rewrite ----------------------------------------

#: case -> (sha1 of the task list, sha1 of the driver's result), both
#: of ``repr``.  Captured at 9c8ebfb, where every driver enumerated
#: and regrouped its own run list.  Only the sweeps pin run ids: theirs
#: are trace bytes (``sweep --trace``); no other driver's runs are
#: traced, and at 9c8ebfb they left the id to the runner.
GOLDEN = {
    "sweep-a": ("9d9a52e5d800c1f5b7d964f95fe3b63d590d7aa9",
                "91b73022fabd0e1f2efbc47b66ec3ab2d4259f74"),
    "sweep-b": ("8ad155109e7fc6f707ebd7ec03d64b4c70b654e6",
                "6a8a06bdec57843322d9d3b2ad9cdabc77c69fc3"),
    "sweep-c": ("3558f2d5d51746ac11443496050922d9401650ef",
                "6423315c75ff99fcbaf29932c6687e6f98dabece"),
    "sweep-d": ("8b3853287630bfbd6634a498334ec14d1766ddf3",
                "9199b96f50e5753b033e87ce8de82452e6ed57a2"),
    "sweep-e": ("d4cc1b4feb2a07ed38767514a78f69ed548c8cd0",
                "4920448c7208854880f558261c6078dfca819cf5"),
    "sweep-f": ("b6599f5a6bbf6eb4d2d26b3601d12ebe14c942de",
                "482fe6e67968f7406109802c2c69d37e5e5dae7a"),
    "sweep-a-rich": ("51febfe74a5d43fe4c2ca57f3518c1c9928090b1",
                     "91b73022fabd0e1f2efbc47b66ec3ab2d4259f74"),
    "sweep-b-rich": ("c78753a95dc4a43da21949e8fece19a2ebe2a807",
                     "6a8a06bdec57843322d9d3b2ad9cdabc77c69fc3"),
    "sweep-c-rich": ("822c33d7dbfc1251aef5aa72a0e8f0b50276595c",
                     "6423315c75ff99fcbaf29932c6687e6f98dabece"),
    "sweep-d-rich": ("cfbf937ceecd17ee36d953ed13573094d338569c",
                     "9199b96f50e5753b033e87ce8de82452e6ed57a2"),
    "sweep-e-rich": ("41f57d801c48f01be59bba02443ee5ce7a472e0c",
                     "4920448c7208854880f558261c6078dfca819cf5"),
    "sweep-f-rich": ("1bcbc3cc0f033e04c5bc040df0b7244bc1629037",
                     "482fe6e67968f7406109802c2c69d37e5e5dae7a"),
    "tournament": ("a54b0e4c7ab4340e218c2257955f3fee2f53d5ab",
                   "04c0e55093c5ba12d8410cd77557e17033c68e90"),
    "traces": ("b44f7846f64fe5f1a185c803fe7ecc51252d0d31",
               "c62faf375f9eaa5815c9275fb96204c624b5d826"),
    "handoff": ("cb1dea6dba5ffa48e7fa8f9a42299fcc442d446a",
                "c82092dec4634edb856dd94a9d37d56fb0c14073"),
}


def _drive(case):
    if case.startswith("sweep-"):
        _sweep, panel, *policy = case.split("-")
        return microbench.sweep(
            panel, BenchProfile(seeds=(0, 1), policy="".join(policy))
        )
    if case == "tournament":
        return bench_policy_tournament.measure(panels="abcdef", seeds=2)
    if case == "traces":
        return tracedriven.run_all(seeds=(0, 1), duration=60.0)
    return handoff.run_comparison(seeds=(0, 1))


def every_window(coverage):
    """The coverage's whole window list, in order: a query past its end
    builds every window of a pattern."""
    coverage.visible_at(math.inf)
    return tuple(coverage._windows)


def _digest(value):
    return hashlib.sha1(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN)
def test_driver_hands_over_the_task_list_it_always_did(case, monkeypatch):
    seen = canned_run_tasks(monkeypatch)
    result = _drive(case)
    described = [
        (
            task.system, task.params, task.seed, task.policy,
            task.run_id if case.startswith("sweep-") else None,
            task.deadline,
            None if task.coverage is None else every_window(task.coverage),
            type(task.handoff_policy).__name__,
        )
        for task in seen
    ]
    assert (_digest(described), _digest(result)) == GOLDEN[case]

"""Tests for the parallel sweep engine (determinism is the contract)."""

import concurrent.futures
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.experiments import microbench, parallel
from repro.experiments.microbench import BenchProfile
from repro.experiments.parallel import SweepTask, execute_task, run_tasks
from repro.experiments.params import MicrobenchParams
from repro.util import MB

#: Small enough to run in seconds, real enough to exercise the stack.
QUICK = BenchProfile(file_size=MB, seeds=(0, 1))


def quick_task(system="softstage", seed=0):
    return SweepTask(
        system=system,
        params=MicrobenchParams(file_size=QUICK.file_size),
        seed=seed,
    )


def test_a_run_loads_no_pool_logging_or_platform_machinery():
    """``concurrent.futures`` (which imports ``logging``) loads only when
    ``run_tasks`` starts a pool, and ``platform`` only when a ledger
    entry is stamped: a traced run and every offline view need neither."""
    src = pathlib.Path(parallel.__file__).parents[2]
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.experiments.tracedriven, repro.obs; "
         "print(sorted({'concurrent.futures', 'logging', 'platform'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert loaded.stdout.strip() == "[]"


def test_execute_task_is_deterministic():
    first = execute_task(quick_task())
    second = execute_task(quick_task())
    assert first == second
    assert first.bytes_received == MB


def test_parallel_matches_sequential_in_order():
    tasks = [
        quick_task(system, seed)
        for seed in (0, 1)
        for system in ("xftp", "softstage")
    ]
    sequential = run_tasks(tasks, jobs=1)
    parallel_results = run_tasks(tasks, jobs=4)
    assert parallel_results == sequential
    assert [s.system for s in parallel_results] == [t.system for t in tasks]
    assert [s.seed for s in parallel_results] == [t.seed for t in tasks]


def test_sweep_jobs_produces_byte_identical_series():
    """Satellite acceptance: --jobs 4 == sequential, bytes and all."""
    sequential = microbench.sweep("b", QUICK)
    fanned = microbench.sweep(
        "b",
        BenchProfile(
            file_size=QUICK.file_size,
            seeds=QUICK.seeds,
            jobs=4,
        )
    )
    assert fanned == sequential
    assert fanned.render() == sequential.render()


def test_trace_and_handoff_drivers_are_identical_for_any_jobs():
    """Fig. 7 and §IV-D ride the same task runner as the sweeps."""
    from repro.experiments.handoff import run_comparison
    from repro.experiments.tracedriven import run_all

    drive = dict(seeds=(0,), duration=30.0)
    assert run_all(**drive, jobs=2) == run_all(**drive, jobs=1)
    # 8 MB is the smallest download on which the two policies part.
    handoff = dict(file_size=8 * MB, seeds=(0,))
    fanned = run_comparison(**handoff, jobs=2)
    assert fanned == run_comparison(**handoff, jobs=1)
    assert fanned.content_aware_time < fanned.default_time


def test_broken_pool_falls_back_to_sequential(monkeypatch):
    """Pool-infrastructure failure degrades gracefully, same results."""

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no processes for you")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ExplodingPool)
    tasks = [quick_task(seed=0), quick_task(seed=1)]
    assert run_tasks(tasks, jobs=4) == [execute_task(t) for t in tasks]


def test_broken_executor_mid_flight_falls_back(monkeypatch):
    class DyingPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            raise concurrent.futures.BrokenExecutor("worker died")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    tasks = [quick_task(seed=0), quick_task(seed=1)]
    assert run_tasks(tasks, jobs=2) == [execute_task(t) for t in tasks]


def test_task_errors_propagate_not_swallowed():
    bad = SweepTask(
        system="no-such-system",
        params=MicrobenchParams(file_size=MB),
        seed=0,
    )
    with pytest.raises(Exception, match="no-such-system"):
        run_tasks([bad, bad], jobs=1)


def test_single_task_and_jobs_one_skip_the_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pool must not be constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    assert run_tasks([quick_task()], jobs=8)[0].bytes_received == MB
    two = [quick_task(seed=0), quick_task(seed=1)]
    assert len(run_tasks(two, jobs=1)) == 2


def test_profile_from_env_reads_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    assert BenchProfile.from_env().jobs == 3
    monkeypatch.delenv("REPRO_BENCH_JOBS")
    assert BenchProfile.from_env().jobs == 1


@pytest.mark.parametrize("off", ["0", "false", "No", ""])
def test_profile_from_env_flags_spelled_off_are_off(monkeypatch, off):
    monkeypatch.setenv("REPRO_BENCH_QUICK", off)
    monkeypatch.setenv("REPRO_BENCH_PAPER", off)
    assert BenchProfile.from_env() == BenchProfile(32 * MB, seeds=(0, 1))
    monkeypatch.setenv("REPRO_BENCH_PAPER", "1")
    assert BenchProfile.from_env() == BenchProfile()
    monkeypatch.setenv("REPRO_BENCH_QUICK", "yes")
    assert BenchProfile.from_env() == BenchProfile(16 * MB, seeds=(0,))


@pytest.mark.parametrize("name, value", [
    ("REPRO_BENCH_SEEDS", "three"),
    ("REPRO_BENCH_SEEDS", "0"),
    ("REPRO_BENCH_SEEDS", "-1"),
    ("REPRO_BENCH_JOBS", "2.5"),
])
def test_profile_from_env_names_the_variable_it_rejects(
    monkeypatch, name, value
):
    monkeypatch.setenv(name, value)
    with pytest.raises(ConfigurationError, match=name):
        BenchProfile.from_env()


def test_profile_from_env_fewer_than_one_job_means_one(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
    monkeypatch.setenv("REPRO_BENCH_SEEDS", "3")
    assert BenchProfile.from_env() == BenchProfile(
        32 * MB, seeds=(0, 1, 2), jobs=1
    )


def test_pool_death_mid_stream_does_not_double_publish(monkeypatch):
    """Tasks that streamed back before a pool death are not re-run."""

    executed = []

    def counting(task, trace_sink=None):
        executed.append(task)
        return execute_task(task, trace_sink)

    class HalfDeadPool:
        """Yields the first result, then dies from infrastructure."""

        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            yield fn(tasks[0])
            raise concurrent.futures.BrokenExecutor("worker died")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", HalfDeadPool)
    monkeypatch.setattr(parallel, "execute_task", counting)
    tasks = [quick_task(seed=0), quick_task(seed=1)]
    summaries = run_tasks(tasks, jobs=2)
    assert summaries == [execute_task(t) for t in tasks]
    assert executed == tasks  # each exactly once: the first was kept


def test_summary_and_registry_record_are_one_projection_of_a_download():
    """Registry lines are written unsorted, so key order is bytes."""
    from repro.experiments.runner import run_download
    from repro.obs.registry import record_from_result
    from repro.obs.wide import run_id_for

    task = quick_task()
    result = run_download(
        task.system, params=task.params, seed=task.seed, gauges=True
    )
    counters = result.download.counters()
    assert list(counters) == [
        "bytes_received", "chunks_completed", "chunks_from_edge",
        "chunks_from_origin", "fallbacks", "handoffs", "staging_signals",
    ]
    assert counters["bytes_received"] == task.params.file_size
    summary = execute_task(task)
    metrics = {"download_time": summary.download_time,
               **{name: getattr(summary, name) for name in counters}}
    assert metrics == {"download_time": result.download_time, **counters}
    run_id, recorded, gauges = record_from_result(result)
    assert run_id == run_id_for(summary.system, summary.seed, summary.policy)
    assert list(recorded) == ["download_time", "throughput_bps", *counters]
    assert recorded == {**metrics, "throughput_bps": result.throughput_bps}
    # The gauge columns are the collector's timelines, unzipped.
    prefix = f"gauge.{run_id}."
    assert gauges and gauges == {
        name[len(prefix):]: {"t": [t for t, _v in points],
                             "v": [v for _t, v in points]}
        for name, points in result.metrics.timelines(prefix).items()
    }

"""Self-test of the referee benchmark and its tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (not part
of the tier-1 suite, whose ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.layers import OBS_PARTS, SELF_TIME_LAYERS
from benchmarks.e2e.spec import ROOT, load_spec
from benchmarks.e2e.tracer import (
    BOUNDARIES,
    WHOLE_CLASSES,
    Tracer,
    raw_attribute,
    resolve,
)
from benchmarks.e2e.workloads import BulkPair

SPEC = load_spec()
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


def shimmable_attributes() -> dict:
    """Every attribute the tracer may replace, as stored right now."""
    from repro.obs.bus import EventBus
    from repro.xia.packet import Packet

    found = {}
    for path, attr, _layer in BOUNDARIES:
        owner = resolve(path)
        found[(owner, attr)] = raw_attribute(owner, attr)
    for path, _layer, subclasses in WHOLE_CLASSES:
        pending = [resolve(path)]
        while pending:
            cls = pending.pop()
            if subclasses:
                pending.extend(cls.__subclasses__())
            for attr, value in cls.__dict__.items():
                found[(cls, attr)] = value
    for attr in ("subscribe", "subscribe_all", "unsubscribe",
                 "unsubscribe_all"):
        found[(EventBus, attr)] = raw_attribute(EventBus, attr)
    found[(Packet, "acquire")] = raw_attribute(Packet, "acquire")
    return found


def assert_restored(before: dict) -> None:
    after = shimmable_attributes()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, f"{key} was not restored"


def test_traced_iteration_matches_untraced_and_restores(tmp_path):
    before = shimmable_attributes()
    workload = BulkPair(seed=0, quick=True, workdir=str(tmp_path))
    untraced = workload.iterate()
    with Tracer() as tracer:
        assert shimmable_attributes() != before
        traced = workload.iterate(instrument=True)
    assert_restored(before)

    # Same seed, same simulated figures, traced or not; and the bus
    # checks held (no subscriber untraced, only the collector traced).
    assert untraced.failures == [] and traced.failures == []
    assert traced.digest == untraced.digest
    assert traced.counts["sim.steps"] == untraced.counts["sim.steps"]

    # Self times partition the kernel loop's inclusive time.
    self_s = tracer.layer_self_s()
    inside = sum(v for layer, v in self_s.items() if layer != "experiments")
    assert inside <= tracer.inclusive_s("Simulator.run") * 1.01

    # Every layer of the table was crossed at least once.
    calls = tracer.layer_calls()
    for layer in (*SELF_TIME_LAYERS, "experiments", "obs.bus",
                  "obs.collector"):
        assert calls.get(layer, 0) >= 1, f"layer {layer} recorded no call"
    assert tracer.spans and all(
        span["run"] in ("xftp-seed0", "softstage-seed0")
        for span in tracer.spans
    )


def test_shims_are_removed_when_the_traced_pass_raises():
    before = shimmable_attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("traced pass failed")
    assert_restored(before)


def run_cli(*args: str) -> tuple[dict, float]:
    started = time.perf_counter()
    done = subprocess.run(
        [*RUN, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=170,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def test_quick_run_prints_every_end_to_end_metric(tmp_path):
    result, elapsed = run_cli("--quick", "--seed", "0",
                              "--out", str(tmp_path))
    assert elapsed < 30
    assert result["correct"] is True and result["failed"] == 0
    expected = {
        f"{w['name']}.{m['name']}": m["unit"]
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())

    written = json.loads((tmp_path / "results.json").read_text())
    assert written["claim"] is None
    # Attachments must not perturb: same run list, same figures.
    assert (written["workloads"]["obs_live"]["sim_digest"]
            == written["workloads"]["bulk_pair"]["sim_digest"])
    assert compare.compare_files(
        str(tmp_path / "results.json"), str(tmp_path / "results.json"), SPEC
    ) == 0


def test_traced_obs_offline_reports_every_layer_metric_and_no_sim(tmp_path):
    result, _elapsed = run_cli(
        "--workload", "obs_offline", "--quick", "--trace", "1",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    # The simulator is idle on the read side of obs.
    assert metrics["sim.steps"]["value"] == 0
    assert metrics["obs.offline.events"]["value"] > 0
    assert (tmp_path / "trace-obs_offline.json").exists()


def test_every_reported_self_time_has_a_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in SELF_TIME_LAYERS:
        assert f"{layer}.self_s" in names
    for part in OBS_PARTS:
        assert f"obs.{part}_self_s" in names


def _stats(samples):
    ordered = sorted(samples)
    return {"value": ordered[len(ordered) // 2], "samples": samples}


def test_compare_verdicts():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    steady = _stats([10.0, 10.1, 9.9, 10.0])
    assert compare.judge(metric, steady, _stats([10.2, 10.3, 10.1, 10.2]))[0] \
        == "ok"
    assert compare.judge(metric, steady, _stats([12.0, 12.1, 11.9, 12.0]))[0] \
        == "worse"
    noisy = _stats([8.0, 10.0, 12.0, 14.0])
    assert compare.judge(metric, steady, noisy)[0] == "unresolved"
    # Every B sample beats every A sample: resolved despite B's spread.
    faster = _stats([4.0, 5.0, 6.0, 7.0])
    assert compare.judge(metric, steady, faster)[0] == "ok"
    # setup_s needs half a second of absolute growth as well.
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert compare.judge(setup, _stats([0.8]), _stats([1.2]))[0] == "ok"
    assert compare.judge(setup, _stats([2.0]), _stats([3.0]))[0] == "worse"

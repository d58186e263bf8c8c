"""Tests for connectivity traces and the wardriving generator."""

import random

import pytest

from repro.errors import TraceFormatError
from repro.mobility import ConnectivityTrace, WardrivingSynthesizer


def test_trace_stats():
    trace = ConnectivityTrace([(0.0, 10.0), (20.0, 25.0)], duration=50.0)
    assert trace.connected_time == 15.0
    assert trace.coverage_fraction == pytest.approx(0.3)
    assert trace.encounter_durations() == [10.0, 5.0]


def test_trace_rejects_overlap_and_bad_intervals():
    with pytest.raises(TraceFormatError):
        ConnectivityTrace([(0.0, 10.0), (5.0, 15.0)], duration=20.0)
    with pytest.raises(TraceFormatError):
        ConnectivityTrace([(5.0, 5.0)], duration=20.0)
    with pytest.raises(TraceFormatError):
        ConnectivityTrace([(0.0, 30.0)], duration=20.0)


def test_trace_save_load_roundtrip(tmp_path):
    trace = ConnectivityTrace([(1.5, 9.25), (12.0, 30.0)], duration=60.0)
    path = tmp_path / "trace.txt"
    trace.save(path)
    loaded = ConnectivityTrace.load(path)
    assert loaded.intervals == trace.intervals
    assert loaded.duration == trace.duration


def test_trace_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a trace\n")
    with pytest.raises(TraceFormatError):
        ConnectivityTrace.load(path)


@pytest.mark.parametrize("duration, interval", [
    ("60", "0 nan"),      # loaded with connected_time == nan
    ("60", "nan 10"),
    ("nan", "0 10"),
    ("nan", "10 inf"),    # loaded an infinite encounter
    ("inf", "10 20"),
])
def test_trace_load_rejects_non_finite_values(tmp_path, duration, interval):
    """No comparison in the ordering checks is true of ``nan``, and
    ``inf`` passes them against an infinite duration."""
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"# softstage-trace v1\n# duration {duration}\n{interval}\n")
    with pytest.raises(TraceFormatError, match="non-finite"):
        ConnectivityTrace.load(path)


def test_trace_to_coverage_round_robins_aps():
    trace = ConnectivityTrace([(0.0, 5.0), (10.0, 15.0), (20.0, 25.0)], duration=30.0)
    coverage = trace.to_coverage(["A", "B"])
    assert list(coverage.change_times()) == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
    assert [list(coverage.visible_at(t)) for t in (2.5, 7.5, 12.5, 22.5)] == [
        ["A"], [], ["B"], ["A"],
    ]


def test_wardriving_trace_one_high_coverage():
    synthesizer = WardrivingSynthesizer(random.Random(3))
    trace = synthesizer.trace_one(duration=600.0)
    assert trace.coverage_fraction > 0.75


def test_wardriving_trace_two_choppier_than_one():
    synthesizer = WardrivingSynthesizer(random.Random(3))
    one = synthesizer.trace_one(duration=600.0)
    two = synthesizer.trace_two(duration=600.0)
    assert two.coverage_fraction > 0.5
    mean_encounter_one = sum(one.encounter_durations()) / len(one.encounter_durations())
    mean_encounter_two = sum(two.encounter_durations()) / len(two.encounter_durations())
    assert mean_encounter_two < mean_encounter_one


def test_wardriving_deterministic_per_seed():
    a = WardrivingSynthesizer(random.Random(9)).trace_one(300.0)
    b = WardrivingSynthesizer(random.Random(9)).trace_one(300.0)
    assert a.intervals == b.intervals

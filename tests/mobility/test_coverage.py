"""Tests for coverage timelines and builders."""

import itertools
import math
import pickle
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.mobility import Coverage, CoverageWindow, alternating_coverage, overlapping_coverage
from repro.mobility.coverage import DEFAULT_RSS_DBM, EDGE_RSS_DBM, FIRST_BLOCK
from repro.util import MB


def all_windows(coverage):
    """Every window of ``coverage``, in its order: a query past the end
    builds the whole pattern."""
    coverage.visible_at(math.inf)
    return list(coverage._windows)


def test_window_rss_interpolation():
    window = CoverageWindow("ap", 0.0, 10.0, rss_start=-80.0, rss_end=-60.0)
    assert window.rss_at(0.0) == -80.0
    assert window.rss_at(5.0) == pytest.approx(-70.0)
    assert window.duration == 10.0


def test_window_rejects_empty_interval():
    with pytest.raises(ConfigurationError):
        CoverageWindow("ap", 5.0, 5.0)


def test_window_rss_outside_raises():
    window = CoverageWindow("ap", 0.0, 1.0)
    with pytest.raises(ValueError):
        window.rss_at(2.0)


def test_visible_at_boundaries_half_open():
    coverage = Coverage([CoverageWindow("ap", 1.0, 2.0)])
    assert coverage.visible_at(0.5) == {}
    assert "ap" in coverage.visible_at(1.0)
    assert coverage.visible_at(2.0) == {}


def test_change_times_sorted_unique():
    coverage = Coverage(
        [CoverageWindow("a", 0.0, 5.0), CoverageWindow("b", 5.0, 8.0)]
    )
    assert list(coverage.change_times()) == [0.0, 5.0, 8.0]


def test_alternating_coverage_pattern():
    coverage = alternating_coverage(
        ["A", "B"], encounter_time=12.0, disconnection_time=8.0, total_time=60.0
    )
    # Windows: A[0,12), B[20,32), A[40,52)
    assert [w.ap for w in all_windows(coverage)] == ["A", "B", "A"]
    assert coverage.visible_at(5.0) == {"A": pytest.approx(-55.0)}
    assert coverage.visible_at(15.0) == {}
    assert coverage.visible_at(25.0).keys() == {"B"}


def test_alternating_connected_fraction():
    coverage = alternating_coverage(
        ["A", "B"], encounter_time=12.0, disconnection_time=8.0, total_time=200.0
    )
    connected = sum(window.duration for window in all_windows(coverage))
    assert connected / 200.0 == pytest.approx(0.6, abs=0.05)


def test_alternating_zero_disconnection_continuous():
    coverage = alternating_coverage(
        ["A", "B"], encounter_time=10.0, disconnection_time=0.0, total_time=50.0
    )
    windows = all_windows(coverage)
    assert windows[0].start == 0.0 and windows[-1].end == 50.0
    assert all(a.end == b.start for a, b in zip(windows, windows[1:]))


def test_overlapping_coverage_has_overlap():
    coverage = overlapping_coverage(
        ["A", "B"], encounter_time=12.0, overlap_time=3.0, total_time=40.0
    )
    # During the overlap, both APs are audible.
    overlap_instant = 11.0  # A's window is [0, 12), B starts at 9.
    visible = coverage.visible_at(overlap_instant)
    assert set(visible) == {"A", "B"}
    # A is fading out while B ramps up.
    assert visible["B"] > visible["A"]


def test_overlapping_coverage_validates():
    with pytest.raises(ConfigurationError):
        overlapping_coverage(["A", "B"], encounter_time=3.0, overlap_time=3.0, total_time=10)
    with pytest.raises(ConfigurationError):
        overlapping_coverage(["A"], encounter_time=12.0, overlap_time=3.0, total_time=10)


# -- visible_at: the segment index against the linear scan ---------------------


def scan_visible_at(coverage, time):
    """The historical ``visible_at``: every window, in sorted order."""
    return {
        window.ap: window.rss_at(time)
        for window in all_windows(coverage)
        if window.contains(time)
    }


@st.composite
def coverages_with_probes(draw):
    """Overlapping, nested, abutting and duplicate-AP windows on a
    coarse grid (so boundaries collide), plus probe times on and
    between the boundaries and outside the covered span."""
    tick = st.integers(min_value=0, max_value=40)
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        start = draw(tick) / 4
        length = draw(st.integers(min_value=1, max_value=16)) / 4
        windows.append(CoverageWindow(
            draw(st.sampled_from(["a", "b", "c"])), start, start + length,
            rss_start=draw(st.sampled_from([-80.0, -55.0])),
            rss_end=draw(st.sampled_from([-70.0, -55.0])),
        ))
    probes = draw(st.lists(
        st.one_of(
            tick.map(lambda n: n / 4),
            st.floats(min_value=-1.0, max_value=16.0, allow_nan=False),
        ),
        min_size=1, max_size=12,
    ))
    return Coverage(windows), probes


@given(coverages_with_probes())
def test_visible_at_index_matches_the_linear_scan(case):
    coverage, probes = case
    boundaries = [t for w in all_windows(coverage) for t in (w.start, w.end)]
    for time in probes + boundaries:
        expected = scan_visible_at(coverage, time)
        got = coverage.visible_at(time)
        assert got == expected
        assert list(got) == list(expected)  # key order too


def test_visible_at_on_empty_coverage_and_outside_any_window():
    assert Coverage([]).visible_at(1.0) == {}
    coverage = Coverage([CoverageWindow("a", 1.0, 2.0),
                         CoverageWindow("b", 3.0, 4.0)])
    for time in (-1.0, 0.999, 2.0, 2.5, 4.0, float("inf")):
        assert coverage.visible_at(time) == {}
    assert list(coverage.visible_at(3.5)) == ["b"]


# -- lazy patterns against the eager reference ----------------------------------


class RefCoverage:
    """The eager coverage: every window of the pattern enumerated, sorted
    and indexed up front (the historical builders and query code)."""

    def __init__(self, windows):
        self.windows = sorted(windows, key=lambda w: (w.start, w.ap))
        times = {window.start for window in self.windows}
        times.update(window.end for window in self.windows)
        self.times = sorted(times)
        covering = [[] for _ in self.times[1:]]
        for window in self.windows:
            first = bisect_left(self.times, window.start)
            last = bisect_left(self.times, window.end)
            for segment in covering[first:last]:
                segment.append(window)
        self.segments = [tuple(segment) for segment in covering]

    @classmethod
    def alternating(cls, aps, encounter_time, disconnection_time, total_time):
        windows = []
        ap_cycle = itertools.cycle(aps)
        start = 0.0
        while start < total_time:
            ap = next(ap_cycle)
            windows.append(CoverageWindow(ap, start, start + encounter_time))
            start += encounter_time + disconnection_time
        return cls(windows)

    @classmethod
    def overlapping(cls, aps, encounter_time, overlap_time, total_time):
        rss_peak, rss_edge = DEFAULT_RSS_DBM, EDGE_RSS_DBM
        windows = []
        ap_cycle = itertools.cycle(aps)
        start = 0.0
        count = math.ceil(total_time / (encounter_time - overlap_time)) + 1
        for _ in range(count):
            ap = next(ap_cycle)
            end = start + encounter_time
            ramp = overlap_time
            windows.append(CoverageWindow(ap, start, start + ramp, rss_edge, rss_peak))
            if end - ramp > start + ramp:
                windows.append(
                    CoverageWindow(ap, start + ramp, end - ramp, rss_peak, rss_peak)
                )
            windows.append(CoverageWindow(ap, end - ramp, end, rss_peak, rss_edge))
            start = end - overlap_time
            if start >= total_time:
                break
        return cls(windows)

    def visible_at(self, time):
        index = bisect_right(self.times, time) - 1
        if not 0 <= index < len(self.segments):
            return {}
        return {w.ap: w.rss_at(time) for w in self.segments[index]}

    def end_time(self):
        return max((window.end for window in self.windows), default=0.0)


@st.composite
def patterns(draw):
    """A pattern's builder arguments, on awkward floats (so accumulation
    order shows) and with repeated AP names (so one AP's windows meet)."""
    names = st.sampled_from(["a", "b", "c"])
    encounter = draw(st.one_of(
        st.sampled_from([1.0, 3.0, 12.0]),
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    ))
    horizon = draw(st.floats(min_value=0.1, max_value=300.0, allow_nan=False))
    if draw(st.booleans()):
        aps = draw(st.lists(names, min_size=1, max_size=3))
        dark = draw(st.one_of(
            st.sampled_from([0.0, 8.0]),
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        ))
        args = (aps, encounter, dark, horizon)
        return alternating_coverage, RefCoverage.alternating, args
    aps = draw(st.lists(names, min_size=2, max_size=3))
    # At least a quarter second between starts, so a case stays small.
    overlap = draw(st.one_of(
        st.just(encounter / 4),
        st.floats(min_value=0.01, max_value=encounter - 0.25),
    ))
    args = (aps, encounter, overlap, horizon)
    return overlapping_coverage, RefCoverage.overlapping, args


@given(patterns(), st.data())
def test_lazy_coverage_is_the_eager_one(pattern, data):
    build, reference, args = pattern
    ref = reference(*args)
    # Totals come from a walk, before anything is built...
    coverage = build(*args)
    assert (coverage.end_time(), len(coverage)) == (ref.end_time(), len(ref.windows))
    assert coverage._windows == []
    # ...and the change times are built as they are read.
    assert list(coverage.change_times()) == ref.times
    for time in ref.times:
        got = coverage.visible_at(time)
        assert list(got.items()) == list(ref.visible_at(time).items())
    # Queries that jump backwards, on a fresh coverage.
    coverage = build(*args)
    horizon = ref.end_time() + 1.0
    queries = data.draw(st.lists(
        st.one_of(
            st.sampled_from(ref.times),
            st.floats(min_value=-1.0, max_value=horizon, allow_nan=False),
        ),
        max_size=20,
    ))
    for time in queries:
        got = coverage.visible_at(time)
        assert list(got.items()) == list(ref.visible_at(time).items())
    assert all_windows(coverage) == ref.windows
    assert (coverage.end_time(), len(coverage)) == (ref.end_time(), len(ref.windows))


@given(patterns(), st.floats(min_value=0.0, max_value=300.0), st.integers(0, 40))
def test_a_coverage_pickled_mid_run_answers_identically(pattern, time, changes):
    build, _reference, args = pattern
    coverage = build(*args)
    coverage.visible_at(time)
    for _ in itertools.islice(coverage.change_times(), changes):
        pass
    copy = pickle.loads(pickle.dumps(coverage))
    assert list(copy.change_times()) == list(coverage.change_times())
    for probe in (0.0, time / 2, time, time * 3 + 1.0, -1.0):
        got = copy.visible_at(probe)
        assert list(got.items()) == list(coverage.visible_at(probe).items())
    assert all_windows(copy) == all_windows(coverage)
    assert (copy.end_time(), len(copy)) == (coverage.end_time(), len(coverage))


def test_a_download_builds_only_the_windows_its_clock_reaches(monkeypatch):
    """A 4 MB download ends within the first block of the testbed's
    day-long Fig. 6 pattern, so it builds no more than that block."""
    built = []
    checked = CoverageWindow.__post_init__

    def counting(window):
        built.append(window)
        checked(window)

    monkeypatch.setattr(CoverageWindow, "__post_init__", counting)
    run_download("softstage", params=MicrobenchParams(file_size=4 * MB), seed=0)
    assert 0 < len(built) <= FIRST_BLOCK

"""Tests for coverage timelines and builders."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.mobility import Coverage, CoverageWindow, alternating_coverage, overlapping_coverage


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
    assert coverage.change_times() == [0.0, 5.0, 8.0]


def test_alternating_coverage_pattern():
    coverage = alternating_coverage(
        ["A", "B"], encounter_time=12.0, disconnection_time=8.0, total_time=60.0
    )
    # Windows: A[0,12), B[20,32), A[40,52)
    assert [w.ap for w in coverage.windows] == ["A", "B", "A"]
    assert coverage.visible_at(5.0) == {"A": pytest.approx(-55.0)}
    assert coverage.visible_at(15.0) == {}
    assert coverage.visible_at(25.0).keys() == {"B"}


def test_alternating_connected_fraction():
    coverage = alternating_coverage(
        ["A", "B"], encounter_time=12.0, disconnection_time=8.0, total_time=200.0
    )
    connected = sum(window.duration for window in coverage.windows)
    assert connected / 200.0 == pytest.approx(0.6, abs=0.05)


def test_alternating_zero_disconnection_continuous():
    coverage = alternating_coverage(
        ["A", "B"], encounter_time=10.0, disconnection_time=0.0, total_time=50.0
    )
    windows = coverage.windows
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
        for window in coverage.windows
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
    boundaries = [t for w in coverage.windows for t in (w.start, w.end)]
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

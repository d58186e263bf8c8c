"""Sketches: exact percentiles, determinism, the registry format, loading."""

import json
import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.obs.sketch import (
    QuantileSketch,
    SketchRecorder,
    load_sketches,
    serialize_sketches,
    sketches_from_wide,
)


def fill(sketch, values):
    for value in values:
        sketch.add(value)


# -- payloads without their values --------------------------------------------
#
# Registry lines written before there was one sketch kind hold ``stat``
# payloads (count / sum / min / max), and the older centroid digest
# merged values past 256 of them.  Both load as a QuantileSketch whose
# moments answer and whose interior percentiles are no-data.

_MOMENTS = {"count": 4, "sum": 7.5, "min": -1.0, "max": 4.0}


def _assert_moments_only(body):
    (sketch,) = load_sketches({"s": body}).values()
    assert (sketch.count, sketch.total, sketch.minimum, sketch.maximum) \
        == (body["count"], body["sum"], body["min"], body["max"])
    assert sketch.mean == body["sum"] / body["count"]
    assert [sketch.quantile(q) for q in (0.0, 0.5, 0.99, 1.0)] == \
        [body["min"], None, None, body["max"]]
    payload = sketch.to_json()  # the moments, which load back the same
    assert "c" not in payload
    assert QuantileSketch.from_json(payload).to_json() == payload


def test_stat_sketch_tracks_exact_moments():
    _assert_moments_only({"kind": "stat", **_MOMENTS})


def test_stat_sketch_empty_round_trip():
    (sketch,) = load_sketches(
        {"s": {"kind": "stat", "count": 0, "sum": 0.0}}).values()
    assert sketch.count == 0 and sketch.mean is None
    assert sketch.quantile(0.5) is None


def test_quantile_payload_without_centroids_is_no_data():
    _assert_moments_only({"kind": "quantile", "compression": 256, **_MOMENTS})


@pytest.mark.parametrize("body", [
    {"kind": "quantile", "compression": 256, **_MOMENTS,
     "c": [[-1.0, 1.0], [2.25, 2.0], [4.0, 1.0]]},
    # 10^12 values in one entry: expanded, they would not fit in memory.
    {"kind": "quantile", "compression": 256, "count": 10**12,
     "sum": 5e12, "min": 5.0, "max": 5.0, "c": [[5.0, 1e12]]},
])
def test_heavier_centroids_keep_only_the_moments(body):
    _assert_moments_only(body)


# -- QuantileSketch -----------------------------------------------------------


def test_quantile_sketch_small_streams_are_exact_at_extremes():
    sketch = QuantileSketch()
    fill(sketch, (float(i) for i in range(100)))
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(1.0) == 99.0
    assert sketch.quantile(0.5) == 49.0


def test_quantile_sketch_is_deterministic():
    def build():
        s = QuantileSketch()
        fill(s, (math.sin(i * 0.7) * 100 for i in range(5_000)))
        return json.dumps(s.to_json(), sort_keys=True)

    assert build() == build()


def test_quantile_sketch_empty_and_round_trip():
    assert QuantileSketch().quantile(0.5) is None
    sketch = QuantileSketch()
    fill(sketch, [5.0, 1.0, 3.0])
    clone = QuantileSketch.from_json(sketch.to_json())
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert clone.quantile(q) == sketch.quantile(q)


def test_quantile_sketch_tracks_exact_moments():
    sketch = QuantileSketch()
    fill(sketch, (float(i % 7) - 2.5 for i in range(1000)))
    assert sketch.count == 1000
    assert sketch.minimum == -2.5 and sketch.maximum == 3.5
    # The sum is folded in stream order: the mean is total / count.
    total = 0.0
    for i in range(1000):
        total += float(i % 7) - 2.5
    assert sketch.total == total and sketch.mean == total / 1000


def test_quantile_sketch_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuantileSketch().quantile(1.5)


_STREAM_VALUES = st.one_of(
    st.integers(-20, 20).map(float),  # ties
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
)


# No shrink phase: shrinking a failing 2,000-value stream takes minutes.
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(0, 2000).flatmap(
    lambda n: st.lists(_STREAM_VALUES, min_size=n, max_size=n)))
def test_quantile_is_exact_nearest_rank(data):
    """Every percentile is exact: the smallest value with at least
    q·n values at or below it."""
    sketch = QuantileSketch()
    fill(sketch, data)
    ordered = sorted(data)
    for q in (0.0, 0.5, 0.9, 0.95, 0.99, 1.0):
        expected = next(
            (v for i, v in enumerate(ordered) if i + 1 >= q * len(data)),
            None,
        )
        assert sketch.quantile(q) == expected


#: A fixed stream with ties and negatives whose stream-order sum is not
#: its exact sum, and its payload as registry lines already hold it.
GOLDEN_STREAM = [2.2, 2.2, 0.1, 0.2, 0.2, -1.5, 2.2, 0.3, 15.5, 0.001,
                 9.875, 2.2, -0.3, -0.3, -4.75, 0.7]
GOLDEN_PAYLOAD = (
    '{"kind":"quantile","compression":256,"count":16,'
    '"sum":28.826000000000004,"min":-4.75,"max":15.5,"c":[[-4.75,1.0],'
    '[-1.5,1.0],[-0.3,1.0],[-0.3,1.0],[0.001,1.0],[0.1,1.0],[0.2,1.0],'
    '[0.2,1.0],[0.3,1.0],[0.7,1.0],[2.2,1.0],[2.2,1.0],[2.2,1.0],'
    '[2.2,1.0],[9.875,1.0],[15.5,1.0]]}'
)


def test_quantile_payload_is_byte_identical_to_registry_lines():
    sketch = QuantileSketch()
    fill(sketch, GOLDEN_STREAM)
    assert json.dumps(sketch.to_json(), separators=(",", ":")) \
        == GOLDEN_PAYLOAD
    clone = QuantileSketch.from_json(json.loads(GOLDEN_PAYLOAD))
    assert clone.to_json() == sketch.to_json()


# -- sketch sets --------------------------------------------------------------


def test_serialize_and_load_sketch_sets_round_trip():
    small = QuantileSketch()
    fill(small, [1.0, 2.0])
    large = QuantileSketch()
    fill(large, (float(i) for i in range(500)))
    payload = serialize_sketches({"b.large": large, "a.small": small})
    assert list(payload) == ["a.small", "b.large"]
    loaded = load_sketches(json.loads(json.dumps(payload)))
    assert loaded["a.small"].mean == pytest.approx(1.5)
    assert serialize_sketches(loaded) == payload
    for q in (0.1, 0.5, 0.9):
        assert loaded["b.large"].quantile(q) == large.quantile(q)


def test_load_sketches_skips_unknown_kinds():
    loaded = load_sketches({
        "ok": QuantileSketch().to_json(),
        "old": {"kind": "stat", "count": 0, "sum": 0.0},
        "future": {"kind": "hyperloglog", "data": [1, 2]},
        # What registry lines written before the histogram was deleted
        # hold: they must keep loading.
        "wide.fetch_latency.hist": {
            "kind": "hist", "lo": 0.001, "growth": 2.0, "buckets": 32,
            "counts": [0] * 34,
        },
    })
    assert set(loaded) == {"ok", "old"}


@pytest.mark.parametrize("body", [5, [1, 2], None, "quantile"])
def test_load_sketches_skips_a_body_that_is_not_an_object(body):
    """A damaged body used to raise AttributeError out of the loader,
    and with it ``slo check`` over the whole record."""
    loaded = load_sketches({"bad": body, "ok": QuantileSketch().to_json()})
    assert set(loaded) == {"ok"}


@pytest.mark.parametrize("damage", [
    # Weights that do not sum to the count, or a count that is not one.
    {"count": 3}, {"count": 0}, {"count": -1}, {"count": 2.5}, {"count": "2"},
    # Weights that sum to it but are not positive integers.
    {"c": [[1.0, 3.0], [2.0, -1.0]]}, {"c": [[1.0, 0.5], [2.0, 1.5]]},
])
def test_load_sketches_skips_a_damaged_body(damage):
    body = {"kind": "quantile", "compression": 256, "count": 2,
            "sum": 3.0, "min": 1.0, "max": 2.0,
            "c": [[1.0, 1.0], [2.0, 1.0]], **damage}
    loaded = load_sketches({"bad": body, "ok": QuantileSketch().to_json()})
    assert set(loaded) == {"ok"}


# -- SketchRecorder -----------------------------------------------------------


def chunk_record(**over):
    record = {
        "kind": "chunk", "fetch_latency": 0.5, "stage_wait_s": 0.2,
        "ready_wait_s": 1.0, "masked_s": 0.0, "source": "edge",
    }
    record.update(over)
    return record


def test_recorder_folds_wide_chunk_phases():
    recorder = SketchRecorder()
    recorder.feed_wide(chunk_record())
    recorder.feed_wide(chunk_record(
        fetch_latency=2.0, ready_wait_s=-0.5, source="origin",
    ))
    recorder.feed_wide({"kind": "run", "chunks": 2})  # non-chunk: ignored
    sketches = recorder.sketches
    assert sketches["wide.fetch_latency"].count == 2
    assert sketches["wide.ready_before_fetch"].mean == pytest.approx(0.5)
    # One sketch per phase plus the indicator; nothing per source.
    assert set(sketches) == {
        "wide.fetch_latency", "wide.stage_wait_s", "wide.ready_wait_s",
        "wide.masked_s", "wide.ready_before_fetch",
    }


def test_offline_wide_fold_matches_live_sink():
    records = [chunk_record(fetch_latency=float(i)) for i in range(1, 9)]
    live = SketchRecorder()
    for record in records:
        live.feed_wide(record)
    offline = sketches_from_wide(records)
    assert serialize_sketches(offline) == live.to_json()

"""Fixed-memory sketches: accuracy, determinism, bounds, loading."""

import json
import math

import pytest
from hypothesis import given, settings
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


def exact_rank(data, value):
    """Fraction of ``data`` at or below ``value``."""
    return sum(1 for v in data if v <= value) / len(data)


# -- stat payloads ------------------------------------------------------------
#
# Registry lines written before there was one sketch kind hold ``stat``
# payloads (count / sum / min / max, no centroids).  They load as a
# QuantileSketch whose moments answer and whose percentiles are no-data.


def _stat_payload(values):
    sketch = QuantileSketch()
    fill(sketch, values)
    payload = {"kind": "stat", "count": sketch.count, "sum": sketch.total}
    if sketch.count:
        payload.update(min=sketch.minimum, max=sketch.maximum)
    return payload


def test_stat_sketch_tracks_exact_moments():
    (sketch,) = load_sketches(
        {"s": _stat_payload([3.0, -1.0, 4.0, 1.5])}).values()
    assert sketch.count == 4
    assert sketch.total == pytest.approx(7.5)
    assert sketch.minimum == -1.0
    assert sketch.maximum == 4.0
    assert sketch.mean == pytest.approx(1.875)
    # No centroids: an interior percentile has nothing to answer from.
    assert sketch.quantile(0.5) is None
    assert (sketch.quantile(0.0), sketch.quantile(1.0)) == (-1.0, 4.0)


def test_stat_sketch_empty_round_trip():
    (sketch,) = load_sketches({"s": _stat_payload([])}).values()
    assert sketch.count == 0 and sketch.mean is None
    assert sketch.quantile(0.5) is None


# -- QuantileSketch -----------------------------------------------------------


def test_quantile_sketch_small_streams_are_exact_at_extremes():
    sketch = QuantileSketch(compression=16)
    fill(sketch, (float(i) for i in range(100)))
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(1.0) == 99.0
    assert abs(sketch.quantile(0.5) - 49.5) < 5.0


def test_quantile_sketch_memory_is_bounded():
    sketch = QuantileSketch(compression=64)
    fill(sketch, (float(i % 977) for i in range(50_000)))
    assert len(sketch.centroids) <= 2 * 64
    assert sketch.count == 50_000


def test_quantile_sketch_is_deterministic():
    def build():
        s = QuantileSketch(compression=32)
        fill(s, (math.sin(i * 0.7) * 100 for i in range(5_000)))
        return json.dumps(s.to_json(), sort_keys=True)

    assert build() == build()


def test_quantile_sketch_empty_and_round_trip():
    assert QuantileSketch().quantile(0.5) is None
    sketch = QuantileSketch(compression=32)
    fill(sketch, [5.0, 1.0, 3.0])
    clone = QuantileSketch.from_json(sketch.to_json())
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert clone.quantile(q) == sketch.quantile(q)


def test_quantile_sketch_tracks_exact_moments():
    sketch = QuantileSketch(compression=8)
    fill(sketch, (float(i % 7) - 2.5 for i in range(1000)))
    assert sketch.count == 1000
    assert sketch.minimum == -2.5 and sketch.maximum == 3.5
    # The sum is folded in stream order: the mean is total / count.
    total = 0.0
    for i in range(1000):
        total += float(i % 7) - 2.5
    assert sketch.total == total and sketch.mean == total / 1000


def test_quantile_payload_without_centroids_is_no_data():
    """A payload that counts values but holds no centroids cannot place
    an interior rank (it used to answer every one with its max)."""
    sketch = QuantileSketch.from_json({
        "kind": "quantile", "compression": 256, "count": 5,
        "sum": 15.0, "min": 1.0, "max": 5.0,
    })
    assert [sketch.quantile(q) for q in (0.5, 0.9, 0.99)] == [None] * 3
    assert sketch.mean == 3.0


def test_quantile_sketch_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuantileSketch(compression=2)
    with pytest.raises(ValueError):
        QuantileSketch().quantile(1.5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=2000,
    ),
)
def test_merged_sketch_quantiles_within_one_percent_rank_error(data):
    """The acceptance contract: quantiles answered from the merged
    centroids are within 1 % rank error.

    Every queried quantile's *rank* in the exact data must sit within
    1 % of the requested rank, whether the stream stayed inside the
    exact (all-singleton) range or was compressed.
    """
    sketch = QuantileSketch()
    fill(sketch, data)
    assert sketch.count == len(data)
    data_sorted = sorted(data)
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        estimate = sketch.quantile(q)
        # Rank error: how far the estimate's position in the exact
        # data is from the requested rank.  Ties need both sides.
        at_or_below = exact_rank(data_sorted, estimate)
        strictly_below = sum(1 for v in data_sorted if v < estimate) \
            / len(data_sorted)
        assert strictly_below - 0.01 <= q <= at_or_below + 0.01


# -- sketch sets --------------------------------------------------------------


def test_serialize_and_load_sketch_sets_round_trip():
    small = QuantileSketch(compression=32)
    fill(small, [1.0, 2.0])
    large = QuantileSketch(compression=32)
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

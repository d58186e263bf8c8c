"""Fixed-memory sketches: accuracy, mergeability, determinism, bounds."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import (
    QuantileSketch,
    SketchRecorder,
    StatSketch,
    load_sketches,
    merge_sketch_sets,
    serialize_sketches,
    sketches_from_wide,
)


def fill(sketch, values):
    for value in values:
        sketch.add(value)


def exact_rank(data, value):
    """Fraction of ``data`` at or below ``value``."""
    return sum(1 for v in data if v <= value) / len(data)


# -- StatSketch ---------------------------------------------------------------


def test_stat_sketch_tracks_exact_moments():
    sketch = StatSketch()
    fill(sketch, [3.0, -1.0, 4.0, 1.5])
    assert sketch.count == 4
    assert sketch.total == pytest.approx(7.5)
    assert sketch.minimum == -1.0
    assert sketch.maximum == 4.0
    assert sketch.mean == pytest.approx(1.875)


def test_stat_sketch_merge_equals_single_stream():
    a, b, whole = StatSketch(), StatSketch(), StatSketch()
    fill(a, [1.0, 2.0])
    fill(b, [10.0, -5.0, 3.0])
    fill(whole, [1.0, 2.0, 10.0, -5.0, 3.0])
    a.merge(b)
    assert a.to_json() == whole.to_json()


def test_stat_sketch_empty_round_trip():
    sketch = StatSketch.from_json(StatSketch().to_json())
    assert sketch.count == 0 and sketch.mean is None


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
    st.integers(min_value=1, max_value=5),
)
def test_merged_sketch_quantiles_within_one_percent_rank_error(data, parts):
    """The acceptance contract: merged quantiles ≤ 1 % rank error.

    The stream is split into ``parts`` worker shards, folded into
    independent sketches (as ``experiments/parallel.py`` workers
    would), merged pairwise, and every queried quantile's *rank* in
    the exact data must sit within 1 % of the requested rank.
    """
    shard_size = math.ceil(len(data) / parts)
    shards = [data[i:i + shard_size] for i in range(0, len(data), shard_size)]
    sketches = []
    for shard in shards:
        sketch = QuantileSketch()
        fill(sketch, shard)
        sketches.append(sketch)
    merged = sketches[0]
    for other in sketches[1:]:
        merged.merge(other)
    assert merged.count == len(data)
    data_sorted = sorted(data)
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        estimate = merged.quantile(q)
        # Rank error: how far the estimate's position in the exact
        # data is from the requested rank.  Ties need both sides.
        at_or_below = exact_rank(data_sorted, estimate)
        strictly_below = sum(1 for v in data_sorted if v < estimate) \
            / len(data_sorted)
        assert strictly_below - 0.01 <= q <= at_or_below + 0.01


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3,
                  allow_nan=False, allow_infinity=False),
        min_size=3, max_size=300,
    )
)
def test_merge_is_associative_within_rank_error(data):
    third = max(1, len(data) // 3)
    a, b, c = data[:third], data[third:2 * third], data[2 * third:]

    def sketch_of(part):
        s = QuantileSketch()
        fill(s, part)
        return s

    left = sketch_of(a).merge(sketch_of(b)).merge(sketch_of(c))
    right_inner = sketch_of(b).merge(sketch_of(c))
    right = sketch_of(a).merge(right_inner)
    assert left.count == right.count == len(data)
    data_sorted = sorted(data)
    for q in (0.25, 0.5, 0.75):
        for estimate in (left.quantile(q), right.quantile(q)):
            strictly_below = sum(1 for v in data_sorted if v < estimate) \
                / len(data_sorted)
            at_or_below = exact_rank(data_sorted, estimate)
            assert strictly_below - 0.015 <= q <= at_or_below + 0.015


# -- sketch sets --------------------------------------------------------------


def test_serialize_and_load_sketch_sets_round_trip():
    stat = StatSketch()
    fill(stat, [1.0, 2.0])
    quant = QuantileSketch(compression=32)
    fill(quant, [0.1, 0.2, 0.9])
    payload = serialize_sketches({"a.stat": stat, "b.q": quant})
    loaded = load_sketches(json.loads(json.dumps(payload)))
    assert loaded["a.stat"].mean == pytest.approx(1.5)
    assert loaded["b.q"].count == 3


def test_load_sketches_skips_unknown_kinds():
    loaded = load_sketches({
        "ok": StatSketch().to_json(),
        "future": {"kind": "hyperloglog", "data": [1, 2]},
        # What registry lines written before the histogram was deleted
        # hold: they must keep loading.
        "wide.fetch_latency.hist": {
            "kind": "hist", "lo": 0.001, "growth": 2.0, "buckets": 32,
            "counts": [0] * 34,
        },
    })
    assert set(loaded) == {"ok"}


def test_merge_sketch_sets_copies_and_merges():
    a_stat = StatSketch()
    a_stat.add(1.0)
    b_stat = StatSketch()
    b_stat.add(3.0)
    b_only = StatSketch()
    b_only.add(7.0)
    target = {"shared": a_stat}
    merge_sketch_sets(target, {"shared": b_stat, "solo": b_only})
    assert target["shared"].count == 2
    assert target["solo"].count == 1
    # Copied, not aliased: mutating the source must not leak.
    b_only.add(9.0)
    assert target["solo"].count == 1
    with pytest.raises(ValueError):
        merge_sketch_sets({"x": StatSketch()}, {"x": QuantileSketch()})


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
    assert sketches["wide.source.edge"].count == 1
    assert sketches["wide.source.origin"].count == 1
    assert "wide.fetch_latency.hist" not in sketches
    assert recorder.wide_records == 3


def test_offline_wide_fold_matches_live_sink():
    records = [chunk_record(fetch_latency=float(i)) for i in range(1, 9)]
    live = SketchRecorder()
    for record in records:
        live.feed_wide(record)
    offline = sketches_from_wide(records)
    assert serialize_sketches(offline) == live.to_json()


def test_recorder_folds_gauge_samples_from_the_bus():
    from repro.obs.bus import EventBus, Stamped
    from repro.obs.events import GaugeSample

    bus = EventBus()
    recorder = SketchRecorder().attach(bus)
    for t, v in ((0.0, 1.0), (0.5, 3.0), (1.0, 2.0)):
        bus.publish(Stamped(
            time=t, run_id="r", event=GaugeSample(gauge="x.y", value=v),
        ))
    recorder.detach()
    bus.publish(Stamped(
        time=2.0, run_id="r", event=GaugeSample(gauge="x.y", value=99.0),
    ))
    assert recorder.sketches["gauge.x.y"].maximum == 3.0
    assert recorder.sketches["gauge.x.y.q"].count == 3

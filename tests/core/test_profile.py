"""Tests for the Chunk Profile (Table I) and EWMA estimators."""

import pytest

from repro.core import ChunkProfile, FetchState, StagingState
from repro.core.profile import EwmaEstimator
from repro.errors import ConfigurationError
from repro.xcache import Chunk
from repro.xia import DagAddress, HID, NID


NID_S, HID_S = NID("origin"), HID("server")
NID_A, HID_A = NID("edge-a"), HID("cache-a")


def make_profile(num_chunks=5, size=1000):
    profile = ChunkProfile()
    chunks = [Chunk.synthetic("content", i, size) for i in range(num_chunks)]
    for i, chunk in enumerate(chunks):
        profile.register(
            chunk.cid, i, chunk.size_bytes,
            DagAddress.content(chunk.cid, NID_S, HID_S),
        )
    return profile, chunks


# ---------------------------------------------------------------------------
# EwmaEstimator
# ---------------------------------------------------------------------------


def test_ewma_starts_empty():
    est = EwmaEstimator()
    assert est.value is None
    assert est.value_or(7.0) == 7.0


def test_ewma_first_sample_sets_value():
    est = EwmaEstimator(alpha=0.5)
    est.observe(10.0)
    assert est.value == 10.0


def test_ewma_smooths():
    est = EwmaEstimator(alpha=0.5)
    est.observe(10.0)
    est.observe(20.0)
    assert est.value == pytest.approx(15.0)
    assert est.samples == 2


def test_ewma_alpha_validated():
    with pytest.raises(Exception):
        EwmaEstimator(alpha=1.5)


# ---------------------------------------------------------------------------
# Registration and state
# ---------------------------------------------------------------------------


def test_register_and_lookup():
    profile, chunks = make_profile(3)
    assert len(profile) == 3
    record = profile.get(chunks[1].cid)
    assert record.index == 1
    assert record.fetch_state is FetchState.BLANK
    assert record.staging_state is StagingState.BLANK


def test_register_duplicate_rejected():
    profile, chunks = make_profile(1)
    with pytest.raises(ConfigurationError):
        profile.register(chunks[0].cid, 0, 1000,
                         DagAddress.content(chunks[0].cid, NID_S, HID_S))


def test_get_unknown_raises():
    profile, _ = make_profile(1)
    with pytest.raises(KeyError):
        profile.get(Chunk.synthetic("other", 0, 10).cid)


def test_best_dag_prefers_ready_staged_copy():
    profile, chunks = make_profile(1)
    record = profile.get(chunks[0].cid)
    assert record.best_dag == record.raw_dag
    record.mark_staged(
        record.raw_dag.replace_fallback(NID_A, HID_A),
        NID_A, HID_A, staging_latency=0.4, fetch_rtt=0.01,
    )
    assert record.staging_state is StagingState.READY
    assert record.best_dag.routes[-1] == (NID_A, HID_A)
    assert record.location == (NID_A, HID_A)


def test_best_dag_ignores_pending():
    profile, chunks = make_profile(1)
    record = profile.get(chunks[0].cid)
    record.staging_state = StagingState.PENDING
    assert record.best_dag == record.raw_dag


# ---------------------------------------------------------------------------
# Staging-algorithm queries
# ---------------------------------------------------------------------------


def test_staged_ahead_counts_ready_unfetched_only():
    profile, chunks = make_profile(4)
    for i in (0, 1, 2):
        record = profile.get(chunks[i].cid)
        record.mark_staged(
            record.raw_dag.replace_fallback(NID_A, HID_A),
            NID_A, HID_A, 0.5, 0.01,
        )
    # Fetch the first one: it no longer counts.
    profile.observe_fetch(profile.get(chunks[0].cid), 0.8, from_edge=True)
    assert profile.staged_ahead() == 2


def test_next_to_stage_skips_fetched_and_signalled():
    profile, chunks = make_profile(5)
    profile.observe_fetch(profile.get(chunks[0].cid), 1.0, from_edge=False)
    profile.get(chunks[1].cid).staging_state = StagingState.PENDING
    to_stage = profile.next_to_stage(2)
    assert [r.index for r in to_stage] == [2, 3]


def test_next_to_stage_respects_count_and_exhaustion():
    profile, chunks = make_profile(3)
    assert len(profile.next_to_stage(10)) == 3
    assert len(profile.next_to_stage(0)) == 0


def test_first_unfetched_index_and_all_fetched():
    profile, chunks = make_profile(3)
    assert not profile.all_fetched()
    for chunk in chunks:
        profile.observe_fetch(profile.get(chunk.cid), 1.0, from_edge=False)
    assert profile.all_fetched()


def test_stale_pending_detection():
    profile, chunks = make_profile(2)
    record = profile.get(chunks[0].cid)
    record.staging_state = StagingState.PENDING
    record.staging_requested_at = 10.0
    assert profile.stale_pending(now=11.0, timeout=3.0) == []
    assert profile.stale_pending(now=13.5, timeout=3.0) == [record]


def test_observe_fetch_feeds_correct_estimator():
    profile, chunks = make_profile(2)
    profile.observe_fetch(profile.get(chunks[0].cid), 0.5, from_edge=True)
    profile.observe_fetch(profile.get(chunks[1].cid), 2.0, from_edge=False)
    assert profile.edge_fetch_latency.value == 0.5
    assert profile.origin_fetch_latency.value == 2.0


def test_observe_staging_handles_missing_values():
    profile, _ = make_profile(1)
    profile.observe_staging(None, None)
    assert profile.staging_latency.value is None
    profile.observe_staging(1.5, 0.02)
    assert profile.staging_latency.value == 1.5
    assert profile.rtt_to_edge.value == 0.02


def test_register_content_manifest():
    from repro.xcache import ContentPublisher, ContentStore

    store = ContentStore()
    publisher = ContentPublisher(store, NID_S, HID_S)
    content = publisher.publish_synthetic("file", 5000, 1000)
    profile = ChunkProfile()
    records = profile.register_content(content)
    assert len(records) == 5
    assert [record.index for record in profile.records()] == [0, 1, 2, 3, 4]

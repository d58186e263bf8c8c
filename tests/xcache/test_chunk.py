"""Tests for chunk objects and integrity."""

import pytest
from hypothesis import given, strategies as st

from repro.xcache import Chunk
from repro.xia.ids import PrincipalType


def test_synthetic_chunk_cid_is_deterministic():
    a = Chunk.synthetic("movie", 3, 2_000_000)
    b = Chunk.synthetic("movie", 3, 2_000_000)
    assert a.cid == b.cid
    assert a == b


def test_synthetic_chunks_differ_by_index_and_name():
    base = Chunk.synthetic("movie", 0, 1000)
    assert base.cid != Chunk.synthetic("movie", 1, 1000).cid
    assert base.cid != Chunk.synthetic("other", 0, 1000).cid


def test_chunk_cid_depends_on_size():
    assert Chunk.synthetic("m", 0, 1000).cid != Chunk.synthetic("m", 0, 2000).cid


def test_chunk_cid_principal_type():
    assert Chunk.synthetic("m", 0, 10).cid.principal_type is PrincipalType.CID


def test_verify_against_wrong_cid_fails():
    chunk = Chunk.synthetic("m", 0, 10)
    other = Chunk.synthetic("m", 1, 10)
    assert not chunk.verify(claimed_cid=other.cid)


def test_chunk_is_immutable():
    chunk = Chunk.synthetic("m", 0, 10)
    with pytest.raises(AttributeError):
        chunk.size_bytes = 99


def test_chunk_size_must_be_positive():
    with pytest.raises(Exception):
        Chunk.synthetic("m", 0, 0)


@given(
    st.text(min_size=1, max_size=10),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=10**9),
)
def test_synthetic_cid_stable(name, index, size):
    assert Chunk.synthetic(name, index, size).cid == Chunk.synthetic(name, index, size).cid

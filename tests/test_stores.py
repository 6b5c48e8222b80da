"""Set-based vs matrix-based fact stores, including equivalence property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.lattice import (
    BYTES_PER_ENTRY,
    GROWTH_FACTOR,
    INITIAL_CAPACITY,
    SET_HEADER_BYTES,
    SetFactStore,
)
from repro.dataflow.matrix_store import MatrixFactStore


class TestSetFactStore:
    def test_insert_reports_growth(self):
        store = SetFactStore(2)
        assert store.insert_all(0, [1, 2])
        assert not store.insert_all(0, [1, 2])
        assert store.insert_all(0, [3])
        assert store.get(0) == {1, 2, 3}

    def test_capacity_doubles_and_counts_allocs(self):
        store = SetFactStore(1)
        store.insert_all(0, range(INITIAL_CAPACITY + 1))
        assert store.alloc_events == 1
        assert store.capacity(0) == INITIAL_CAPACITY * GROWTH_FACTOR
        store.insert_all(0, range(100))
        assert store.capacity(0) >= 100
        assert store.grow_counts[0] == store.alloc_events

    def test_replace_resets_contents(self):
        store = SetFactStore(1)
        store.insert_all(0, [1, 2, 3])
        store.replace(0, [9])
        assert store.get(0) == {9}

    def test_memory_accounting(self):
        store = SetFactStore(3)
        expected = 3 * SET_HEADER_BYTES + 3 * INITIAL_CAPACITY * BYTES_PER_ENTRY
        assert store.memory_bytes() == expected
        store.insert_all(0, range(INITIAL_CAPACITY * 4))
        assert store.memory_bytes() > expected

    def test_snapshot_is_immutable_copy(self):
        store = SetFactStore(1)
        store.insert_all(0, [1])
        snap = store.snapshot()
        store.insert_all(0, [2])
        assert snap[0] == frozenset({1})

    def test_equality(self):
        a, b = SetFactStore(1), SetFactStore(1)
        a.insert_all(0, [1])
        b.insert_all(0, [1])
        assert a == b


class TestMatrixFactStore:
    def test_insert_reports_new_bits(self):
        store = MatrixFactStore(2, 10)
        assert store.insert_all(0, [3, 4])
        assert not store.insert_all(0, [3])
        assert store.insert_all(0, [3, 5])
        assert store.get(0) == {3, 4, 5}

    def test_empty_insert_is_noop(self):
        store = MatrixFactStore(1, 10)
        assert not store.insert_all(0, [])

    def test_contains_and_size(self):
        store = MatrixFactStore(1, 10)
        store.insert_all(0, [7])
        assert store.contains(0, 7)
        assert not store.contains(0, 6)
        assert store.size(0) == 1

    def test_memory_is_bit_packed(self):
        # 16 statements, 100 cells: 2 bytes per cell.
        store = MatrixFactStore(16, 100)
        assert store.memory_bytes() == 100 * 2
        # 8 or fewer statements: 1 byte per cell.
        assert MatrixFactStore(8, 100).memory_bytes() == 100

    def test_replace(self):
        store = MatrixFactStore(1, 10)
        store.insert_all(0, [1, 2])
        store.replace(0, [5])
        assert store.get(0) == {5}


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # node
            st.lists(st.integers(min_value=0, max_value=29), max_size=8),
        ),
        max_size=30,
    )
)
def test_stores_equivalent_under_any_op_sequence(ops):
    """Property: both stores expose identical fact sets and flags.

    This is the functional heart of the MAT optimization: swapping the
    data structure -- dynamic sets or the packed uint64 bitset matrix
    -- must never change the analysis outcome.
    """
    set_store = SetFactStore(5)
    mat_store = MatrixFactStore(5, 30)
    for node, facts in ops:
        grew_set = set_store.insert_all(node, facts)
        grew_mat = mat_store.insert_all(node, facts)
        assert grew_set == grew_mat
    assert set_store.snapshot() == mat_store.snapshot()
    assert set_store.total_fact_count() == mat_store.total_fact_count()

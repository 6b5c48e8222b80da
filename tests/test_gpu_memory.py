"""Coalescing model tests, including a brute-force property check."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import MemoryModel, transactions_for_addresses


class TestTransactionCounting:
    def test_fully_coalesced_warp(self):
        # 32 lanes x 4B, consecutive: exactly one 128B segment.
        addresses = [i * 4 for i in range(32)]
        assert transactions_for_addresses(addresses, 4) == 1

    def test_fully_scattered_warp(self):
        addresses = [i * 4096 for i in range(32)]
        assert transactions_for_addresses(addresses, 4) == 32

    def test_straddling_access(self):
        # 8 bytes starting at 124 cross a segment boundary.
        assert transactions_for_addresses([124], 8) == 2

    def test_duplicate_addresses_coalesce(self):
        assert transactions_for_addresses([0, 0, 0, 4], 4) == 1

    def test_empty(self):
        assert transactions_for_addresses([], 4) == 0


class TestMemoryModel:
    def test_region_isolation(self):
        model = MemoryModel()
        model.access(1, [0], 4)
        model.access(2, [0], 4)
        # Same element index, different regions: two transactions.
        assert model.transactions == 2

    def test_adjacent_elements_share_segment(self):
        model = MemoryModel()
        count = model.access(1, list(range(16)), 8)  # 16 x 8B = 128B
        assert count == 1

    def test_strided_elements_span_segments(self):
        model = MemoryModel()
        count = model.access(1, [0, 100, 200, 300], 64)
        assert count == 4

    def test_scattered_access_counts_lanes(self):
        model = MemoryModel()
        assert model.scattered_access(7) == 7
        assert model.scattered_access(0) == 0
        assert model.transactions == 7

    def test_waste_accounting(self):
        model = MemoryModel()
        model.access(1, [0], 4)  # 4 useful bytes of a 128B segment
        assert model.wasted_bytes == 124

    def test_reset(self):
        model = MemoryModel()
        model.access(1, [0], 4)
        model.reset()
        assert model.transactions == 0
        assert model.wasted_bytes == 0


@settings(max_examples=80, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=32
    ),
    access_bytes=st.sampled_from([1, 4, 8, 16, 32]),
)
def test_transaction_count_matches_brute_force(addresses, access_bytes):
    """Property: the fast counter equals an explicit byte-level model."""
    touched = set()
    for address in addresses:
        for byte in range(address, address + access_bytes):
            touched.add(byte // 128)
    assert transactions_for_addresses(addresses, access_bytes) == len(touched)

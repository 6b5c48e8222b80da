"""Container robustness: corrupted inputs fail cleanly, never crash.

A vetting queue ingests untrusted bytes; the container must reject
malformed input with its documented error types (and never with, say,
a struct.error or unbounded allocation from a hostile length prefix
reaching the parser)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.dex import GdxFormatError, pack_app
from repro.apk.dex import unpack_app
from repro.ir.parser import IRSyntaxError
from tests.conftest import tiny_app

#: The error types the loaders are allowed to raise on bad input.
ACCEPTABLE = (GdxFormatError, IRSyntaxError, ValueError, MemoryError)


@pytest.fixture(scope="module")
def blob():
    return pack_app(tiny_app(3))


class TestTruncation:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.99])
    def test_truncated_v1(self, blob, fraction):
        with pytest.raises(ACCEPTABLE):
            unpack_app(blob[: int(len(blob) * fraction)])


class TestCorruption:
    @settings(max_examples=40, deadline=None)
    @given(
        offset_fraction=st.floats(min_value=0.0, max_value=0.999),
        value=st.integers(min_value=0, max_value=255),
    )
    def test_single_byte_flips(self, blob, offset_fraction, value):
        """Property: one flipped byte either still parses (benign spot,
        e.g. inside a string) or raises a documented error type."""
        corrupted = bytearray(blob)
        offset = int(len(corrupted) * offset_fraction)
        corrupted[offset] = value
        try:
            unpack_app(bytes(corrupted))
        except ACCEPTABLE:
            pass  # clean rejection

    def test_empty_input(self):
        with pytest.raises(ACCEPTABLE):
            unpack_app(b"")

    def test_random_garbage(self):
        with pytest.raises(ACCEPTABLE):
            unpack_app(b"\x00" * 64)

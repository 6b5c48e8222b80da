"""Structured loader errors: corrupt input fails with context, not a crash.

Complements :mod:`tests.test_container_robustness` (random flips over a
generated app) with an *exhaustive* single-byte sweep over a minimal
hand-built blob -- every byte position of the container is corrupted
once -- plus targeted checks that the structured error types
carry their promised context (byte offset / line number).
"""

from __future__ import annotations

import pytest

from repro.apk.dex import GdxFormatError, pack_app, unpack_app
from repro.ir.parser import (
    IRSyntaxError,
    parse_app,
    parse_signature,
    parse_statement,
)

#: Mirrors tests.test_container_robustness.ACCEPTABLE.
ACCEPTABLE = (GdxFormatError, IRSyntaxError, ValueError, MemoryError)

#: Small but complete: global, component with callbacks, two methods,
#: an exception handler, internal and external calls.
MINIMAL_SOURCE = """
app com.min category tools
global com.min.G.gOut: Ljava/lang/Object;
component com.min.Main activity exported
  callback onCreate com.min.Main.m(Ljava/lang/Object;)V
end
method com.min.Main.m(Ljava/lang/Object;)V
  param p: Ljava/lang/Object;
  local e: Ljava/lang/Object;
  local i: I
  L0: i := 1
  L1: @@com.min.G.gOut := p
  L2: call com.min.Main.h()V()
  L3: goto L5
  L4: e := Exception
  L5: return
  catch L4 from L1 to L3
end
method com.min.Main.h()V
  L0: return
end
"""


@pytest.fixture(scope="module")
def minimal_app():
    return parse_app(MINIMAL_SOURCE)


@pytest.fixture(scope="module")
def minimal_blob(minimal_app):
    return pack_app(minimal_app)


class TestExhaustiveByteFlips:
    """Flip EVERY byte of the minimal blob once; never crash raw."""

    def _sweep(self, blob: bytes) -> int:
        rejected = 0
        for offset in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[offset] = 0x00 if corrupted[offset] == 0xFF else 0xFF
            try:
                unpack_app(bytes(corrupted))
            except ACCEPTABLE:
                rejected += 1
        return rejected

    def test_every_v1_byte(self, minimal_blob):
        rejected = self._sweep(minimal_blob)
        assert rejected > 0  # the sweep does reach rejecting positions


class TestStructuredContainerErrors:
    def test_v1_bad_descriptor_carries_offset(self, minimal_blob):
        corrupted = minimal_blob.replace(
            b"Ljava/lang/Object;", b"Qjava/lang/Object;", 1
        )
        with pytest.raises(GdxFormatError) as excinfo:
            unpack_app(corrupted)
        assert "offset" in str(excinfo.value)


class TestStructuredTextErrors:
    def test_unknown_component_kind(self):
        source = MINIMAL_SOURCE.replace("Main activity", "Main widget")
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_app(source)
        assert excinfo.value.line_number > 0
        assert "component kind" in str(excinfo.value)

    def test_malformed_callback_line(self):
        source = MINIMAL_SOURCE.replace(
            "callback onCreate com.min.Main.m(Ljava/lang/Object;)V",
            "callback onCreate",
        )
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_app(source)
        assert excinfo.value.line_number > 0

    def test_bad_local_descriptor(self):
        source = MINIMAL_SOURCE.replace("local i: I", "local i: Qbad;")
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_app(source)
        assert excinfo.value.line_number > 0

    def test_bad_method_signature(self):
        source = MINIMAL_SOURCE.replace(
            "method com.min.Main.h()V", "method com.min.Main.h(Q)V"
        )
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_app(source)
        assert excinfo.value.line_number > 0

    def test_unterminated_array_descriptor(self):
        with pytest.raises(ValueError) as excinfo:
            parse_signature("a.B.m([)V")
        assert "unterminated" in str(excinfo.value)

    def test_unterminated_class_descriptor(self):
        with pytest.raises(ValueError) as excinfo:
            parse_signature("a.B.m(Ljava/lang/Object)V")
        assert "unterminated" in str(excinfo.value)

    def test_malformed_call_statement(self):
        with pytest.raises(ValueError):
            parse_statement("L0", "call ???")

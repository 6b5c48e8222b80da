"""Host-performance mode switch.

The functional simulation and the cost replay are on the critical
path of every benchmark.  This module gates the *host* performance
layer -- packed-bitset fact sets and block dynamics with a per-round
transfer memo, one vectorized numpy pricing pass per configuration
over a workload's columnar traces, vectorized transaction
decomposition, and memoized summary footprints -- behind one switch so
that

* production runs default to the fast implementations, and
* the seed-equivalent scalar implementations stay callable, both as a
  fallback and as the honest baseline leg of
  ``benchmarks/bench_host_perf.py``.

Every fast path is *bit-exact*: it must produce identical fact sets,
identical traces and identical modeled cycle counts to the scalar
code.  ``tests/test_host_perf.py`` asserts this equality end-to-end.

The switch is resolved once from ``REPRO_HOST_PERF`` (default on;
``0``/``false``/``off`` disable) and can be overridden in-process with
:func:`set_host_perf` or the :func:`host_perf` context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_FALSY = {"0", "false", "off", "no"}

_enabled: bool = os.environ.get("REPRO_HOST_PERF", "1").strip().lower() not in _FALSY


def host_perf_enabled() -> bool:
    """True when the fast host-side implementations are selected."""
    return _enabled


def set_host_perf(enabled: bool) -> bool:
    """Set the switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def host_perf(enabled: bool) -> Iterator[None]:
    """Temporarily force the host-perf mode (tests and benchmarks)."""
    previous = set_host_perf(enabled)
    try:
        yield
    finally:
        set_host_perf(previous)

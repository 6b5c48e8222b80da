"""Percentiles, medians and process resource counters."""

from __future__ import annotations

import resource
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User + system CPU seconds of this process (or its reaped children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux), so set-up's peak is
    not mistaken for the timed phase's."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _own_peak_kb() -> int:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(_own_peak_kb(), child) / 1024.0

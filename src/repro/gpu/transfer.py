"""PCIe transfer engine with dual-buffered stream overlap.

Paper Section III-A1: two device buffers and two CUDA streams; stream 1
copies sub-graph 1 and launches its kernel while stream 2 copies
sub-graph 2, so "the (i+1)-th data communication overhead is hidden by
overlapping the i-th kernel execution".

:class:`DualBufferSchedule` computes exactly that pipeline: with chunk
transfer times ``t_i`` and kernel times ``k_i``, the makespan is::

    t_0 + sum_i max(k_i, t_{i+1}) + k_last      (all times in cycles)

and the serial (single-buffer) alternative is ``sum(t_i) + sum(k_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.gpu.spec import GPUSpec, TESLA_P40


class TransferEngine:
    """Host <-> device copies over the modeled PCIe link."""

    __slots__ = ("spec", "bytes_moved")

    def __init__(self, spec: GPUSpec = TESLA_P40) -> None:
        self.spec = spec
        self.bytes_moved = 0

    def transfer_cycles(self, nbytes: int) -> float:
        """Cycles one copy of ``nbytes`` occupies the copy engine."""
        self.bytes_moved += nbytes
        seconds = nbytes / (self.spec.pcie_bandwidth_gbs * 1e9)
        return self.spec.seconds_to_cycles(seconds)

    def reset(self) -> None:
        """Clear all accumulated statistics."""
        self.bytes_moved = 0


@dataclass(frozen=True)
class DualBufferSchedule:
    """Pipelined makespan of (transfer, kernel) chunk pairs."""

    #: (transfer_cycles, kernel_cycles) per chunk, in issue order.
    chunks: Tuple[Tuple[float, float], ...]

    @property
    def pipelined_cycles(self) -> float:
        """Makespan with dual buffering (copy i+1 overlaps kernel i)."""
        if not self.chunks:
            return 0.0
        total = self.chunks[0][0]  # first copy cannot be hidden
        for index, (_transfer, kernel) in enumerate(self.chunks):
            next_transfer = (
                self.chunks[index + 1][0] if index + 1 < len(self.chunks) else 0.0
            )
            total += max(kernel, next_transfer)
        return total

    @property
    def serial_cycles(self) -> float:
        """Makespan without overlap (single buffer, single stream)."""
        return sum(t + k for t, k in self.chunks)

    @property
    def hidden_cycles(self) -> float:
        """Transfer time the dual buffering hides."""
        return self.serial_cycles - self.pipelined_cycles


def plan_chunks(
    total_bytes: int,
    kernel_cycles: float,
    buffer_bytes: int,
    engine: TransferEngine,
) -> DualBufferSchedule:
    """Split an app's device image into buffer-sized chunks.

    The kernel work is apportioned to chunks proportionally to their
    bytes -- adequate because the engine only uses the *schedule* when
    the image exceeds a single buffer, which is rare at corpus scale
    ("the worklist algorithm can consume tens of GB" motivates the
    machinery; Table I-sized apps fit comfortably).
    """
    if total_bytes <= 0:
        return DualBufferSchedule(chunks=())
    chunk_sizes: List[int] = []
    remaining = total_bytes
    while remaining > 0:
        size = min(buffer_bytes, remaining)
        chunk_sizes.append(size)
        remaining -= size
    chunks = tuple(
        (
            engine.transfer_cycles(size),
            kernel_cycles * (size / total_bytes),
        )
        for size in chunk_sizes
    )
    return DualBufferSchedule(chunks=chunks)

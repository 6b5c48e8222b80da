"""Coalesced-memory-transaction model (paper bottleneck #4).

"Each GPU memory access reads or writes a 128B memory block.  An ideal
regular access pattern achieves coalesced memory access by serving all
32 threads in a CUDA warp with the 128B block" (Section III-B2).  The
simulator therefore decomposes every warp-level access into the set of
distinct aligned 128-byte segments the active lanes touch; each
distinct segment is one transaction.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

from repro.gpu.spec import GPUSpec, TESLA_P40


def transactions_for_addresses(
    addresses: Iterable[int],
    access_bytes: int = 4,
    segment_bytes: int = 128,
) -> int:
    """Number of 128B transactions needed to serve the given accesses.

    ``addresses`` are lane byte addresses; an access of ``access_bytes``
    starting near a segment boundary may straddle two segments.  Every
    segment an access covers is walked, one address at a time; this is
    the reference that :meth:`MemoryModel.access` is checked against.
    """
    segments: Set[int] = set()
    for address in addresses:
        first = address // segment_bytes
        last = (address + max(access_bytes, 1) - 1) // segment_bytes
        segments.update(range(first, last + 1))
    return len(segments)


class MemoryModel:
    """Per-warp transaction accounting against a fixed segment size.

    The GDroid kernels do not track literal device pointers; instead
    each logical region (node records, fact storage, worklist) is given
    a base and an element stride, and lane accesses are expressed as
    element indices.  This mirrors how the real layout determines
    coalescing while staying cheap to evaluate.
    """

    __slots__ = ("spec", "transactions", "wasted_bytes")

    #: Virtual region bases far enough apart that regions never share
    #: a segment.
    REGION_STRIDE = 1 << 40

    def __init__(self, spec: GPUSpec = TESLA_P40) -> None:
        self.spec = spec
        #: Total transactions issued so far.
        self.transactions = 0
        #: Bytes moved minus bytes requested (bandwidth waste metric).
        self.wasted_bytes = 0

    def region_base(self, region: int) -> int:
        """Virtual base address of a logical region."""
        return region * self.REGION_STRIDE

    def access(
        self,
        region: int,
        element_indices: Sequence[int],
        element_bytes: int,
    ) -> int:
        """Issue one warp access: lanes touch the given region elements.

        Returns (and accumulates) the number of transactions.  Lanes
        touching the same element coalesce naturally.
        """
        if not element_indices:
            return 0
        base = self.region_base(region)
        segment_bytes = self.spec.memory_segment_bytes
        if element_bytes <= segment_bytes:
            # An access no wider than a segment touches its first
            # segment and at most the next one: the distinct-segment
            # count is the cardinality of {first} | {last}, with no
            # per-address range walk.
            span = max(element_bytes, 1) - 1
            segments = {
                (base + index * element_bytes) // segment_bytes
                for index in element_indices
            }
            if span:
                segments.update(
                    (base + index * element_bytes + span) // segment_bytes
                    for index in element_indices
                )
            count = len(segments)
        else:
            addresses = [
                base + index * element_bytes for index in element_indices
            ]
            count = transactions_for_addresses(
                addresses, element_bytes, segment_bytes
            )
        self.transactions += count
        useful = len(set(element_indices)) * element_bytes
        moved = count * segment_bytes
        if moved > useful:
            self.wasted_bytes += moved - useful
        return count

    def scattered_access(self, lane_count: int) -> int:
        """Worst-case access: every active lane hits its own segment.

        Used for pointer-chasing structures (the set store's heap
        buckets) whose placement is uncorrelated with lane order.
        """
        if lane_count <= 0:
            return 0
        self.transactions += lane_count
        self.wasted_bytes += lane_count * (
            self.spec.memory_segment_bytes - 4
        )
        return lane_count

    def reset(self) -> None:
        """Clear all accumulated statistics."""
        self.transactions = 0
        self.wasted_bytes = 0

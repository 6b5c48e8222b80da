"""Shared-memory occupancy: how many blocks can an SM actually host.

The paper's P40 has 48 KB of shared memory per SM, and both kernels
keep their worklists in shared memory (Alg. 2 line 4: "local int
current_worklist, next_worklist; // in shared memory").  A block's
shared-memory footprint therefore caps how many blocks fit per SM,
independent of the tuning knob -- the hardware constraint behind the
``max_blocks_per_sm`` clamp in the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.spec import GPUSpec, TESLA_P40

#: Bytes per worklist entry (node id + method id).
WORKLIST_ENTRY_BYTES = 8
#: Fixed per-block shared allocation (counters, sort scratch, locks).
BLOCK_SHARED_OVERHEAD_BYTES = 512


@dataclass(frozen=True)
class OccupancyReport:
    """Shared-memory feasibility of one launch configuration."""

    per_block_shared_bytes: int
    max_resident_blocks: int
    requested_blocks_per_sm: int

    @property
    def feasible(self) -> bool:
        """True when the request fits the SM's shared memory."""
        return self.requested_blocks_per_sm <= self.max_resident_blocks

    @property
    def effective_blocks_per_sm(self) -> int:
        """Residency after the shared-memory cap."""
        return min(self.requested_blocks_per_sm, self.max_resident_blocks)


def block_shared_bytes(
    max_worklist_length: int, use_grp: bool = False
) -> int:
    """Shared memory one block needs for its double-buffered worklists.

    Two worklists (current + next) plus, under GRP, the bitonic sort
    scratch of the same width.
    """
    width = max(1, max_worklist_length)
    buffers = 3 if use_grp else 2
    return BLOCK_SHARED_OVERHEAD_BYTES + buffers * width * WORKLIST_ENTRY_BYTES


def occupancy(
    max_worklist_length: int,
    blocks_per_sm: int,
    spec: GPUSpec = TESLA_P40,
    use_grp: bool = False,
) -> OccupancyReport:
    """Check a launch configuration against the SM's shared memory."""
    per_block = block_shared_bytes(max_worklist_length, use_grp)
    resident = max(1, spec.shared_memory_per_sm_bytes // per_block)
    resident = min(resident, spec.max_blocks_per_sm)
    return OccupancyReport(
        per_block_shared_bytes=per_block,
        max_resident_blocks=resident,
        requested_blocks_per_sm=blocks_per_sm,
    )

"""Functional SIMT GPU simulator (the Tesla P40 substitute).

No physical GPU is available to this reproduction, so the paper's
hardware is replaced by a simulator that *executes the real analysis*
while charging cycles according to the published micro-architectural
rules the paper's four bottlenecks are built on:

* :mod:`repro.gpu.spec` -- the machine description (P40: 30 SMs, 128
  cores/SM, 24 GB, 48 KB shared memory per SM) and the calibrated cost
  table.
* :mod:`repro.gpu.memory` -- 128-byte coalesced memory transactions.
* :mod:`repro.gpu.warp` -- warp formation and branch-divergence
  serialization (one execution pass per distinct branch class).
* :mod:`repro.gpu.allocator` -- the device heap whose dynamic
  reallocation stalls are bottleneck #1.
* :mod:`repro.gpu.transfer` -- the PCIe engine with dual-buffered
  stream overlap (paper Section III-A1).
* :mod:`repro.gpu.kernel` -- thread-block scheduling across SMs and
  kernel-level cycle aggregation.
* :mod:`repro.gpu.sim` -- the device facade the GDroid kernels run on.

Because the analysis is functionally executed (facts are really
computed), simulator output is verified against the sequential oracle;
the cycle accounting then yields *modeled* times whose ratios -- not
absolute values -- are the reproduction targets.
"""

from repro.gpu.allocator import DeviceAllocator
from repro.gpu.counters import KernelCounters, kernel_counters, run_counters
from repro.gpu.occupancy import OccupancyReport, block_shared_bytes, occupancy
from repro.gpu.kernel import BlockCost, KernelCost, schedule_blocks
from repro.gpu.memory import MemoryModel, transactions_for_addresses
from repro.gpu.sim import GPUDevice
from repro.gpu.spec import CostTable, GPUSpec, TESLA_P40
from repro.gpu.timeline import kernel_timeline_events
from repro.gpu.transfer import DualBufferSchedule, TransferEngine
from repro.gpu.warp import WarpExecution, execute_warp

__all__ = [
    "BlockCost",
    "CostTable",
    "DeviceAllocator",
    "DualBufferSchedule",
    "GPUDevice",
    "GPUSpec",
    "KernelCost",
    "KernelCounters",
    "OccupancyReport",
    "MemoryModel",
    "TESLA_P40",
    "TransferEngine",
    "WarpExecution",
    "block_shared_bytes",
    "execute_warp",
    "kernel_counters",
    "occupancy",
    "run_counters",
    "kernel_timeline_events",
    "schedule_blocks",
    "transactions_for_addresses",
]

"""The optimized GDroid kernel (paper Alg. 3).

Prices a block trace with the configured subset of the three
optimizations:

* **MAT** swaps the set-based store for the fixed bit matrix: no
  dynamic reallocation stalls, entry lookups instead of set scans, and
  row-structured (coalescible) fact accesses.
* **GRP** switches warp branch classes from the 25 statement/
  expression types to the 3 access-pattern groups, partially sorts
  each worklist so warps are group-homogeneous, and uses the
  group-contiguous storage layout -- at the price of the per-iteration
  sort.
* **MER** is a *dynamics* change, so it selects the merging trace
  recorded by the block runner (head-list processing, postponed tails,
  deduplicated merges).

The MER trace requirement is checked here: pricing a MER configuration
against a block whose merging dynamics were not recorded is an error
rather than a silent fallback.
"""

from __future__ import annotations

from repro.core.blockexec import BlockResult
from repro.core.config import GDroidConfig
from repro.core.costing import price_block
from repro.core.trace import BlockTrace
from repro.gpu.kernel import BlockCost


def select_trace(result: BlockResult, config: GDroidConfig) -> BlockTrace:
    """The dynamics trace a configuration executes."""
    if config.use_mer:
        if result.trace_mer is None:
            raise ValueError(
                f"block {result.assignment.block_id}: MER trace was not "
                "recorded; build the workload with record_mer=True"
            )
        return result.trace_mer
    return result.trace_sync


def price_gdroid_block(result: BlockResult, config: GDroidConfig) -> BlockCost:
    """Price one block under an (optionally partial) GDroid config."""
    return price_block(select_trace(result, config), config, result.fact_counts)

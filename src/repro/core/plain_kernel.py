"""The plain GPU kernel (paper Alg. 2).

The plain implementation uses only generic techniques -- dual-buffered
transfers and two-level parallelization -- on top of a direct port of
the CPU worklist algorithm:

* set-based per-node fact stores on the device heap (dynamic
  reallocation on overflow);
* 25-way statement/expression-type branching inside the kernel;
* every iteration processes the whole current worklist, duplicate
  entries included;
* no worklist sorting, no tail postponement.

Functionally this is :class:`repro.core.blockexec.BlockRunner`'s
synchronous dynamics; this module prices that trace with every
optimization disabled.
"""

from __future__ import annotations

from repro.core.blockexec import BlockResult
from repro.core.config import GDroidConfig
from repro.core.costing import price_block
from repro.gpu.kernel import BlockCost


def price_plain_block(
    result: BlockResult, config: GDroidConfig
) -> BlockCost:
    """Price one block under the plain implementation.

    ``config`` supplies spec/costs/tuning; its optimization flags are
    ignored (forced off).
    """
    plain = GDroidConfig.plain(
        tuning=config.tuning, spec=config.spec, costs=config.costs
    )
    return price_block(result.trace_sync, plain, result.fact_counts)

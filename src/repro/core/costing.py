"""Shared trace-pricing machinery for the kernel cost adapters.

Given block traces and a :class:`repro.core.config.GDroidConfig`,
:func:`price_traces` replays the traces against the GPU simulator's
cost rules and returns one :class:`repro.gpu.kernel.BlockCost` per
block.  The four bottlenecks map to four cost channels:

1. *dynamic allocation* -- set-store configurations charge a
   serialized reallocation stall for every capacity doubling a node's
   fact set needs; MAT configurations never do.
2. *branch divergence* -- warp branch classes are the 25 statement/
   expression classes, or the 3 access-pattern groups under GRP (with
   the worklist partially sorted so same-group nodes share warps).
3. *load imbalance* -- every warp, full or nearly empty, pays the
   fixed warp-issue cost; partial tail warps are pure overhead that
   MER's trace no longer contains.
4. *memory irregularity* -- node-record and fact-storage accesses go
   through the coalescing model; GRP's group-contiguous layout gives
   neighbouring lanes neighbouring addresses.

Two implementations price a trace.  :func:`_price_block_scalar` is the
seed's replay: one :class:`LaneWork` per visit through
:func:`repro.gpu.warp.execute_warp`; it is the oracle.  The default
pass prices every block of a workload at once with numpy, one slice of
whole iterations at a time (see :func:`_price_columns`), and is
bit-identical to the oracle wherever it runs (:func:`_vectorized_exact`).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.config import GDroidConfig
from repro.core.trace import BlockTrace, TraceColumns
from repro.gpu.kernel import BlockCost
from repro.gpu.memory import MemoryModel
from repro.gpu.spec import CostTable
from repro.gpu.warp import LaneWork, REGION_FACTS, execute_warp, form_warps

#: Modeled bytes per fact-matrix row touched per visit (a handful of
#: 64-bit mask words); rows of neighbouring nodes are adjacent, so
#: lanes on neighbouring nodes coalesce.
MAT_ROW_BYTES = 32

#: Most visits the vectorized pass prices in one step.  Slices are cut
#: at iteration boundaries (only an iteration longer than this is priced
#: alone), so they bound the pass's temporaries without changing any
#: warp: no warp spans two iterations.
SLICE_VISITS = 4096

#: Every cycle constant the per-block channels charge.  When all are
#: whole numbers, every channel is a sum of whole numbers (far below
#: 2**53), which float64 adds exactly in any order.
_BLOCK_CYCLE_CONSTANTS = (
    "node_issue_cycles",
    "mat_lookup_cycles",
    "set_scan_cycles_per_entry",
    "set_insert_cycles",
    "dynamic_alloc_cycles",
    "divergence_pass_cycles",
    "warp_base_cycles",
    "memory_transaction_cycles",
    "sort_cycles_per_element",
    "iteration_sync_cycles",
    "worklist_op_cycles",
    "merge_op_cycles",
)

#: The set-based fact store (the original Amandroid data structure)
#: keeps one dynamically sized set per ICFG node.  Its exact size
#: cannot be foreknown, so each set gets a small pre-allocated capacity
#: on the device and is reallocated whenever an insertion overflows it
#: -- the paper's #1 bottleneck.  Initial per-set capacity (number of
#: fact entries), and the growth factor used on overflow:
INITIAL_CAPACITY = 8
GROWTH_FACTOR = 2

#: Device bytes per stored fact entry: an 8-byte packed (slot, instance)
#: key plus hash-bucket overhead comparable to a load-factor-0.5 open
#: addressing table.
BYTES_PER_ENTRY = 40
#: Fixed per-set header (size, capacity, pointer).
SET_HEADER_BYTES = 32


def set_capacity(size: int) -> Tuple[int, int]:
    """``(reallocations, capacity)`` of a set store that grew to ``size``.

    Capacity starts at :data:`INITIAL_CAPACITY` and doubles
    (:data:`GROWTH_FACTOR`) whenever an insert overflows it.  A node's fact
    set only grows, so both numbers depend on its final size alone:
    the doublings to reach ``size`` are the bit length of
    ``ceil(size / INITIAL_CAPACITY) - 1``.
    """
    if size <= INITIAL_CAPACITY:
        return 0, INITIAL_CAPACITY
    doublings = ((size - 1) // INITIAL_CAPACITY).bit_length()
    return doublings, INITIAL_CAPACITY << doublings


def _reallocations(fact_counts: Sequence[int]) -> int:
    """Capacity doublings the set store pays over one block's nodes."""
    return sum(set_capacity(size)[0] for size in fact_counts)


def _lane_for_visit(
    trace: BlockTrace, visit: int, config: GDroidConfig
) -> LaneWork:
    """Translate one trace visit into the warp lane descriptor."""
    costs = config.costs
    arrays = trace.node_arrays
    node = trace.nodes[visit]
    group = arrays.group[node]
    successors = arrays.successors[node]
    in_size = trace.in_sizes[visit]
    out_size = trace.out_sizes[visit]
    new_total = trace.new_facts[visit]

    if config.use_grp:
        branch = str(group)
        storage = arrays.grouped_position[node]
        position = arrays.grouped_position.__getitem__
    else:
        branch = str(arrays.branch_class[node])
        storage = node

        def position(node: int) -> int:
            return node

    if config.use_mat:
        # Entry lookups in the fixed matrix: compute OUT, then flip the
        # bits that changed.  One-time generators do their constant GEN
        # only on the first visit.
        first_visit = trace.first_visits[visit]
        gen_work = out_size if (group != 0 or first_visit) else 0
        compute = costs.node_issue_cycles + costs.mat_lookup_cycles * (
            gen_work + new_total
        )
        fact_elements = [storage] + [position(successor) for successor in successors]
        fact_accesses = tuple(
            (REGION_FACTS, element, MAT_ROW_BYTES) for element in fact_elements
        )
        return LaneWork(
            branch_class=branch,
            compute_cycles=compute,
            node_element=storage,
            fact_accesses=fact_accesses,
            scattered_accesses=0,
        )

    # Set-based store: scan the node's set, build OUT, then insert into
    # each successor's set -- pointer-chasing structures whose buckets
    # land in unrelated segments.
    compute = (
        costs.node_issue_cycles
        + costs.set_scan_cycles_per_entry
        * (in_size + out_size * max(len(successors), 1))
        + costs.set_insert_cycles * new_total
    )
    touched = in_size + new_total
    scattered = 1 + (touched + 3) // 4
    return LaneWork(
        branch_class=branch,
        compute_cycles=compute,
        node_element=storage,
        scattered_accesses=scattered,
    )


def _sort_cycles(costs: CostTable, n: int) -> float:
    """Partial bitonic sort of the worklist (GRP's per-iteration fee).

    Bitonic networks run at power-of-two widths with a minimum tile of
    half a warp, so short worklists still pay a fixed-size network --
    which is exactly why GRP degrades the small-worklist apps the paper
    calls out in Fig. 11.
    """
    if n <= 1:
        return 0.0
    width = max(n, 12)
    passes = max(1, (width - 1).bit_length())
    return costs.sort_cycles_per_element * width * passes


def price_block(
    trace: BlockTrace, config: GDroidConfig, fact_counts: Sequence[int]
) -> BlockCost:
    """Price one block's trace under ``config``; see module docstring.

    ``fact_counts`` holds each block node's fixed-point fact count
    (:attr:`repro.core.blockexec.BlockResult.fact_counts`).
    """
    return price_traces(TraceColumns((trace,), (fact_counts,)), config)[0]


def price_traces(columns: TraceColumns, config: GDroidConfig) -> List[BlockCost]:
    """Price every block of ``columns`` under ``config``, in block order.

    Takes the vectorized pass, and hands a spec or cost table it
    cannot price exactly (:func:`_vectorized_exact`) to the seed's
    per-visit replay, so every config prices bit for bit as the replay
    would.
    """
    if _vectorized_exact(config):
        return _price_columns(columns, config)
    return [
        _price_block_scalar(trace, config, counts)
        for trace, counts in zip(columns.traces, columns.fact_counts)
    ]


def _vectorized_exact(config: GDroidConfig) -> bool:
    """True when :func:`_price_columns` equals the scalar replay.

    Accesses are aligned to their size.  When the size divides the
    segment size -- 64-byte records and 32-byte MAT rows in 128-byte
    segments -- no access straddles two segments, so each access is one
    segment.  And every channel sums whole numbers when every cycle
    constant is whole, so the pass may add them in any order.
    """
    costs = config.costs
    segment_bytes = config.spec.memory_segment_bytes
    record_bytes = costs.node_record_bytes
    if (
        record_bytes < 1
        or segment_bytes % record_bytes
        or segment_bytes % MAT_ROW_BYTES
        or MemoryModel.REGION_STRIDE % segment_bytes
    ):
        return False
    return all(
        float(getattr(costs, name)).is_integer() for name in _BLOCK_CYCLE_CONSTANTS
    )


def _slices(iteration_visits: np.ndarray) -> Iterator[Tuple[int, int, int, int]]:
    """``(first visit, end visit, first iteration, end iteration)`` of
    each run of whole iterations holding at most :data:`SLICE_VISITS`
    visits (or one longer iteration)."""
    ends = np.cumsum(iteration_visits, dtype=np.int64)
    iterations = len(ends)
    first_iteration = first_visit = 0
    while first_iteration < iterations:
        end_iteration = int(
            np.searchsorted(ends, first_visit + SLICE_VISITS, side="right")
        )
        end_iteration = max(end_iteration, first_iteration + 1)
        end_visit = int(ends[end_iteration - 1])
        yield first_visit, end_visit, first_iteration, end_iteration
        first_iteration, first_visit = end_iteration, end_visit


def _distinct_per_key(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The key of every distinct ``(key, value)`` pair, ascending."""
    span = int(values.max()) + 1
    pairs = np.sort(keys * span + values)
    distinct = np.ones(len(pairs), dtype=bool)
    distinct[1:] = pairs[1:] != pairs[:-1]
    return pairs[distinct] // span


def _price_columns(columns: TraceColumns, config: GDroidConfig) -> List[BlockCost]:
    """The vectorized pass: every block of ``columns`` in one sweep.

    Per-block channels are built from counts: a warp pays its base cost
    and ``warp_size - lanes`` idle lanes, a block's divergence is its
    distinct (warp, branch class) pairs minus its warps, its memory its
    distinct (warp, segment) pairs plus scattered accesses.  Only the
    compute channel needs per-visit values: the largest per (warp,
    branch class), summed.
    """
    costs = config.costs
    spec = config.spec
    warp_size = spec.warp_size
    use_mat = config.use_mat
    use_grp = config.use_grp
    blocks = len(columns.traces)

    node_issue = int(costs.node_issue_cycles)
    if use_grp:
        branch_of, position_of = columns.group, columns.grouped_position
    else:
        branch_of, position_of = columns.branch_class, columns.local_position
    classes = int(branch_of.max()) + 1 if len(branch_of) else 1
    record_segment_of = position_of // (
        spec.memory_segment_bytes // costs.node_record_bytes
    )
    if use_mat:
        element_segment = position_of[columns.elements] // (
            spec.memory_segment_bytes // MAT_ROW_BYTES
        )
        generates_always = columns.group != 0
        mat_lookup = int(costs.mat_lookup_cycles)
    else:
        set_scan = int(costs.set_scan_cycles_per_entry)
        set_insert = int(costs.set_insert_cycles)

    # -- per iteration: warps, sort fees, worklist management ------------------
    iteration_visits = columns.iteration_visits.astype(np.int64)
    iteration_block = columns.iteration_block
    iteration_warps = (iteration_visits + warp_size - 1) // warp_size
    warps = np.bincount(iteration_block, iteration_warps, minlength=blocks)
    merged = np.bincount(iteration_block, columns.iteration_merged, minlength=blocks)
    sort_fees = np.zeros(blocks)
    if use_grp:
        worklist = columns.iteration_worklist.astype(np.int64)
        width = np.maximum(worklist, 12)
        passes = np.maximum(np.frexp((width - 1).astype(np.float64))[1], 1)
        fees = np.where(
            worklist > 1, costs.sort_cycles_per_element * width * passes, 0.0
        )
        sort_fees = np.bincount(iteration_block, fees, minlength=blocks)

    # -- per visit, one slice of whole iterations at a time -------------------
    compute = np.zeros(blocks)
    class_passes = np.zeros(blocks)
    transactions = np.zeros(blocks)
    for first, end, first_iteration, end_iteration in _slices(iteration_visits):
        visits = iteration_visits[first_iteration:end_iteration]
        slice_warps = iteration_warps[first_iteration:end_iteration]
        iteration = np.repeat(np.arange(len(visits)), visits)
        lane = np.arange(end - first) - (np.cumsum(visits) - visits)[iteration]
        warp = (np.cumsum(slice_warps) - slice_warps)[iteration] + lane // warp_size
        warp_block = np.repeat(
            iteration_block[first_iteration:end_iteration], slice_warps
        )

        node = columns.node[first:end]
        in_size = columns.in_size[first:end]
        out_size = columns.out_size[first:end]
        new_facts = columns.new_facts[first:end]
        first_visit = columns.first_visit[first:end]
        if use_grp:
            # GRP's partial sort: group order within each iteration,
            # ties kept in worklist order.
            order = np.lexsort((columns.group[node], iteration))
            node = node[order]
            in_size = in_size[order]
            out_size = out_size[order]
            new_facts = new_facts[order]
            first_visit = first_visit[order]

        if use_mat:
            gen_work = np.where(generates_always[node] | first_visit, out_size, 0)
            lane_compute = node_issue + mat_lookup * (
                gen_work.astype(np.int64) + new_facts
            )
            # Fact rows: the node's own and each successor's.
            starts = columns.elements_start[node]
            counts = columns.elements_start[node + 1] - starts
            gather = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            gather += np.arange(len(gather))
            fact_warps = _distinct_per_key(
                np.repeat(warp, counts), element_segment[gather]
            )
            transactions += np.bincount(warp_block[fact_warps], minlength=blocks)
        else:
            in_size = in_size.astype(np.int64)
            successors = np.maximum(columns.successor_count[node], 1)
            lane_compute = (
                node_issue
                + set_scan * (in_size + out_size.astype(np.int64) * successors)
                + set_insert * new_facts.astype(np.int64)
            )
            scattered = 1 + (in_size + new_facts + 3) // 4
            transactions += np.bincount(
                warp_block[warp], scattered, minlength=blocks
            )
        record_warps = _distinct_per_key(warp, record_segment_of[node])
        transactions += np.bincount(warp_block[record_warps], minlength=blocks)

        # A warp runs one pass per branch class, as long as its
        # costliest lane of that class.
        keys = warp * classes + branch_of[node]
        order = np.lexsort((lane_compute, keys))
        keys = keys[order]
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        pass_block = warp_block[keys[last] // classes]
        compute += np.bincount(pass_block, lane_compute[order][last], minlength=blocks)
        class_passes += np.bincount(pass_block, minlength=blocks)

    block_visits = columns.block_visits
    costs_out: List[BlockCost] = []
    for index, trace in enumerate(columns.traces):
        visits = int(block_visits[index])
        block_warps = int(warps[index])
        compute_cycles = float(compute[index])
        divergence_cycles = (
            int(class_passes[index]) - block_warps
        ) * costs.divergence_pass_cycles
        memory_cycles = int(transactions[index]) * costs.memory_transaction_cycles
        alloc_stall_cycles = (
            0.0
            if use_mat
            else _reallocations(columns.fact_counts[index])
            * costs.dynamic_alloc_cycles
        )
        sort_cycles = float(sort_fees[index])
        sync_cycles = (
            trace.iteration_count * costs.iteration_sync_cycles
            + visits * costs.worklist_op_cycles
        )
        if config.use_mer:
            sync_cycles += int(merged[index]) * costs.merge_op_cycles
        idle_lane_cycles = (block_warps * warp_size - visits) * costs.node_issue_cycles
        warp_cycles = block_warps * costs.warp_base_cycles
        costs_out.append(
            _block_cost(
                trace,
                visits,
                compute_cycles,
                divergence_cycles,
                memory_cycles,
                alloc_stall_cycles,
                sort_cycles,
                sync_cycles,
                idle_lane_cycles,
                warp_cycles,
            )
        )
    return costs_out


def _block_cost(
    trace: BlockTrace,
    visits: int,
    compute_cycles: float,
    divergence_cycles: float,
    memory_cycles: float,
    alloc_stall_cycles: float,
    sort_cycles: float,
    sync_cycles: float,
    idle_lane_cycles: float,
    warp_cycles: float,
) -> BlockCost:
    """One block's channels, charged once per summary round."""
    rounds = max(1, trace.summary_rounds)
    factor = float(rounds)
    total = (
        compute_cycles
        + divergence_cycles
        + memory_cycles
        + alloc_stall_cycles
        + sort_cycles
        + sync_cycles
        + warp_cycles
    ) * factor
    return BlockCost(
        block_id=trace.block_id,
        cycles=total,
        iterations=trace.iteration_count * rounds,
        node_visits=visits * rounds,
        compute_cycles=compute_cycles * factor,
        divergence_cycles=divergence_cycles * factor,
        memory_cycles=memory_cycles * factor,
        alloc_stall_cycles=alloc_stall_cycles * factor,
        sort_cycles=sort_cycles * factor,
        sync_cycles=(sync_cycles + warp_cycles) * factor,
        idle_lane_cycles=idle_lane_cycles * factor,
    )


def _price_block_scalar(
    trace: BlockTrace, config: GDroidConfig, fact_counts: Sequence[int]
) -> BlockCost:
    """The seed's per-visit lane descriptor replay (baseline / oracle)."""
    costs = config.costs
    memory = MemoryModel(config.spec)
    warp_size = config.spec.warp_size
    group = trace.node_arrays.group
    nodes = trace.nodes

    compute_cycles = 0.0
    divergence_cycles = 0.0
    memory_cycles = 0.0
    alloc_stall_cycles = 0.0
    sort_cycles = 0.0
    sync_cycles = 0.0
    idle_lane_cycles = 0.0
    warp_cycles = 0.0

    if not config.use_mat:
        alloc_stall_cycles += _reallocations(fact_counts) * costs.dynamic_alloc_cycles

    for (start, stop), worklist_size, merged in zip(
        trace.iteration_bounds(), trace.iteration_worklist, trace.iteration_merged
    ):
        visits: Sequence[int] = range(start, stop)
        if config.use_grp:
            visits = sorted(visits, key=lambda visit: group[nodes[visit]])
            sort_cycles += _sort_cycles(costs, worklist_size)

        lanes = [_lane_for_visit(trace, visit, config) for visit in visits]
        for warp in form_warps(lanes, warp_size):
            execution = execute_warp(warp, costs, memory)
            compute_cycles += execution.compute_cycles
            divergence_cycles += execution.divergence_cycles
            memory_cycles += execution.memory_cycles
            warp_cycles += costs.warp_base_cycles
            idle_lane_cycles += (
                (warp_size - execution.active_lanes) * costs.node_issue_cycles
            )

        sync_cycles += (
            costs.iteration_sync_cycles
            + costs.worklist_op_cycles * len(visits)
        )
        if config.use_mer and merged:
            sync_cycles += costs.merge_op_cycles * merged

    return _block_cost(
        trace,
        trace.visit_count,
        compute_cycles,
        divergence_cycles,
        memory_cycles,
        alloc_stall_cycles,
        sort_cycles,
        sync_cycles,
        idle_lane_cycles,
        warp_cycles,
    )


def set_store_bytes(fact_counts: Sequence[int]) -> int:
    """Final set-store footprint of one block (Fig. 10, set side).

    ``fact_counts`` holds each block node's fixed-point fact count.
    """
    total = len(fact_counts) * SET_HEADER_BYTES
    for size in fact_counts:
        total += set_capacity(size)[1] * BYTES_PER_ENTRY
    return total

"""Shared trace-pricing machinery for the kernel cost adapters.

Given a :class:`repro.core.trace.BlockTrace` and a
:class:`repro.core.config.GDroidConfig`, :func:`price_block` replays
the trace against the GPU simulator's cost rules and returns a
:class:`repro.gpu.kernel.BlockCost`.  The four bottlenecks map to four
cost channels:

1. *dynamic allocation* -- set-store configurations replay each
   iteration's fact-set growth through the capacity-doubling model and
   charge serialized reallocation stalls; MAT configurations never do.
2. *branch divergence* -- warp branch classes are the 25 statement/
   expression classes, or the 3 access-pattern groups under GRP (with
   the worklist partially sorted so same-group nodes share warps).
3. *load imbalance* -- every warp, full or nearly empty, pays the
   fixed warp-issue cost; partial tail warps are pure overhead that
   MER's trace no longer contains.
4. *memory irregularity* -- node-record and fact-storage accesses go
   through the coalescing model; GRP's group-contiguous layout gives
   neighbouring lanes neighbouring addresses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.config import GDroidConfig
from repro.core.trace import BlockTrace, NodeMeta, VisitRecord
from repro.dataflow.lattice import GROWTH_FACTOR, INITIAL_CAPACITY
from repro.gpu.kernel import BlockCost
from repro.gpu.memory import MemoryModel
from repro.gpu.spec import CostTable
from repro.gpu.warp import LaneWork, REGION_FACTS, execute_warp, form_warps
from repro.perf import host_perf_enabled

#: Modeled bytes per fact-matrix row touched per visit (a handful of
#: 64-bit mask words); rows of neighbouring nodes are adjacent, so
#: lanes on neighbouring nodes coalesce.
MAT_ROW_BYTES = 32


def _lane_for_visit(
    visit: VisitRecord,
    all_meta: Sequence[NodeMeta],
    config: GDroidConfig,
) -> LaneWork:
    """Translate one trace visit into the warp lane descriptor."""
    costs = config.costs
    meta = all_meta[visit.node]
    new_total = sum(visit.new_facts)

    if config.use_grp:
        branch = str(meta.group)
        storage = meta.grouped_position

        def position(node: int) -> int:
            return all_meta[node].grouped_position

    else:
        branch = str(meta.branch_class)
        storage = meta.node

        def position(node: int) -> int:
            return node

    if config.use_mat:
        # Entry lookups in the fixed matrix: compute OUT, then flip the
        # bits that changed.  One-time generators do their constant GEN
        # only on the first visit.
        gen_work = visit.out_size if (meta.group != 0 or visit.first_visit) else 0
        compute = costs.node_issue_cycles + costs.mat_lookup_cycles * (
            gen_work + new_total
        )
        fact_elements = [storage] + [
            position(successor) for successor in meta.successors
        ]
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
        * (visit.in_size + visit.out_size * max(len(visit.new_facts), 1))
        + costs.set_insert_cycles * new_total
    )
    touched = visit.in_size + new_total
    scattered = 1 + (touched + 3) // 4
    return LaneWork(
        branch_class=branch,
        compute_cycles=compute,
        node_element=storage,
        scattered_accesses=scattered,
    )


class _SetCapacityModel:
    """Replays fact-set growth through capacity doubling (bottleneck 1)."""

    __slots__ = ("capacities",)

    def __init__(self) -> None:
        self.capacities: Dict[int, int] = {}

    def grow_to(self, node: int, size: int) -> int:
        """Returns the number of reallocations this growth triggered."""
        capacity = self.capacities.get(node, INITIAL_CAPACITY)
        events = 0
        while size > capacity:
            capacity *= GROWTH_FACTOR
            events += 1
        if events:
            self.capacities[node] = capacity
        elif node not in self.capacities:
            self.capacities[node] = capacity
        return events


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
    trace: BlockTrace,
    config: GDroidConfig,
    seed_sizes: Sequence[Tuple[int, int]] = (),
) -> BlockCost:
    """Price one block's trace under ``config``; see module docstring.

    Dispatches between the fused replay loop (per-node lane data
    precomputed once per trace, transaction segments counted inline)
    and the seed's per-visit :class:`LaneWork` /
    :func:`repro.gpu.warp.execute_warp` path.  Both produce identical
    cycle counts -- the fast path replicates the scalar accumulation
    order so even the float sums match bit for bit.
    """
    if host_perf_enabled():
        return _price_block_fast(trace, config, seed_sizes)
    return _price_block_scalar(trace, config, seed_sizes)


def _price_block_fast(
    trace: BlockTrace,
    config: GDroidConfig,
    seed_sizes: Sequence[Tuple[int, int]] = (),
) -> BlockCost:
    """Fused trace replay: one pass, no per-lane descriptor objects."""
    costs = config.costs
    spec = config.spec
    warp_size = spec.warp_size
    segment_bytes = spec.memory_segment_bytes
    meta = trace.node_meta
    use_mat = config.use_mat
    use_grp = config.use_grp

    # Accesses are aligned to their size.  When the size divides the
    # segment size -- 64-byte records and 32-byte MAT rows in 128-byte
    # segments -- no access straddles two segments, so each access is
    # one segment, resolved once per node instead of once per visit.
    record_bytes = costs.node_record_bytes
    if (
        record_bytes < 1
        or segment_bytes % record_bytes
        or segment_bytes % MAT_ROW_BYTES
        or MemoryModel.REGION_STRIDE % segment_bytes
    ):  # pragma: no cover - exotic spec; exactness over speed
        return _price_block_scalar(trace, config, seed_sizes)

    # -- per-node lane data, hoisted out of the per-visit loop ----------------
    if use_grp:
        branch_of = [str(m.group) for m in meta]
        storage_of = [m.grouped_position for m in meta]
    else:
        branch_of = [str(m.branch_class) for m in meta]
        storage_of = [m.node for m in meta]
    records_per_segment = segment_bytes // record_bytes
    record_segment_of = [storage // records_per_segment for storage in storage_of]
    if use_mat:
        rows_per_segment = segment_bytes // MAT_ROW_BYTES
        fact_segments_of = [
            {
                storage_of[element] // rows_per_segment
                for element in (m.node, *m.successors)
            }
            for m in meta
        ]
        generates_always = [m.group != 0 for m in meta]

    node_issue = costs.node_issue_cycles
    mat_lookup = costs.mat_lookup_cycles
    set_scan = costs.set_scan_cycles_per_entry
    set_insert = costs.set_insert_cycles
    transaction_cycles = costs.memory_transaction_cycles
    divergence_pass = costs.divergence_pass_cycles

    compute_cycles = 0.0
    divergence_cycles = 0.0
    memory_cycles = 0.0
    alloc_stall_cycles = 0.0
    sort_cycles = 0.0
    sync_cycles = 0.0
    idle_lane_cycles = 0.0
    warp_cycles = 0.0
    total_visits = 0

    capacity_model = _SetCapacityModel()
    if not use_mat:
        seed_events = 0
        for node, size in seed_sizes:
            seed_events += capacity_model.grow_to(node, size)
        alloc_stall_cycles += seed_events * costs.dynamic_alloc_cycles

    for iteration in trace.iterations:
        visits: Sequence[VisitRecord] = iteration.visits
        total_visits += len(visits)
        if use_grp:
            visits = sorted(visits, key=lambda v: meta[v.node].group)
            sort_cycles += _sort_cycles(costs, iteration.worklist_size)

        for start in range(0, len(visits), warp_size):
            chunk = visits[start : start + warp_size]
            by_class: Dict[str, float] = {}
            scattered = 0
            record_segments = set()
            fact_segments = set()
            for visit in chunk:
                node = visit.node
                new_total = sum(visit.new_facts)
                if use_mat:
                    gen_work = (
                        visit.out_size
                        if (generates_always[node] or visit.first_visit)
                        else 0
                    )
                    compute = node_issue + mat_lookup * (gen_work + new_total)
                    fact_segments.update(fact_segments_of[node])
                else:
                    compute = (
                        node_issue
                        + set_scan
                        * (
                            visit.in_size
                            + visit.out_size * max(len(visit.new_facts), 1)
                        )
                        + set_insert * new_total
                    )
                    scattered += 1 + (visit.in_size + new_total + 3) // 4
                branch = branch_of[node]
                current = by_class.get(branch)
                if current is None or compute > current:
                    by_class[branch] = compute
                record_segments.add(record_segment_of[node])

            compute_cycles += sum(by_class.values())
            divergence_cycles += (len(by_class) - 1) * divergence_pass
            transactions = len(record_segments) + len(fact_segments) + scattered
            memory_cycles += transactions * transaction_cycles
            warp_cycles += costs.warp_base_cycles
            idle_lane_cycles += (warp_size - len(chunk)) * node_issue

        if not use_mat:
            events = 0
            for node, size in iteration.growth:
                events += capacity_model.grow_to(node, size)
            alloc_stall_cycles += events * costs.dynamic_alloc_cycles

        sync_cycles += (
            costs.iteration_sync_cycles
            + costs.worklist_op_cycles * len(visits)
        )
        if config.use_mer and iteration.merged:
            sync_cycles += costs.merge_op_cycles * iteration.merged

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
        node_visits=total_visits * rounds,
        compute_cycles=compute_cycles * factor,
        divergence_cycles=divergence_cycles * factor,
        memory_cycles=memory_cycles * factor,
        alloc_stall_cycles=alloc_stall_cycles * factor,
        sort_cycles=sort_cycles * factor,
        sync_cycles=(sync_cycles + warp_cycles) * factor,
        idle_lane_cycles=idle_lane_cycles * factor,
    )


def _price_block_scalar(
    trace: BlockTrace,
    config: GDroidConfig,
    seed_sizes: Sequence[Tuple[int, int]] = (),
) -> BlockCost:
    """The seed's per-visit lane descriptor replay (baseline)."""
    costs = config.costs
    memory = MemoryModel(config.spec)
    warp_size = config.spec.warp_size
    meta = trace.node_meta

    compute_cycles = 0.0
    divergence_cycles = 0.0
    memory_cycles = 0.0
    alloc_stall_cycles = 0.0
    sort_cycles = 0.0
    sync_cycles = 0.0
    idle_lane_cycles = 0.0
    warp_cycles = 0.0
    total_visits = 0

    capacity_model = _SetCapacityModel()
    if not config.use_mat:
        # Seeding the entry fact sets before the first iteration may
        # already overflow the pre-allocated capacity.
        seed_events = 0
        for node, size in seed_sizes:
            seed_events += capacity_model.grow_to(node, size)
        alloc_stall_cycles += seed_events * costs.dynamic_alloc_cycles

    for iteration in trace.iterations:
        visits: Sequence[VisitRecord] = iteration.visits
        total_visits += len(visits)
        if config.use_grp:
            visits = sorted(visits, key=lambda v: meta[v.node].group)
            sort_cycles += _sort_cycles(costs, iteration.worklist_size)

        lanes = [_lane_for_visit(v, meta, config) for v in visits]
        for warp in form_warps(lanes, warp_size):
            execution = execute_warp(warp, costs, memory)
            compute_cycles += execution.compute_cycles
            divergence_cycles += execution.divergence_cycles
            memory_cycles += execution.memory_cycles
            warp_cycles += costs.warp_base_cycles
            idle_lane_cycles += (
                (warp_size - execution.active_lanes) * costs.node_issue_cycles
            )

        if not config.use_mat:
            events = 0
            for node, size in iteration.growth:
                events += capacity_model.grow_to(node, size)
            alloc_stall_cycles += events * costs.dynamic_alloc_cycles

        sync_cycles += (
            costs.iteration_sync_cycles
            + costs.worklist_op_cycles * len(visits)
        )
        if config.use_mer and iteration.merged:
            sync_cycles += costs.merge_op_cycles * iteration.merged

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
        node_visits=total_visits * rounds,
        compute_cycles=compute_cycles * factor,
        divergence_cycles=divergence_cycles * factor,
        memory_cycles=memory_cycles * factor,
        alloc_stall_cycles=alloc_stall_cycles * factor,
        sort_cycles=sort_cycles * factor,
        sync_cycles=(sync_cycles + warp_cycles) * factor,
        idle_lane_cycles=idle_lane_cycles * factor,
    )


def set_store_bytes(
    trace: BlockTrace, seed_sizes: Sequence[Tuple[int, int]]
) -> int:
    """Final set-store footprint of one block (Fig. 10, set side)."""
    from repro.dataflow.lattice import BYTES_PER_ENTRY, SET_HEADER_BYTES

    capacity_model = _SetCapacityModel()
    for node, size in seed_sizes:
        capacity_model.grow_to(node, size)
    for iteration in trace.iterations:
        for node, size in iteration.growth:
            capacity_model.grow_to(node, size)
    total = trace.node_count * SET_HEADER_BYTES
    for node in range(trace.node_count):
        capacity = capacity_model.capacities.get(node, INITIAL_CAPACITY)
        total += capacity * BYTES_PER_ENTRY
    return total

"""Execution traces shared by the runner and the cost adapters.

The functional block runner (:mod:`repro.core.blockexec`) executes the
worklist dynamics once per dynamics variant and records *traces*; the
kernel cost adapters then price the same trace under different
configurations (set vs matrix store, 25-way vs 3-way branching, ...).
This split keeps multi-configuration benchmarks cheap: the expensive
functional fixed point runs once, the cycle accounting -- which is
what differs between configurations -- replays the trace.

A trace is columnar, as the kernel keeps each node's facts in a
fixed-size row: typed :class:`array.array` columns with one entry per
visit and one per iteration, and no object per visit.  Pricing reads
a visit's |IN|, |OUT|, first-visit flag and the new facts summed over
its successors; the per-successor split is never needed, because the
only other thing the cost rules read from it is its length, the
node's successor count.  :class:`TraceColumns` concatenates the traces
of a whole workload into numpy arrays for the vectorized pricing pass.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, slots=True)
class NodeArrays:
    """Static per-node metadata of one thread block, as columns.

    Node ``n`` of the block is statement ``n - method_start[m]`` of
    method ``m = method_index[n]``; the block's methods are laid out
    back to back in assignment order.  Built once per block and summary
    round by :class:`repro.core.compiletable.CompileTable` and read by
    the dynamics, :class:`TraceColumns`, the scalar pricing replay and
    the CPU model directly.
    """

    #: Method signatures, and the first node of each.
    methods: Tuple[str, ...]
    method_start: Tuple[int, ...]
    #: Per node: index of its method in :attr:`methods`.
    method_index: array
    #: Per node: block-local successor ids (the dynamics' view).
    successors: Tuple[Tuple[int, ...], ...]
    #: The same successors as CSR: node ``n``'s are
    #: ``successor_ids[successor_start[n]:successor_start[n + 1]]``.
    successor_start: array
    successor_ids: array
    #: Per node: 0..24 branch class under the original statement-type
    #: grouping.
    branch_class: array
    #: Per node: 0..2 memory-access-pattern group (GRP).
    group: array
    #: Per node: storage position under GRP's group-contiguous layout.
    grouped_position: array
    #: Per node: words per fact-matrix row of its method (MAT accesses).
    row_words: array

    def __len__(self) -> int:
        return len(self.method_index)

    def method_of(self, node: int) -> str:
        """Signature of the method holding ``node``."""
        return self.methods[self.method_index[node]]

    def local_index(self, node: int) -> int:
        """``node``'s statement index within its method."""
        return node - self.method_start[self.method_index[node]]


def _ints() -> array:
    return array("i")


@dataclass
class BlockTrace:
    """Full trace of one thread block's execution, as columns.

    Visit columns hold one entry per node processed by one lane, in
    processing order; iteration columns hold one entry per while-loop
    iteration of the block's worklist.  The visits of iteration ``i``
    are the next ``iteration_visits[i]`` entries of the visit columns.
    """

    block_id: int
    layer: int
    #: Methods analyzed by this block.
    methods: Tuple[str, ...]
    #: The block's static per-node metadata.
    node_arrays: NodeArrays
    # -- per visit ------------------------------------------------------------
    #: Block-local node id.
    nodes: array = field(default_factory=_ints)
    #: |IN| when the lane read its fact set.
    in_sizes: array = field(default_factory=_ints)
    #: |OUT| after GEN/KILL.
    out_sizes: array = field(default_factory=_ints)
    #: Facts that were actually new, summed over the node's successors.
    new_facts: array = field(default_factory=_ints)
    #: 1 the first time this node is ever processed (one-time
    #: generators do real work only now), else 0.
    first_visits: array = field(default_factory=lambda: array("b"))
    # -- per iteration --------------------------------------------------------
    #: Worklist length at the top of the iteration (Table II histogram).
    iteration_worklist: array = field(default_factory=_ints)
    #: Nodes actually processed (== the worklist length without MER;
    #: the head-list size with MER).
    iteration_visits: array = field(default_factory=_ints)
    #: Destination nodes MER merged into the worklist (0 without MER).
    iteration_merged: array = field(default_factory=_ints)
    #: Fixed-point rounds for recursive SCC blocks (1 otherwise).
    summary_rounds: int = 1

    @property
    def node_count(self) -> int:
        """Total ICFG nodes across analyzed methods."""
        return len(self.node_arrays)

    @property
    def iteration_count(self) -> int:
        """Number of recorded iterations."""
        return len(self.iteration_worklist)

    @property
    def visit_count(self) -> int:
        """Number of recorded node visits."""
        return len(self.nodes)

    def add_visit(
        self, node: int, in_size: int, out_size: int, new_facts: int, first_visit: bool
    ) -> None:
        """Record one visit of the current iteration."""
        self.nodes.append(node)
        self.in_sizes.append(in_size)
        self.out_sizes.append(out_size)
        self.new_facts.append(new_facts)
        self.first_visits.append(first_visit)

    def extend_visits(
        self,
        nodes: Sequence[int],
        in_sizes: Sequence[int],
        out_sizes: Sequence[int],
        new_facts: Sequence[int],
        first_visits: Sequence[bool],
    ) -> None:
        """Record many visits at once, one list per visit column.

        A hot loop appends to plain lists, which costs a fraction of an
        ``array.append``, and hands them over here.
        """
        for column, values, dtype in (
            (self.nodes, nodes, np.intc),
            (self.in_sizes, in_sizes, np.intc),
            (self.out_sizes, out_sizes, np.intc),
            (self.new_facts, new_facts, np.intc),
            (self.first_visits, first_visits, np.int8),
        ):
            column.frombytes(np.asarray(values, dtype=dtype).tobytes())

    def add_iteration(self, worklist_size: int, visits: int, merged: int) -> None:
        """Close an iteration whose ``visits`` visits were just recorded."""
        self.iteration_worklist.append(worklist_size)
        self.iteration_visits.append(visits)
        self.iteration_merged.append(merged)

    def iteration_bounds(self) -> Iterator[Tuple[int, int]]:
        """``(start, stop)`` of each iteration in the visit columns."""
        start = 0
        for visits in self.iteration_visits:
            yield start, start + visits
            start += visits

    def worklist_sizes(self) -> List[int]:
        """Per-iteration worklist lengths."""
        return self.iteration_worklist.tolist()

    def max_worklist(self) -> int:
        """Largest worklist observed (sync dynamics)."""
        return max(self.iteration_worklist, default=0)


def _column(parts: Sequence[array], typecode: str) -> np.ndarray:
    """Concatenate typed columns into one int32 array."""
    joined = array(typecode)
    for part in parts:
        joined.extend(part)
    dtype = np.int8 if typecode == "b" else np.intc
    return np.frombuffer(joined, dtype=dtype).astype(np.int32, copy=False)


class TraceColumns:
    """The traces of many blocks (one dynamics variant), concatenated.

    Node ids become workload-global: block ``b``'s node ``n`` is
    ``node_offset[b] + n``.  Built once per workload and variant and
    priced once per configuration (:func:`repro.core.costing.price_traces`).
    """

    __slots__ = (
        "traces",
        "fact_counts",
        "node",
        "in_size",
        "out_size",
        "new_facts",
        "first_visit",
        "iteration_worklist",
        "iteration_visits",
        "iteration_merged",
        "iteration_block",
        "block_visits",
        "branch_class",
        "group",
        "grouped_position",
        "local_position",
        "successor_count",
        "elements_start",
        "elements",
    )

    def __init__(
        self, traces: Sequence[BlockTrace], fact_counts: Sequence[Sequence[int]]
    ) -> None:
        #: The block traces, and each block's per-node fixed-point
        #: fact counts (which give the set store's reallocations).
        self.traces = tuple(traces)
        self.fact_counts = tuple(fact_counts)
        block_nodes = np.array([t.node_count for t in traces], dtype=np.int64)
        self.block_visits = np.array([t.visit_count for t in traces], dtype=np.int64)
        block_iterations = np.array([t.iteration_count for t in traces], dtype=np.int64)
        node_offset = np.cumsum(block_nodes) - block_nodes

        # -- per visit --------------------------------------------------------
        self.node = _column([t.nodes for t in traces], "i")
        self.node += np.repeat(node_offset, self.block_visits).astype(np.int32)
        self.in_size = _column([t.in_sizes for t in traces], "i")
        self.out_size = _column([t.out_sizes for t in traces], "i")
        self.new_facts = _column([t.new_facts for t in traces], "i")
        self.first_visit = _column([t.first_visits for t in traces], "b").astype(bool)

        # -- per iteration ----------------------------------------------------
        self.iteration_worklist = _column([t.iteration_worklist for t in traces], "i")
        self.iteration_visits = _column([t.iteration_visits for t in traces], "i")
        self.iteration_merged = _column([t.iteration_merged for t in traces], "i")
        self.iteration_block = np.repeat(
            np.arange(len(traces), dtype=np.int32), block_iterations
        )

        # -- per node ---------------------------------------------------------
        arrays = [t.node_arrays for t in traces]
        self.branch_class = _column([a.branch_class for a in arrays], "i")
        self.group = _column([a.group for a in arrays], "i")
        #: Storage positions (block-local) under the plain and GRP layouts.
        self.local_position = (
            np.arange(int(block_nodes.sum()), dtype=np.int64)
            - np.repeat(node_offset, block_nodes)
        ).astype(np.int32)
        self.grouped_position = _column([a.grouped_position for a in arrays], "i")
        successor_start = [np.frombuffer(a.successor_start, dtype=np.intc) for a in arrays]
        self.successor_count = (
            np.concatenate([np.diff(start) for start in successor_start])
            if arrays
            else np.zeros(0, dtype=np.int32)
        ).astype(np.int32, copy=False)
        #: The fact rows a MAT visit touches, CSR: the node itself, then
        #: its successors, as workload-global node ids.
        counts = self.successor_count.astype(np.int64) + 1
        self.elements_start = np.concatenate(([0], np.cumsum(counts)))
        elements = np.empty(int(self.elements_start[-1]), dtype=np.int64)
        heads = self.elements_start[:-1]
        is_head = np.zeros(len(elements), dtype=bool)
        is_head[heads] = True
        elements[heads] = self.local_position
        elements[~is_head] = _column([a.successor_ids for a in arrays], "i")
        block_elements = block_nodes + np.array(
            [len(a.successor_ids) for a in arrays], dtype=np.int64
        )
        elements += np.repeat(node_offset, block_elements)
        self.elements = elements.astype(np.int32)

"""Execution-trace records shared by the runner and the cost adapters.

The functional block runner (:mod:`repro.core.blockexec`) executes the
worklist dynamics once per dynamics variant and records *traces*; the
kernel cost adapters then price the same trace under different
configurations (set vs matrix store, 25-way vs 3-way branching, ...).
This split keeps multi-configuration benchmarks cheap: the expensive
functional fixed point runs once, the cycle accounting -- which is
what differs between configurations -- replays the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class NodeMeta:
    """Static per-node metadata of one thread block."""

    #: Dense block-local node id (also the plain-layout storage index).
    node: int
    #: Owning method signature and its intra-method statement index.
    method: str
    local_index: int
    #: 0..24 branch class under the original statement-type grouping.
    branch_class: int
    #: 0..2 memory-access-pattern group (GRP).
    group: int
    #: Storage position under GRP's group-contiguous layout.
    grouped_position: int
    #: Block-local successor node ids.
    successors: Tuple[int, ...]
    #: Words per fact-matrix row of this node's method (MAT accesses).
    row_words: int


@dataclass(slots=True)
class VisitRecord:
    """One node processed by one lane in one iteration.

    The runner builds one per visit, positionally: a frozen dataclass
    built from keywords costs several times as much, and a NamedTuple
    makes the replay's attribute reads slower.  Treat records as
    read-only.
    """

    node: int
    #: |IN| when the lane read its fact set.
    in_size: int
    #: |OUT| after GEN/KILL.
    out_size: int
    #: Per-successor count of facts that were actually new there.
    new_facts: Tuple[int, ...]
    #: First time this node is ever processed (one-time generators
    #: do real work only now).
    first_visit: bool


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One while-loop iteration of a block's worklist."""

    #: Worklist length at the top of the iteration (Table II histogram).
    worklist_size: int
    #: Number of nodes actually processed (== worklist_size without
    #: MER; the head-list size with MER).
    visits: Tuple[VisitRecord, ...]
    #: node -> its fact-set size after this iteration, for every node
    #: whose set grew (drives the set store's reallocation model).
    growth: Tuple[Tuple[int, int], ...] = ()
    #: Number of destination nodes MER merged into the worklist.
    merged: int = 0


@dataclass
class BlockTrace:
    """Full trace of one thread block's execution."""

    block_id: int
    layer: int
    #: Methods analyzed by this block.
    methods: Tuple[str, ...]
    node_meta: Tuple[NodeMeta, ...]
    iterations: List[IterationRecord] = field(default_factory=list)
    #: Fixed-point rounds for recursive SCC blocks (1 otherwise).
    summary_rounds: int = 1

    @property
    def node_count(self) -> int:
        """Total ICFG nodes across analyzed methods."""
        return len(self.node_meta)

    @property
    def iteration_count(self) -> int:
        """Number of recorded iterations."""
        return len(self.iterations)

    @property
    def visit_count(self) -> int:
        """Number of recorded node visits."""
        return sum(len(it.visits) for it in self.iterations)

    def worklist_sizes(self) -> List[int]:
        """Per-iteration worklist lengths."""
        return [it.worklist_size for it in self.iterations]

    def max_worklist(self) -> int:
        """Largest worklist observed (sync dynamics)."""
        return max((it.worklist_size for it in self.iterations), default=0)

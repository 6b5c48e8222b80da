"""Functional thread-block runner.

Executes one block's worklist dynamics *for real* -- facts are
computed with the compiled transfer functions -- while recording the
:class:`repro.core.trace.BlockTrace` that the kernel cost adapters
price.  Two dynamics variants exist:

* **synchronous** (paper Alg. 2): every iteration processes the whole
  current worklist; every updated (or never-visited) successor is
  appended to the next worklist, duplicates included -- the paper's
  "redundant node analyses".
* **merging** (MER, paper Alg. 3 / Fig. 7): only the *head list*
  (largest multiple of the warp size, or everything when a single warp
  suffices) is processed; the postponed tail is merged with the newly
  discovered destinations, with repetitions removed.

Both converge to the same least fixed point (transfer functions are
monotone over a finite lattice, and every pending node is eventually
processed), which the test-suite verifies against the sequential
oracle.

Recursive SCC blocks iterate whole rounds until their joint summaries
stabilize; the recorded trace is the final round's, and
``summary_rounds`` tells the cost adapters how many rounds to charge.

Facts stay int masks -- MAT rows (:mod:`repro.dataflow.bitset`) --
from the dynamics to the verdict: the two fixed points are compared as
masks, exit facts come from ``MaskTransfer.out_mask``, and the
:class:`MethodFacts` hold the rows the sync run computed.
Within a summary round a transfer is a pure function of (node, IN
mask), so the sync and MER runs share one memo of the transfers that
walk points-to sets (:class:`_RoundTransfers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cfg.intra import build_intra_cfg
from repro.core.blocks import BlockAssignment
from repro.core.grouping import (
    access_group,
    branch_class_id,
    grouped_storage_order,
)
from repro.core.trace import BlockTrace, NodeMeta
from repro.dataflow.bitset import mask_from
from repro.dataflow.facts import CalleeFootprint, FactSpace
from repro.dataflow.idfg import MethodFacts
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.transfer import MaskTransfer, NodePlan, TransferFunctions
from repro.ir.app import AndroidApp

#: CUDA warp size; the head-list granularity of MER.
WARP_SIZE = 32


@dataclass
class BlockResult:
    """Everything one block run produces."""

    assignment: BlockAssignment
    method_facts: Dict[str, MethodFacts]
    summaries: Dict[str, MethodSummary]
    #: Synchronous-dynamics trace (plain / MAT / MAT+GRP configs).
    trace_sync: BlockTrace
    #: Merging-dynamics trace (MER configs); None when not requested.
    trace_mer: Optional[BlockTrace]
    #: Fixed-point fact count of every block node.  A node's fact set
    #: only grows, so this final size fixes the set store's capacity
    #: doublings (:func:`repro.core.costing.set_capacity`).
    fact_counts: Tuple[int, ...] = ()


class _MethodState:
    """Per-method analysis machinery inside a block."""

    __slots__ = (
        "signature",
        "method",
        "cfg",
        "space",
        "transfer",
        "offset",
        "masked",
    )

    def __init__(
        self,
        app: AndroidApp,
        signature: str,
        summaries,
        offset: int,
        footprints: Dict[str, CalleeFootprint],
    ):
        self.signature = signature
        self.method = app.method_table[signature]
        self.cfg = build_intra_cfg(self.method)
        self.space = FactSpace(self.method, footprints)
        self.transfer = TransferFunctions(self.space, summaries)
        self.offset = offset
        #: Packed-bitset view of the transfer functions.
        self.masked = MaskTransfer(self.transfer)


def _walks_points_to(plan: NodePlan) -> bool:
    """True for a call, a heap store, or a read through a field."""
    return plan.op in ("call", "store_heap") or bool(
        plan.value is not None and plan.value.derefs
    )


class _RoundTransfers:
    """One summary round's per-node transfers, shared by both runs.

    Built with the round's method states, whose callee summaries stay
    fixed until the next round rebuilds them, so within the round OUT
    is a pure function of (node, IN mask).  MER runs on the final
    round's states and reuses what the sync run evaluated.  Only the
    plans that walk points-to sets are memoized: a cheap assign costs
    less to recompute than its IN mask costs to hash.  The table is
    dropped with the round.
    """

    __slots__ = ("local", "evaluate", "memo", "evals", "hits")

    def __init__(self, states: Sequence[_MethodState]) -> None:
        self.local: List[int] = []
        #: Per node: its method's ``MaskTransfer.out_mask``, or None for
        #: an identity node, which forwards IN without a call.
        self.evaluate: List[Optional[Callable[[int, int], int]]] = []
        #: Per node: IN mask -> OUT mask, or None when not memoized.
        self.memo: List[Optional[Dict[int, int]]] = []
        for state in states:
            masked = state.masked
            for local, plan in enumerate(state.transfer.plans):
                self.local.append(local)
                if masked.is_identity(local):
                    self.evaluate.append(None)
                    self.memo.append(None)
                else:
                    self.evaluate.append(masked.out_mask)
                    self.memo.append({} if _walks_points_to(plan) else None)
        #: ``out_mask`` calls made, and calls the memo answered.
        self.evals = 0
        self.hits = 0

    def out_mask(self, node: int, in_mask: int) -> int:
        """OUT of block node ``node`` for ``in_mask``."""
        evaluate = self.evaluate[node]
        if evaluate is None:
            return in_mask
        memo = self.memo[node]
        if memo is not None:
            out = memo.get(in_mask)
            if out is not None:
                self.hits += 1
                return out
        out = evaluate(self.local[node], in_mask)
        self.evals += 1
        if memo is not None:
            memo[in_mask] = out
        return out


class BlockRunner:
    """Run one thread block to its fixed point.

    After :meth:`run`, ``transfer_evals`` and ``transfer_memo_hits``
    hold how many ``MaskTransfer.out_mask`` calls the run made and how
    many the round memo answered instead.
    """

    def __init__(
        self,
        app: AndroidApp,
        assignment: BlockAssignment,
        summaries: Mapping[str, MethodSummary],
        record_mer: bool = True,
        sort_mer_worklist: bool = True,
    ) -> None:
        self.app = app
        self.assignment = assignment
        self.base_summaries = dict(summaries)
        self.record_mer = record_mer
        self.sort_mer_worklist = sort_mer_worklist
        self._is_scc = self._detect_scc()
        self.transfer_evals = 0
        self.transfer_memo_hits = 0

    def _detect_scc(self) -> bool:
        members = set(self.assignment.methods)
        for signature in self.assignment.methods:
            for callee in self.app.method_table[signature].callees():
                if callee in members:
                    return True
        return False

    # -- machinery ---------------------------------------------------------------

    def _build_states(
        self, summaries: Mapping[str, MethodSummary]
    ) -> List[_MethodState]:
        # The callee footprints depend only on the summary table, which
        # is identical for every method of the block: resolve them once
        # per round instead of once per method state.
        footprints = {
            sig: summary.footprint() for sig, summary in summaries.items()
        }
        states: List[_MethodState] = []
        offset = 0
        for signature in self.assignment.methods:
            state = _MethodState(
                self.app, signature, summaries, offset, footprints=footprints
            )
            states.append(state)
            offset += len(state.method.statements)
        return states

    def _node_meta(self, states: Sequence[_MethodState]) -> Tuple[NodeMeta, ...]:
        groups: List[int] = []
        raw: List[Tuple[_MethodState, int]] = []
        for state in states:
            for local in range(len(state.method.statements)):
                groups.append(access_group(state.transfer, local))
                raw.append((state, local))
        grouped_positions = grouped_storage_order(groups)
        meta: List[NodeMeta] = []
        for node, (state, local) in enumerate(raw):
            row_words = max(1, (state.space.fact_universe + 63) // 64)
            meta.append(
                NodeMeta(
                    node=node,
                    method=state.signature,
                    local_index=local,
                    branch_class=branch_class_id(
                        state.method.statements[local]
                    ),
                    group=groups[node],
                    grouped_position=grouped_positions[node],
                    successors=tuple(
                        state.offset + succ
                        for succ in state.cfg.successors[local]
                    ),
                    row_words=row_words,
                )
            )
        return tuple(meta)

    # -- dynamics -------------------------------------------------------------------

    def _run_dynamics(
        self,
        states: Sequence[_MethodState],
        merging: bool,
        trace: BlockTrace,
        transfers: _RoundTransfers,
    ) -> List[int]:
        """Execute one fixed-point run; returns per-block-node fact masks.

        Packed-bitset dynamics, one int mask per block node.  Mirrors
        the seed's :meth:`_run_dynamics_sets` op for op -- including the
        aliasing of each node's live IN set when its sizes are recorded
        -- so the emitted trace is byte-identical.  The per-successor
        union of a whole out-set becomes two int ops (``& ~`` and
        ``|``) instead of a per-fact set update: the warp's GEN/KILL
        lanes are applied as one batch.  Transfers go through the
        round's shared memo (see :class:`_RoundTransfers`).
        """
        out_mask = transfers.out_mask
        identity = [evaluate is None for evaluate in transfers.evaluate]
        meta = trace.node_meta
        successors_of = [m.successors for m in meta]
        node_count = len(meta)
        facts: List[int] = [0] * node_count
        visited = [False] * node_count
        scheduled: Set[int] = set()
        # The visit columns' appends, bound once: this loop runs for
        # every visit, where a call to ``trace.add_visit`` would not pay.
        record_node = trace.nodes.append
        record_in = trace.in_sizes.append
        record_out = trace.out_sizes.append
        record_new = trace.new_facts.append
        record_first = trace.first_visits.append

        worklist: List[int] = []
        for state in states:
            if state.method.statements:
                entry = state.offset
                facts[entry] = state.masked.entry_mask()
                worklist.append(entry)
                scheduled.add(entry)

        sort_key = (lambda n: meta[n].group) if (merging and self.sort_mer_worklist) else None

        while worklist:
            if sort_key is not None:
                worklist.sort(key=sort_key)
            size = len(worklist)
            head_count = min(size, WARP_SIZE) if merging else size
            head = worklist[:head_count]
            tail = worklist[head_count:]

            growth: Set[int] = set()
            destinations: List[int] = []
            dest_seen: Set[int] = set(tail) if merging else set()
            iter_new: Dict[int, int] = {}
            iter_inserts: Dict[int, int] = {}

            for node in head:
                scheduled.discard(node)
                out = out_mask(node, facts[node])
                new_total = 0
                for succ in successors_of[node]:
                    succ_mask = facts[succ]
                    added_bits = out & ~succ_mask
                    added = added_bits.bit_count()
                    if added:
                        new_total += added
                        facts[succ] = succ_mask | added_bits
                        growth.add(succ)
                        iter_new[succ] = iter_new.get(succ, 0) + added
                    concurrent_dup = (
                        not added
                        and succ in growth
                        and iter_inserts.get(succ, 0)
                        < min(6 * iter_new.get(succ, 0), 32)
                    )
                    if added or concurrent_dup or not visited[succ]:
                        if merging:
                            if succ not in dest_seen:
                                dest_seen.add(succ)
                                destinations.append(succ)
                        else:
                            if added or concurrent_dup or succ not in scheduled:
                                destinations.append(succ)
                                scheduled.add(succ)
                                iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                # The set implementation records len() of the *live*
                # IN set (and, for identity nodes, the live OUT alias)
                # after the successor unions: a self-looping node sees
                # its own growth.  Re-read the masks accordingly.
                in_size = facts[node].bit_count()
                record_node(node)
                record_in(in_size)
                record_out(in_size if identity[node] else out.bit_count())
                record_new(new_total)
                record_first(not visited[node])
                visited[node] = True

            trace.add_iteration(size, head_count, len(destinations) if merging else 0)
            if merging:
                worklist = destinations + tail
            else:
                worklist = destinations
        return facts

    def _run_dynamics_sets(
        self,
        states: Sequence[_MethodState],
        merging: bool,
        trace: BlockTrace,
    ) -> List[int]:
        """The seed's per-element set dynamics: the trace reference.

        Evaluates ``TransferFunctions.out_facts`` directly, without the
        round memo.  Tests patch it in for :meth:`_run_dynamics` and
        compare the traces.  Returns its fixed point as int masks,
        converted once at the end.
        """
        node_count = sum(len(s.method.statements) for s in states)
        facts: List[Set[int]] = [set() for _ in range(node_count)]
        visited = [False] * node_count
        scheduled: Set[int] = set()

        state_of: List[_MethodState] = []
        local_of: List[int] = []
        for state in states:
            for local in range(len(state.method.statements)):
                state_of.append(state)
                local_of.append(local)

        worklist: List[int] = []
        for state in states:
            if state.method.statements:
                entry = state.offset
                facts[entry] = set(state.space.entry_facts())
                worklist.append(entry)
                scheduled.add(entry)

        meta = trace.node_meta
        sort_key = (lambda n: meta[n].group) if (merging and self.sort_mer_worklist) else None

        while worklist:
            if sort_key is not None:
                worklist.sort(key=sort_key)
            size = len(worklist)
            # MER (Alg. 3 line 8, "nid < 32"): each iteration processes
            # exactly one full warp; the remainder is the postponed
            # tail that merges with the new destinations.  Without MER
            # the whole worklist is processed.
            head_count = min(size, WARP_SIZE) if merging else size
            head = worklist[:head_count]
            tail = worklist[head_count:]

            growth: Set[int] = set()
            destinations: List[int] = []
            dest_seen: Set[int] = set(tail) if merging else set()
            #: Facts added to each successor this iteration, and how
            #: many duplicate insertions we have attributed to them.
            iter_new: Dict[int, int] = {}
            iter_inserts: Dict[int, int] = {}
            nondup_inserts = 0
            dup_inserts = 0

            for node in head:
                scheduled.discard(node)
                state = state_of[node]
                local = local_of[node]
                in_set = facts[node]
                out = state.transfer.out_facts(local, in_set)
                new_total = 0
                for succ in meta[node].successors:
                    succ_facts = facts[succ]
                    before = len(succ_facts)
                    succ_facts |= out
                    added = len(succ_facts) - before
                    new_total += added
                    if added:
                        growth.add(succ)
                    # GPU lanes run concurrently: a lane whose atomic
                    # union added at least one fact observes
                    # update() == true and inserts the successor --
                    # even when another lane already inserted it this
                    # iteration.  Each new fact is attributed to
                    # exactly one lane, so the number of duplicate
                    # insertions per successor is bounded by the facts
                    # it gained this iteration.  This is the paper's
                    # "redundant node analyses" that MER deduplicates.
                    if added:
                        iter_new[succ] = iter_new.get(succ, 0) + added
                    # Bounded by the lanes that actually touch the
                    # successor this iteration, and scaled by how much
                    # it grew (a one-fact nudge rarely races with many
                    # lanes; a burst of new facts does).
                    # Bounded per successor: the number of racing
                    # lanes cannot exceed the facts being added (each
                    # atomic union attributes a fact to one lane) nor a
                    # warp's worth of simultaneously racing inserters.
                    concurrent_dup = (
                        not added
                        and succ in growth
                        and iter_inserts.get(succ, 0)
                        < min(6 * iter_new.get(succ, 0), 32)
                    )
                    if added or concurrent_dup or not visited[succ]:
                        if merging:
                            if succ not in dest_seen:
                                dest_seen.add(succ)
                                destinations.append(succ)
                        else:
                            if added or concurrent_dup or succ not in scheduled:
                                destinations.append(succ)
                                scheduled.add(succ)
                                iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                                if concurrent_dup:
                                    dup_inserts += 1
                                else:
                                    nondup_inserts += 1
                trace.add_visit(
                    node, len(in_set), len(out), new_total, not visited[node]
                )
                visited[node] = True

            trace.add_iteration(size, head_count, len(destinations) if merging else 0)
            if merging:
                worklist = destinations + tail
            else:
                worklist = destinations
        return [mask_from(node_facts) for node_facts in facts]

    # -- public API --------------------------------------------------------------------

    def run(self) -> BlockResult:
        """Execute to completion and return the results."""
        from repro import obs

        with obs.span(
            f"block[{self.assignment.block_id}]",
            category="block",
            layer=self.assignment.layer,
            methods=len(self.assignment.methods),
            scc=self._is_scc,
        ):
            result = self._run()
        obs.count("block.runs", 1)
        obs.count("block.iterations", result.trace_sync.iteration_count)
        obs.count("block.visits", result.trace_sync.visit_count)
        obs.count("block.transfer_evals", self.transfer_evals)
        obs.count("block.transfer_memo_hits", self.transfer_memo_hits)
        return result

    def _run(self) -> BlockResult:
        summaries = dict(self.base_summaries)
        if self._is_scc:
            for signature in self.assignment.methods:
                summaries.setdefault(signature, MethodSummary(signature=signature))

        evals = hits = 0
        rounds = 0
        while True:
            rounds += 1
            states = self._build_states(summaries)
            meta = self._node_meta(states)
            transfers = _RoundTransfers(states)
            trace_sync = BlockTrace(
                block_id=self.assignment.block_id,
                layer=self.assignment.layer,
                methods=self.assignment.methods,
                node_meta=meta,
            )
            facts = self._run_dynamics(
                states, merging=False, trace=trace_sync, transfers=transfers
            )

            new_summaries: Dict[str, MethodSummary] = {}
            exit_masks: Dict[str, int] = {}
            for state in states:
                exit_mask = 0
                for exit_local in state.cfg.exits:
                    node = state.offset + exit_local
                    exit_mask |= transfers.out_mask(node, facts[node])
                exit_masks[state.signature] = exit_mask
                new_summaries[state.signature] = SummaryBuilder(
                    state.space
                ).build(exit_mask)

            if not self._is_scc:
                break
            stable = all(
                new_summaries[sig] == summaries.get(sig)
                for sig in self.assignment.methods
            )
            summaries.update(new_summaries)
            if stable:
                break
            evals += transfers.evals
            hits += transfers.hits
        trace_sync.summary_rounds = rounds

        trace_mer: Optional[BlockTrace] = None
        if self.record_mer:
            trace_mer = BlockTrace(
                block_id=self.assignment.block_id,
                layer=self.assignment.layer,
                methods=self.assignment.methods,
                node_meta=meta,
            )
            mer_facts = self._run_dynamics(
                states, merging=True, trace=trace_mer, transfers=transfers
            )
            trace_mer.summary_rounds = rounds
            # Both dynamics must land on the same fixed point, or the
            # MER trace would be priced as an analysis it is not.
            if mer_facts != facts:
                raise RuntimeError(
                    f"block {self.assignment.block_id}: MER dynamics diverged "
                    "from the synchronous fixed point"
                )
        self.transfer_evals = evals + transfers.evals
        self.transfer_memo_hits = hits + transfers.hits

        method_facts: Dict[str, MethodFacts] = {}
        for state in states:
            start = state.offset
            stop = start + len(state.method.statements)
            method_facts[state.signature] = MethodFacts(
                space=state.space,
                node_facts=tuple(facts[start:stop]),
                exit_facts=exit_masks[state.signature],
            )

        return BlockResult(
            assignment=self.assignment,
            method_facts=method_facts,
            summaries=new_summaries,
            trace_sync=trace_sync,
            trace_mer=trace_mer,
            fact_counts=tuple(mask.bit_count() for mask in facts),
        )

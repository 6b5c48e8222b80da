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

from repro.core.blocks import BlockAssignment
from repro.core.compiletable import CompiledMethod, CompileTable
from repro.core.trace import BlockTrace, NodeArrays
from repro.dataflow.bitset import mask_from
from repro.dataflow.idfg import MethodFacts
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
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


class _RoundTransfers:
    """One summary round's per-node transfers, shared by both runs.

    Built from the round's compiled methods, whose callee summaries
    stay fixed until the next round, so within the round OUT is a pure
    function of (node, IN row).  MER runs on the final round's methods
    and reuses what the sync run evaluated.  Only the plans that walk
    points-to sets are memoized (:attr:`CompiledMethod.memoized`); a
    memo entry keeps its OUT's fact count with it.  The table is
    dropped with the round.
    """

    __slots__ = ("local", "evaluate", "memo", "evals", "hits", "reused")

    def __init__(self, compiled: Sequence[CompiledMethod]) -> None:
        self.local: List[int] = []
        #: Per node: its method's ``MaskTransfer.out_mask``, or None for
        #: an identity node, which forwards IN without a call.
        self.evaluate: List[Optional[Callable[[int, int], int]]] = []
        #: Per node: IN row -> (OUT row, OUT count), or None when not
        #: memoized.
        self.memo: List[Optional[Dict[int, Tuple[int, int]]]] = []
        for entry in compiled:
            self.local.extend(range(len(entry.evaluate)))
            self.evaluate.extend(entry.evaluate)
            self.memo.extend({} if memoized else None for memoized in entry.memoized)
        #: ``out_mask`` calls made, calls the memo answered, and visits
        #: that reused their previous visit's OUT (no lookup at all).
        self.evals = 0
        self.hits = 0
        self.reused = 0

    def out_mask(self, node: int, in_mask: int) -> int:
        """OUT of block node ``node`` for ``in_mask``."""
        evaluate = self.evaluate[node]
        if evaluate is None:
            return in_mask
        memo = self.memo[node]
        if memo is not None:
            hit = memo.get(in_mask)
            if hit is not None:
                self.hits += 1
                return hit[0]
        out = evaluate(self.local[node], in_mask)
        self.evals += 1
        if memo is not None:
            memo[in_mask] = (out, out.bit_count())
        return out


class BlockRunner:
    """Run one thread block to its fixed point.

    ``table`` is the app build's :class:`CompileTable`; a runner given
    none compiles into a table of its own.  After :meth:`run`,
    ``transfer_evals``, ``transfer_memo_hits`` and ``visits_reused``
    hold how many ``MaskTransfer.out_mask`` calls the run made, how
    many the round memo answered instead, and how many visits reused
    their previous visit's OUT without either.
    """

    def __init__(
        self,
        app: AndroidApp,
        assignment: BlockAssignment,
        summaries: Mapping[str, MethodSummary],
        record_mer: bool = True,
        sort_mer_worklist: bool = True,
        table: Optional[CompileTable] = None,
    ) -> None:
        self.app = app
        self.assignment = assignment
        self.base_summaries = dict(summaries)
        self.record_mer = record_mer
        self.sort_mer_worklist = sort_mer_worklist
        self.table = table if table is not None else CompileTable(app.package)
        self._is_scc = self._detect_scc()
        self.transfer_evals = 0
        self.transfer_memo_hits = 0
        self.visits_reused = 0

    def _detect_scc(self) -> bool:
        members = set(self.assignment.methods)
        for signature in self.assignment.methods:
            for callee in self.app.method_table[signature].callees():
                if callee in members:
                    return True
        return False

    # -- dynamics -------------------------------------------------------------------

    def _run_dynamics(
        self,
        compiled: Sequence[CompiledMethod],
        merging: bool,
        trace: BlockTrace,
        transfers: _RoundTransfers,
    ) -> List[int]:
        """Execute one fixed-point run; returns per-block-node fact masks.

        Packed-bitset dynamics, one int row per block node.  Mirrors
        the seed's :meth:`_run_dynamics_sets` op for op -- including the
        aliasing of each node's live IN set when its sizes are recorded
        -- so the emitted trace is byte-identical.  Each node's fact
        count is kept, and an edge merges as ``succ | out``, taking a
        popcount only when the successor grows.

        A visit whose IN is the very row object its node's previous
        visit read skips the transfer and every union: OUT is a pure
        function of IN within the round, rows only grow, so every
        successor already holds that OUT.  Such a visit records the
        previous visit's sizes (IN cannot have changed: a node whose
        own row grew during its visit holds a new row object) and does
        only the scheduling bookkeeping.  The modeled kernel still pays
        for the visit; the host only records it.  Other transfers go
        through the round's shared memo (see :class:`_RoundTransfers`).
        """
        arrays = trace.node_arrays
        successors_of = arrays.successors
        evaluate_of = transfers.evaluate
        local_of = transfers.local
        memo_of = transfers.memo
        node_count = len(successors_of)
        facts: List[int] = [0] * node_count
        counts: List[int] = [0] * node_count
        #: Per node: the row its last visit read, and that visit's |OUT|.
        last_in: List[Optional[int]] = [None] * node_count
        last_out: List[int] = [0] * node_count
        visited = [False] * node_count
        scheduled: Set[int] = set()
        evals = hits = reused = 0
        # The visit columns, as plain lists handed to the trace at the
        # end: this loop runs for every visit, where ``trace.add_visit``
        # (or even an ``array.append``) would not pay.
        visit_nodes: List[int] = []
        in_sizes: List[int] = []
        out_sizes: List[int] = []
        new_facts: List[int] = []
        first_visits: List[bool] = []
        record_in = in_sizes.append
        record_out = out_sizes.append
        record_new = new_facts.append
        record_first = first_visits.append

        worklist: List[int] = []
        for entry, start in zip(compiled, arrays.method_start):
            if entry.method.statements:
                facts[start] = entry.entry_row
                counts[start] = entry.entry_row.bit_count()
                worklist.append(start)
                scheduled.add(start)

        group = arrays.group
        sort_key = group.__getitem__ if (merging and self.sort_mer_worklist) else None

        while worklist:
            if sort_key is not None:
                worklist.sort(key=sort_key)
            size = len(worklist)
            head_count = min(size, WARP_SIZE) if merging else size
            head = worklist[:head_count]
            tail = worklist[head_count:]
            visit_nodes.extend(head)

            destinations: List[int] = []
            dest_seen: Set[int] = set(tail) if merging else set()
            #: Facts each successor gained this iteration (only nodes
            #: that grew are keys), and the insertions attributed to it.
            iter_new: Dict[int, int] = {}
            iter_inserts: Dict[int, int] = {}

            for node in head:
                scheduled.discard(node)
                in_mask = facts[node]
                evaluate = evaluate_of[node]
                if in_mask is last_in[node]:
                    # Same IN, same OUT, already in every successor:
                    # only the scheduling below remains.
                    out = None
                    out_size = last_out[node]
                    reused += 1
                else:
                    last_in[node] = in_mask
                    if evaluate is None:
                        out = in_mask
                    else:
                        memo = memo_of[node]
                        hit = memo.get(in_mask) if memo is not None else None
                        if hit is not None:
                            out, out_size = hit
                            hits += 1
                        else:
                            out = evaluate(local_of[node], in_mask)
                            out_size = out.bit_count()
                            evals += 1
                            if memo is not None:
                                memo[in_mask] = (out, out_size)
                        last_out[node] = out_size
                new_total = 0
                for succ in successors_of[node]:
                    if out is not None:
                        succ_mask = facts[succ]
                        merged = succ_mask | out
                        if merged != succ_mask:
                            size_after = merged.bit_count()
                            added = size_after - counts[succ]
                            counts[succ] = size_after
                            facts[succ] = merged
                            new_total += added
                            iter_new[succ] = iter_new.get(succ, 0) + added
                            if merging:
                                if succ not in dest_seen:
                                    dest_seen.add(succ)
                                    destinations.append(succ)
                            else:
                                destinations.append(succ)
                                scheduled.add(succ)
                                iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                            continue
                    grown = iter_new.get(succ)
                    concurrent_dup = bool(grown) and iter_inserts.get(
                        succ, 0
                    ) < min(6 * grown, 32)
                    if concurrent_dup or not visited[succ]:
                        if merging:
                            if succ not in dest_seen:
                                dest_seen.add(succ)
                                destinations.append(succ)
                        elif concurrent_dup or succ not in scheduled:
                            destinations.append(succ)
                            scheduled.add(succ)
                            iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                # The set implementation records len() of the *live*
                # IN set (and, for identity nodes, the live OUT alias)
                # after the successor unions: a self-looping node sees
                # its own growth.  The kept counts follow it.
                in_size = counts[node]
                record_in(in_size)
                record_out(in_size if evaluate is None else out_size)
                record_new(new_total)
                record_first(not visited[node])
                visited[node] = True

            trace.add_iteration(size, head_count, len(destinations) if merging else 0)
            if merging:
                worklist = destinations + tail
            else:
                worklist = destinations
        trace.extend_visits(visit_nodes, in_sizes, out_sizes, new_facts, first_visits)
        transfers.evals += evals
        transfers.hits += hits
        transfers.reused += reused
        return facts

    def _run_dynamics_sets(
        self,
        compiled: Sequence[CompiledMethod],
        merging: bool,
        trace: BlockTrace,
    ) -> List[int]:
        """The seed's per-element set dynamics: the trace reference.

        Evaluates ``TransferFunctions.out_facts`` directly, without the
        round memo or visit reuse.  Tests patch it in for
        :meth:`_run_dynamics` and compare the traces.  Returns its fixed
        point as int masks, converted once at the end.
        """
        arrays = trace.node_arrays
        node_count = len(arrays)
        facts: List[Set[int]] = [set() for _ in range(node_count)]
        visited = [False] * node_count
        scheduled: Set[int] = set()

        worklist: List[int] = []
        for entry, start in zip(compiled, arrays.method_start):
            if entry.method.statements:
                facts[start] = set(entry.space.entry_facts())
                worklist.append(start)
                scheduled.add(start)

        group = arrays.group
        sort_key = (lambda n: group[n]) if (merging and self.sort_mer_worklist) else None

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

            for node in head:
                scheduled.discard(node)
                transfer = compiled[arrays.method_index[node]].transfer
                in_set = facts[node]
                out = transfer.out_facts(arrays.local_index(node), in_set)
                new_total = 0
                for succ in arrays.successors[node]:
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
                    # Bounded per successor: the number of racing
                    # lanes cannot exceed the facts being added (each
                    # atomic union attributes a fact to one lane) nor a
                    # warp's worth of simultaneously racing inserters,
                    # and scaled by how much it grew (a one-fact nudge
                    # rarely races with many lanes; a burst does).
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

        compiles = self.table.compiles
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
        obs.count("block.visits_reused", self.visits_reused)
        obs.count("block.compiles", self.table.compiles - compiles)
        return result

    def _new_trace(self, arrays: NodeArrays) -> BlockTrace:
        return BlockTrace(
            block_id=self.assignment.block_id,
            layer=self.assignment.layer,
            methods=self.assignment.methods,
            node_arrays=arrays,
        )

    def _run(self) -> BlockResult:
        summaries = dict(self.base_summaries)
        if self._is_scc:
            for signature in self.assignment.methods:
                summaries.setdefault(signature, MethodSummary(signature=signature))

        methods = [self.app.method_table[sig] for sig in self.assignment.methods]
        evals = hits = reused = 0
        rounds = 0
        while True:
            rounds += 1
            compiled = [self.table.compiled(method, summaries) for method in methods]
            arrays = self.table.node_arrays(compiled)
            transfers = _RoundTransfers(compiled)
            trace_sync = self._new_trace(arrays)
            facts = self._run_dynamics(
                compiled, merging=False, trace=trace_sync, transfers=transfers
            )

            new_summaries: Dict[str, MethodSummary] = {}
            exit_masks: Dict[str, int] = {}
            for entry, start in zip(compiled, arrays.method_start):
                exit_mask = 0
                for exit_local in entry.cfg.exits:
                    node = start + exit_local
                    exit_mask |= transfers.out_mask(node, facts[node])
                exit_masks[entry.signature] = exit_mask
                new_summaries[entry.signature] = SummaryBuilder(
                    entry.space
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
            reused += transfers.reused
        trace_sync.summary_rounds = rounds

        trace_mer: Optional[BlockTrace] = None
        if self.record_mer:
            trace_mer = self._new_trace(arrays)
            mer_facts = self._run_dynamics(
                compiled, merging=True, trace=trace_mer, transfers=transfers
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
        self.visits_reused = reused + transfers.reused

        method_facts: Dict[str, MethodFacts] = {}
        for entry, start in zip(compiled, arrays.method_start):
            method_facts[entry.signature] = MethodFacts(
                space=entry.space,
                node_facts=tuple(facts[start : start + len(entry.method.statements)]),
                exit_facts=exit_masks[entry.signature],
            )

        return BlockResult(
            assignment=self.assignment,
            method_facts=method_facts,
            summaries=new_summaries,
            trace_sync=trace_sync,
            trace_mer=trace_mer,
            fact_counts=tuple(mask.bit_count() for mask in facts),
        )

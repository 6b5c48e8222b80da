"""The sequential worklist algorithm (paper Alg. 1) -- the oracle.

This is the faithful CPU-style implementation: a FIFO worklist, one
node popped and processed at a time, facts propagated to successors,
updated successors re-enqueued, until the fixed point.  Every GPU
variant must produce identical per-node facts.

The oracle (:meth:`SequentialWorklist.run`) evaluates the set-based
:class:`TransferFunctions` only, so it shares no transfer code with the
block runner's int-mask dynamics.  :meth:`SequentialWorklist.run_masked`
walks the same trajectory on ``MaskTransfer`` masks; the incremental
re-analysis' miss path runs it.

:func:`analyze_app_reference` drives the whole-app pipeline:
environment synthesis, call-graph layering, bottom-up SBDA summary
construction (iterating recursive SCCs to their joint fixed point),
and one per-method fixed-point run, yielding the :class:`IDFG`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Set

from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.cfg.intra import build_intra_cfg
from repro.dataflow.bitset import mask_from
from repro.dataflow.facts import CalleeFootprint, FactSpace
from repro.dataflow.idfg import IDFG, MethodFacts
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.transfer import MaskTransfer, TransferFunctions
from repro.ir.app import AndroidApp
from repro.ir.method import Method


class SequentialWorklist:
    """Alg. 1 for one method: FIFO worklist to the fixed point."""

    __slots__ = ("cfg", "space", "transfer", "visits", "iterations")

    def __init__(
        self,
        method: Method,
        summaries: Optional[Mapping[str, MethodSummary]] = None,
        footprints: Optional[Dict[str, CalleeFootprint]] = None,
    ) -> None:
        self.cfg = build_intra_cfg(method)
        if footprints is None and summaries is not None:
            footprints = {
                signature: summary.footprint()
                for signature, summary in summaries.items()
            }
        self.space = FactSpace(method, footprints)
        self.transfer = TransferFunctions(self.space, summaries)
        #: Total node visits / pop-process steps (profiling).
        self.visits = 0
        self.iterations = 0

    def run(self) -> MethodFacts:
        """Run to the fixed point over fact sets and package the results.

        The sets become MAT rows once, at the end (:func:`mask_from`).
        """
        method = self.cfg.method
        if not method.statements:
            return MethodFacts(space=self.space, node_facts=(), exit_facts=0)
        facts: List[Set[int]] = [set() for _ in method.statements]
        facts[0] = set(self.space.entry_facts())
        worklist = deque([0])
        queued = {0}
        visited = [False] * len(method.statements)
        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            visited[node] = True
            self.visits += 1
            self.iterations += 1
            out = self.transfer.out_facts(node, facts[node])
            for successor in self.cfg.successors[node]:
                before = len(facts[successor])
                facts[successor] |= out
                grew = len(facts[successor]) > before
                # Alg. 1 "keeps iterating until all nodes are visited
                # and all data-fact sets reach the fixed point": a
                # successor is (re)queued when its facts grew, and
                # every reachable node is processed at least once so
                # its own GEN fires even under an empty IN.
                if (grew or not visited[successor]) and successor not in queued:
                    worklist.append(successor)
                    queued.add(successor)

        exit_out: Set[int] = set()
        for exit_node in self.cfg.exits:
            exit_out |= self.transfer.out_facts(exit_node, facts[exit_node])
        return MethodFacts(
            space=self.space,
            node_facts=tuple(mask_from(node_facts) for node_facts in facts),
            exit_facts=mask_from(exit_out),
        )

    def run_masked(self) -> MethodFacts:
        """Alg. 1 over int bitsets: same trajectory, batched set unions.

        The worklist discipline is identical to :meth:`run` -- a
        successor is (re)queued exactly when ``out & ~succ`` is
        non-zero -- so visit counts and the fixed point match the
        oracle bit for bit; only the per-fact set churn is replaced by
        whole-set mask operations.
        """
        if not self.cfg.method.statements:
            return MethodFacts(space=self.space, node_facts=(), exit_facts=0)
        masked = MaskTransfer(self.transfer)
        facts = [0] * len(self.cfg.method.statements)
        facts[0] = masked.entry_mask()
        worklist = deque([0])
        queued = {0}
        visited = [False] * len(facts)
        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            visited[node] = True
            self.visits += 1
            self.iterations += 1
            out = masked.out_mask(node, facts[node])
            for successor in self.cfg.successors[node]:
                added = out & ~facts[successor]
                if added:
                    facts[successor] |= added
                if (added or not visited[successor]) and successor not in queued:
                    worklist.append(successor)
                    queued.add(successor)

        exit_mask = 0
        for exit_node in self.cfg.exits:
            exit_mask |= masked.out_mask(exit_node, facts[exit_node])
        return MethodFacts(
            space=self.space, node_facts=tuple(facts), exit_facts=exit_mask
        )


def compute_summaries(
    app: AndroidApp, layering: SBDALayering
) -> Dict[str, MethodSummary]:
    """Bottom-up SBDA summary construction.

    Non-recursive methods are analyzed once with their callees'
    finished summaries.  Recursive SCCs start from empty (identity)
    summaries and iterate the whole cycle until the summaries stop
    changing -- summaries grow monotonically over a finite source
    domain, so this terminates.
    """
    summaries: Dict[str, MethodSummary] = {}
    for scc in layering.bottom_up():
        if len(scc) == 1 and not _is_self_recursive(app, scc[0]):
            signature = scc[0]
            result = SequentialWorklist(
                app.method_table[signature], summaries
            ).run()
            summaries[signature] = SummaryBuilder(result.space).build(
                result.exit_facts
            )
            continue
        # Recursive SCC: joint fixed point.
        for signature in scc:
            summaries[signature] = MethodSummary(signature=signature)
        changed = True
        while changed:
            changed = False
            for signature in scc:
                result = SequentialWorklist(
                    app.method_table[signature], summaries
                ).run()
                updated = SummaryBuilder(result.space).build(result.exit_facts)
                if updated != summaries[signature]:
                    summaries[signature] = updated
                    changed = True
    return summaries


def _is_self_recursive(app: AndroidApp, signature: str) -> bool:
    return signature in app.method_table[signature].callees()


def analyze_app_reference(
    app: AndroidApp, with_environments: bool = True
) -> IDFG:
    """Full reference analysis: environments, summaries, per-method runs."""
    if with_environments and app.components:
        app = app_with_environments(app)
    layering = SBDALayering(CallGraph(app))
    summaries = compute_summaries(app, layering)

    method_facts: Dict[str, MethodFacts] = {}
    for method in app.methods:
        result = SequentialWorklist(method, summaries).run()
        method_facts[str(method.signature)] = result
    return IDFG(method_facts=method_facts, summaries=summaries)

"""The conventional iterative algorithm (the worklist's predecessor).

Paper, Related Work: "The conventional iterative search algorithm
visits each ICFG node once in one iteration, and keeps iterating until
no further changes occur to the data-flow sets ... However, it has
large redundancy and slow convergence due to the fixed full workload
in each iteration.  The worklist algorithm is an alternative that
dynamically updates the worklist after each node visiting."

This module implements that conventional algorithm (full round-robin
sweeps to the fixed point) plus the classic sweep orderings from the
implementation-techniques literature the paper cites (Atkinson &
Griswold): body order, reverse post-order (RPO), and random.  The
benchmark `bench_ablation_iterative` quantifies the redundancy gap the
paper's choice of the worklist algorithm avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Set, Tuple

from repro.cfg.intra import IntraCFG, build_intra_cfg
from repro.dataflow.bitset import mask_from
from repro.dataflow.facts import FactSpace
from repro.dataflow.idfg import MethodFacts
from repro.dataflow.summaries import MethodSummary
from repro.dataflow.transfer import TransferFunctions
from repro.ir.method import Method


def reverse_post_order(cfg: IntraCFG) -> List[int]:
    """RPO over the intra-CFG: the classic fast-convergence sweep order
    for forward data-flow problems."""
    count = len(cfg)
    if count == 0:
        return []
    visited = [False] * count
    post: List[int] = []

    # Iterative DFS (generated methods can be deep).
    stack: List[Tuple[int, int]] = [(cfg.entry, 0)]
    visited[cfg.entry] = True
    while stack:
        node, edge_index = stack[-1]
        successors = cfg.successors[node]
        if edge_index < len(successors):
            stack[-1] = (node, edge_index + 1)
            successor = successors[edge_index]
            if not visited[successor]:
                visited[successor] = True
                stack.append((successor, 0))
        else:
            post.append(node)
            stack.pop()
    order = list(reversed(post))
    # Unreachable nodes go last (they never gain facts anyway).
    order.extend(i for i in range(count) if not visited[i])
    return order


@dataclass(frozen=True)
class IterativeResult:
    """Fixed point plus convergence counters."""

    facts: MethodFacts
    #: Full sweeps until no set changed.
    sweeps: int
    #: Total node visits (sweeps x nodes, the "fixed full workload").
    visits: int


class ConventionalIterative:
    """Round-robin full-sweep data-flow solver."""

    #: Supported sweep orders.
    ORDERS = ("body", "rpo", "reverse-body")

    def __init__(
        self,
        method: Method,
        summaries: Optional[Mapping[str, MethodSummary]] = None,
        order: str = "body",
    ) -> None:
        if order not in self.ORDERS:
            raise ValueError(f"unknown sweep order: {order!r}")
        self.method = method
        self.cfg = build_intra_cfg(method)
        footprints = (
            {sig: s.footprint() for sig, s in summaries.items()}
            if summaries
            else None
        )
        self.space = FactSpace(method, footprints)
        self.transfer = TransferFunctions(self.space, summaries)
        self.order = order

    def _sweep_order(self) -> List[int]:
        """Sweep order, restricted to entry-reachable nodes.

        Restricting matches the worklist algorithm's semantics (it only
        ever processes reachable nodes); sweeping dead code would let
        its GEN facts pollute live successors.
        """
        count = len(self.method.statements)
        reachable = set(self.cfg.reachable_nodes())
        if self.order == "rpo":
            order = reverse_post_order(self.cfg)
        elif self.order == "reverse-body":
            order = list(range(count - 1, -1, -1))
        else:
            order = list(range(count))
        return [node for node in order if node in reachable]

    def run(self) -> IterativeResult:
        """Execute to completion and return the results."""
        method = self.method
        count = len(method.statements)
        if count == 0:
            empty = MethodFacts(space=self.space, node_facts=(), exit_facts=0)
            return IterativeResult(facts=empty, sweeps=0, visits=0)

        facts: List[Set[int]] = [set() for _ in range(count)]
        facts[0] = set(self.space.entry_facts())
        order = self._sweep_order()

        sweeps = 0
        visits = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for node in order:
                visits += 1
                out = self.transfer.out_facts(node, facts[node])
                for successor in self.cfg.successors[node]:
                    before = len(facts[successor])
                    facts[successor] |= out
                    if len(facts[successor]) > before:
                        changed = True

        exit_out: Set[int] = set()
        for exit_node in self.cfg.exits:
            exit_out |= self.transfer.out_facts(exit_node, facts[exit_node])
        return IterativeResult(
            facts=MethodFacts(
                space=self.space,
                node_facts=tuple(mask_from(f) for f in facts),
                exit_facts=mask_from(exit_out),
            ),
            sweeps=sweeps,
            visits=visits,
        )

"""The Inter-procedural Control-Flow Graph (ICFG).

The IDFG definition (paper Eq. 1) is ``IDFG(E_C) = ((N, E),
{fact(n) | n in N})`` where ``(N, E)`` is the ICFG rooted at the
component's environment method.  This module materializes that graph:

* one node per statement of every method reachable from the roots;
* intra-procedural edges from the per-method CFGs;
* a *call edge* from each call site to the callee's entry node and a
  *return edge* from each callee exit back to the site's successors.

The GPU kernels do not traverse call/return edges directly (SBDA
summaries decouple methods), but the ICFG is still the reporting
structure for the IDFG, the vetting layer's traversal substrate, and
the source of Table I's "no. of CFG Nodes".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cfg.callgraph import CallGraph
from repro.cfg.intra import IntraCFG, build_intra_cfg
from repro.ir.app import AndroidApp
from repro.ir.statements import Statement, callee_of


@dataclass(frozen=True, slots=True)
class ICFGNode:
    """Identity of one ICFG node: a statement position within a method."""

    method: str
    index: int

    def __str__(self) -> str:
        return f"{self.method}@{self.index}"


class ICFG:
    """Whole-app inter-procedural CFG with dense integer node ids.

    Node ids are assigned method-by-method in reachability order so
    that a method's statements occupy a contiguous id range -- the
    layout property the GRP optimization's contiguous group storage
    builds on (see :mod:`repro.core.grouping`).
    """

    __slots__ = (
        "app",
        "roots",
        "intra",
        "nodes",
        "node_id",
        "method_span",
        "successors",
        "predecessors",
        "call_edges",
        "return_edges",
    )

    def __init__(self, app: AndroidApp, roots: Sequence[str]) -> None:
        self.app = app
        self.roots: Tuple[str, ...] = tuple(roots)
        call_graph = CallGraph(app)

        reachable = self._reachable_methods(call_graph)
        self.intra: Dict[str, IntraCFG] = {
            signature: build_intra_cfg(app.method_table[signature])
            for signature in reachable
        }

        self.nodes: List[ICFGNode] = []
        self.node_id: Dict[ICFGNode, int] = {}
        self.method_span: Dict[str, Tuple[int, int]] = {}
        for signature in reachable:
            start = len(self.nodes)
            for index in range(len(self.intra[signature])):
                node = ICFGNode(signature, index)
                self.node_id[node] = len(self.nodes)
                self.nodes.append(node)
            self.method_span[signature] = (start, len(self.nodes))

        successor_sets: List[List[int]] = [[] for _ in self.nodes]
        self.call_edges: List[Tuple[int, int]] = []
        self.return_edges: List[Tuple[int, int]] = []

        for signature in reachable:
            cfg = self.intra[signature]
            base = self.method_span[signature][0]
            for index, statement in enumerate(cfg.method.statements):
                node = base + index
                for succ in cfg.successors[index]:
                    successor_sets[node].append(base + succ)
                callee = callee_of(statement)
                if callee is not None and callee in self.intra:
                    callee_entry, callee_end = self.method_span[callee]
                    if callee_entry != callee_end:  # non-empty body
                        self.call_edges.append((node, callee_entry))
                        for exit_index in self.intra[callee].exits:
                            for succ in cfg.successors[index]:
                                self.return_edges.append(
                                    (callee_entry + exit_index, base + succ)
                                )

        self.successors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(s) for s in successor_sets
        )
        predecessor_sets: List[List[int]] = [[] for _ in self.nodes]
        for node, succs in enumerate(self.successors):
            for succ in succs:
                predecessor_sets[succ].append(node)
        self.predecessors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p) for p in predecessor_sets
        )

    # -- construction helpers ------------------------------------------------

    def _reachable_methods(self, call_graph: CallGraph) -> List[str]:
        """Methods reachable from the roots, in deterministic BFS order."""
        order: List[str] = []
        seen: Set[str] = set()
        frontier: List[str] = [
            root for root in self.roots if root in self.app.method_table
        ]
        for root in frontier:
            seen.add(root)
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            for callee in sorted(call_graph.callees(current)):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return order

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def statement_of(self, node: int) -> Statement:
        """Statement object at an ICFG node id."""
        icfg_node = self.nodes[node]
        return self.app.method_table[icfg_node.method].statements[icfg_node.index]

    def method_of(self, node: int) -> str:
        """Owning method signature of an ICFG node id."""
        return self.nodes[node].method

    def entry_of(self, signature: str) -> Optional[int]:
        """ICFG node id of a method's entry, or None."""
        start, end = self.method_span[signature]
        return start if start != end else None

    def methods(self) -> Tuple[str, ...]:
        """Signatures of every analyzed method."""
        return tuple(self.method_span)

    def edge_count(self) -> int:
        """Number of CFG edges."""
        intra = sum(len(s) for s in self.successors)
        return intra + len(self.call_edges) + len(self.return_edges)

    def interprocedural_successors(self, node: int) -> Tuple[int, ...]:
        """Successors including call/return edges (vetting traversals)."""
        succ = list(self.successors[node])
        succ.extend(entry for site, entry in self.call_edges if site == node)
        succ.extend(target for source, target in self.return_edges if source == node)
        return tuple(dict.fromkeys(succ))


def build_icfg(app: AndroidApp, roots: Optional[Sequence[str]] = None) -> ICFG:
    """Build the app's ICFG.

    ``roots`` defaults to all component environment methods when the
    app has been augmented with them (see
    :func:`repro.cfg.environment.app_with_environments`), otherwise to
    all methods that are never called (top-level entry points).
    """
    if roots is None:
        env_roots = [
            f"{component.name}.__env__()V" for component in app.components
        ]
        env_roots = [root for root in env_roots if root in app.method_table]
        if env_roots:
            roots = env_roots
        else:
            call_graph = CallGraph(app)
            roots = [
                signature
                for signature in app.method_table
                if not call_graph.callers(signature)
            ]
    return ICFG(app, roots)

"""Call graph, SCC condensation, and SBDA layering.

The plain GPU implementation parallelizes *across methods* by thread
block.  Methods depend on their callees' results, so the paper adopts
Summary-based Bottom-up Data-flow Analysis (SBDA, after Dillig et al.):
compute a heap-manipulation summary per method, process methods bottom-
up over the call graph, and within one *layer* all methods are mutually
independent and can run in different thread blocks simultaneously.

:class:`SBDALayering` computes those layers: recursion cycles are
condensed into strongly connected components (whose members share a
layer and are iterated to a joint summary fixed point), and a method's
layer is ``1 + max(layer of callees)`` with leaf methods at layer 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import networkx as nx

from repro.ir.app import AndroidApp


class CallGraph:
    """Static call graph over method signature strings.

    Unresolvable callees (framework/library methods not present in the
    app's method table) are recorded in :attr:`external_callees` and do
    not contribute edges; the data-flow layer models them with a
    conservative default summary.
    """

    __slots__ = ("app", "graph", "external_callees")

    def __init__(self, app: AndroidApp) -> None:
        self.app = app
        self.graph = nx.DiGraph()
        self.external_callees: Dict[str, List[str]] = {}
        for method in app.methods:
            self.graph.add_node(str(method.signature))
        for method in app.methods:
            caller = str(method.signature)
            for callee in method.callees():
                if callee in app.method_table:
                    self.graph.add_edge(caller, callee)
                else:
                    self.external_callees.setdefault(caller, []).append(callee)

    def callees(self, signature: str) -> Tuple[str, ...]:
        """Signature strings of statically referenced callees."""
        return tuple(self.graph.successors(signature))

    def callers(self, signature: str) -> Tuple[str, ...]:
        """Direct callers of a signature."""
        return tuple(self.graph.predecessors(signature))

    def edge_count(self) -> int:
        """Number of CFG edges."""
        return self.graph.number_of_edges()

    def is_recursive(self) -> bool:
        """True when the app contains any call cycle."""
        return any(
            len(component) > 1 for component in nx.strongly_connected_components(self.graph)
        ) or any(self.graph.has_edge(n, n) for n in self.graph.nodes)


class SBDALayering:
    """Bottom-up layers of the (condensed) call graph.

    ``layers[0]`` holds the leaf SCCs; every SCC appears after all the
    SCCs it calls into.  Each entry of a layer is a tuple of method
    signatures -- a singleton for non-recursive methods, the full cycle
    for recursive ones.
    """

    __slots__ = ("call_graph", "layers", "_layer_of")

    def __init__(self, call_graph: CallGraph) -> None:
        self.call_graph = call_graph
        condensation = nx.condensation(call_graph.graph)
        members: Dict[int, Tuple[str, ...]] = {
            scc_id: tuple(sorted(data["members"]))
            for scc_id, data in condensation.nodes(data=True)
        }
        depth: Dict[int, int] = {}
        for scc_id in nx.topological_sort(condensation.reverse(copy=False)):
            callee_depths = [
                depth[callee] for callee in condensation.successors(scc_id)
            ]
            depth[scc_id] = 1 + max(callee_depths) if callee_depths else 0

        layer_count = 1 + max(depth.values()) if depth else 0
        grouped: List[List[Tuple[str, ...]]] = [[] for _ in range(layer_count)]
        for scc_id, level in depth.items():
            grouped[level].append(members[scc_id])
        self.layers: Tuple[Tuple[Tuple[str, ...], ...], ...] = tuple(
            tuple(sorted(layer)) for layer in grouped
        )
        self._layer_of: Dict[str, int] = {}
        for level, layer in enumerate(self.layers):
            for scc in layer:
                for signature in scc:
                    self._layer_of[signature] = level

    def __len__(self) -> int:
        return len(self.layers)

    def layer_of(self, signature: str) -> int:
        """Bottom-up layer index of a signature."""
        return self._layer_of[signature]

    def scc_of(self, signature: str) -> Tuple[str, ...]:
        """The SCC (as a signature tuple) containing ``signature``."""
        level = self._layer_of[signature]
        for scc in self.layers[level]:
            if signature in scc:
                return scc
        raise KeyError(signature)  # pragma: no cover - inconsistent state

    def bottom_up(self) -> Iterable[Tuple[str, ...]]:
        """All SCCs, leaves first (the SBDA processing order)."""
        for layer in self.layers:
            yield from layer

    def validate(self) -> None:
        """Check the layering invariant: callees live in lower layers.

        Intra-SCC edges are exempt (recursive methods share a layer).
        Raises AssertionError on violation; used by tests and the
        engine's debug mode.
        """
        for caller, callee in self.call_graph.graph.edges:
            if self._layer_of[caller] == self._layer_of[callee]:
                assert self.scc_of(caller) == self.scc_of(callee), (
                    f"{caller} and {callee} share a layer but not an SCC"
                )
            else:
                assert self._layer_of[caller] > self._layer_of[callee], (
                    f"caller {caller} is below callee {callee}"
                )

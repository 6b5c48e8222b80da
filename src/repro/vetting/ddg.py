"""Data-dependence graph (DDG) derived from the IDFG.

Amandroid builds the DDG on top of the IDFG to answer "which
definition can this use observe".  With our instance-based facts the
derivation is direct: instances carry their *birth site* (the
allocation/call statement label), so a node that reads a slot
depends on every statement whose born instance that slot may hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.dataflow.idfg import IDFG, MethodFacts
from repro.ir.app import AndroidApp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vetting.taint import TaintFlow


@dataclass(frozen=True)
class DataDependenceGraph:
    """Per-method DDG: statement labels, def -> use edges."""

    method: str
    graph: nx.DiGraph

    def dependencies_of(self, label: str) -> Tuple[str, ...]:
        """Definitions reaching ``label`` (direct predecessors)."""
        if label not in self.graph:
            return ()
        return tuple(sorted(self.graph.predecessors(label)))

    def reaches(self, def_label: str, use_label: str) -> bool:
        """Transitive dependence query (flow witness in reports)."""
        if def_label not in self.graph or use_label not in self.graph:
            return False
        return nx.has_path(self.graph, def_label, use_label)

    def witness_path(
        self, def_label: str, use_label: str
    ) -> Optional[List[str]]:
        """A shortest def -> use dependence chain, if any."""
        if not self.reaches(def_label, use_label):
            return None
        return nx.shortest_path(self.graph, def_label, use_label)

    def edge_count(self) -> int:
        """Number of CFG edges."""
        return self.graph.number_of_edges()


def build_method_ddg(
    app: AndroidApp, signature: str, facts: MethodFacts
) -> DataDependenceGraph:
    """DDG of one analyzed method."""
    method = app.method_table[signature]
    space = facts.space
    graph = nx.DiGraph()
    for statement in method.statements:
        graph.add_node(statement.label)

    # Instances born inside this method, by instance id.
    birth_label: Dict[int, str] = {}
    for index, instance in enumerate(space.instances):
        if instance[0] in ("site", "call", "exc"):
            birth_label[index] = instance[1]

    count = space.instance_count
    for node, statement in enumerate(method.statements):
        reads = statement.uses()
        if not reads:
            continue
        node_facts = facts.node_facts[node]
        for variable in reads:
            slot = space.var_slot(variable)
            if slot is None:
                continue
            base = slot * count
            for fact in node_facts:
                if base <= fact < base + count:
                    born_at = birth_label.get(fact - base)
                    if born_at is not None and born_at != statement.label:
                        graph.add_edge(born_at, statement.label)
    return DataDependenceGraph(method=signature, graph=graph)


def build_ddg(app: AndroidApp, idfg: IDFG) -> Dict[str, DataDependenceGraph]:
    """DDGs for every analyzed method present in the app."""
    return {
        signature: build_method_ddg(app, signature, facts)
        for signature, facts in idfg.method_facts.items()
        if signature in app.method_table
    }


def flow_witnesses(
    app: AndroidApp, idfg: IDFG, flows: Iterable["TaintFlow"]
) -> Dict[str, Tuple[str, ...]]:
    """Dependence-chain witness per flow, keyed by sink label.

    The witness is the shortest chain into the sink from the first
    definition, in label order, that reaches it in more than one step.
    Only methods that carry a flow get a DDG -- the ones a report
    reads.  ``flows`` come from a :class:`repro.vetting.taint.
    TaintAnalysis` of the same ``app`` and ``idfg``, so each one's
    method is analyzed.
    """
    ddgs: Dict[str, DataDependenceGraph] = {}
    witnesses: Dict[str, Tuple[str, ...]] = {}
    for flow in flows:
        ddg = ddgs.get(flow.method)
        if ddg is None:
            ddg = ddgs[flow.method] = build_method_ddg(
                app, flow.method, idfg.method_facts[flow.method]
            )
        for dependency in ddg.dependencies_of(flow.sink_label):
            path = ddg.witness_path(dependency, flow.sink_label)
            if path and len(path) > 1:
                witnesses[flow.sink_label] = tuple(path)
                break
    return witnesses

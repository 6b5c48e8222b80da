"""Dominator tree and natural-loop detection for intra-CFGs.

Standard program-analysis infrastructure (Cooper-Harvey-Kennedy's
iterative dominator algorithm): dominator trees, back-edge
identification, natural loop bodies and nesting depth.  The library
exposes it both as a user-facing analysis (loop reports in vetting
output consumers) and as the structural ground truth behind the
corpus statistics (loop density drives the worklist iteration counts
the paper's Table II profiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.cfg.intra import IntraCFG
from repro.dataflow.iterative import reverse_post_order


class DominatorTree:
    """Immediate dominators of an :class:`IntraCFG`'s reachable nodes."""

    __slots__ = ("cfg", "idom", "_rpo_index")

    def __init__(self, cfg: IntraCFG) -> None:
        self.cfg = cfg
        order = [
            node
            for node in reverse_post_order(cfg)
            if node in set(cfg.reachable_nodes())
        ]
        self._rpo_index: Dict[int, int] = {
            node: index for index, node in enumerate(order)
        }
        #: node -> immediate dominator (entry maps to itself).
        self.idom: Dict[int, int] = {}
        if not order:
            return
        entry = cfg.entry
        self.idom[entry] = entry

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == entry:
                    continue
                candidates = [
                    predecessor
                    for predecessor in cfg.predecessors[node]
                    if predecessor in self.idom
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for predecessor in candidates[1:]:
                    new_idom = self._intersect(new_idom, predecessor)
                if self.idom.get(node) != new_idom:
                    self.idom[node] = new_idom
                    changed = True

    def _intersect(self, a: int, b: int) -> int:
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                a = self.idom[a]
            while index[b] > index[a]:
                b = self.idom[b]
        return a

    # -- queries ------------------------------------------------------------------

    def dominates(self, dominator: int, node: int) -> bool:
        """Reflexive dominance over reachable nodes."""
        if node not in self.idom or dominator not in self.idom:
            return False
        current = node
        while True:
            if current == dominator:
                return True
            parent = self.idom[current]
            if parent == current:
                return False
            current = parent

    def dominators_of(self, node: int) -> Tuple[int, ...]:
        """The dominator chain of ``node``, entry last."""
        if node not in self.idom:
            return ()
        chain = [node]
        while self.idom[chain[-1]] != chain[-1]:
            chain.append(self.idom[chain[-1]])
        return tuple(chain)


@dataclass(frozen=True)
class NaturalLoop:
    """One natural loop: its header and full body (node ids)."""

    header: int
    back_edge_source: int
    body: FrozenSet[int]

    def __len__(self) -> int:
        return len(self.body)


def natural_loops(cfg: IntraCFG) -> List[NaturalLoop]:
    """Natural loops from back edges (target dominates source)."""
    tree = DominatorTree(cfg)
    loops: List[NaturalLoop] = []
    for source, successors in enumerate(cfg.successors):
        for target in successors:
            if not tree.dominates(target, source):
                continue
            body: Set[int] = {target, source}
            stack = [source]
            while stack:
                node = stack.pop()
                if node == target:
                    continue
                for predecessor in cfg.predecessors[node]:
                    if predecessor not in body:
                        body.add(predecessor)
                        stack.append(predecessor)
            loops.append(
                NaturalLoop(
                    header=target,
                    back_edge_source=source,
                    body=frozenset(body),
                )
            )
    return loops


def loop_nesting_depth(cfg: IntraCFG) -> Dict[int, int]:
    """Per-node loop nesting depth (0 outside any loop)."""
    depth: Dict[int, int] = {node: 0 for node in range(len(cfg))}
    for loop in natural_loops(cfg):
        for node in loop.body:
            depth[node] += 1
    # Overlapping same-header loops share a body; collapse duplicates.
    headers: Dict[int, Set[FrozenSet[int]]] = {}
    for loop in natural_loops(cfg):
        headers.setdefault(loop.header, set()).add(loop.body)
    for header, bodies in headers.items():
        if len(bodies) > 1:
            # Same-header back edges belong to one loop; undo the
            # over-count for nodes shared by all of them.
            shared = frozenset.intersection(*bodies)
            for node in shared:
                depth[node] -= len(bodies) - 1
    return depth

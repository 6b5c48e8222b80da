"""IDFG: the Inter-procedural Data-Flow Graph result structure.

Per the paper's Eq. 1, ``IDFG(E_C) = ((N, E), {fact(n) | n in N})`` --
the ICFG plus a data-fact set per node.  With SBDA, per-node facts are
computed method-by-method; :class:`IDFG` aggregates the per-method
results and offers the equality comparison used to verify that every
GPU variant reproduces the reference ("we verify the output of the GPU
implementations with the original IDFG").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.dataflow.bitset import bit_indices
from repro.dataflow.facts import FactSpace, Instance, Slot
from repro.dataflow.summaries import MethodSummary


@dataclass(frozen=True)
class MethodFacts:
    """Fixed-point facts of one method's analysis, as MAT rows.

    ``node_facts[i]`` is the row entering statement ``i``: one int whose
    bit ``slot * instance_count + instance`` is set when that fact of
    the method's :class:`FactSpace` holds.  ``exit_facts`` is the union
    of the OUT rows of all exit nodes (the summary's raw material).
    """

    space: FactSpace
    node_facts: Tuple[int, ...]
    exit_facts: int

    def instances(self, node: int, slot: int) -> int:
        """Mask of the instances ``slot`` may point to at ``node``."""
        count = self.space.instance_count
        return (self.node_facts[node] >> slot * count) & ((1 << count) - 1)

    def decoded(self, node: int) -> FrozenSet[Tuple[Slot, Instance]]:
        """Human-readable facts of one node."""
        return frozenset(
            self.space.decode_named(f) for f in bit_indices(self.node_facts[node])
        )

    def fact_count(self) -> int:
        """Total facts across this method's nodes."""
        return sum(row.bit_count() for row in self.node_facts)


class IDFG:
    """Whole-app IDFG: per-method fixed points plus summaries."""

    __slots__ = ("method_facts", "summaries")

    def __init__(
        self,
        method_facts: Mapping[str, MethodFacts],
        summaries: Mapping[str, MethodSummary],
    ) -> None:
        self.method_facts: Dict[str, MethodFacts] = dict(method_facts)
        self.summaries: Dict[str, MethodSummary] = dict(summaries)

    def facts_of(self, signature: str) -> MethodFacts:
        """Per-node facts of one analyzed method."""
        return self.method_facts[signature]

    def methods(self) -> Tuple[str, ...]:
        """Signatures of every analyzed method."""
        return tuple(self.method_facts)

    def total_fact_count(self) -> int:
        """Total facts across all nodes."""
        return sum(mf.fact_count() for mf in self.method_facts.values())

    def node_count(self) -> int:
        """Total ICFG nodes across analyzed methods."""
        return sum(len(mf.node_facts) for mf in self.method_facts.values())

    # -- verification -----------------------------------------------------------

    def equivalent_to(self, other: "IDFG") -> bool:
        """Structural fact equality (the paper's correctness criterion)."""
        if set(self.method_facts) != set(other.method_facts):
            return False
        for signature, mine in self.method_facts.items():
            theirs = other.method_facts[signature]
            if mine.node_facts != theirs.node_facts:
                return False
        return True

    def diff(self, other: "IDFG") -> Dict[str, Tuple[int, ...]]:
        """Nodes whose facts differ, per method -- debugging aid."""
        differences: Dict[str, Tuple[int, ...]] = {}
        for signature in set(self.method_facts) | set(other.method_facts):
            mine = self.method_facts.get(signature)
            theirs = other.method_facts.get(signature)
            if mine is None or theirs is None:
                differences[signature] = ()
                continue
            nodes = tuple(
                i
                for i, (a, b) in enumerate(zip(mine.node_facts, theirs.node_facts))
                if a != b
            )
            if nodes:
                differences[signature] = nodes
        return differences

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IDFG({len(self.method_facts)} methods, "
            f"{self.total_fact_count()} facts)"
        )

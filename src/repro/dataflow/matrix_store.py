"""MAT: the fixed-size matrix fact store (paper Section IV-A).

The matrix rows are the slot pool, the columns the instance pool, and
each cell is an *n*-bit bit-mask with one bit per statement of the
method: bit ``s`` of cell ``(slot, instance)`` set means the fact
``(slot, instance)`` holds at node ``s``.  Everything is allocated up
front from the pre-determined pools (:class:`repro.dataflow.facts.
FactSpace`), so the store never reallocates -- the GPU kernel replaces
set updates with constant-time entry lookups.

Implementation: one NumPy ``uint64`` array of shape
``(node_count, ceil(universe / 64))`` -- the paper's 1-bit-per-cell
packing realized on the host, mutated with vectorized
``bitwise_or`` / ``bitwise_count`` word operations.  The *modeled
device footprint* (Fig. 10) is computed at the paper's contiguous
1-bit-per-cell packing in :meth:`memory_bytes`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set, Tuple

import numpy as np

from repro.dataflow.bitset import (
    pack_indices,
    popcount_words,
    unpack_indices,
    words_for,
)
from repro.dataflow.facts import FactSpace


class MatrixFactStore:
    """Bit-matrix fact store over a pre-determined fact universe."""

    __slots__ = ("node_count", "universe", "_words")

    def __init__(self, node_count: int, universe: int) -> None:
        self.node_count = node_count
        #: Number of representable facts: slot_count * instance_count.
        self.universe = universe
        self._words = np.zeros(
            (node_count, words_for(universe)), dtype=np.uint64
        )

    @classmethod
    def for_space(cls, space: FactSpace) -> "MatrixFactStore":
        """Store sized for a method's pre-determined fact space."""
        return cls(len(space.method.statements), space.fact_universe)

    # -- mutation -------------------------------------------------------------

    def insert_all(self, node: int, facts: Iterable[int]) -> bool:
        """Mark facts at ``node``; True when any cell flipped 0 -> 1."""
        row = self._words[node]
        if isinstance(facts, (list, tuple)):
            # Single-fact inserts dominate the worklist hot loop: test
            # and set one bit without materializing index arrays.
            if len(facts) == 1:
                fact = facts[0]
                word, bit = fact >> 6, np.uint64(1 << (fact & 63))
                if row[word] & bit:
                    return False
                row[word] |= bit
                return True
            if not facts:
                return False
            mask = pack_indices(facts, row.shape[0])
        else:
            mask = pack_indices(facts, row.shape[0])
            if not mask.any():
                return False
        fresh = mask & ~row
        if not fresh.any():
            return False
        row |= mask
        return True

    def replace(self, node: int, facts: Iterable[int]) -> None:
        """Overwrite ``node``'s facts with exactly ``facts``."""
        self._words[node] = pack_indices(facts, self._words.shape[1])

    # -- queries --------------------------------------------------------------

    def get(self, node: int) -> Set[int]:
        """The fact set stored for ``node``."""
        return set(unpack_indices(self._words[node]))

    def size(self, node: int) -> int:
        """Number of facts stored for ``node``."""
        return popcount_words(self._words[node])

    def contains(self, node: int, fact: int) -> bool:
        """Membership test for one (node, fact) pair."""
        return bool(self._words[node, fact >> 6] & np.uint64(1 << (fact & 63)))

    def snapshot(self) -> Tuple[FrozenSet[int], ...]:
        """Immutable per-node copy of all stored facts."""
        return tuple(
            frozenset(unpack_indices(self._words[node]))
            for node in range(self.node_count)
        )

    def total_fact_count(self) -> int:
        """Total facts across all nodes."""
        return popcount_words(self._words)

    def memory_bytes(self) -> int:
        """Modeled device footprint at 1 bit per (node, cell).

        Masks are packed contiguously (cell 0's n bits, then cell 1's,
        ...), so only the whole matrix rounds up to a byte boundary.
        """
        return (self.universe * self.node_count + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MatrixFactStore({self.node_count} nodes x {self.universe} cells, "
            f"{self.total_fact_count()} facts)"
        )

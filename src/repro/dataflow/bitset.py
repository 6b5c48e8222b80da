"""Int-mask primitives: the MAT rows of the host implementation.

A Python int is a packed little-endian bitset whose ``&``/``|``/
``>>``/``bit_count`` ops run in C over all 64-bit limbs per interpreter
step -- the warp-wide batched GEN/KILL application, with none of the
per-element overhead of Python sets.  One int per node is the paper's
MAT row: bit ``slot_id * instance_count + instance_id`` (the fact
integer of :class:`repro.dataflow.facts.FactSpace`) is set when that
fact holds.  The block runner's fixed points
(:mod:`repro.core.blockexec`), the incremental miss path
(``SequentialWorklist.run_masked``), :class:`repro.dataflow.idfg.
MethodFacts` and the summary store all keep facts in this form.
"""

from __future__ import annotations

from typing import Iterable, List


def mask_from(indices: Iterable[int]) -> int:
    """Int mask with the given bit indices set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def bit_indices(mask: int) -> List[int]:
    """The set bit indices of a non-negative int mask, ascending.

    Scans the reversed binary string with ``str.find``: one C-level
    search per set bit, where isolating the lowest bit costs three
    big-int operations per bit.
    """
    bits = bin(mask)[:1:-1]
    indices: List[int] = []
    index = bits.find("1")
    while index >= 0:
        indices.append(index)
        index = bits.find("1", index + 1)
    return indices

"""Packed-bitset primitives for the host performance layer.

Two packed representations are used on the host:

* **uint64 word arrays** (NumPy) back the :class:`repro.dataflow.
  matrix_store.MatrixFactStore` -- the paper's MAT layout at its
  actual 1-bit-per-cell density, updated with vectorized
  ``bitwise_or`` / ``bitwise_count`` operations across all words at
  once.
* **Python int masks** carry the per-node fact sets inside the
  block runner's fixed points (:mod:`repro.core.blockexec`) and the
  incremental miss path (``SequentialWorklist.run_masked`` in
  :mod:`repro.dataflow.worklist`).  An arbitrary-precision int is a
  packed little-endian bitset whose ``&``/``|``/``>>``/``bit_count``
  ops run in C over all 64-bit limbs per interpreter step -- the
  warp-wide batched GEN/KILL application, with none of the per-element
  overhead of Python sets.

Both encodings index bits by the fact integer
``slot_id * instance_count + instance_id`` of
:class:`repro.dataflow.facts.FactSpace`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set

import numpy as np

#: Bits per packed word.
WORD_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def words_for(universe: int) -> int:
    """Number of uint64 words needed for ``universe`` bits (min 1)."""
    return max(1, (universe + WORD_BITS - 1) // WORD_BITS)


# -- uint64 word-array helpers --------------------------------------------------


def pack_indices(indices: Iterable[int], words: int) -> np.ndarray:
    """Pack bit indices into a fresh uint64 word array."""
    row = np.zeros(words, dtype=np.uint64)
    idx = np.fromiter(indices, dtype=np.int64, count=-1)
    if idx.size:
        np.bitwise_or.at(
            row, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64)
        )
    return row


def unpack_indices(row: np.ndarray) -> List[int]:
    """Sorted bit indices set in a uint64 word array."""
    bits = np.unpackbits(row.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).tolist()


def popcount_words(row: np.ndarray) -> int:
    """Total set bits across a uint64 word array."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(row).sum())
    return int(np.unpackbits(row.view(np.uint8)).sum())  # pragma: no cover


# -- Python-int mask helpers ----------------------------------------------------


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


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate the set bit indices of an int mask, ascending."""
    return iter(bit_indices(mask))


def mask_to_set(mask: int) -> Set[int]:
    """The int mask's bits as a plain set of fact ids."""
    return set(bit_indices(mask))


def mask_to_frozenset(mask: int) -> FrozenSet[int]:
    """The int mask's bits as a frozenset of fact ids."""
    return frozenset(bit_indices(mask))

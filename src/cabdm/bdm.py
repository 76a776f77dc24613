"""Block decomposition: complexity of strings and arrays from a CTM table.

An object is cut into non-overlapping blocks small enough for table lookup
and scored as

    BDM = sum over unique blocks of [ ctm(block) + log2(multiplicity) ]

so repeating a block k times costs log2(k) extra bits rather than k full
copies.  A block the table never saw, at a length it has entries for,
scores the largest value at that length plus one bit; a block of a length
the table has no entries for at all raises ``CoverageError``.

2D arrays are tiled into d x d blocks and each tile is flattened row-major
into a string; ternary cells are first expanded to two bits each
(0 -> "00", 1 -> "01", -1 -> "10"), which lets a single binary table score
mixed-state lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ca import _TO_TEXT, _cells
from .ctm import CtmTable

DEFAULT_BLOCK_LEN_1D = 6
# With the shipped (3,2) table the longest produced output is 7 cells, so
# 3x3 tiles (9-cell strings) would have no coverage at all; 2x2 tiles are
# fully covered.
DEFAULT_BLOCK_SIDE_2D = 2


@dataclass(frozen=True)
class BlockPartition:
    """Unique blocks with multiplicities, in order of first appearance."""

    blocks: tuple[tuple[str, int], ...]
    block_size: int

    def total_chars(self) -> int:
        return sum(len(s) * n for s, n in self.blocks)


@dataclass(frozen=True)
class BdmValue:
    value: float
    partition: BlockPartition


def flatten_binary(arr) -> str:
    """Row-major 0/1 string of a binary array of any dimension."""
    return _cells(arr, (0, 1)).tobytes().translate(_TO_TEXT).decode()


def flatten_ternary(arr) -> str:
    """Row-major string of a {-1,0,1} array, two bits per cell."""
    return _ternary_bits(_cells(arr, (-1, 0, 1)).reshape(-1)).tobytes().translate(_TO_TEXT).decode()


def _ternary_bits(a: np.ndarray) -> np.ndarray:
    """Expand the last axis: every ternary cell becomes two binary cells."""
    shape = a.shape[:-1] + (2 * a.shape[-1],)
    out = np.empty(shape, dtype=np.int8)
    out[..., 0::2] = a == -1
    out[..., 1::2] = a == 1
    return out


def partition_1d(s: str, b: int) -> BlockPartition:
    """Consecutive length-b blocks left to right; the tail stays shorter."""
    if not s:
        raise ValueError("cannot partition an empty string")
    if b < 1:
        raise ValueError("block length must be >= 1")
    counts: dict[str, int] = {}
    for i in range(0, len(s), b):
        block = s[i : i + b]
        counts[block] = counts.get(block, 0) + 1
    return BlockPartition(
        blocks=tuple(counts.items()),
        block_size=b,
    )


def _score(counts: dict[str, int], table: CtmTable) -> float:
    # A plain left-to-right fold: builtin sum() compensates float rounding
    # from Python 3.12 on, which would change scores in the last bits.
    total = 0.0
    for block, n in counts.items():
        total += table.lookup(block) + math.log2(n)
    return total


def bdm_1d(s: str, table: CtmTable, b: int = DEFAULT_BLOCK_LEN_1D) -> BdmValue:
    """BDM of a binary string decomposed into length-b blocks."""
    partition = partition_1d(s, b)
    counts = dict(partition.blocks)
    return BdmValue(value=_score(counts, table), partition=partition)


def bdm_2d(a, table: CtmTable, d: int = DEFAULT_BLOCK_SIDE_2D) -> BdmValue:
    """BDM of a 2D array tiled into d x d blocks (smaller ones at the edges).

    Any -1 cell switches the whole array to the two-bit ternary encoding.
    """
    arr = _cells(a, (-1, 0, 1), 2)
    if d < 1:
        raise ValueError("block side must be >= 1")
    if arr.size == 0:
        raise ValueError("cannot decompose an empty array")
    grid = _ternary_bits(arr) if (arr == -1).any() else arr
    height, width = arr.shape
    tc = d * grid.shape[1] // width  # bit columns per tile
    # Each tile's code is a leading 1 and then its bits, row-major.  The leading 1
    # keeps an edge tile apart from a longer tile with the same bits ("01" from
    # "0001"), so a code names exactly one block string.
    codes = np.ones((-(-height // d), -(-width // d)), dtype=np.min_scalar_type((1 << (d * tc + 1)) - 1))
    bits = grid.view(np.uint8)
    for i in range(d):
        for j in range(tc):
            cell = bits[i::d, j::tc]  # bit (i, j) of every tile that has one
            part = codes[: cell.shape[0], : cell.shape[1]]
            part <<= 1
            part |= cell
    uniq, first, n = np.unique(codes.ravel(), return_index=True, return_counts=True)
    order = np.argsort(first)  # first appearance, row-major
    str_counts = {format(code, "b")[1:]: c for code, c in zip(uniq[order].tolist(), n[order].tolist())}
    partition = BlockPartition(blocks=tuple(str_counts.items()), block_size=d)
    return BdmValue(value=_score(str_counts, table), partition=partition)

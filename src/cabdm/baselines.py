"""Statistical baselines: LZW compressed size and Shannon entropies.

The LZW variant is the minimal classic one, pinned so byte counts are
reproducible: dictionary starts with the 256 single-byte phrases, new
phrases are appended forever (no reset), and codes are written with a
variable width that starts at 9 bits and grows by one whenever the next
code to assign reaches 2^width.  Because there is no reset, the width of
the i-th emitted code depends only on i, which both sides exploit.

So a size needs only the number of codes: ``compressed_size`` counts them
through a phrase trie over the cells' three symbols and never builds the
code list.  ``lzw_compress`` and ``lzw_decompress`` are the oracle it is
tested against; they share only the bits-to-bytes rounding with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdm import BlockPartition, partition_1d
from .ca import _TO_TEXT, _cells


@dataclass(frozen=True)
class LzwResult:
    codes: tuple[int, ...]
    compressed_bits: int
    compressed_bytes: int


def _compressed_bits(n_codes: int) -> int:
    """Total width of the first ``n_codes`` codes.  Emitting code number i
    finds 256 + i phrases assigned, so it takes max(9, (256 + i).bit_length())
    bits: the first 256 codes take 9 bits, the next 512 take 10, and so on."""
    bits, width, start = 0, 9, 0
    while start < n_codes:
        end = min(n_codes, (1 << width) - 256)  # the first code that needs width + 1 bits
        bits += (end - start) * width
        start, width = end, width + 1
    return bits


def _sizes(n_codes: int) -> tuple[int, int]:
    """(bits, bytes) of ``n_codes`` codes; the last byte is zero-padded."""
    bits = _compressed_bits(n_codes)
    return bits, -(-bits // 8)


def lzw_compress(data: bytes) -> LzwResult:
    """Classic longest-match LZW over raw bytes."""
    data = bytes(data)
    codes: list[int] = []
    if data:
        phrases: dict[tuple[int, int], int] = {}
        next_code = 256
        current = data[0]
        for byte in data[1:]:
            extended = phrases.get((current, byte))
            if extended is not None:
                current = extended
                continue
            codes.append(current)
            phrases[(current, byte)] = next_code
            next_code += 1
            current = byte
        codes.append(current)
    bits, n_bytes = _sizes(len(codes))
    return LzwResult(codes=tuple(codes), compressed_bits=bits, compressed_bytes=n_bytes)


def lzw_decompress(codes) -> bytes:
    """Invert lzw_compress; accepts the code sequence it produced."""
    codes = list(codes)
    if not codes:
        return b""
    phrases: dict[int, bytes] = {i: bytes([i]) for i in range(256)}
    next_code = 256
    if codes[0] not in phrases:
        raise ValueError(f"invalid LZW code {codes[0]}")
    previous = phrases[codes[0]]
    out = [previous]
    for code in codes[1:]:
        if code in phrases:
            phrase = phrases[code]
        elif code == next_code:  # phrase defined by the very code being read
            phrase = previous + previous[:1]
        else:
            raise ValueError(f"invalid LZW code {code}")
        out.append(phrase)
        phrases[next_code] = previous + phrase[:1]
        next_code += 1
        previous = phrase
    return b"".join(out)


def serialize_cells(cells) -> bytes:
    """Row-major ASCII digits of a cell array; -1 is written as '2'."""
    return _cells(cells, (-1, 0, 1)).tobytes().translate(_TO_TEXT)


def _code_count(symbols: bytes) -> int:
    """``len(lzw_compress(symbols).codes)`` for bytes over 0, 1, 2, by a phrase
    trie held as one child list per symbol: ``children[s][node]`` is the node
    of phrase ``node`` + s, or 0 for none (nodes 0-2, the one-symbol phrases,
    are no node's child).  Each miss emits a code and adds one node."""
    if not symbols:
        return 0
    c0, c1, c2 = children = ([0, 0, 0], [0, 0, 0], [0, 0, 0])
    node = symbols[0]
    n_codes = 1  # the code of the last phrase, emitted at the end
    for s in symbols[1:]:
        child = children[s]
        extended = child[node]
        if extended:
            node = extended
            continue
        child[node] = len(c0)
        c0.append(0)
        c1.append(0)
        c2.append(0)
        n_codes += 1
        node = s
    return n_codes


# int8 cell bytes 0, 1, -1 as trie symbols 0, 1, 2: one-to-one, so every LZW phrase boundary
# falls where it does in the "012" text of serialize_cells.
_TO_SYMBOL = bytes.maketrans(b"\x00\x01\xff", b"\x00\x01\x02")


def compressed_size(spacetime) -> int:
    """LZW compressed byte count of a spacetime's ASCII serialization."""
    cells = _cells(getattr(spacetime, "cells", spacetime), (-1, 0, 1))
    return _sizes(_code_count(cells.tobytes().translate(_TO_SYMBOL)))[1]


def shannon_block_entropy(s: str, b: int) -> float:
    """Entropy (bits) of the empirical distribution of length-b blocks.

    Blocks are consecutive and non-overlapping; a trailing fragment shorter
    than b is ignored.
    """
    return partition_entropy(partition_1d(s, b))


def partition_entropy(partition: BlockPartition) -> float:
    """``shannon_block_entropy`` of the string a ``partition_1d`` result cut up:
    its full-length blocks, folded in first-appearance order."""
    b = partition.block_size
    n_blocks = partition.total_chars() // b
    if not n_blocks:
        raise ValueError(f"need at least one full block: |s|={partition.total_chars()} < b={b}")
    total = 0.0  # left-to-right, as in bdm._score: sum() rounds differently from 3.12
    for block, c in partition.blocks:
        if len(block) == b:
            total += c / n_blocks * math.log2(c / n_blocks)
    return -total


def temporal_cell_entropy(spacetime) -> np.ndarray:
    """Per-cell entropy of each grid cell's binary time series, from a
    (time, height, width) stack of 0/1 cells."""
    stack = _cells(getattr(spacetime, "cells", spacetime), (0, 1), 3)
    if stack.shape[0] < 2:
        raise ValueError("need at least 2 time slices")
    p = stack.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    return np.where((p == 0) | (p == 1), 0.0, h)

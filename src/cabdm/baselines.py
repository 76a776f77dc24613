"""Statistical baselines: LZW compressed size and Shannon entropies.

The LZW variant is the minimal classic one, pinned so byte counts are
reproducible: dictionary starts with the 256 single-byte phrases, new
phrases are appended forever (no reset), and codes are written with a
variable width that starts at 9 bits and grows by one whenever the next
code to assign reaches 2^width.  Because there is no reset, the width of
the i-th emitted code depends only on i, which both sides exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdm import partition_1d
from .ca import _cells


@dataclass(frozen=True)
class LzwResult:
    codes: tuple[int, ...]
    compressed_bits: int
    compressed_bytes: int


def _code_width(position: int) -> int:
    # Emitting code number `position` finds 256 + position phrases assigned.
    return max(9, (256 + position).bit_length())


def lzw_compress(data: bytes) -> LzwResult:
    """Classic longest-match LZW over raw bytes."""
    data = bytes(data)
    codes: list[int] = []
    bits = 0
    if data:
        phrases: dict[tuple[int, int], int] = {}
        next_code = 256
        current = data[0]
        for byte in data[1:]:
            extended = phrases.get((current, byte))
            if extended is not None:
                current = extended
                continue
            bits += _code_width(len(codes))
            codes.append(current)
            phrases[(current, byte)] = next_code
            next_code += 1
            current = byte
        bits += _code_width(len(codes))
        codes.append(current)
    return LzwResult(codes=tuple(codes), compressed_bits=bits, compressed_bytes=-(-bits // 8))


def lzw_decompress(codes) -> bytes:
    """Invert lzw_compress; accepts the code sequence it produced."""
    codes = list(codes)
    if not codes:
        return b""
    phrases: dict[int, bytes] = {i: bytes([i]) for i in range(256)}
    next_code = 256
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
    arr = _cells(cells, (-1, 0, 1))
    digits = np.where(arr == -1, np.int8(2), arr).astype(np.uint8) + ord("0")
    return digits.tobytes()


def compressed_size(spacetime) -> int:
    """LZW compressed byte count of a spacetime's ASCII serialization."""
    cells = getattr(spacetime, "cells", spacetime)
    return lzw_compress(serialize_cells(cells)).compressed_bytes


def shannon_block_entropy(s: str, b: int) -> float:
    """Entropy (bits) of the empirical distribution of length-b blocks.

    Blocks are consecutive and non-overlapping; a trailing fragment shorter
    than b is ignored.
    """
    if b < 1:
        raise ValueError("block length must be >= 1")
    if len(s) < b:
        raise ValueError(f"need at least one full block: |s|={len(s)} < b={b}")
    n_blocks = len(s) // b
    total = 0.0  # left-to-right, as in bdm._score: sum() rounds differently from 3.12
    for _, c in partition_1d(s[: n_blocks * b], b).blocks:
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

"""Reference computations the benchmark checks the library's outputs against.

Every oracle is written from the documented definitions rather than from
the library's code paths: automaton steps index neighbours directly
instead of rolling rows, BDM counts blocks by packing them into integers
and sums with ``math.fsum``, and LZW keeps its own dictionary.  The only
library pieces used are ``cabdm.Stream`` (it defines the generated inputs)
and, for the machine census, the reference simulator ``run_machine``.
Oracles run outside the timed region.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product

import numpy as np

from cabdm import Stream, decode_machine, run_machine

TOL = 1e-9
_COMPLEMENT = str.maketrans("01", "10")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def random_cells(label: str, seed: int, n: int, density: float) -> np.ndarray:
    """n cells, each 1 iff the stream's next uniform double is below density."""
    stream = Stream(label, seed)
    return np.array([1 if stream.next_float() < density else 0 for _ in range(n)], dtype=np.int8)


def _neighbours(width: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(width)
    return (i - 1) % width, (i + 1) % width


def eca(rule: int, init, steps: int) -> np.ndarray:
    """(steps+1, width) spacetime of a cyclic elementary automaton."""
    out = np.empty((steps + 1, len(init)), dtype=np.int8)
    out[0] = init
    left, right = _neighbours(out.shape[1])
    outcome = np.array([rule >> v & 1 for v in range(8)], dtype=np.int8)
    for t in range(steps):
        row = out[t].astype(np.intp)
        out[t + 1] = outcome[4 * row[left] + 2 * row + row[right]]
    return out


def gol(grid, steps: int) -> np.ndarray:
    """(steps+1, h, w) stack of Conway's B3/S23 on a torus."""
    grid = np.asarray(grid, dtype=np.int8)
    h, w = grid.shape
    out = np.empty((steps + 1, h, w), dtype=np.int8)
    out[0] = grid
    for t in range(steps):
        padded = np.pad(out[t], 1, mode="wrap")
        live = sum(
            padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        )
        out[t + 1] = (live == 3) | ((out[t] == 1) & (live == 2))
    return out


def interaction_outcomes(label: str, rule_a: int, rule_b: int, seed: int) -> np.ndarray:
    """27 outcomes indexed 9(l+1) + 3(c+1) + (r+1), drawn as documented.

    Mixed neighbourhoods take one draw each in ascending order; the all-zero
    one takes a further draw only when the two rules disagree there.
    """
    stream = Stream(label, seed)
    hoods = list(product((-1, 0, 1), repeat=3))
    mixed = {h: stream.next_below(3) - 1 for h in hoods if 1 in h and -1 in h}
    zero_a, zero_b = rule_a & 1, -(rule_b & 1)
    zero = stream.next_below(3) - 1 if zero_a != zero_b else zero_a
    lut = np.empty(27, dtype=np.int8)
    for l, c, r in hoods:
        if (l, c, r) == (0, 0, 0):
            value = zero
        elif (l, c, r) in mixed:
            value = mixed[(l, c, r)]
        elif -1 not in (l, c, r):
            value = rule_a >> (4 * l + 2 * c + r) & 1
        else:
            value = -(rule_b >> (-4 * l - 2 * c - r) & 1)
        lut[9 * (l + 1) + 3 * (c + 1) + r + 1] = value
    return lut


def ternary(lut: np.ndarray, init, steps: int) -> np.ndarray:
    out = np.empty((steps + 1, len(init)), dtype=np.int8)
    out[0] = init
    left, right = _neighbours(out.shape[1])
    for t in range(steps):
        row = out[t].astype(np.intp) + 1
        out[t + 1] = lut[9 * row[left] + 3 * row + row[right]]
    return out


def bits(cells, ternary: bool = False) -> np.ndarray:
    """Row-major 0/1 vector; ternary cells become two bits (0->00, 1->01, -1->10)."""
    flat = np.asarray(cells, dtype=np.int8).reshape(-1)
    if not ternary:
        return flat
    out = np.empty(2 * flat.size, dtype=np.int8)
    out[0::2] = flat == -1
    out[1::2] = flat == 1
    return out


def _pack(blocks: np.ndarray) -> dict[str, int]:
    """Counts of the rows of a 0/1 matrix, keyed by their strings."""
    width = blocks.shape[1]
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    values, counts = np.unique(blocks.astype(np.int64) @ weights, return_counts=True)
    return {format(int(v), f"0{width}b"): int(c) for v, c in zip(values, counts)}


def blocks_1d(vec: np.ndarray, b: int) -> dict[str, int]:
    """Consecutive length-b blocks; a shorter tail counts as its own block."""
    full = vec.size // b
    counts = _pack(vec[: full * b].reshape(full, b)) if full else {}
    tail = "".join(map(str, vec[full * b :].tolist()))
    if tail:
        counts[tail] = counts.get(tail, 0) + 1
    return counts


def blocks_2d(grid: np.ndarray, d: int) -> dict[str, int]:
    """d x d tiles (smaller at the edges), each read row-major."""
    h, w = grid.shape
    fh, fw = h - h % d, w - w % d
    counts = Counter()
    if fh and fw:
        tiles = grid[:fh, :fw].reshape(fh // d, d, fw // d, d).swapaxes(1, 2).reshape(-1, d * d)
        counts.update(_pack(tiles))
    for r in range(0, h, d):
        for c in range(0, w, d):
            if r + d > h or c + d > w:
                counts["".join(map(str, grid[r : r + d, c : c + d].reshape(-1).tolist()))] += 1
    return dict(counts)


class Scorer:
    """BDM as the documented sum, with the max-at-length + 1 fallback."""

    def __init__(self, table):
        self.values = {s: v for s, (_, v) in table.entries.items()}
        self.fallback: dict[int, float] = {}
        for s, v in self.values.items():
            self.fallback[len(s)] = max(self.fallback.get(len(s), -math.inf), v)

    def score(self, counts: dict[str, int]) -> float:
        return math.fsum(
            self.values.get(s, self.fallback[len(s)] + 1.0) + math.log2(n) for s, n in counts.items()
        )

    def bdm_1d(self, cells, b: int, ternary: bool = False) -> float:
        return self.score(blocks_1d(bits(cells, ternary), b))

    def bdm_2d(self, grid, d: int) -> float:
        return self.score(blocks_2d(np.asarray(grid, dtype=np.int8), d))


def block_entropy(cells, b: int) -> float:
    """Shannon entropy of the full consecutive length-b blocks."""
    vec = bits(cells)
    full = vec.size // b
    counts = np.array(list(_pack(vec[: full * b].reshape(full, b)).values()), dtype=float)
    p = counts / full
    return -math.fsum(p * np.log2(p))


def lzw_bytes(cells) -> int:
    """Compressed size of the ASCII digits ('2' for -1) under the pinned LZW.

    256 single-byte phrases to start, one new phrase per emitted code, no
    reset, and the i-th code is max(9, bit_length(256 + i)) bits wide.
    """
    flat = np.asarray(cells, dtype=np.int8).reshape(-1)
    data = (np.where(flat == -1, 2, flat) + ord("0")).astype(np.uint8).tobytes()
    if not data:
        return 0
    phrases: dict[int, int] = {}
    current, emitted = data[0], 0
    for byte in data[1:]:
        key = current << 8 | byte
        known = phrases.get(key)
        if known is None:
            phrases[key] = 256 + emitted
            emitted += 1
            current = byte
        else:
            current = known
    emitted += 1
    total_bits, width = 0, 9
    start = 0  # first code index written with `width` bits
    while start < emitted:
        end = min(emitted, (1 << width) - 256)
        total_bits += (end - start) * width
        start, width = end, width + 1
    return -(-total_bits // 8)


def cell_entropy(stack: np.ndarray) -> np.ndarray:
    """Binary entropy of each cell's time series over a (T, h, w) stack."""
    p = stack.sum(axis=0) / stack.shape[0]
    out = np.zeros_like(p)
    mixed = (p > 0) & (p < 1)
    q = p[mixed]
    out[mixed] = -(q * np.log2(q) + (1 - q) * np.log2(1 - q))
    return out


def stratified_indices(total: int, size: int, seed: int) -> list[int]:
    """One index per stratum [i*total//size, (i+1)*total//size), drawn in order."""
    stream = Stream("ctm-sample", seed)
    bounds = [i * total // size for i in range(size + 1)]
    return [lo + stream.next_below(hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def census(n: int, cutoff: int, indices) -> tuple[Counter, int]:
    """Two-blank output counts and halting-machine count via ``run_machine``."""
    counts: Counter = Counter()
    halting = 0
    for index in indices:
        outcome = run_machine(decode_machine(index, n), cutoff)
        if outcome.halted:
            halting += 1
            counts[outcome.output] += 1
            counts[outcome.output.translate(_COMPLEMENT)] += 1
    return counts, halting


def complement_symmetric(entries: dict) -> bool:
    return all(entries.get(s.translate(_COMPLEMENT), (None,))[0] == c for s, (c, _) in entries.items())

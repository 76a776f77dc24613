"""Cellular-automaton engines: 1D elementary rules and 2D Game of Life.

All lattices are finite with periodic (wrap-around) boundaries.  Evolutions
are pure functions: the same rule, initial configuration and step count
always produce the same spacetime, and every returned array is freshly
allocated.  A spacetime always includes the initial configuration as row 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .rng import Stream

# The one cell-to-text rule (block strings, LZW bytes, PGM pixels): int8 bytes 0, 1, -1 as "012".
_TO_TEXT = bytes.maketrans(b"\x00\x01\xff", b"012")
_FROM_TEXT = bytes.maketrans(b"012", b"\x00\x01\xff")


def _cells(values, alphabet, ndim=None) -> np.ndarray:
    """``values`` as an int8 cell array, checked against ``alphabet`` before
    the cast, so that 256 or 0.5 is rejected instead of read as a 0.

    Both alphabets, (0, 1) and (-1, 0, 1), are runs of consecutive integers,
    so integer and bool cells need only their minimum and maximum checked."""
    raw = np.asarray(values)
    if ndim is not None and raw.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional configuration, got shape {raw.shape}")
    if raw.size and not (
        alphabet[0] <= raw.min() and raw.max() <= alphabet[-1]
        if raw.dtype.kind in "biu"
        else np.isin(raw, alphabet).all()
    ):
        raise ValueError(f"cells must be over {{{', '.join(map(str, alphabet))}}}")
    return raw.astype(np.int8, copy=False)


class _TableRule:
    """A radius-1 rule stepped through its outcome table: a 2x2x2 (binary)
    or 3x3x3 (ternary) array indexed by the cell values themselves, where
    numpy reads a -1 cell as the last slot.  A stack of m tables, an
    (m, 3, 3, 3) ``_lut``, steps an (m, width) batch, row i under table i."""

    _lut: np.ndarray

    def step(self, row: np.ndarray) -> np.ndarray:
        """One synchronous update of a cyclic row, or of every row of a stack."""
        which = (np.arange(len(row))[:, None],) if self._lut.ndim > 3 else ()
        return self._lut[(*which, np.roll(row, 1, axis=-1), row, np.roll(row, -1, axis=-1))]


@dataclass(frozen=True)
class EcaRule(_TableRule):
    """An elementary (radius-1, binary) local rule under Wolfram numbering.

    Bit i of ``number`` is the outcome for the neighborhood whose value is
    i = 4*left + 2*center + right, so ``table`` always has 8 entries.
    """

    number: int

    def __post_init__(self):
        if not isinstance(self.number, (int, np.integer)) or not 0 <= self.number <= 255:
            raise ValueError(f"rule number must be an integer in [0, 255], got {self.number!r}")
        number = int(self.number)
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "_lut", (number >> np.arange(8) & 1).astype(np.int8).reshape(2, 2, 2))

    @property
    def table(self) -> dict[tuple[int, int, int], int]:
        return dict(zip(np.ndindex(2, 2, 2), self._lut.ravel().tolist()))

    def __repr__(self) -> str:
        return f"EcaRule({self.number})"


def _eca_rule(rule: EcaRule | int) -> EcaRule:
    """A rule number or an ``EcaRule``, as an ``EcaRule``."""
    return rule if isinstance(rule, EcaRule) else EcaRule(rule)


@dataclass
class Spacetime:
    """A full evolution: row t of ``cells`` is the configuration at time t.

    ``cells`` is (steps+1, width) for 1D automata or (steps+1, height,
    width) for 2D ones.
    """

    cells: np.ndarray


def _evolve(rule, init: np.ndarray, steps: int) -> Spacetime:
    """Apply ``rule.step`` ``steps`` times to a validated initial state."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    out = np.empty((steps + 1,) + init.shape, dtype=np.int8)
    out[0] = init
    for t in range(steps):
        out[t + 1] = rule.step(out[t])
    return Spacetime(cells=out)


def evolve_eca(rule: EcaRule | int, init, steps: int) -> Spacetime:
    """Evolve a cyclic binary row for ``steps`` updates (steps+1 rows out)."""
    return _evolve(_eca_rule(rule), _cells(init, (0, 1), 1), steps)


class _GolRule:
    """Conway's B3/S23 on the Moore neighborhood of a toroidal grid."""

    def step(self, grid: np.ndarray) -> np.ndarray:
        # 3x3 box sum (the cell plus its 8 neighbours) over the last two
        # axes, so a grid or an (S, H, W) stack of grids, rows then columns:
        # box 3 is a birth or a 2-neighbour survival, box 4 with a live
        # centre a 3-neighbour survival.
        rows = grid + np.roll(grid, 1, axis=-2) + np.roll(grid, -1, axis=-2)
        box = rows + np.roll(rows, 1, axis=-1) + np.roll(rows, -1, axis=-1)
        return ((box == 3) | ((grid == 1) & (box == 4))).astype(np.int8)


GOL_RULE = _GolRule()


def _gol_grid(init) -> np.ndarray:
    """``init`` as a Game of Life grid: 0/1 cells, at least 3x3."""
    grid = _cells(init, (0, 1), 2)
    if grid.shape[0] < 3 or grid.shape[1] < 3:
        raise ValueError(f"grid must be at least 3x3, got {grid.shape}")
    return grid


def evolve_gol(init, steps: int) -> Spacetime:
    """Evolve a toroidal Game of Life grid; returns a (steps+1, h, w) stack."""
    return _evolve(GOL_RULE, _gol_grid(init), steps)


def random_config(seed: int, width: int, density: float, label: str = "random-config") -> np.ndarray:
    """Draw a binary row: each cell is 1 with probability ``density``.

    Identical (label, seed, width, density) arguments always reproduce the
    same row; distinct labels give independent streams.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    words = np.array(Stream(label, seed).next_words(width), dtype=np.uint64)
    # Stream.next_float's top 53 bits, exact in float64, so the cells are the same.
    return ((words >> np.uint64(11)) * 2.0**-53 < density).astype(np.int8)


def random_grid(seed: int, width: int, height: int, density: float, label: str = "random-grid") -> np.ndarray:
    """2D counterpart of random_config, filled row by row from one stream."""
    if height < 1:
        raise ValueError("height must be >= 1")
    flat = random_config(seed, width * height, density, label=label)
    return flat.reshape(height, width)


def flip_cell(config, index) -> np.ndarray:
    """Copy of ``config`` with the cell at ``index`` complemented (0 <-> 1)."""
    arr = _cells(config, (0, 1)).copy()
    idx = tuple(map(operator.index, index if isinstance(index, (tuple, list)) else (index,)))
    if len(idx) != arr.ndim:
        raise IndexError(f"index {index!r} does not address a {arr.ndim}-dimensional configuration")
    for i, size in zip(idx, arr.shape):
        if not 0 <= i < size:
            raise IndexError(f"index {index!r} out of bounds for shape {arr.shape}")
    arr[idx] = 1 - arr[idx]
    return arr

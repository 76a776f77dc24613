"""Cellular-automaton engines: 1D elementary rules and 2D Game of Life.

All lattices are finite with periodic (wrap-around) boundaries.  Evolutions
are pure functions: the same rule, initial configuration and step count
always produce the same spacetime, and every returned array is freshly
allocated.  A spacetime always includes the initial configuration as row 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Stream


def _as_cells(values, ndim_expected=None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int8)
    if ndim_expected is not None and arr.ndim != ndim_expected:
        raise ValueError(f"expected a {ndim_expected}-dimensional configuration, got shape {arr.shape}")
    return arr


def _require_binary(arr: np.ndarray, what: str = "configuration") -> None:
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} must contain only 0/1 cells")


@dataclass(frozen=True)
class EcaRule:
    """An elementary (radius-1, binary) local rule under Wolfram numbering.

    Bit i of ``number`` is the outcome for the neighborhood whose value is
    i = 4*left + 2*center + right, so ``table`` always has 8 entries.
    """

    number: int
    table: dict[tuple[int, int, int], int] = field(compare=False)
    _lut: np.ndarray = field(compare=False, repr=False)

    def step(self, row: np.ndarray) -> np.ndarray:
        """One synchronous update of a cyclic row."""
        left = np.roll(row, 1)
        right = np.roll(row, -1)
        return self._lut[left, row, right]

    def mirror(self) -> "EcaRule":
        """The left-right conjugate rule (neighborhoods read backwards)."""
        number = 0
        for (l, c, r), out in self.table.items():
            number |= out << (4 * r + 2 * c + l)
        return rule_table(number)

    def __repr__(self) -> str:
        return f"EcaRule({self.number})"


def rule_table(number: int) -> EcaRule:
    """Build the 8-entry lookup table for a Wolfram rule number."""
    if not isinstance(number, (int, np.integer)) or not 0 <= number <= 255:
        raise ValueError(f"rule number must be an integer in [0, 255], got {number!r}")
    number = int(number)
    table = {}
    lut = np.zeros((2, 2, 2), dtype=np.int8)
    for value in range(8):
        l, c, r = value >> 2 & 1, value >> 1 & 1, value & 1
        out = number >> value & 1
        table[(l, c, r)] = out
        lut[l, c, r] = out
    return EcaRule(number=number, table=table, _lut=lut)


@dataclass
class Spacetime:
    """A full evolution: row t of ``cells`` is the configuration at time t.

    ``cells`` is (steps+1, width) for 1D automata or (steps+1, height,
    width) for 2D ones.  ``rule`` keeps the object that produced it (any
    engine with a ``step`` method, so the evolution can be re-verified),
    ``seed`` the seed of the initial configuration when one was drawn.
    """

    cells: np.ndarray
    rule: object | None = None
    seed: int | None = None

    @property
    def steps(self) -> int:
        return self.cells.shape[0] - 1

    @property
    def width(self) -> int:
        return self.cells.shape[-1]

    def verify(self) -> bool:
        """Recompute every transition; True iff the stored rows match."""
        if self.rule is None or not hasattr(self.rule, "step"):
            raise ValueError("spacetime carries no rule to verify against")
        for t in range(self.cells.shape[0] - 1):
            if not np.array_equal(self.rule.step(self.cells[t]), self.cells[t + 1]):
                return False
        return True


def _evolve(rule, init: np.ndarray, steps: int, seed: int | None = None) -> Spacetime:
    """Apply ``rule.step`` ``steps`` times to a validated initial state."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    out = np.empty((steps + 1,) + init.shape, dtype=np.int8)
    out[0] = init
    for t in range(steps):
        out[t + 1] = rule.step(out[t])
    return Spacetime(cells=out, rule=rule, seed=seed)


def evolve_eca(rule: EcaRule | int, init, steps: int) -> Spacetime:
    """Evolve a cyclic binary row for ``steps`` updates (steps+1 rows out)."""
    if isinstance(rule, (int, np.integer)):
        rule = rule_table(rule)
    row = _as_cells(init, 1)
    _require_binary(row, "initial configuration")
    return _evolve(rule, row, steps)


class _GolRule:
    """Conway's B3/S23 on the Moore neighborhood of a toroidal grid."""

    def step(self, grid: np.ndarray) -> np.ndarray:
        # 3x3 box sum (the cell plus its 8 neighbours), rows then columns:
        # box 3 is a birth or a 2-neighbour survival, box 4 with a live
        # centre a 3-neighbour survival.
        rows = grid + np.roll(grid, 1, axis=0) + np.roll(grid, -1, axis=0)
        box = rows + np.roll(rows, 1, axis=1) + np.roll(rows, -1, axis=1)
        return ((box == 3) | ((grid == 1) & (box == 4))).astype(np.int8)

    def __repr__(self) -> str:
        return "GolRule(B3/S23)"


GOL_RULE = _GolRule()


def evolve_gol(init, steps: int) -> Spacetime:
    """Evolve a toroidal Game of Life grid; returns a (steps+1, h, w) stack."""
    grid = _as_cells(init, 2)
    _require_binary(grid, "initial grid")
    if grid.shape[0] < 3 or grid.shape[1] < 3:
        raise ValueError(f"grid must be at least 3x3, got {grid.shape}")
    return _evolve(GOL_RULE, grid, steps)


def random_config(seed: int, width: int, density: float, label: str = "random-config") -> np.ndarray:
    """Draw a binary row: each cell is 1 with probability ``density``.

    Identical (label, seed, width, density) arguments always reproduce the
    same row; distinct labels give independent streams.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    stream = Stream(label, seed)
    return np.fromiter(
        (1 if stream.next_float() < density else 0 for _ in range(width)),
        dtype=np.int8,
        count=width,
    )


def random_grid(seed: int, width: int, height: int, density: float, label: str = "random-grid") -> np.ndarray:
    """2D counterpart of random_config, filled row by row from one stream."""
    if height < 1:
        raise ValueError("height must be >= 1")
    flat = random_config(seed, width * height, density, label=label)
    return flat.reshape(height, width)


def flip_cell(config, index) -> np.ndarray:
    """Copy of ``config`` with the cell at ``index`` complemented (0 <-> 1)."""
    arr = _as_cells(config).copy()
    _require_binary(arr)
    idx = tuple(index) if isinstance(index, (tuple, list)) else (int(index),)
    if len(idx) != arr.ndim:
        raise IndexError(f"index {index!r} does not address a {arr.ndim}-dimensional configuration")
    for i, size in zip(idx, arr.shape):
        if not 0 <= i < size:
            raise IndexError(f"index {index!r} out of bounds for shape {arr.shape}")
    arr[idx] = 1 - arr[idx]
    return arr

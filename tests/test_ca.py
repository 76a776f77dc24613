import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabdm import (
    bdm_2d,
    evolve_eca,
    evolve_gol,
    evolve_interacting,
    flatten_binary,
    flatten_ternary,
    flip_cell,
    random_config,
    random_grid,
    rule_table,
    sample_interaction_rule,
    serialize_cells,
    temporal_cell_entropy,
)


class TestRuleTable:
    def test_rule_30_table(self):
        rule = rule_table(30)
        expected = {
            (1, 1, 1): 0, (1, 1, 0): 0, (1, 0, 1): 0, (1, 0, 0): 1,
            (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
        }
        assert rule.table == expected

    def test_rule_0_all_zero(self):
        assert set(rule_table(0).table.values()) == {0}

    def test_rule_204_is_identity(self):
        rule = rule_table(204)
        assert all(out == c for (_, c, _), out in rule.table.items())

    @pytest.mark.parametrize("number", [-1, 256, 1000])
    def test_out_of_range_rejected(self, number):
        with pytest.raises(ValueError):
            rule_table(number)

    def test_numbering_bit_convention(self):
        for number in (1, 2, 22, 30, 54, 100, 255):
            rule = rule_table(number)
            for (l, c, r), out in rule.table.items():
                assert out == (number >> (4 * l + 2 * c + r)) & 1


class TestEvolveEca:
    def test_rule_0_one_step(self):
        st_ = evolve_eca(0, [1, 0, 1, 1, 0], 1)
        assert st_.cells[1].tolist() == [0, 0, 0, 0, 0]

    def test_rule_204_keeps_rows(self):
        init = [1, 0, 1, 1, 0]
        st_ = evolve_eca(204, init, 3)
        assert st_.cells.shape == (4, 5)
        for row in st_.cells:
            assert row.tolist() == init

    def test_rule_30_hand_evaluated_step(self):
        st_ = evolve_eca(30, [0, 0, 0, 1, 0, 0, 0], 1)
        assert st_.cells[1].tolist() == [0, 0, 1, 1, 1, 0, 0]

    def test_deterministic(self):
        init = random_config(5, 40, 0.5)
        a = evolve_eca(110, init, 20)
        b = evolve_eca(110, init, 20)
        assert np.array_equal(a.cells, b.cells)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            evolve_eca(30, [0, 2, 0], 1)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            evolve_eca(30, [0, 1, 0], 0)

    def test_verify_recomputes_evolution(self):
        st_ = evolve_eca(110, random_config(1, 30, 0.5), 10)
        assert st_.verify()
        st_.cells[4, 7] ^= 1
        assert not st_.verify()

    def test_shift_equivariance_all_rules(self):
        # Cyclic shift of the input shifts the whole evolution.
        for number in range(256):
            width = 4 + number % 13
            init = random_config(number, width, 0.5, label="shift-test")
            shift = 1 + number % (width - 1)
            direct = evolve_eca(number, np.roll(init, shift), 8)
            shifted = np.roll(evolve_eca(number, init, 8).cells, shift, axis=1)
            assert np.array_equal(direct.cells, shifted), f"rule {number}"

    def test_mirror_conjugacy(self):
        for number in (30, 54, 110, 90, 2):
            rule = rule_table(number)
            init = random_config(number, 17, 0.5, label="mirror-test")
            mirrored = evolve_eca(rule.mirror(), init[::-1].copy(), 9)
            assert np.array_equal(mirrored.cells, evolve_eca(rule, init, 9).cells[:, ::-1])


class TestEvolveGol:
    def test_empty_grid_stays_empty(self):
        st_ = evolve_gol(np.zeros((5, 5), dtype=int), 4)
        assert not st_.cells.any()

    def test_blinker_oscillates(self):
        grid = np.zeros((5, 5), dtype=int)
        grid[1:4, 2] = 1  # vertical blinker
        st_ = evolve_gol(grid, 1)
        expected = np.zeros((5, 5), dtype=int)
        expected[2, 1:4] = 1  # horizontal blinker
        assert np.array_equal(st_.cells[1], expected)

    def test_block_is_still_life(self):
        grid = np.zeros((6, 6), dtype=int)
        grid[2:4, 2:4] = 1
        st_ = evolve_gol(grid, 10)
        assert st_.cells.shape == (11, 6, 6)
        for slice_ in st_.cells:
            assert np.array_equal(slice_, grid)

    def test_still_life_conserves_population(self):
        grid = np.zeros((8, 8), dtype=int)
        grid[1:3, 1:3] = 1
        st_ = evolve_gol(grid, 5)
        assert (st_.cells.sum(axis=(1, 2)) == 4).all()

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            evolve_gol(np.zeros((2, 5), dtype=int), 1)

    def test_periodic_wraparound(self):
        # A blinker crossing the edge relies on toroidal neighbors.
        grid = np.zeros((5, 5), dtype=int)
        grid[0, 2] = grid[4, 2] = grid[3, 2] = 1
        st_ = evolve_gol(grid, 2)
        assert np.array_equal(st_.cells[2], grid)


def reference_gol_step(grid):
    """B3/S23 by counting each cell's 8 toroidal neighbours directly."""
    height, width = grid.shape
    out = np.zeros_like(grid)
    for r in range(height):
        for c in range(width):
            n = sum(
                int(grid[(r + dr) % height, (c + dc) % width])
                for dr in (-1, 0, 1)
                for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0)
            )
            out[r, c] = n == 3 or (grid[r, c] == 1 and n == 2)
    return out


class TestGolReference:
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(1, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_neighbour_count(self, height, width, steps, data):
        cells = data.draw(st.lists(st.integers(0, 1), min_size=height * width, max_size=height * width))
        grid = np.array(cells, dtype=np.int8).reshape(height, width)
        stack = evolve_gol(grid, steps).cells
        for t in range(steps):
            grid = reference_gol_step(grid)
            assert np.array_equal(stack[t + 1], grid), f"step {t + 1}"

    @pytest.mark.parametrize("shape", [(3, 3), (3, 11), (11, 3), (3, 4), (5, 3)])
    def test_thin_tori(self, shape):
        grid = random_grid(sum(shape), shape[1], shape[0], 0.5, label="gol-oracle")
        stack = evolve_gol(grid, 8).cells
        for t in range(8):
            grid = reference_gol_step(grid)
            assert np.array_equal(stack[t + 1], grid), f"step {t + 1}"


class TestRandomConfig:
    def test_density_one_all_ones(self):
        assert random_config(7, 4, 1.0).tolist() == [1, 1, 1, 1]

    def test_density_zero_all_zeros(self):
        assert random_config(7, 4, 0.0).tolist() == [0, 0, 0, 0]

    def test_reproducible(self):
        assert np.array_equal(random_config(7, 100, 0.5), random_config(7, 100, 0.5))

    def test_seed_changes_output(self):
        assert not np.array_equal(random_config(1, 100, 0.5), random_config(2, 100, 0.5))

    def test_density_out_of_range(self):
        with pytest.raises(ValueError):
            random_config(0, 10, 1.5)

    def test_grid_shape_and_reproducibility(self):
        grid = random_grid(3, 10, 6, 0.5)
        assert grid.shape == (6, 10)
        assert np.array_equal(grid, random_grid(3, 10, 6, 0.5))


class TestFlipCell:
    def test_flip_middle(self):
        assert flip_cell([0, 0, 0], 1).tolist() == [0, 1, 0]

    def test_flip_first(self):
        assert flip_cell([1, 0], 0).tolist() == [0, 0]

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            flip_cell([0, 1, 0], 3)
        with pytest.raises(IndexError):
            flip_cell([0, 1, 0], -1)

    def test_2d_flip(self):
        grid = np.zeros((3, 3), dtype=int)
        flipped = flip_cell(grid, (1, 2))
        assert flipped[1, 2] == 1 and flipped.sum() == 1

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.data())
    @settings(max_examples=60)
    def test_involution_changes_exactly_one_cell(self, cells, data):
        index = data.draw(st.integers(0, len(cells) - 1))
        arr = np.array(cells, dtype=np.int8)
        once = flip_cell(arr, index)
        assert (once != arr).sum() == 1
        assert int(once[index]) == 1 - cells[index]
        assert np.array_equal(flip_cell(once, index), arr)


def _row(bad):
    return np.array([0, 1, bad, 0, 1])


def _grid(bad):
    return np.array([[0, 1, 0], [1, bad, 0], [0, 0, 1]])


# Each case gets an otherwise valid input holding the bad value.
CELL_CONSUMERS = {
    "evolve_eca": lambda bad, table: evolve_eca(30, _row(bad), 1),
    "evolve_gol": lambda bad, table: evolve_gol(_grid(bad), 1),
    "evolve_interacting": lambda bad, table: evolve_interacting(sample_interaction_rule(30, 22, 0), _row(bad), 1),
    "flip_cell": lambda bad, table: flip_cell(_row(bad), 0),
    "flatten_binary": lambda bad, table: flatten_binary(_row(bad)),
    "flatten_ternary": lambda bad, table: flatten_ternary(_row(bad)),
    "bdm_2d": lambda bad, table: bdm_2d(_grid(bad), table, 1),
    "serialize_cells": lambda bad, table: serialize_cells(_row(bad)),
    "temporal_cell_entropy": lambda bad, table: temporal_cell_entropy(np.stack([_grid(bad)] * 3)),
}
# Consumers of binary cells also reject the ternary cells 2 and -1.
BINARY_CONSUMERS = ("evolve_eca", "evolve_gol", "flatten_binary", "flip_cell", "temporal_cell_entropy")
ALPHABET_CASES = [(consumer, bad) for bad in (256, 255, -2, 0.5) for consumer in sorted(CELL_CONSUMERS)] + [
    (consumer, bad) for bad in (2, -1) for consumer in BINARY_CONSUMERS
]


class TestCellAlphabet:
    """Values are checked before the int8 cast: 256 would wrap to 0, 255 to
    -1 and 0.5 would truncate to 0."""

    @pytest.mark.parametrize("consumer,bad", ALPHABET_CASES, ids=[f"{c}-{bad}" for c, bad in ALPHABET_CASES])
    def test_out_of_alphabet_rejected(self, consumer, bad, table32):
        with pytest.raises(ValueError):
            CELL_CONSUMERS[consumer](bad, table32)

    @pytest.mark.parametrize("consumer", sorted(CELL_CONSUMERS))
    def test_valid_cells_accepted(self, consumer, table32):
        CELL_CONSUMERS[consumer](1, table32)

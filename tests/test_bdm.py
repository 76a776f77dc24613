import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cabdm import CoverageError, bdm_1d, bdm_2d, flatten_binary, flatten_ternary, partition_1d

from conftest import make_table

COMPLEMENT = str.maketrans("01", "10")


@pytest.fixture(scope="module")
def table9():
    """Synthetic table covering all strings up to length 9."""
    counts = {}
    for length in range(1, 10):
        for bits in product("01", repeat=length):
            s = "".join(bits)
            counts[s] = 2 ** (10 - length)  # shorter = more frequent
    return make_table(counts)


def _wide_counts():
    """All strings up to length 8, then three per length up to 162 (enough
    for ternary 9x9 tiles, wider than a 64-bit code), each with its own
    count."""
    counts = {}
    for length in range(1, 9):
        for bits in product("01", repeat=length):
            s = "".join(bits)
            counts[s] = 1 + int(s, 2) * 7919 % 97
    for length in range(9, 163):
        for j, s in enumerate(("0" * length, "1" * length, ("01" * length)[:length])):
            counts[s] = 3 + j
    return counts


WIDE_TABLE = make_table(_wide_counts())
# Missing lengths make some tilings raise CoverageError, and which length
# is reported depends on the order blocks are scored in.
GAPPY_TABLE = make_table({s: c for s, c in _wide_counts().items() if len(s) not in (3, 6, 12, 16)})


def reference_bdm_1d(s, table, b):
    """Plain string slicing: length-b blocks left to right (the tail shorter),
    each unique block scored from ``table.entries`` in order of first
    appearance, or one bit over the largest value at its length if unseen."""
    counts = {}
    for i in range(0, len(s), b):
        counts[s[i : i + b]] = counts.get(s[i : i + b], 0) + 1
    value = 0.0
    for block, n in counts.items():
        same_length = [v for t, (_, v) in table.entries.items() if len(t) == len(block)]
        if not same_length:
            raise CoverageError(f"table for ({table.n},{table.k}) has no outputs of length {len(block)}")
        ctm = table.entries[block][1] if block in table.entries else max(same_length) + 1.0
        value += ctm + math.log2(n)
    return value, tuple(counts.items())


def reference_bdm_2d(arr, table, d):
    """Plain per-tile loop: row-major d x d tiles (smaller at the right and
    bottom edges), ternary cells spelled out as two bits when any -1 is
    present, blocks scored in order of first appearance."""
    ternary = bool((arr == -1).any())
    spell = {-1: "10", 0: "00", 1: "01"} if ternary else {0: "0", 1: "1"}
    counts = {}
    for r in range(0, arr.shape[0], d):
        for c in range(0, arr.shape[1], d):
            block = "".join(spell[int(v)] for v in arr[r : r + d, c : c + d].flat)
            counts[block] = counts.get(block, 0) + 1
    value = 0.0
    for block, n in counts.items():
        value += table.lookup(block) + math.log2(n)
    return value, tuple(counts.items())


def _outcome(fn):
    try:
        return fn()
    except (LookupError, ValueError) as exc:
        return type(exc), str(exc)


class TestPartition1d:
    def test_repeated_blocks(self):
        p = partition_1d("010101", 2)
        assert p.blocks == (("01", 3),)

    def test_remainder_block(self):
        p = partition_1d("0000011", 3)
        assert p.blocks == (("000", 1), ("001", 1), ("1", 1))

    def test_single_block(self):
        assert partition_1d("0011", 4).blocks == (("0011", 1),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_1d("", 3)

    def test_sizes_add_up(self):
        s = "0110100101110001010"
        p = partition_1d(s, 4)
        assert p.total_chars() == len(s)


class TestBdm1d:
    def test_single_block_equals_lookup(self, table32):
        s = "010110"
        assert bdm_1d(s, table32, 6).value == table32.lookup(s)

    def test_repetition_law(self, table32):
        s = "001011"
        for k in (2, 3, 8):
            expected = table32.lookup(s) + math.log2(k)
            assert abs(bdm_1d(s * k, table32, 6).value - expected) < 1e-12

    def test_two_distinct_blocks_add(self, table32):
        value = bdm_1d("000000111000", table32, 6).value
        assert value == table32.lookup("000000") + table32.lookup("111000")

    def test_lower_bound_max_lookup(self, table32):
        s = "01101001011100010101101"
        p = partition_1d(s, 6)
        assert bdm_1d(s, table32, 6).value >= max(table32.lookup(b) for b, _ in p.blocks)

    def test_complement_invariance(self, table32):
        for s in ("0110100101110001", "000000000000", "010101010101011"):
            assert bdm_1d(s, table32, 6).value == bdm_1d(s.translate(COMPLEMENT), table32, 6).value

    def test_block_permutation_invariance(self, table32):
        blocks = ["010110", "001011", "010110", "111111", "001011", "010110"]
        a = bdm_1d("".join(blocks), table32, 6).value
        b = bdm_1d("".join(reversed(blocks)), table32, 6).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_coverage_error_propagates(self, table32):
        with pytest.raises(CoverageError):
            bdm_1d("0" * 16, table32, 8)

    def test_terms_summed_left_to_right(self):
        # Eight 3-bit blocks with counts 1..8: a left-to-right float sum of
        # their ctm values differs from the correctly rounded one (fsum), so
        # this pins the summation order on every Python version.
        blocks = ["".join(bits) for bits in product("01", repeat=3)]
        table = make_table({b: i + 1 for i, b in enumerate(blocks)})
        terms = [table.lookup(b) for b in blocks]
        sequential = 0.0
        for term in terms:
            sequential += term
        assert sequential != math.fsum(terms)
        assert bdm_1d("".join(blocks), table, 3).value == sequential

    def test_repetition_law_random_strings(self, table32):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s = "".join(str(b) for b in rng.integers(0, 2, size=6))
            k = int(rng.integers(1, 40))
            expected = table32.lookup(s) + math.log2(k)
            assert abs(bdm_1d(s * k, table32, 6).value - expected) < 1e-9

    @given(
        st.integers(1, 200),
        st.integers(1, 9),
        st.sampled_from(["wide", "gappy", "shipped"]),
        st.text("01", min_size=1, max_size=40),
    )
    # Off-table blocks at a covered length, and a tail of a length the table lacks.
    @example(60, 7, "shipped", "0110100")
    @example(7, 4, "gappy", "0101")
    @example(16, 8, "shipped", "0")
    @settings(max_examples=300, deadline=None)
    def test_matches_string_reference(self, table32, length, b, which, pattern):
        # The pattern repeats along the string, which gives repeated blocks
        # and tails of every length.
        s = (pattern * (length // len(pattern) + 1))[:length]
        table = {"wide": WIDE_TABLE, "gappy": GAPPY_TABLE, "shipped": table32}[which]

        def fast():
            result = bdm_1d(s, table, b)
            assert result.partition == partition_1d(s, b)
            return result.value, result.partition.blocks

        assert _outcome(fast) == _outcome(lambda: reference_bdm_1d(s, table, b))


class TestBdm2d:
    def test_uniform_array_four_blocks(self, table9):
        value = bdm_2d(np.zeros((6, 6), dtype=int), table9, 3).value
        assert value == pytest.approx(table9.lookup("0" * 9) + math.log2(4), abs=1e-12)

    def test_single_block_is_flattened_lookup(self, table9):
        block = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert bdm_2d(block, table9, 3).value == table9.lookup("100010110")

    def test_transpose_of_symmetric_array(self, table9):
        arr = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        assert bdm_2d(arr, table9, 2).value == bdm_2d(arr.T, table9, 2).value

    def test_remainder_strips(self, table32):
        # 5x5 with d=2 leaves a right strip, bottom strip, and corner.
        arr = np.zeros((5, 5), dtype=int)
        value = bdm_2d(arr, table32, 2).value
        # Blocks: 4 of "0000", right 2x1 "00" x2, bottom 1x2 "00" x2, corner "0".
        expected = (
            table32.lookup("0000") + math.log2(4)
            + table32.lookup("00") + math.log2(4)
            + table32.lookup("0")
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_ternary_binarization(self, table9):
        arr = np.array([[1, -1], [0, 0]])
        # Row-major two-bit codes: 1->01, -1->10, 0->00.
        assert bdm_2d(arr, table9, 2).value == table9.lookup("01100000")

    def test_ternary_detection_matches_explicit(self, table9):
        # One -1 cell spells every cell in two bits: rows "011000", "000101".
        arr = np.array([[1, -1, 0], [0, 1, 1]])
        assert bdm_2d(arr, table9, 2).value == table9.lookup("01100001") + table9.lookup("0001")

    def test_uncoverable_side_raises(self, table32):
        with pytest.raises(CoverageError):
            bdm_2d(np.zeros((9, 9), dtype=int), table32, 3)

    def test_non_2d_rejected(self, table32):
        with pytest.raises(ValueError):
            bdm_2d(np.zeros(9, dtype=int), table32, 2)

    @given(
        st.integers(1, 20),
        st.integers(1, 20),
        st.integers(1, 9),
        st.booleans(),
        st.sampled_from(["wide", "gappy", "shipped"]),
        st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=400),
    )
    # Tiles over 64 bits: a binary grid at d=9 whose four full tiles differ
    # only in late cells, and a ternary grid at d=6.
    @example(20, 20, 9, False, "wide", [0] * 177 + [1])
    @example(19, 13, 6, True, "gappy", [0] * 40 + [-1])
    # The widest 64-bit code (a binary tile at d=7, 49 bits) and the first
    # Python-int code (d=8, 64 bits), full tiles differing in their last cell.
    @example(14, 14, 7, False, "wide", [0] * 97 + [1])
    @example(16, 16, 8, False, "wide", [0] * 127 + [1])
    # Edge tiles "01", "01" and corner "1" beside the full tile "0001".
    @example(3, 3, 2, False, "shipped", [0, 0, 0, 0, 1, 1, 0, 1, 1])
    @settings(max_examples=300, deadline=None)
    def test_matches_per_tile_reference(self, table32, height, width, d, ternary, which, cells):
        # The cells repeat over the array, which gives equal and nearly equal
        # tiles even at widths random cells almost never repeat at.
        arr = np.resize(np.array(cells, dtype=np.int8), (height, width))
        if not ternary:
            arr = np.abs(arr)
        table = {"wide": WIDE_TABLE, "gappy": GAPPY_TABLE, "shipped": table32}[which]

        def fast():
            result = bdm_2d(arr, table, d)
            return result.value, result.partition.blocks

        assert _outcome(fast) == _outcome(lambda: reference_bdm_2d(arr, table, d))

    def test_edge_tiles_keep_their_own_blocks(self, table32):
        # Read without their lengths, the bits of "0001", "01" and "1" are all 1.
        arr = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert bdm_2d(arr, table32, 2).partition.blocks == (("0001", 1), ("01", 2), ("1", 1))


class TestFlatten:
    def test_flatten_binary_row_major(self):
        arr = np.array([[0, 1], [1, 1]])
        assert flatten_binary(arr) == "0111"

    def test_flatten_ternary_two_bits_per_cell(self):
        assert flatten_ternary(np.array([0, 1, -1])) == "000110"

    def test_flatten_rejects_bad_values(self):
        with pytest.raises(ValueError):
            flatten_binary(np.array([0, 2]))
        with pytest.raises(ValueError):
            flatten_ternary(np.array([0, 3]))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabdm import (
    compressed_size,
    evolve_gol,
    lzw_compress,
    lzw_decompress,
    serialize_cells,
    shannon_block_entropy,
    temporal_cell_entropy,
)
from cabdm.baselines import _code_count
from cabdm.rng import Stream


def random_symbols(label, n, k):
    """``n`` uniform symbols over 0..k-1 (k = 2 or 3) as bytes, from the 2-bit
    digits of one bulk ``Stream.next_words`` draw; a ternary draw drops the 3s."""
    words = np.array(Stream(label, 0).next_words(n // 16 + 1), dtype=np.uint64)
    digits = (words[:, None] >> np.arange(0, 64, 2, dtype=np.uint64) & np.uint64(3)).ravel()
    digits = digits % 2 if k == 2 else digits[digits < 3]
    assert len(digits) >= n
    return digits[:n].astype(np.uint8).tobytes()


def as_cells(symbols, dtype=np.int8):
    """Symbol bytes 0, 1, 2 as cells 0, 1, -1."""
    cells = np.frombuffer(symbols, dtype=np.uint8).astype(np.int64)
    return np.where(cells == 2, -1, cells).astype(dtype)


def prefix_with(data, n_codes):
    """The shortest prefix of ``data`` that ``lzw_compress`` parses into
    ``n_codes`` codes; one more byte adds at most one code, so every count up
    to the whole string's is reached."""
    lo, hi = 1, len(data)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if len(lzw_compress(data[:mid]).codes) < n_codes else (lo, mid)
    return data[:lo]


class TestLzw:
    def test_empty_input(self):
        result = lzw_compress(b"")
        assert result.codes == () and result.compressed_bits == 0 and result.compressed_bytes == 0

    def test_hand_traced_aaaa(self):
        result = lzw_compress(b"aaaa")
        assert result.codes == (97, 256, 97)
        assert result.compressed_bits == 27
        assert result.compressed_bytes == 4

    def test_hand_traced_ab(self):
        result = lzw_compress(b"ab")
        assert result.codes == (97, 98)
        assert result.compressed_bits == 18
        assert result.compressed_bytes == 3

    def test_single_byte(self):
        result = lzw_compress(b"x")
        assert result.codes == (120,) and result.compressed_bits == 9 and result.compressed_bytes == 2

    def test_width_grows_at_512(self):
        # 600 distinct 2-byte phrases force codes past the 9-bit boundary.
        data = bytes(range(256)) * 4
        result = lzw_compress(data)
        assert lzw_decompress(result.codes) == data
        over = [i for i, _ in enumerate(result.codes) if 256 + i >= 512]
        assert result.compressed_bits == 9 * (len(result.codes) - len(over)) + 10 * len(over)

    def test_bits_follow_code_widths_across_boundaries(self):
        # One more input byte adds at most one code, so the prefixes of one
        # string reach every code count; pick those on each side of the 9->10,
        # 10->11 and 11->12-bit boundaries (code numbers 256, 768 and 1792).
        stream = Stream("lzw-widths", 0)
        data = bytes(stream.next_below(256) for _ in range(6000))
        total = len(lzw_compress(data).codes)
        assert total > 1793
        for n_codes in (255, 256, 257, 767, 768, 769, 1791, 1792, 1793, total):
            result = lzw_compress(prefix_with(data, n_codes))
            assert len(result.codes) == n_codes
            assert result.compressed_bits == sum(max(9, (256 + i).bit_length()) for i in range(n_codes))
            assert result.compressed_bytes == -(-result.compressed_bits // 8)

    @given(st.binary(max_size=3000))
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, data):
        assert lzw_decompress(lzw_compress(data).codes) == data

    def test_round_trip_kwkwk_case(self):
        # "ababab..." exercises the code-equals-next-code decoder branch.
        data = b"abababababab"
        assert lzw_decompress(lzw_compress(data).codes) == data

    @pytest.mark.parametrize("codes", [[300], [-1], [65, 300]], ids=["first-300", "first-minus-1", "later-300"])
    def test_invalid_code_rejected(self, codes):
        with pytest.raises(ValueError, match="invalid LZW code"):
            lzw_decompress(codes)

    def test_doubled_string_reuses_dictionary(self):
        stream = Stream("lzw-doubling", 1)
        x = bytes(stream.next_below(256) for _ in range(400))
        assert len(lzw_compress(x + x).codes) <= 2 * len(lzw_compress(x).codes)

    def test_repeats_compress_below_raw_length(self):
        data = b"0" * 100
        assert lzw_compress(data).compressed_bytes < 100


class TestCompressedSize:
    def test_serialization_digits(self):
        assert serialize_cells(np.array([[0, 1], [-1, 0]])) == b"0120"

    def test_equal_spacetimes_equal_sizes(self):
        cells = np.array([[0, 1, 0], [1, 1, 0]])
        assert compressed_size(cells) == compressed_size(cells.copy())

    def test_all_zero_compresses_below_raw(self):
        cells = np.zeros((10, 10), dtype=int)
        assert compressed_size(cells) < 100

    def test_matches_direct_compression(self):
        cells = np.array([[0, 1, 1], [1, 0, -1]])
        direct = lzw_compress(serialize_cells(cells)).compressed_bytes
        assert compressed_size(cells) == direct

    @pytest.mark.parametrize(
        "k, dtype",
        [(2, bool), (2, np.int8), (3, np.int8), (2, np.int64), (3, np.int64)],
        ids=["bool", "int8", "int8-ternary", "int64", "int64-ternary"],
    )
    @pytest.mark.parametrize("shape", [(2400,), (40, 60), (6, 20, 20)], ids=["1d", "2d", "3d"])
    def test_any_cells_match_the_oracle(self, k, dtype, shape):
        cells = as_cells(random_symbols(f"lzw-cells-{k}", 2400, k), dtype).reshape(shape)
        assert compressed_size(cells) == lzw_compress(serialize_cells(cells)).compressed_bytes

    @pytest.mark.parametrize("cells", [[0, 2, 1], [0.5, 0.0], [[1, 0], [0, 2]]], ids=["2", "0.5", "2d-with-2"])
    def test_cells_outside_the_alphabet_rejected(self, cells):
        with pytest.raises(ValueError, match="cells must be over"):
            compressed_size(np.array(cells))


class TestCodeCount:
    """The count path of compressed_size against the oracle's code list."""

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x00", b"\x02", b"\x01" * 300, b"\x02" * 5000, b"\x00\x01" * 700, b"\x00\x02\x01" * 700],
        ids=["empty", "1-byte", "1-byte-2", "all-equal", "all-equal-long", "alternating", "alternating-3"],
    )
    def test_small_and_regular_inputs(self, data):
        assert _code_count(data) == len(lzw_compress(data).codes)

    @pytest.mark.parametrize("k", [2, 3], ids=["binary", "ternary"])
    def test_counts_and_sizes_across_code_width_boundaries(self, k):
        # A 9->10-bit boundary at code 256 and a 10->11-bit one at code 768.
        data = random_symbols(f"lzw-count-{k}", 12000, k)
        for n_codes in (255, 256, 257, 767, 768, 769):
            prefix = prefix_with(data, n_codes)
            assert _code_count(prefix) == len(lzw_compress(prefix).codes) == n_codes
            cells = as_cells(prefix)
            assert compressed_size(cells) == lzw_compress(serialize_cells(cells)).compressed_bytes
        assert _code_count(data) == len(lzw_compress(data).codes)

    @given(st.lists(st.integers(0, 2), max_size=3000).map(bytes))
    @settings(max_examples=120, deadline=None)
    def test_any_ternary_string(self, data):
        assert _code_count(data) == len(lzw_compress(data).codes)


class TestBlockEntropy:
    def test_constant_string(self):
        assert shannon_block_entropy("0000", 1) == 0.0

    def test_uniform_two_symbols(self):
        assert shannon_block_entropy("0101", 1) == 1.0

    def test_two_distinct_blocks(self):
        assert shannon_block_entropy("0011", 2) == 1.0

    def test_bounds(self):
        stream = Stream("entropy-bounds", 2)
        for b in (1, 2, 3, 5):
            s = "".join(str(stream.next_below(2)) for _ in range(120))
            h = shannon_block_entropy(s, b)
            assert 0.0 <= h <= b

    def test_complement_invariance(self):
        s = "01101000101101110"
        comp = s.translate(str.maketrans("01", "10"))
        for b in (1, 2, 3):
            assert shannon_block_entropy(s, b) == shannon_block_entropy(comp, b)

    def test_trailing_fragment_ignored(self):
        stream = Stream("entropy-tail", 0)
        for b in (2, 3, 6):
            s = "".join(str(stream.next_below(2)) for _ in range(10 * b))
            for tail in ("0", "1", "01", "10110"):
                assert shannon_block_entropy(s + tail[: b - 1], b) == shannon_block_entropy(s, b)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            shannon_block_entropy("01", 3)


class TestTemporalCellEntropy:
    def test_still_life_zero_everywhere(self):
        grid = np.zeros((6, 6), dtype=int)
        grid[2:4, 2:4] = 1
        stack = evolve_gol(grid, 7).cells
        assert (temporal_cell_entropy(stack) == 0.0).all()

    def test_blinker_tips_reach_one_bit(self):
        grid = np.zeros((5, 5), dtype=int)
        grid[1:4, 2] = 1
        stack = evolve_gol(grid, 3).cells  # 4 slices: two of each phase
        entropy = temporal_cell_entropy(stack)
        assert entropy[2, 2] == 0.0  # center always alive
        assert entropy[1, 2] == 1.0 and entropy[3, 2] == 1.0
        assert entropy[2, 1] == 1.0 and entropy[2, 3] == 1.0

    def test_dead_grid_zero(self):
        stack = np.zeros((4, 5, 5), dtype=int)
        assert (temporal_cell_entropy(stack) == 0.0).all()

    def test_requires_two_slices(self):
        with pytest.raises(ValueError):
            temporal_cell_entropy(np.zeros((1, 4, 4), dtype=int))

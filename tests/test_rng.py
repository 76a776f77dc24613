import pytest

from cabdm import Stream


def test_same_key_same_stream():
    a = Stream("exp", 7)
    b = Stream("exp", 7)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_labels_give_independent_streams():
    a = Stream("exp-a", 7)
    b = Stream("exp-b", 7)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_seeds_give_independent_streams():
    a = Stream("exp", 1)
    b = Stream("exp", 2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_float_range_and_determinism():
    s = Stream("floats", 3)
    values = [s.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    replay = Stream("floats", 3)
    assert values == [replay.next_float() for _ in range(1000)]


def test_next_below_bounds():
    s = Stream("bounds", 0)
    draws = [s.next_below(3) for _ in range(300)]
    assert set(draws) == {0, 1, 2}
    assert 0 <= s.next_below(1 << 64) < 1 << 64
    assert s.next_below(1) == 0
    for bad in (0, -1, (1 << 64) + 1):
        with pytest.raises(ValueError):
            s.next_below(bad)


# The first words of two streams, as recorded before the draw loop was
# written out in local variables: the stream must not change.
KNOWN_WORDS = {
    ("exp", 7): [
        0x24450E645C505FB9, 0xC05B389D9A338E96, 0x2AB2751839AF4138, 0x0370CDCFE8CA05C7,
        0x2CB0E175FDF62EB3, 0x1D3E562E57874B8A, 0xE81F0800FFE7D81F, 0x2CF8AC8F09487C04,
    ],
    ("ctm-sample", 0): [
        0x6969609A9C165323, 0xFBDC3800884AC54C, 0x9C1E559089690479, 0xA8A2E00350DC104C,
        0xD6400E2A1E190C04, 0xAF808B46DA9FB75B, 0xC5DAB0F05FD1796A, 0x15046C1865FE7754,
    ],
}


@pytest.mark.parametrize("key", sorted(KNOWN_WORDS))
def test_known_answers(key):
    s = Stream(*key)
    assert [s.next_u64() for _ in range(8)] == KNOWN_WORDS[key]
    assert Stream(*key).next_words(8) == KNOWN_WORDS[key]


def test_words_in_bulk_continue_the_stream():
    a, b = Stream("bulk", 3), Stream("bulk", 3)
    assert a.next_words(5) + a.next_words(0) + a.next_words(7) == [b.next_u64() for _ in range(12)]
    assert a.next_u64() == b.next_u64()

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

import pytest

from capeskit.seeds import mix


def test_deterministic():
    assert mix(42, "init", 3) == mix(42, "init", 3)


def test_order_sensitive():
    assert mix(42, "init", 3) != mix(42, 3, "init")


def test_parts_change_result():
    seen = {mix(0), mix(0, "a"), mix(0, "b"), mix(0, "a", 0), mix(0, "a", 1), mix(1)}
    assert len(seen) == 6


def test_int_str_not_confused():
    assert mix(0, 12) != mix(0, "12")


def test_64_bit_range():
    for s in range(50):
        v = mix(s, "probe")
        assert 0 <= v < 2**64


def test_negative_ints_ok():
    assert mix(-1, "x") != mix(1, "x")


def test_rejects_bool_and_unknown_types():
    with pytest.raises(TypeError):
        mix(0, True)
    with pytest.raises(TypeError):
        mix(0, 3.14)

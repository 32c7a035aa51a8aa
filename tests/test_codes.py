import numpy as np
import pytest

from genhash.codes import (
    PLUS_MINUS,
    ZERO_ONE,
    HashCode,
    bits_to_values,
    n_words,
    pack_bits,
    unpack_bits,
)
from genhash.errors import InputError


@pytest.mark.parametrize("l", [1, 7, 63, 64, 65, 128, 130, 200])
def test_pack_unpack_round_trip(l):
    rng = np.random.default_rng(l)
    for n in (17, 0):
        bits = rng.random((n, l)) < 0.5
        packed = pack_bits(bits)
        assert packed.shape == (n, n_words(l))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_bits(packed, l), bits)


def test_bit_position_layout():
    # bit k lives in word k//64 at position k%64
    bits = np.zeros(70, dtype=bool)
    bits[0] = bits[3] = bits[65] = True
    words = pack_bits(bits)
    assert words[0] == (1 << 0) | (1 << 3)
    assert words[1] == (1 << 1)


def test_padding_bits_are_zero():
    bits = np.ones(70, dtype=bool)
    words = pack_bits(bits)
    assert words[1] >> 6 == 0  # bits 70..127 unset
    assert np.bitwise_count(words).sum() == 70


def test_hashcode_rejects_dirty_padding():
    words = np.array([0, 1 << 20], dtype=np.uint64)
    with pytest.raises(InputError):
        HashCode(words, 70)


def test_hashcode_equality_and_round_trip():
    a = HashCode.from_bits([1, 0, 1, 1])
    b = HashCode.from_bits([1, 0, 1, 1])
    c = HashCode.from_bits([1, 0, 1, 0])
    assert a == b
    assert a != c
    assert np.array_equal(a.to_bits(), [True, False, True, True])


def test_values_mapping():
    code = HashCode.from_bits([1, 0, 1])
    assert np.array_equal(code.to_values(ZERO_ONE), [1.0, 0.0, 1.0])
    assert np.array_equal(code.to_values(PLUS_MINUS), [1.0, -1.0, 1.0])
    with pytest.raises(InputError):
        bits_to_values([1, 0], "signed")


def test_from_bits_requires_vector():
    with pytest.raises(InputError):
        HashCode.from_bits(np.zeros((2, 3)))

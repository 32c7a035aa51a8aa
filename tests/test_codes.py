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

from conftest import padded_pack_bits


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


# pack_bits / unpack_bits as they were before the byte-view rewrite, kept
# verbatim as the reference.


def _reference_pack_bits(bits) -> np.ndarray:
    bits = np.asarray(bits)
    l = bits.shape[-1]
    nw = n_words(l)
    padded = np.zeros(bits.shape[:-1] + (nw * 8 * 8,), dtype=np.uint8)
    padded[..., :l] = bits != 0
    as_bytes = np.packbits(padded, axis=-1, bitorder="little")
    as_bytes = as_bytes.reshape(as_bytes.shape[:-1] + (nw, 8)).astype(np.uint64)
    shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))
    return (as_bytes << shifts).sum(axis=-1, dtype=np.uint64)


def _reference_unpack_bits(words, l: int) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint64)
    shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))
    as_bytes = ((words[..., None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
    flat = as_bytes.reshape(as_bytes.shape[:-2] + (8 * words.shape[-1],))
    bits = np.unpackbits(flat, axis=-1, bitorder="little")
    return bits[..., :l].astype(bool)


@pytest.mark.parametrize("l", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("lead", [(0,), (), (9,), (3, 4)])
def test_pack_unpack_bitwise_equal_reference(l, lead):
    rng = np.random.default_rng(l)
    bits = rng.random(lead + (l,)) < 0.5
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64
    assert np.array_equal(packed, _reference_pack_bits(bits))
    # 0/1 integers and non-bool nonzero values pack like booleans
    assert np.array_equal(pack_bits(bits * np.int8(3)), packed)
    assert np.array_equal(unpack_bits(packed, l), _reference_unpack_bits(packed, l))
    # random words, including set padding bits, and non-contiguous views
    words = rng.integers(0, 2**63, size=lead + (2 * n_words(l),), dtype=np.uint64) << 1
    words |= rng.integers(0, 2, size=words.shape, dtype=np.uint64)
    for view in (words[..., ::2], words[..., 1::2], np.asfortranarray(words)[..., : n_words(l)]):
        assert np.array_equal(unpack_bits(view, l), _reference_unpack_bits(view, l))
    # words given as signed integers convert the same way
    signed = words[..., : n_words(l)].view(np.int64)
    assert np.array_equal(unpack_bits(signed, l), _reference_unpack_bits(signed, l))
    # every input kind packs as the padded pack_bits did: nonzero is on,
    # NaN on, -0.0 and +0.0 off
    ints = rng.integers(-2, 3, size=bits.shape)
    special = rng.choice([np.nan, -0.0, 0.0, np.inf, -np.inf, -1e-300, 5e-324], size=bits.shape)
    for value in (bits, ints, ints.astype(np.uint8), rng.normal(size=bits.shape) * bits, special):
        assert np.array_equal(pack_bits(value), padded_pack_bits(value)), value.dtype
    if bits.size:  # a nested list of no rows has no bit axis
        assert np.array_equal(pack_bits(bits.tolist()), packed)


@pytest.mark.parametrize("l", [1, 7, 8, 13, 32, 64, 65, 130, 4096])
def test_pack_bits_equals_the_reference_on_any_layout(l):
    rng = np.random.default_rng(l)
    for shape in ((l,), (37, l), (0, l)):
        bits = rng.random(shape) < 0.5
        wide = rng.random(shape[:-1] + (2 * l,)) < 0.5
        values = rng.normal(size=shape)
        values[..., ::3] = np.nan  # on
        values[..., 1::3] = -0.0  # off
        inputs = (bits, wide[..., ::2], wide[..., 1::2], np.asfortranarray(bits),
                  np.ones(shape, bool), values, values[::-1])
        for value in inputs:
            packed = pack_bits(value)
            assert packed.dtype == np.uint64 and packed.shape == shape[:-1] + (n_words(l),)
            assert np.array_equal(packed, _reference_pack_bits(value))

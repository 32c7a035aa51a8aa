"""Bit-packed binary codes.

A code of l bits is stored in ceil(l/64) unsigned 64-bit words with
little-endian bit order: bit k lives in word k//64 at position k%64, and
padding bits beyond l in the last word are always zero; the words are the
np.packbits bytes (little bit order) viewed as little-endian uint64.
check_words is the one rule for valid words, shared by HashCode, the
search index and queries, and the code-file writer and reader; its length
rule, check_length, also bounds every model's and training run's l.

Bit value 1 means the latent is "on". bits_to_values maps bits to code
values: the bits themselves under the "zero-one" domain; under "plus-minus"
bit 1 maps to +1 and bit 0 to -1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

ZERO_ONE = "zero-one"
PLUS_MINUS = "plus-minus"
CODE_DOMAINS = (ZERO_ONE, PLUS_MINUS)

WORD_BITS = 64
# sanity cap on the code length; Hamming distances are returned as int32
MAX_BITS = 4096


def n_words(l: int) -> int:
    """Number of 64-bit words needed for an l-bit code."""
    return (l + WORD_BITS - 1) // WORD_BITS


def check_length(l: int) -> int:
    """l, or InputError unless 1 <= l <= MAX_BITS: the rule for every code length."""
    if not 1 <= l <= MAX_BITS:
        raise InputError(f"code length must lie in [1, {MAX_BITS}], got {l}")
    return l


def check_words(words, l: int, ndim: int) -> np.ndarray:
    """The ndim-D words of l-bit codes as contiguous uint64, or InputError:
    check_length(l), the last axis holds n_words(l) words, padding bits zero."""
    check_length(l)
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != ndim or words.shape[-1] != n_words(l):
        raise InputError(f"{l}-bit codes need {ndim}-D words, {n_words(l)} each: {words.shape}")
    pad = n_words(l) * WORD_BITS - l
    # the padding bits are the top pad bits of the last word: a reduction, no (N,) temporary
    if pad and words[..., -1].max(initial=0) >> np.uint64(WORD_BITS - pad):
        raise InputError("padding bits beyond the code length must be zero")
    return words


def pack_bits(bits) -> np.ndarray:
    """Pack a (..., l) array of bits into (..., ceil(l/64)) uint64 words.

    A bit is on where the entry is nonzero (NaN on, -0.0 off). The packed
    ceil(l/8) bytes are placed in zeroed words, so padding bits are zero.
    """
    bits = np.asarray(bits, dtype=bool)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = np.zeros(bits.shape[:-1] + (n_words(bits.shape[-1]) * 8,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view("<u8")


def unpack_bits(words, l: int) -> np.ndarray:
    """Inverse of pack_bits; returns a (..., l) boolean array."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=l, bitorder="little").view(bool)


def bits_to_values(bits, code_domain: str) -> np.ndarray:
    """Map 0/1 bits to float64 code values: b for zero-one, 2 b - 1 for plus-minus."""
    if code_domain not in CODE_DOMAINS:
        raise InputError(f"unknown code domain: {code_domain!r}")
    values = np.asarray(bits).astype(np.float64)
    if code_domain == PLUS_MINUS:
        values *= 2.0
        values -= 1.0
    return values


@dataclass(eq=False)
class HashCode:
    """A single l-bit code held as packed 64-bit words."""

    words: np.ndarray
    l: int

    def __post_init__(self):
        self.words = check_words(self.words, self.l, 1)

    @classmethod
    def from_bits(cls, bits) -> "HashCode":
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise InputError("from_bits expects a 1-D bit vector")
        return cls(pack_bits(bits), len(bits))

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.l)

    def to_values(self, code_domain: str) -> np.ndarray:
        return bits_to_values(self.to_bits(), code_domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashCode):
            return NotImplemented
        return self.l == other.l and bool(np.array_equal(self.words, other.words))

    def __repr__(self) -> str:
        return f"HashCode(l={self.l}, bits={''.join('1' if b else '0' for b in self.to_bits())})"

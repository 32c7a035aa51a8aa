"""Bit-packed binary codes.

A code of l bits is stored in ceil(l/64) unsigned 64-bit words with
little-endian bit order: bit k lives in word k//64 at position k%64, and
padding bits beyond l in the last word are always zero.

Bit value 1 means the latent is "on". Under the "zero-one" domain the code
values are the bits themselves; under "plus-minus" bit 1 maps to +1 and
bit 0 to -1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

ZERO_ONE = "zero-one"
PLUS_MINUS = "plus-minus"
CODE_DOMAINS = (ZERO_ONE, PLUS_MINUS)

WORD_BITS = 64


def n_words(l: int) -> int:
    """Number of 64-bit words needed for an l-bit code."""
    return (l + WORD_BITS - 1) // WORD_BITS


def check_padding(words, l: int):
    """Raise InputError if a padding bit beyond l is set in (..., n_words(l)) words."""
    pad = n_words(l) * WORD_BITS - l
    if pad and np.any(words[..., -1] >> np.uint64(WORD_BITS - pad)):
        raise InputError("padding bits beyond the code length must be zero")


def pack_bits(bits) -> np.ndarray:
    """Pack a (..., l) array of 0/1 bits into (..., ceil(l/64)) uint64 words."""
    bits = np.asarray(bits)
    l = bits.shape[-1]
    nw = n_words(l)
    padded = np.zeros(bits.shape[:-1] + (nw * 8 * 8,), dtype=np.uint8)
    padded[..., :l] = bits != 0
    as_bytes = np.packbits(padded, axis=-1, bitorder="little")
    as_bytes = as_bytes.reshape(as_bytes.shape[:-1] + (nw, 8)).astype(np.uint64)
    shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))
    return (as_bytes << shifts).sum(axis=-1, dtype=np.uint64)


def unpack_bits(words, l: int) -> np.ndarray:
    """Inverse of pack_bits; returns a (..., l) boolean array."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))
    as_bytes = ((words[..., None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
    flat = as_bytes.reshape(as_bytes.shape[:-2] + (8 * words.shape[-1],))
    bits = np.unpackbits(flat, axis=-1, bitorder="little")
    return bits[..., :l].astype(bool)


def bits_to_values(bits, code_domain: str) -> np.ndarray:
    """Map 0/1 bits to code values: identity for zero-one, {-1,+1} for plus-minus."""
    bits = np.asarray(bits)
    if code_domain == ZERO_ONE:
        return bits.astype(np.float64)
    if code_domain == PLUS_MINUS:
        return 2.0 * bits - 1.0
    raise InputError(f"unknown code domain: {code_domain!r}")


@dataclass(eq=False)
class HashCode:
    """A single l-bit code held as packed 64-bit words."""

    words: np.ndarray
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise InputError("code length must be positive")
        self.words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if self.words.shape != (n_words(self.l),):
            raise InputError(
                f"expected {n_words(self.l)} words for {self.l} bits, "
                f"got shape {self.words.shape}"
            )
        check_padding(self.words, self.l)

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

import struct

import numpy as np
import pytest

from genhash.baselines import PcaModel, itq_fit, pca_fit
from genhash.codes import PLUS_MINUS, n_words
from genhash.data_io import save_checkpoint
from genhash.model import ModelParams


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_params(rng, d, l, domain="zero-one", scale=1.0):
    """Random finite model with O(1) parameter magnitudes."""
    return ModelParams(
        rng.normal(size=(d, l), scale=scale),
        rng.normal(size=(d, l), scale=scale),
        rng.normal(size=l, scale=scale),
        float(rng.normal(scale=0.3)),
        domain,
    )


def padded_pack_bits(bits):
    """pack_bits as it was before the row-blocked encoder, verbatim: the bits
    zero-padded to 64 per word, then packed; the reference of its rewrite."""
    bits = np.asarray(bits)
    l = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (n_words(l) * 64,), dtype=np.uint8)
    padded[..., :l] = bits != 0
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def checkpoint_model(kind, rng):
    """A small model of each checkpoint kind: "SGH", "ITQ" or "PCA"."""
    if kind == "SGH":
        return random_params(rng, 6, 5, PLUS_MINUS)
    if kind == "ITQ":
        return itq_fit(rng.normal(size=(80, 6)), 4, iterations=3)
    return PcaModel(*pca_fit(rng.normal(size=(50, 6)), 3))


# header layout after the 8-byte magic: "<IBBIIq" = version, kind, domain, d, l, extra
HEADER_CORRUPTIONS = {
    "d+1": lambda raw: struct.pack_into("<I", raw, 14, struct.unpack_from("<I", raw, 14)[0] + 1),
    "d-1": lambda raw: struct.pack_into("<I", raw, 14, struct.unpack_from("<I", raw, 14)[0] - 1),
    "d-huge": lambda raw: struct.pack_into("<I", raw, 14, 0xFFFFFFFF),
    "l+1": lambda raw: struct.pack_into("<I", raw, 18, struct.unpack_from("<I", raw, 18)[0] + 1),
    "l-zero": lambda raw: struct.pack_into("<I", raw, 18, 0),
    "domain": lambda raw: struct.pack_into("<B", raw, 13, 2),
    "domain-255": lambda raw: struct.pack_into("<B", raw, 13, 255),
}


def write_corrupt_checkpoint(path, kind, corruption, rng):
    """Save a checkpoint of `kind`, then corrupt one header field in place."""
    save_checkpoint(path, checkpoint_model(kind, rng))
    raw = bytearray(path.read_bytes())
    HEADER_CORRUPTIONS[corruption](raw)
    path.write_bytes(bytes(raw))

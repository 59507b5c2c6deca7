"""A stream's training noise built from its definition: the oracle for draw_standard_normal."""

import hashlib

import numpy as np


def sfc64_normals(stream, shape) -> np.ndarray:
    """Standard normals of a fresh SFC64 generator whose 256-bit state is the
    SHA-256 of b"comic-noise-v2", the 8-byte little-endian seed and each tag
    behind its 4-byte length, after discarding 12 outputs."""
    h = hashlib.sha256(b"comic-noise-v2")
    h.update(int(stream.seed).to_bytes(8, "little", signed=True))
    for tag in stream.tags:
        raw = tag.encode("utf-8")
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    bitgen = np.random.SFC64()
    bitgen.state = {"bit_generator": "SFC64",
                    "state": {"state": np.frombuffer(h.digest(), dtype=np.uint64)},
                    "has_uint32": 0, "uinteger": 0}
    bitgen.random_raw(12)
    return np.random.Generator(bitgen).standard_normal(shape)

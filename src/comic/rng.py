"""Splittable, replayable random streams.

A stream is identified by a 64-bit seed plus an ordered tuple of string
tags. The identity is hashed into a Philox counter-based generator, so a
draw is a pure function of (seed, tags, shape): replaying a stream gives
bit-identical output on any platform, and differently tagged streams are
statistically independent. Streams carry no mutable state; derive a child
with new tags whenever fresh randomness is needed.

draw_standard_normal is on the training hot path, so it reuses one
Philox-backed generator per process instead of building one per draw: it
resets that generator to the stream's key with a zero counter and an empty
buffer, which is exactly the state a fresh generator starts in, and then
fills the array it is given, so the training loop can keep its noise in
reused buffers. A draw therefore remains a pure function of (seed, tags,
shape). The shared generator assumes one thread per process, which holds
because run_benchmark scores in parallel with worker processes, each holding
its own. It is built on first use, so importing the package does not load
numpy.random.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

_DOMAIN = b"comic-rng-v1"


def check_seed(seed: int) -> int:
    """The seed as a Python int; rejects non-integers and values outside 64 bits."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ArgumentError(f"seed must be an integer, got {seed!r}") from None
    if not -2**63 <= value < 2**63:
        raise ArgumentError(f"seed must fit in a signed 64-bit integer, got {value}")
    return value


@dataclass(frozen=True)
class RngStream:
    seed: int
    tags: tuple[str, ...] = field(default_factory=tuple)

    def child(self, *tags: str | int) -> "RngStream":
        """Derive a sub-stream; int tags are stringified."""
        return RngStream(self.seed, self.tags + tuple(str(t) for t in tags))

    def _key(self) -> np.ndarray:
        h = hashlib.sha256(_DOMAIN)
        h.update(check_seed(self.seed).to_bytes(8, "little", signed=True))
        for tag in self.tags:
            raw = tag.encode("utf-8")
            # length prefix keeps ("a","b") distinct from ("ab",)
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
        digest = h.digest()
        return np.frombuffer(digest[:16], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self._key()))


@functools.cache
def _shared_generator() -> np.random.Generator:
    """The one generator draw_standard_normal reuses, built on first use."""
    return np.random.Generator(np.random.Philox(key=0))


def draw_standard_normal(stream: RngStream, out: np.ndarray) -> np.ndarray:
    """Fill the (rows x cols) float64 matrix out with i.i.d. standard normals; returns out.

    Bit-reproducible: out ends up equal to
    stream.generator().standard_normal(out.shape).
    """
    if out.ndim != 2 or min(out.shape) < 1:
        raise ArgumentError(f"matrix shape must be at least 1x1, got {out.shape}")
    gen = _shared_generator()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": stream._key()},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return gen.standard_normal(out=out)

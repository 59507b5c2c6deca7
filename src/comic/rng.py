"""Splittable, replayable random streams.

A stream is identified by a 64-bit seed plus an ordered tuple of string
tags. The identity is hashed into a Philox counter-based generator, so a
draw is a pure function of (seed, tags, shape): replaying a stream gives
bit-identical output on any platform, and differently tagged streams are
statistically independent. Streams carry no mutable state; derive a child
with new tags whenever fresh randomness is needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

_DOMAIN = b"comic-rng-v1"


def check_seed(seed: int) -> None:
    """Reject a seed that does not fit the signed 64-bit stream key."""
    if not -2**63 <= seed < 2**63:
        raise ArgumentError(f"seed must fit in a signed 64-bit integer, got {seed}")


@dataclass(frozen=True)
class RngStream:
    seed: int
    tags: tuple[str, ...] = field(default_factory=tuple)

    def child(self, *tags: str | int) -> "RngStream":
        """Derive a sub-stream; int tags are stringified."""
        return RngStream(self.seed, self.tags + tuple(str(t) for t in tags))

    def _key(self) -> np.ndarray:
        h = hashlib.sha256(_DOMAIN)
        h.update(self.seed.to_bytes(8, "little", signed=True))
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


def draw_standard_normal(stream: RngStream, rows: int, cols: int) -> np.ndarray:
    """An (rows x cols) matrix of i.i.d. standard normals, bit-reproducible."""
    if rows < 1 or cols < 1:
        raise ArgumentError(f"matrix shape must be at least 1x1, got {rows}x{cols}")
    return stream.generator().standard_normal((rows, cols))

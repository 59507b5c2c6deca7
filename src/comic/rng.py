"""Splittable, replayable random streams.

A stream is identified by a 64-bit seed plus an ordered tuple of string
tags, and that identity is hashed with SHA-256 under a domain string.
generator() keys a Philox counter-based generator with the hash under
_DOMAIN; the generated datasets and the initial weights come from it.
draw_standard_normal, which supplies the training and evaluation noise,
sets an SFC64 generator's 256-bit state to the hash under _NOISE_DOMAIN and
discards 12 outputs, as SFC64's own seeding does. Either way a draw is a
pure function of (seed, tags, shape): replaying a stream gives
bit-identical output on any platform, and differently tagged streams are
statistically independent. Streams carry no mutable state; derive a child
with new tags whenever fresh randomness is needed.

draw_standard_normal is on the training hot path, so it reuses one SFC64
generator per thread instead of building one per draw: before each draw
it sets the whole state, which leaves nothing of the previous use behind,
and then fills the array it is given, so bnn's sampled passes can draw
their noise into their workspace's arrays. That generator is the module's
only mutable state, and each thread holds its own, so threads drawing at
once get the bits they would get alone. It is built on a thread's first draw, so
importing the package does not load numpy.random.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, check_int

_DOMAIN = b"comic-rng-v1"
_NOISE_DOMAIN = b"comic-noise-v2"


def check_seed(seed: int) -> int:
    """The seed as a Python int; rejects non-integers and values outside 64 bits."""
    value = check_int("seed", seed)
    if not -2**63 <= value < 2**63:
        raise ArgumentError(f"seed must fit in a signed 64-bit integer, got {value}")
    return value


@dataclass(frozen=True)
class RngStream:
    """A seed that check_seed accepts, kept as a Python int, and a tuple of
    str tags; anything else is an ArgumentError when the stream is built."""

    seed: int
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.tags, tuple) or not all(isinstance(t, str) for t in self.tags):
            raise ArgumentError(f"stream tags must be a tuple of str, got {self.tags!r}")

    def child(self, *tags: str | int) -> "RngStream":
        """Derive a sub-stream, skipping __post_init__'s checks, which it passes
        already; an int tag (a numpy integer too, not a bool) is keyed by its
        decimal string, and any tag but a str or an int is an ArgumentError."""
        stream = object.__new__(RngStream)
        object.__setattr__(stream, "seed", self.seed)
        object.__setattr__(stream, "tags", self.tags + tuple([
            tag if isinstance(tag, str) else str(check_int("a stream tag that is not a str", tag))
            for tag in tags]))
        return stream

    def _digest(self, domain: bytes) -> bytes:
        """SHA-256 of the domain and this stream's identity."""
        h = hashlib.sha256(domain)
        h.update(self.seed.to_bytes(8, "little", signed=True))
        for tag in self.tags:
            raw = tag.encode("utf-8")
            # length prefix keeps ("a","b") distinct from ("ab",)
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
        return h.digest()

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator positioned at the start of this stream."""
        key = np.frombuffer(self._digest(_DOMAIN)[:16], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


_LOCAL = threading.local()


def _shared_generator() -> np.random.Generator:
    """The generator draw_standard_normal reuses on this thread, built on its first use."""
    gen = getattr(_LOCAL, "generator", None)
    if gen is None:
        gen = _LOCAL.generator = np.random.Generator(np.random.SFC64(0))
    return gen


def draw_standard_normal(stream: RngStream, out: np.ndarray) -> np.ndarray:
    """Fill the (rows x cols) float64 matrix out with i.i.d. standard normals; returns out.

    Bit-reproducible: out ends up equal to the standard normals of a fresh
    SFC64 generator whose state is the stream's hash under _NOISE_DOMAIN,
    after it has discarded 12 outputs.
    """
    if out.ndim != 2 or min(out.shape) < 1:
        raise ArgumentError(f"matrix shape must be at least 1x1, got {out.shape}")
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ArgumentError("out must be a C-contiguous float64 matrix")
    digest = stream._digest(_NOISE_DOMAIN)
    gen = _shared_generator()
    gen.bit_generator.state = {
        "bit_generator": "SFC64",
        "state": {"state": np.frombuffer(digest, dtype=np.uint64)},
        "has_uint32": 0, "uinteger": 0,
    }
    gen.bit_generator.random_raw(12, output=False)
    gen.standard_normal(out=out)
    return out

"""Deterministic random-number streams.

The paper's methodology (following Alameldeen et al.) injects small random
latency perturbations to sample the space of legal interleavings, and its
microbenchmarks insert a random post-release delay to keep lock hand-off
fair.  Both uses need reproducibility: the same seed must replay the same
execution so results (and bugs) are repeatable.

Each component derives its own child stream from a root seed via a stable
string name, so adding a new consumer never shifts another component's
sequence.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def stream(self, name: str) -> random.Random:
        """Return a ``random.Random`` unique to (root seed, name)."""
        child_seed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) \
            & 0xFFFFFFFF
        return random.Random(child_seed)


class LatencyPerturber:
    """Adds a small random jitter to memory-system latencies.

    Mirrors the perturbation methodology the paper cites for evaluating
    non-deterministic multithreaded workloads: a few cycles of noise on
    each memory-system event decorrelates accidental lock-step behaviour
    between processors without changing average latency materially.
    """

    def __init__(self, rng: random.Random, max_jitter: int = 2):
        self._rng = rng
        self.max_jitter = max_jitter
        # randrange(n) with a single positive int argument reduces to
        # _randbelow(n); binding it directly skips the argument
        # normalisation wrapper on every memory-system event while
        # drawing the exact same stream.
        self._span = max_jitter + 1
        self._randbelow = rng._randbelow

    def perturb(self, latency: int) -> int:
        """Return ``latency`` plus 0..max_jitter cycles of jitter."""
        if self.max_jitter <= 0:
            return latency
        return latency + self._randbelow(self._span)


def chaos_priority(rng: random.Random,
                   amplitude: int) -> Callable[[str], int]:
    """A schedule choice hook drawing ``rng.randint(0, amplitude)``.

    It runs on every scheduled event of a chaos run, so it inlines the
    rejection loop ``randint`` reaches through ``randrange`` and
    ``_randbelow``: draw ``k = (amplitude + 1).bit_length()`` bits and
    retry while the draw is out of range.  Same algorithm, same calls
    on the generator, so the stream of priorities -- and the schedule
    -- is exactly the one ``randint`` would give.  The label argument
    is ignored.
    """
    span = amplitude + 1
    bits = span.bit_length()
    getrandbits = rng.getrandbits

    def draw(label: str) -> int:
        value = getrandbits(bits)
        while value >= span:
            value = getrandbits(bits)
        return value

    return draw

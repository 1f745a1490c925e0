"""Deterministic counter-based randomness.

Every random quantity used in this package is a pure function of
(seed, stream, index), so any slice of any stream can be regenerated
on demand, independently of how work is split across workers.  Two
generators are used:

* a SHA-256 counter construction for per-index draws (spacer symbols,
  level sampling), which makes the "chunk equals elementwise singletons"
  regeneration contract trivially true;
* numpy's Philox for bulk Monte Carlo, keyed per block so that results
  do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

SPACER_RNG_ID = "sha256ctr/v1"
BULK_RNG_ID = "philox4x64/numpy"

_U64 = 1 << 64


def _digest64(seed: int, stream: int, index: int, attempt: int) -> int:
    payload = struct.pack(
        ">QQQQ", seed % _U64, stream % _U64, index % _U64, attempt % _U64
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def uniform_int(seed: int, stream: int, index: int, bound: int) -> int:
    """Exactly uniform integer in [0, bound), by rejection on 64-bit draws.

    Bounds above 2**64 draw ceil(bits/64) limbs per attempt, with the
    limbs of attempt a at digest attempts a*limbs, ..., a*limbs + limbs-1.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    # _uniform_int_limbs gives this same stream for every bound, but its
    # per-call limb set-up made single-limb draws about 30% slower and the
    # set-up of the sampled-seeded benchmark workload (200 000 spacer draws)
    # about 25% slower on a 2-core machine, so the hot path keeps its own loop.
    if bound > _U64:
        return _uniform_int_limbs(seed, stream, index, bound)
    limit = _U64 - (_U64 % bound)
    attempt = 0
    while True:
        x = _digest64(seed, stream, index, attempt)
        if x < limit:
            return x % bound
        attempt += 1


def _uniform_int_limbs(seed: int, stream: int, index: int, bound: int) -> int:
    limbs = max(1, -(-(bound - 1).bit_length() // 64))
    span = 1 << (64 * limbs)
    limit = span - (span % bound)
    attempt = 0
    while True:
        x = 0
        for j in range(attempt * limbs, (attempt + 1) * limbs):
            x = (x << 64) | _digest64(seed, stream, index, j)
        if x < limit:
            return x % bound
        attempt += 1


@dataclass(frozen=True)
class SpacerProcess:
    """An i.i.d. uniform symbol stream over {0, ..., alphabet-1}.

    Symbols are addressed by index and regenerated deterministically from
    (seed, stream, index); nothing is stored.
    """

    alphabet: int
    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.alphabet < 2:
            raise ValueError("alphabet size must be at least 2")

    def value(self, index: int) -> int:
        return uniform_int(self.seed, self.stream, index, self.alphabet)

    def chunk(self, start: int, stop: int) -> tuple[int, ...]:
        """Symbols at indices [start, stop), identical to per-index calls."""
        return tuple(self.value(i) for i in range(start, stop))


def bulk_generator(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream) for vectorized Monte Carlo."""
    payload = struct.pack(">QQ", seed % _U64, stream % _U64)
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))

"""Deterministic counter-based randomness.

Every random quantity used in this package is a pure function of
(seed, stream, index), so any slice of any stream can be regenerated
on demand, independently of how work is split across workers.  Two
generators are used:

* a SHA-256 counter construction (spacer symbols, level sampling): draw
  i of a stream hashes (seed, stream, i, attempt), so a chunk equals its
  elementwise singletons by construction.  `uniform_int` makes one draw
  with hashlib; `uniform_ints` makes a range of them at once, hashing
  many indices per numpy call, and gives the same integers;
* numpy's Philox for bulk Monte Carlo, keyed per block so that results
  do not depend on the worker count.  `philox_bits` cuts its fair bits
  straight from the raw words, as numpy's int32 draw does.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import chain

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


# SHA-256 (FIPS 180-4): round constants, initial hash value, the rotations
# of the two round functions and of the two message-schedule functions,
# the latter with their final right shift.
_K = np.array([
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
], dtype=np.uint32)
_H = np.array([
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
], dtype=np.uint32)


def _shifts(rots, shift=None):
    """The shifts of x whose XOR is the XOR of rotr(x, r) for r in `rots`
    and of x >> `shift`: (ufunc, uint32 amount) pairs."""
    pairs = [(op, np.uint32(n)) for r in rots for op, n in ((np.right_shift, r), (np.left_shift, 32 - r))]
    return pairs + ([(np.right_shift, np.uint32(shift))] if shift else [])


_SIGMA0, _SIGMA1 = _shifts((2, 13, 22)), _shifts((6, 11, 25))
_SCHED0, _SCHED1 = _shifts((7, 18), 3), _shifts((17, 19), 10)
_U32_HIGH = np.uint64(32)

# Indices hashed together by `_digest64_lanes`.  The kernel holds 26 uint32
# arrays of this length (1.6 MiB at 2^14), each below glibc's mmap
# threshold so that the heap reuses them, and its ~3300 ufunc calls cost
# about 2.5 ms however few the lanes.  On a 2-core machine 200 000 draws
# took 165 ms at 2^14 lanes, 207 ms at 2^13 and 296 ms at 2^12.
LANES = 1 << 14
# Below this many indices a range is drawn one index at a time: medians on
# the same machine put the crossover between 2048 (the kernel 6% slower)
# and 3072 (28% faster).
BATCH_MIN = 2560


def _xor_shifts(x: np.ndarray, shifts, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = the XOR of the `shifts` of x (`_shifts`), in place."""
    (op, n), *rest = shifts
    op(x, n, out=out)
    for op, n in rest:
        op(x, n, out=tmp)
        out ^= tmp
    return out


def _digest64_lanes(seed: int, stream: int, index: np.ndarray, attempt: int) -> np.ndarray:
    """`_digest64(seed, stream, i, attempt)` for every i of the uint64 array
    `index`, as uint64.  The message `>QQQQ`(seed, stream, i, attempt) fits
    one padded 64-byte block: its 8 big-endian words, then 0x80000000, six
    zero words and the bit length 256.  Each lane runs the compression of
    that block on uint32 arrays, with a rolling 16-word schedule and every
    update in place; the digest's first 8 bytes are the first two words of
    the final state."""
    lanes = len(index)
    words = [(v % _U64) >> s & 0xFFFFFFFF for v in (seed, stream, 0, attempt) for s in (32, 0)]
    words += [0x80000000, 0, 0, 0, 0, 0, 0, 256]
    w = [np.full(lanes, v, dtype=np.uint32) for v in words]
    w[4], w[5] = (index >> _U32_HIGH).astype(np.uint32), index.astype(np.uint32)
    state = [np.full(lanes, v, dtype=np.uint32) for v in _H]
    t1, t2 = np.empty(lanes, dtype=np.uint32), np.empty(lanes, dtype=np.uint32)
    for t in range(64):
        wt = w[t % 16]
        if t >= 16:
            wt += _xor_shifts(w[(t - 15) % 16], _SCHED0, t1, t2)
            wt += _xor_shifts(w[(t - 2) % 16], _SCHED1, t1, t2)
            wt += w[(t - 7) % 16]
        a, b, c, d, e, f, g, h = state
        # h becomes T1 = h + S1(e) + Ch(e, f, g) + K[t] + W[t], d the new e,
        # and h then T1 + S0(a) + Maj(a, b, c), the new a.
        h += _xor_shifts(e, _SIGMA1, t1, t2)
        np.bitwise_xor(f, g, out=t1)
        t1 &= e
        t1 ^= g
        h += t1
        h += _K[t]
        h += wt
        d += h
        h += _xor_shifts(a, _SIGMA0, t1, t2)
        np.bitwise_or(a, b, out=t1)
        t1 &= c
        np.bitwise_and(a, b, out=t2)
        t1 |= t2
        h += t1
        state = [h, a, b, c, d, e, f, g]
    high = np.add(state[0], _H[0]).astype(np.uint64)
    np.left_shift(high, _U32_HIGH, out=high)
    return np.bitwise_or(high, np.add(state[1], _H[1]), out=high)


def uniform_ints(seed: int, stream: int, start: int, stop: int, bound: int) -> np.ndarray:
    """`[uniform_int(seed, stream, i, bound) for i in range(start, stop)]`
    as an array: int64 for bounds up to 2**63, object above.

    From BATCH_MIN indices on, the draws are hashed LANES at a time by
    `_digest64_lanes`; only the lanes a 64-bit draw rejects are hashed
    again, at the next attempt.  Shorter ranges, bounds above 2**63 and
    indices outside [0, 2**64) draw one index at a time with `uniform_int`.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    count = max(0, stop - start)
    if count < BATCH_MIN or bound > 1 << 63 or start < 0 or stop > _U64:
        draws = [uniform_int(seed, stream, i, bound) for i in range(start, stop)]
        return np.array(draws, dtype=np.int64 if bound <= 1 << 63 else object)
    out = np.empty(count, dtype=np.int64)
    modulus, last = np.uint64(bound), np.uint64(_U64 - _U64 % bound - 1)  # the largest draw kept
    for lo in range(0, count, LANES):
        lane = np.arange(lo, min(lo + LANES, count))
        index = lane.astype(np.uint64) + np.uint64(start)
        attempt = 0
        while len(lane):
            x = _digest64_lanes(seed, stream, index, attempt)
            keep = x <= last
            out[lane[keep]] = x[keep] % modulus
            lane, index, attempt = lane[~keep], index[~keep], attempt + 1
    return out


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
        """Symbols at indices [start, stop), identical to per-index calls;
        drawn by `uniform_ints` LANES at a time, so no array of the whole
        range is held beside the tuple."""
        return tuple(chain.from_iterable(
            uniform_ints(self.seed, self.stream, lo, min(lo + LANES, stop), self.alphabet).tolist()
            for lo in range(start, stop, LANES)
        ))


def bulk_generator(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream) for vectorized Monte Carlo."""
    payload = struct.pack(">QQ", seed % _U64, stream % _U64)
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))


def philox_bits(gen: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` draws of `gen.integers(0, 2, size=count, dtype=np.int32)`,
    as a uint8 array, cut from ceil(count/2) raw 64-bit words.

    numpy draws each of these bits as the top bit of one 32-bit half of
    `gen.bit_generator.random_raw()`, low half first: Lemire's bounded
    draw over a range of 2 never rejects.  Viewing the words as
    little-endian before splitting them keeps that order on any host.
    This rests on numpy internals, which `tests/test_randomstacks.py`
    pins.  Consecutive calls read the stream of one `integers` call only
    while every count but the last is even: an odd count drops the high
    half of its last word, which `integers` would keep for its next draw.
    """
    raw = gen.bit_generator.random_raw((count + 1) // 2)
    halves = raw.astype("<u8", copy=False).view("<u4")[:count]
    return np.greater_equal(halves, np.uint32(1 << 31)).view(np.uint8)

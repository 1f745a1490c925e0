"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities along a different route than the
package: tower words by direct string recursion, levels by a descent that
records its chain and its inverse, stacking documents field by field,
chain properties by graph search, conditional limits by renewal densities,
Monte Carlo blocks by comparing every segment end, word histograms by
decoding every level given, sampling sequences by building and scanning
every term up to the horizon, block merges by `Counter.update` and
entropy sums by one term per count.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from stacklab.entropy import plogp
from stacklab.intarith import ResourceGuard, is_int
from stacklab.randomstacks.markov import (
    _MC_BLOCK, MarkovError, _window_bits_needed, pattern_word,
)
from stacklab.rng import bulk_generator
from stacklab.sequences import MAX_TERMS, SamplingSequence, SequenceError
from stacklab.tower import (
    DECODE_BATCH, CodingSpec, StackingData, TowerError, ValidLevels, code_orbits, level_dtype,
)


def materialize_word(sd: StackingData, r: int, n: int, mode: str = "base") -> list[int]:
    """The word encoding tower n over reference r, by direct recursion.

    Start from (1, ..., h_r) and interleave spacer blocks stage by stage;
    independent of the arithmetic-descent decoder.
    """
    h_r = sd.heights()[r - 1]
    word = list(range(1, h_r + 1))
    for m in range(r, n):
        spacers = sd.stage_spacers(m)
        q = sd.stages[m - 1].q
        nxt: list[int] = []
        for i in range(q):
            nxt.extend(word)
            if i < q - 1:
                a = spacers[i]
                if mode == "base":
                    nxt.extend([0] * a)
                else:
                    nxt.extend(h_r + 1 + j for j in range(a))
        word = nxt
    return word


def brute_valid_levels(sd: StackingData, n: int, t_max: int) -> list[int]:
    """K by filtering the materialized stage-(n-1) membership word."""
    h_n = sd.heights()[n - 1]
    word = materialize_word(sd, n - 1, n)
    return [k for k in range(max(0, h_n - t_max)) if word[k] != 0]


def zero_symbol_count(sd: StackingData, n: int) -> int:
    """Closed-form count of base-mode zeros in the reference-1 word of tower n.

    Equals h_n minus h_1 times the number of tower-1 copies, and also the
    stage-by-stage sum of spacer totals times copies of the stage above.
    """
    heights = sd.heights()
    copies = 1
    total = 0
    for m in range(n - 1, 0, -1):
        # `copies` = number of copies of tower m+1 inside tower n
        total += copies * sum(sd.stage_spacers(m))
        copies *= sd.stages[m - 1].q
    assert total == heights[n - 1] - copies * heights[0]
    return total


@dataclass(frozen=True)
class LocatorStep:
    """One descent step: tower (stage+1) decomposed into copies of tower stage."""

    stage: int
    kind: str  # "slice" | "spacer"
    index: int  # 1-based slice or spacer-block index
    offset: int  # slice: level inside the inner tower; spacer: position in block


@dataclass(frozen=True)
class LevelLocator:
    """Full resolution of a level of tower n down to tower 1 or a spacer block."""

    n: int
    level: int
    chain: tuple[LocatorStep, ...]

    @property
    def is_spacer(self) -> bool:
        return bool(self.chain) and self.chain[-1].kind == "spacer"

    @property
    def terminal_offset(self) -> int:
        if not self.chain:
            return self.level
        return self.chain[-1].offset


def locate_level(sd: StackingData, n: int, k: int) -> LevelLocator:
    """Descent chain for level k of tower n, down to tower 1 or the first
    spacer block hit, one binary search per stage; exact at any height, so
    the oracle of `decode_symbol` above 2^64 levels.
    """
    if not 0 <= k < sd.height(n):
        raise TowerError(f"level {k} out of range [0, {sd.height(n)}) for tower {n}")
    steps: list[LocatorStep] = []
    cur, lvl = n, k
    while cur > 1:
        m = cur - 1
        starts, h = sd.slice_starts(m), sd.heights()[m - 1]
        i = bisect_right(starts, lvl) - 1
        off = lvl - int(starts[i])
        if off >= h:
            steps.append(LocatorStep(m, "spacer", i + 1, off - h))
            break
        steps.append(LocatorStep(m, "slice", i + 1, off))
        cur, lvl = m, off
    return LevelLocator(n=n, level=k, chain=tuple(steps))


def recompose_level(sd: StackingData, locator: LevelLocator) -> int:
    """Inverse of locate_level: rebuild the level index from the chain."""
    if not locator.chain:
        return locator.level
    last = locator.chain[-1]
    k = last.offset
    if last.kind == "spacer":
        k += sd.heights()[last.stage - 1]  # past the slice below the block
    for step in reversed(locator.chain):
        k += int(sd.slice_starts(step.stage)[step.index - 1])
    return k


def stacking_doc(sd: StackingData) -> dict:
    """The stacking document of `sd`, with the field names
    `StackingData.from_dict` reads."""
    doc: dict = {"initial_height": sd.initial_height}
    if sd.spacer_cap is not None:
        doc["spacer_cap"] = sd.spacer_cap
    doc["stages"] = [
        {"q": stage.q, "spacers": list(stage.spacers)}
        if stage.spacers is not None
        else {"q": stage.q, "seed": stage.seed}
        for stage in sd.stages
    ]
    return doc


@dataclass(frozen=True)
class EagerSequence(SamplingSequence):
    """A sampling sequence built eagerly: every term up to the horizon is
    built, scanned for strict increase and kept, and read back from that
    tuple.  The reference for `SamplingSequence`, which scans only the kinds
    that need it and computes terms when read.  The constructors, the term
    formulas and `describe` are shared."""

    _terms: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("power", "nlog", "linear", "explicit"):
            raise SequenceError(f"unknown sequence kind {self.kind!r}")
        low = 1 if self.kind == "nlog" else 0
        if not (is_int(self.n0) and self.n0 >= low):
            raise SequenceError(f"n0 must be an integer >= {low}")
        if not is_int(self.horizon):
            raise SequenceError("horizon must be an integer")
        if self.horizon < self.n0:
            raise SequenceError("horizon must be >= n0")
        if self.horizon - self.n0 + 1 > MAX_TERMS:
            raise ResourceGuard(f"horizon {self.horizon} is above sequences.MAX_TERMS")
        terms = tuple(self._raw_term(i) for i in range(self.n0, self.horizon + 1))
        n0 = self.n0
        if self.kind == "nlog":
            last_bad = -1
            for j in range(1, len(terms)):
                if terms[j] <= terms[j - 1]:
                    last_bad = j
            if last_bad >= 0:
                object.__setattr__(self, "requested_n0", n0)
                n0 = n0 + last_bad
                terms = terms[last_bad:]
                object.__setattr__(self, "n0", n0)
        if terms[0] < 0:
            raise SequenceError(f"sequence is negative at index {n0}")
        for j in range(1, len(terms)):
            if terms[j] <= terms[j - 1]:
                raise SequenceError(f"sequence not strictly increasing at index {n0 + j}")
        object.__setattr__(self, "_terms", terms)

    def generate(self, i: int) -> int:
        if not self.n0 <= i <= self.horizon:
            raise SequenceError(f"index {i} outside range [{self.n0}, {self.horizon}]")
        return self._terms[i - self.n0]

    def prefix(self, length: int) -> tuple[int, ...]:
        if length < 0 or length > len(self._terms):
            raise SequenceError(f"prefix length {length} unavailable")
        return self._terms[:length]


def symbol_density_limit(h: int, pattern: Sequence[int], l1: int) -> Fraction:
    """Renewal closed form for the limiting symbol density.

    Each segment (one copy of w plus its random trailing spacer) has
    expected length H + 1/2 and contains g copies of every in-alphabet
    symbol and b + 1/2 expected spacers, so the limits are 2g/(2H+1) and
    (2b+1)/(2H+1).  Independent of the chain route it cross-checks.
    """
    H = len(pattern_word(h, pattern))
    g = len(pattern) + 1
    b = sum(pattern)
    if l1 == 0:
        return Fraction(2 * b + 1, 2 * H + 1)
    if 1 <= l1 <= h:
        return Fraction(2 * g, 2 * H + 1)
    raise MarkovError(f"symbol {l1} outside the alphabet")


def mc_block_oracle(
    h, pattern, l0, position, separation, seed, span
) -> tuple[int, tuple[int, ...]]:
    """`markov._mc_block` on the full array: the same int64 Philox bits,
    every segment end from one cumsum, and each compared with p."""
    block, count = span[0] // _MC_BLOCK, span[1] - span[0]
    word = np.array(pattern_word(h, tuple(pattern)), dtype=np.int64)
    H = len(word)
    far = position + separation
    m = _window_bits_needed(H, far)
    bits = bulk_generator(seed, block).integers(0, 2, size=(count, m), dtype=np.int64)
    ends = (np.arange(1, m + 1, dtype=np.int64) * H)[None, :] + np.cumsum(bits, axis=1)

    def symbols(p: int) -> np.ndarray:
        seg = np.sum(ends < p, axis=1)
        prev = np.where(
            seg == 0,
            0,
            np.take_along_axis(ends, np.maximum(seg - 1, 0)[:, None], axis=1)[:, 0],
        )
        off = p - prev
        return np.where(off <= H, word[np.minimum(off, H) - 1], 0)

    hit0 = symbols(position) == l0
    joint = np.bincount(symbols(far)[hit0], minlength=h + 1)
    return int(hit0.sum()), tuple(int(x) for x in joint[: h + 1])


def is_irreducible_aperiodic(matrix) -> bool:
    """Strong connectivity plus gcd-1 cycle structure, by graph search."""
    size = len(matrix)
    adj = [[j for j in range(size) if matrix[i][j] > 0] for i in range(size)]

    def reachable(start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    if any(len(reachable(i)) != size for i in range(size)):
        return False
    # Aperiodicity: gcd over edges of (d[u] + 1 - d[v]) for BFS distances.
    from collections import deque

    dist = [-1] * size
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    g = 0
    for u in range(size):
        for v in adj[u]:
            g = gcd(g, dist[u] + 1 - dist[v])
    return abs(g) == 1


def oracle_word_counts(sd: StackingData, r: int, n: int, offsets, mode: str = "base") -> dict:
    """Per-word level counts over K by direct slicing of the materialized word."""
    word = materialize_word(sd, r, n, mode)
    counts: dict = {}
    for k in brute_valid_levels(sd, n, offsets[-1]):
        w = tuple(word[k + t] for t in offsets)
        counts[w] = counts.get(w, 0) + 1
    return counts


def count_words(
    sd: StackingData, spec: CodingSpec, n: int, levels: Iterable[int] | ValidLevels,
    offsets: Sequence[int],
) -> Counter:
    """Histogram of the word keys (`code_orbits`) of `levels`, keys in
    first-seen order, decoded DECODE_BATCH levels at a time; `levels` may
    be an iterable, a 1-d numpy array or a whole K, read by rank through
    `ValidLevels.at`.  The enumeration oracle of `tower.exact_word_counts`
    and `tower.blocked_word_counts`."""
    counts: Counter = Counter()
    if isinstance(levels, ValidLevels):
        levels = levels.at(np.arange(levels.count, dtype=level_dtype(levels.sd, levels.n)))
    if isinstance(levels, np.ndarray):
        batches = (levels[j : j + DECODE_BATCH] for j in range(0, len(levels), DECODE_BATCH))
    else:
        it = iter(levels)
        batches = iter(lambda: list(islice(it, DECODE_BATCH)), [])
    for batch in batches:
        counts.update(code_orbits(sd, spec, n, batch, offsets))
    return counts


def merged_blocks(parts: Iterable[Counter]) -> Counter:
    """Block counts merged by `Counter.update` in block order, a per-key
    Python loop: the oracle of `tower.blocked_word_counts`' merge."""
    counts: Counter = Counter()
    for part in parts:
        counts.update(part)
    return counts


def plogp_sum(counts: Iterable[int], total: int) -> float:
    """The builtin sum of plogp(c / total) over a generator, one term per
    count: the oracle of `entropy.counts_entropy`."""
    return sum(plogp(c / total) for c in counts)


def exhaustive_generic_acceptors(base, offsets, N0, q, alphabet):
    """All spacer sequences meeting the word-frequency cap, by full enumeration."""
    from stacklab.randomstacks.generic import evaluate_candidate

    acceptors = []
    for spacers in product(range(alphabet), repeat=q - 1):
        record = evaluate_candidate(base, spacers, q, tuple(offsets), N0)
        if record.accepted:
            acceptors.append(spacers)
    return acceptors

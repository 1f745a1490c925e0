"""The block-repeat Markov chain and its conditional symbol limits.

Random binary spacers between repeats of a fixed block w of length H
drive the linear recursion p_s = (p_{s-H} + p_{s-H-1})/2 for conditional
symbol probabilities, whose companion matrix is an irreducible aperiodic
(H+1)-state chain.  Two independent routes to the limiting conditional
probabilities live here: the chain route (the stationary vector that
`stationary_distribution_exact` computes by state reduction, contracted
with an exactly enumerated initial window) and seeded Monte Carlo on the
symbol stream itself.  A third, the renewal-density closed form, checks
them from `tests/oracles.py`.  A Monte Carlo block cuts its spacer bits
from raw Philox words (`rng.philox_bits`), a chunk of rows at a time that
stays in cache, and never holds the whole block's bits.  It finds the
symbol at p from the segment ends j*H + S_j, comparing with p only the
band of ends that may fall either side of it (j*(H+1) >= p and j*H < p);
the ends before the band come from one row sum.  The symbol at the far
position is found only in the rows that hit the conditioning symbol.

Note on constants: the stationary vector of the companion chain is
(2/(2H+1), ..., 2/(2H+1), 1/(2H+1)).  A commonly quoted variant with
denominator 2H-1 does not normalize.  The chain route embeds neither:
it computes the vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import compress, product
from typing import Sequence

import numpy as np

from ..intarith import InvalidInput, ResourceGuard, is_int
from ..parallel import index_blocks, run_blocks
from ..rng import BULK_RNG_ID, bulk_generator, philox_bits


# The largest period H the chain is built for.  Its (H+1)^2 entries and
# the float solver's matrix squarings grow with H^2 and H^3: the markov op
# takes about 1.0 s at 1024 and 3.2 s at 1536 (2-core machine), and 10^8
# runs out of memory.
MAX_PERIOD = 1024


class MarkovError(InvalidInput):
    """Invalid chain parameters or non-convergence."""


@dataclass(frozen=True)
class MarkovModel:
    """(H+1)x(H+1) row-stochastic matrix, exact entries, checked once at
    construction.  `nonzero` holds each row's nonzero entries as (column,
    value) pairs, found by one truthiness test per entry; the checks,
    `as_array` and the markov op's residual read only these, the H + 2
    entries of a companion chain."""

    period: int
    rows: tuple[tuple[Fraction, ...], ...]
    nonzero: tuple[tuple[tuple[int, Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        size = self.period + 1
        if len(self.rows) != size or any(len(r) != size for r in self.rows):
            raise MarkovError("matrix shape disagrees with the period")
        nonzero = tuple(tuple(compress(enumerate(row), row)) for row in self.rows)
        object.__setattr__(self, "nonzero", nonzero)
        for i, row in enumerate(nonzero):
            if sum(x for _, x in row) != 1:
                raise MarkovError(f"row {i + 1} does not sum to 1")
            if any(x < 0 for _, x in row):
                raise MarkovError(f"row {i + 1} has a negative entry")

    def as_array(self) -> np.ndarray:
        size = self.period + 1
        out = np.zeros((size, size))
        for i, row in enumerate(self.nonzero):
            for j, x in row:
                out[i, j] = float(x)
        return out


def check_period(H: int) -> None:
    """Reject a period below 2, and one above MAX_PERIOD as a resource guard."""
    if H < 2:
        raise MarkovError("period H must be >= 2")
    if H > MAX_PERIOD:
        raise ResourceGuard(f"period {H} is above the bound of {MAX_PERIOD}")


def build_markov_matrix(H: int) -> MarkovModel:
    """Companion chain of p_s = (p_{s-H} + p_{s-H-1})/2.

    First row has 1/2 in columns H and H+1; row i (i >= 2) has 1 in
    column i-1.
    """
    check_period(H)
    size = H + 1
    half = Fraction(1, 2)
    rows = []
    first = [Fraction(0)] * size
    first[H - 1] = half
    first[H] = half
    rows.append(tuple(first))
    for i in range(1, size):
        row = [Fraction(0)] * size
        row[i - 1] = Fraction(1)
        rows.append(tuple(row))
    return MarkovModel(period=H, rows=tuple(rows))


_RESIDUAL_TOL = 1e-14
_AGREE_TOL = 1e-10
_MAX_SQUARINGS = 200


def stationary_distribution(model: MarkovModel) -> np.ndarray:
    """Unique stationary probability vector, in floats.

    Power iteration (accelerated by repeated matrix squaring) down to a
    residual of _RESIDUAL_TOL, cross-checked against a direct linear solve;
    the two must agree to _AGREE_TOL.
    """
    A = model.as_array()
    size = A.shape[0]
    B = A.copy()
    for _ in range(_MAX_SQUARINGS):
        B = B @ B
        B /= B.sum(axis=1, keepdims=True)
        spread = np.max(B.max(axis=0) - B.min(axis=0))
        if spread < 1e-16:
            break
    pi = B.mean(axis=0)
    pi /= pi.sum()
    residual = np.max(np.abs(pi @ A - pi))
    if residual > _RESIDUAL_TOL:
        raise MarkovError(
            f"power iteration stalled at residual {residual:.3e} "
            f"(> {_RESIDUAL_TOL:.0e}) after {_MAX_SQUARINGS} squarings"
        )
    # Direct solve of pi (A - I) = 0 with the normalization constraint.
    M = A.T - np.eye(size)
    M[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    solved = np.linalg.solve(M, rhs)
    if np.max(np.abs(solved - pi)) > _AGREE_TOL:
        raise MarkovError("power iteration and linear solve disagree")
    return pi


def stationary_distribution_exact(model: MarkovModel) -> tuple[Fraction, ...]:
    """Stationary vector over the rationals, by GTH state reduction
    (Grassmann, Taksar and Heyman, Operations Research 33(5), 1985).

    States are folded away from the last one down, each scaled by its
    outflow to the lower states (a sum, so nothing is subtracted and no
    pivot is sought); the vector is then rebuilt forwards and normalised.
    A zero outflow means the chain is reducible (two closed classes, say)
    and raises MarkovError.
    """
    A = [list(row) for row in model.rows]
    for k in range(len(A) - 1, 0, -1):
        lower = [(j, x) for j, x in enumerate(A[k][:k]) if x]
        outflow = sum(x for _, x in lower)
        if not outflow:
            raise MarkovError(
                f"states {k + 1}..{len(A)} form a closed set: the chain is reducible"
            )
        for row in A[:k]:
            if row[k]:
                row[k] /= outflow
                for j, x in lower:
                    row[j] += row[k] * x
    pi = [Fraction(1)]
    for k in range(1, len(A)):
        pi.append(sum(pi[i] * A[i][k] for i in range(k) if A[i][k]))
    total = sum(pi)
    return tuple(x / total for x in pi)


# -- the repeated-block symbol stream -----------------------------------------


def pattern_word(h: int, pattern: Sequence[int]) -> tuple[int, ...]:
    """w = v 0^{b_1} v ... 0^{b_{g-1}} v with v = (1, ..., h)."""
    if h < 2:
        raise MarkovError("block height h must be >= 2")
    if any(b not in (0, 1) for b in pattern):
        raise MarkovError("internal spacer pattern must be binary")
    v = tuple(range(1, h + 1))
    word: list[int] = list(v)
    for b in pattern:
        word.extend([0] * b)
        word.extend(v)
    return tuple(word)


def _symbol_at(word: tuple[int, ...], bits: Sequence[int], position: int) -> int:
    """Symbol of  w 0^{a_1} w 0^{a_2} ...  at a 1-based position."""
    H = len(word)
    end = 0
    for j, a in enumerate(bits, start=1):
        prev = end
        end = j * H + sum(bits[:j])
        if position <= end:
            off = position - prev
            return word[off - 1] if off <= H else 0
    raise MarkovError("position not covered by the generated prefix")


def _window_bits_needed(H: int, position: int) -> int:
    return position // H + 2


def conditional_limit_chain(
    h: int, pattern: Sequence[int], l0: int, l1: int, position: int | None = None
) -> Fraction:
    """Exact s -> infinity limit of P(symbol at n+s = l1 | symbol at n = l0).

    The initial window p_0..p_H is enumerated exactly over the few spacer
    bits it involves, then contracted with the stationary vector of the
    companion chain, as computed by `stationary_distribution_exact`.
    """
    word = pattern_word(h, pattern)
    H = len(word)
    if position is None:
        position = _default_position(word, l0)
    m = _window_bits_needed(H, position + H)
    weight_l0 = 0
    window = [0] * (H + 1)
    for bits in product((0, 1), repeat=m):
        if _symbol_at(word, bits, position) != l0:
            continue
        weight_l0 += 1
        for i in range(H + 1):
            if _symbol_at(word, bits, position + i) == l1:
                window[i] += 1
    if weight_l0 == 0:
        raise MarkovError(f"conditioning symbol {l0} has zero probability at {position}")
    p = [Fraction(c, weight_l0) for c in window]
    pi = stationary_distribution_exact(build_markov_matrix(H))
    return sum(pi[i] * p[H - i] for i in range(H + 1))


def _default_position(word: tuple[int, ...], l0: int) -> int:
    H = len(word)
    for position in range(H + 1, 4 * H + 2):
        m = _window_bits_needed(H, position)
        if any(
            _symbol_at(word, bits, position) == l0
            for bits in product((0, 1), repeat=m)
        ):
            return position
    raise MarkovError(f"symbol {l0} never occurs near the stream start")


# -- Monte Carlo on the symbol stream -----------------------------------------

_MC_BLOCK = 1 << 15

# About the spacer bits a Monte Carlo block draws and counts at a time
# (`_chunk_rows`): a chunk's raw words (1 MiB) and bits (256 KiB) stay in a
# core's 2 MiB L2 cache.  On 2 cores a search-chain block (2^15 rows of 153
# bits) took 21 ms at 2^16 bits and 18 ms from 2^17 to 2^20, against 33 ms
# for one int32 draw of the block; its raw words alone took 11 ms.
_MC_CHUNK_BITS = 1 << 18

# The most bytes of raw Philox words one Monte Carlo block may draw: rows
# times (position + separation) // H + 2 bits, 4 bytes each, so no chunk
# holds more.  A full block then has at most 2048 columns (separation
# about 8000 at H = 4); the benchmark and the tests draw 153.  Segment
# ends, below twice position + separation, are int32, so that sum is
# bounded by 2^30.
MAX_DRAW_BYTES = 1 << 28


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    conditioning_hits: int
    samples: int
    position: int
    separation: int
    rng: str = BULK_RNG_ID


def _chunk_rows(m: int) -> int:
    """Rows of m bits that a Monte Carlo block counts at a time: an even
    number, at least two, so that each chunk ends on a whole raw word."""
    return max(2, _MC_CHUNK_BITS // m // 2 * 2)


def _mc_block(h, pattern, l0, position, separation, seed, span) -> tuple[int, tuple[int, ...]]:
    """One sampling block: conditioning hits and joint hits for every target symbol.

    The block is the rows [lo, hi) = `span` of the run, read from the
    Philox stream of block lo // _MC_BLOCK.  Each row is one stream of m
    spacer bits.  The rows are drawn and counted `_chunk_rows(m)` at a
    time with `philox_bits`, which reads the stream that one
    `integers(0, 2, (count, m), int32)` call reads, count = hi - lo.
    Segment j of a row ends at j*H + S_j, with S_j the sum of its first j
    spacer bits, so 0 <= S_j <= j: every end with j*(H+1) < p lies before p,
    no end with j*H >= p does, and only the band between is compared.
    The symbol at far is found only in the rows whose symbol at the
    position is l0.
    """
    count = span[1] - span[0]
    word = pattern_word(h, tuple(pattern))
    H = len(word)
    # Symbol by offset from the last segment end before p: w, then a spacer.
    by_offset = np.array(word + (0,), dtype=np.int64)
    far = position + separation
    m = _window_bits_needed(H, far)
    rows = _chunk_rows(m)
    gen = bulk_generator(seed, span[0] // _MC_BLOCK)

    def symbols(bits: np.ndarray, p: int) -> np.ndarray:
        lo, hi = (p - 1) // (H + 1), (p - 1) // H
        # Column k holds the end of segment lo + k; segment 0 ends at 0.
        ends = np.empty((len(bits), hi - lo + 1), dtype=np.int32)
        ends[:, 0] = lo * H + bits[:, :lo].sum(axis=1, dtype=np.int32)
        np.cumsum(bits[:, lo:hi], axis=1, out=ends[:, 1:])
        ends[:, 1:] += ends[:, :1] + np.arange(H, (hi - lo) * H + 1, H, dtype=np.int32)
        below = np.sum(ends[:, 1:] < p, axis=1)
        prev = np.take_along_axis(ends, below[:, None], axis=1)[:, 0]
        return by_offset[p - 1 - prev]

    hits = 0
    joint = np.zeros(h + 1, dtype=np.int64)
    for start in range(0, count, rows):
        n = min(rows, count - start)
        bits = philox_bits(gen, n * m).reshape(n, m)
        hit0 = symbols(bits, position) == l0
        hits += int(np.count_nonzero(hit0))
        joint += np.bincount(symbols(bits[hit0], far), minlength=h + 1)
    return hits, tuple(int(x) for x in joint)


def conditional_limits_mc(
    h: int,
    pattern: Sequence[int],
    l0: int,
    separation: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> dict[int, McEstimate]:
    """Monte Carlo estimates of P(symbol at n+s = l1 | symbol at n = l0)
    for every target symbol l1, from a single pass over the stream.

    The separation s must be large enough that the estimates approximate
    the limits; sampling is blocked so the result is identical for any
    worker count.
    """
    if not is_int(l0) or not 0 <= l0 <= h:
        raise MarkovError(f"l0 must be an integer in 0..{h}, got {l0!r}")
    if not is_int(separation) or separation < 0:
        raise MarkovError(f"separation must be an integer >= 0, got {separation!r}")
    if not is_int(samples) or samples < 1:
        raise MarkovError(f"samples must be an integer >= 1, got {samples!r}")
    if not is_int(seed):
        raise MarkovError(f"seed must be an integer, got {seed!r}")
    word = pattern_word(h, pattern)
    position = _default_position(word, l0)
    far = position + separation
    draw_bytes = min(samples, _MC_BLOCK) * _window_bits_needed(len(word), far) * 4
    if draw_bytes > MAX_DRAW_BYTES or far >= 1 << 30:
        raise ResourceGuard(
            f"separation {separation} would draw {draw_bytes} bytes per block and reach "
            f"stream position {far}; the bounds are 2^28 bytes (MAX_DRAW_BYTES) and "
            f"position 2^30"
        )
    kernel = partial(_mc_block, h, tuple(pattern), l0, position, separation, seed)
    results = list(run_blocks(kernel, index_blocks(samples, _MC_BLOCK), workers=workers))
    hits0 = sum(r[0] for r in results)
    if hits0 == 0:
        raise MarkovError("zero conditioning events in the Monte Carlo run")
    out = {}
    for l1 in range(h + 1):
        joint = sum(r[1][l1] for r in results)
        p = joint / hits0
        se = math.sqrt(max(p * (1 - p), 1e-12) / hits0)
        out[l1] = McEstimate(
            estimate=p,
            std_error=se,
            conditioning_hits=hits0,
            samples=samples,
            position=position,
            separation=separation,
        )
    return out


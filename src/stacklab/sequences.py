"""Orbit-sampling sequences: generation, gaps, dilation and density diagnostics.

A sampling sequence A = {t_n} is strictly increasing and nonnegative on its
declared index range.  Power sequences floor(n^alpha) with rational alpha
are evaluated with exact integer root arithmetic (bit-exact across
platforms); floor(C*n*(log n)^alpha) uses double precision, which is the
best available since log n is transcendental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, Iterator, Sequence

from .intarith import InvalidInput, ResourceGuard, as_fraction, floor_pow, is_int

# The most terms one `SamplingSequence.terms` call lists.  Admits 2^20, the
# default horizon of `linear`.
MAX_TERMS = 1 << 22


class SequenceError(InvalidInput):
    """Invalid sampling-sequence definition or index."""


@dataclass(frozen=True)
class SamplingSequence:
    """A concrete sampling sequence on the index range [n0, horizon].

    kind: "power" (floor(n^alpha), alpha rational), "nlog"
    (floor(C*n*(log n)^alpha)), "linear" (a*n + b) or "explicit".
    For the nlog kind the constructor raises n0 to the first index from
    which the sequence increases strictly through the horizon; the bump is
    recorded in `requested_n0`.  Terms are computed when read, never kept.
    """

    kind: str
    horizon: int
    n0: int = 1
    alpha: Fraction | float | None = None
    coeff: float | None = None
    a: int | None = None
    b: int | None = None
    values: tuple[int, ...] | None = None
    requested_n0: int = field(default=0, compare=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, alpha, horizon: int, n0: int = 1) -> "SamplingSequence":
        alpha = as_fraction(alpha, "alpha", SequenceError)
        if alpha <= 0:
            raise SequenceError("power sequence needs alpha > 0")
        return cls(kind="power", horizon=horizon, n0=n0, alpha=alpha)

    @classmethod
    def nlog(cls, coeff: float, alpha: float, horizon: int, n0: int = 1) -> "SamplingSequence":
        if coeff <= 0 or alpha <= 0:
            raise SequenceError("nlog sequence needs C > 0 and alpha > 0")
        return cls(kind="nlog", horizon=horizon, n0=n0, coeff=float(coeff), alpha=float(alpha))

    @classmethod
    def linear(cls, a: int, b: int = 0, *, horizon: int, n0: int = 1) -> "SamplingSequence":
        if not is_int(a) or not is_int(b):
            raise SequenceError("linear sequence needs integer coefficients")
        if a < 1:
            raise SequenceError("linear sequence needs slope a >= 1")
        return cls(kind="linear", horizon=horizon, n0=n0, a=a, b=b)

    @classmethod
    def explicit(cls, values: Sequence[int], n0: int = 1) -> "SamplingSequence":
        if not isinstance(values, (list, tuple)) or not all(map(is_int, values)):
            raise SequenceError("explicit sequence values must be a list of integers")
        vals = tuple(values)
        if not vals:
            raise SequenceError("explicit sequence must be nonempty")
        if not is_int(n0):
            raise SequenceError("n0 must be an integer")
        return cls(
            kind="explicit", horizon=n0 + len(vals) - 1, n0=n0, values=vals
        )

    def __post_init__(self) -> None:
        if self.kind not in ("power", "nlog", "linear", "explicit"):
            raise SequenceError(f"unknown sequence kind {self.kind!r}")
        low = 1 if self.kind == "nlog" else 0  # nlog takes log n, power n^alpha
        if not (is_int(self.n0) and self.n0 >= low):
            raise SequenceError(f"n0 must be an integer >= {low}")
        if not is_int(self.horizon):
            raise SequenceError("horizon must be an integer")
        if self.horizon < self.n0:
            raise SequenceError("horizon must be >= n0")
        n0 = self.n0
        if self.kind == "linear" or (self.kind == "power" and self.alpha >= 1):
            # No scan: linear terms step by a >= 1, and for alpha >= 1,
            # (i+1)^alpha - i^alpha >= 1 for i >= 0, so the floors strictly
            # increase.  t_horizon, the costliest term, is still built, so
            # floor_pow's exponent guard fires here.
            terms = iter((self._raw_term(n0),))
            self._raw_term(self.horizon)
        else:
            terms = self.terms(n0, self.horizon + 1)
        prev = next(terms)
        if prev < 0:
            raise SequenceError(f"sequence is negative at index {n0}")
        skip = 0  # nlog: the last repeat; any other kind stops at the first
        for i, t in enumerate(terms, n0 + 1):
            if t <= prev:
                if self.kind != "nlog":
                    raise SequenceError(f"sequence not strictly increasing at index {i}")
                skip = i - n0
            prev = t
        if skip:
            # Skip the small-index degeneracy: keep the requested n0 on
            # record and start where strict increase holds to the horizon.
            object.__setattr__(self, "requested_n0", n0)
            object.__setattr__(self, "n0", n0 + skip)

    def _raw_term(self, i: int) -> int:
        if self.kind == "power":
            return floor_pow(i, self.alpha)
        if self.kind == "nlog":
            if i == 1:
                return 0
            try:
                return math.floor(self.coeff * i * math.log(i) ** self.alpha)
            except OverflowError:
                raise ResourceGuard(f"nlog term at index {i} is too large for a float") from None
        if self.kind == "linear":
            return self.a * i + self.b
        return self.values[i - self.n0]

    # -- queries ------------------------------------------------------------

    def generate(self, i: int) -> int:
        """t_i, for n0 <= i <= horizon."""
        if not self.n0 <= i <= self.horizon:
            raise SequenceError(
                f"index {i} outside range [{self.n0}, {self.horizon}]"
            )
        return self._raw_term(i)

    def terms(self, start: int, stop: int) -> Iterator[int]:
        """t_start, ..., t_{stop-1}, computed as they are read; none if
        stop <= start.  The range and the MAX_TERMS bound are checked at
        the call, so an unread call checks them without building a term."""
        if stop > start and not (self.n0 <= start and stop <= self.horizon + 1):
            raise SequenceError(
                f"indices {start}..{stop - 1} outside range [{self.n0}, {self.horizon}]"
            )
        if stop - start > MAX_TERMS:
            raise ResourceGuard(
                f"listing t_{start}..t_{stop - 1} (horizon {self.horizon}) takes {stop - start} "
                f"terms, above the bound of 2^{MAX_TERMS.bit_length() - 1} per listing "
                f"(sequences.MAX_TERMS)"
            )
        return map(self._raw_term, range(start, stop))

    def prefix(self, length: int) -> tuple[int, ...]:
        """The first `length` terms, starting at n0."""
        if not 0 <= length <= self.horizon - self.n0 + 1:
            raise SequenceError(f"prefix length {length} unavailable")
        return tuple(self.terms(self.n0, self.n0 + length))

    def describe(self) -> dict:
        out = {"kind": self.kind, "n0": self.n0, "horizon": self.horizon}
        if self.kind == "power":
            out["alpha"] = str(self.alpha)
        elif self.kind == "nlog":
            out["C"] = self.coeff
            out["alpha"] = self.alpha
            if self.requested_n0:
                out["requested_n0"] = self.requested_n0
        elif self.kind == "linear":
            out["a"], out["b"] = self.a, self.b
        else:
            out["length"] = len(self.values)
        return out


def sampling_offsets(A, length: int) -> tuple[int, ...]:
    """The first `length` orbit offsets of a sampling sequence or of an
    explicit list of offsets."""
    if hasattr(A, "prefix"):
        return tuple(A.prefix(length))
    offsets = tuple(int(t) for t in A)
    if not 0 <= length <= len(offsets):
        raise SequenceError(f"need {length} offsets, got {len(offsets)}")
    return offsets[:length]


def max_gap(seq: SamplingSequence, n: int) -> int:
    """s_n, the maximal difference t_{i+1} - t_i over n0 <= i <= n-1."""
    if n < seq.n0 + 1:
        raise SequenceError("max_gap needs at least two terms")
    return max(b - a for a, b in pairwise(seq.terms(seq.n0, n + 1)))


@dataclass(frozen=True)
class DilationReport:
    """Tail-gap diagnostics over a finite horizon.

    The verdict is a finite-horizon heuristic: gaps strictly increase over
    the final half of the range and the last gap beats the smallest one.
    It is a trend statement about the inspected range, nothing more.
    """

    gaps: tuple[int, ...]
    dilating: bool


def dilation_diagnostic(seq: SamplingSequence, horizon: int | None = None) -> DilationReport:
    horizon = seq.horizon if horizon is None else horizon
    if horizon < seq.n0 + 1:
        raise SequenceError("dilation diagnostic needs at least two terms")
    return gaps_dilation(tuple(b - a for a, b in pairwise(seq.terms(seq.n0, horizon + 1))))


def gaps_dilation(gaps: tuple[int, ...]) -> DilationReport:
    """The `DilationReport` of a run of terms from its consecutive gaps,
    of which there is at least one."""
    half = len(gaps) // 2
    strictly_rising = all(
        gaps[j] < gaps[j + 1] for j in range(half, len(gaps) - 1)
    )
    return DilationReport(gaps=gaps, dilating=strictly_rising and gaps[-1] > min(gaps))


def thickened_count(gaps: Iterable[int], r: int) -> int:
    """#{ t_i + j : -r <= j <= r } over the terms of an increasing run whose
    consecutive differences are `gaps`.

    The windows [t_i - r, t_i + r] have one width and increasing centres,
    so each adds min(2r + 1, t_i - t_{i-1}) points to those before it.
    """
    width = 2 * r + 1
    return width + sum(min(width, g) for g in gaps)


def krug_K_estimate(seq: SamplingSequence, r: int, n: int) -> Fraction:
    """Finite (r, n) evaluation of the thickened-sequence density:
    (1/n)*#{ t_i + j : i <= n, -r <= j <= r }, counted exactly
    (`thickened_count`)."""
    if r < 0:
        raise SequenceError("r must be nonnegative")
    if n < seq.n0:
        raise SequenceError("n precedes the sequence start")
    gaps = (b - a for a, b in pairwise(seq.terms(seq.n0, n + 1)))
    return Fraction(thickened_count(gaps, r), n - seq.n0 + 1)


def lower_density_estimate(J: Iterable[int], n: int) -> Fraction:
    """|J intersect [1, n]| / n."""
    if n < 1:
        raise SequenceError("n must be positive")
    hits = len({j for j in J if 1 <= j <= n})
    return Fraction(hits, n)

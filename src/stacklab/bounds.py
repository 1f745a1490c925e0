"""Combinatorial word-count bounds, tower-selection rules, and the balancing
diagnostics that drive the vanishing-entropy regime.

The word-count bound binom(N+c, N) * (h+1) * (s+1)^c is exact big-integer
arithmetic; the per-n balancing diagnostics are double precision.  A bounds
op is checked once, at load, by `check_balancing_horizon`; its rows, each
with its strict tau (`strict_tau`, which `select_tau` also decides by), come
from `balancing_rows` and one listing of the terms.  "Trends toward zero"
are operationalized over a finite horizon: the diagnostic at the endpoint
must be below its value at 1% of the horizon, and its running maximum over
the last decade of n must sit below its first-decade minimum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .intarith import InvalidInput, ResourceGuard, as_float, floor_pow
from .sequences import SamplingSequence, max_gap, sampling_offsets
from .tower import (
    CodingSpec, StackingData, decode_words, exact_word_counts, symbol_width, valid_levels,
)


class BoundsError(InvalidInput):
    """Invalid bound parameters or case pairing."""


def word_count_bound(N: int, c: int, h: int, s: int) -> int:
    """binom(N+c, N) * (h+1) * (s+1)^c, exactly."""
    if min(N, c, h, s) < 0:
        raise BoundsError("all bound arguments must be nonnegative")
    return math.comb(N + c, N) * (h + 1) * (s + 1) ** c


def brute_force_words(
    sd: StackingData,
    r: int,
    n: int,
    A,
    N: int,
    level_cap: int = 10**6,
) -> set[tuple[int, ...]]:
    """Exact distinct coded-word set over the valid levels of tower n.

    `level_cap` bounds |K| when every valid level must be decoded (see
    `exact_word_counts`).
    """
    offsets = sampling_offsets(A, N)
    if N == 0:
        return {()}
    levels = valid_levels(sd, n, offsets[-1])
    spec = CodingSpec(r)
    keys = exact_word_counts(levels, spec, offsets, level_cap=level_cap)[0]
    return set(decode_words(keys, symbol_width(sd, spec)))


# -- tower selection -----------------------------------------------------------


def select_tau(
    heights: Sequence[int],
    A,
    cuts: Callable[[int], int] | None,
    N: int,
    rule: str = "strict",
    lam=None,
) -> int:
    """Minimal stage whose height clears the orbit-length threshold.

    rule "strict": min n with h_n > t_N / c_N (`strict_tau`); rule
    "lambda": min n with h_n >= t_N / (lam * N).  Comparisons are exact
    rationals.
    """
    t_N = A.generate(N)
    if rule == "strict":
        c_N = cuts(N)
        if c_N < 1:
            raise BoundsError("cut schedule must be >= 1")
        threshold, tau = Fraction(t_N, c_N), strict_tau(heights, t_N, c_N)
    elif rule == "lambda":
        if lam is None:
            raise BoundsError("lambda rule needs lam")
        lam = Fraction(lam)
        if lam <= 0 or N < 1:
            raise BoundsError("lambda rule needs lam > 0 and N >= 1")
        threshold = Fraction(t_N) / (lam * N)
        tau = next((idx for idx, h in enumerate(heights, start=1) if h >= threshold), None)
    else:
        raise BoundsError(f"unknown tau rule {rule!r}")
    if tau is None:
        raise BoundsError(
            f"no stage qualifies: tallest height {heights[-1]} vs threshold {threshold}"
        )
    return tau


def strict_tau(heights: Sequence[int], t: int, c: int) -> int | None:
    """The least stage n with h_n > t / c, for c >= 1, or None if no stage
    qualifies.  Heights strictly increase, and for an integer h,
    h > t / c exactly when h > t // c."""
    idx = bisect_right(heights, t // c)
    return idx + 1 if idx < len(heights) else None


# -- cut schedules and growth gauges -------------------------------------------


def constant_cuts(value: int = 1) -> Callable[[int], int]:
    if value < 1:
        raise BoundsError("constant cut schedule must be >= 1")
    return lambda n: value


def power_cuts(alpha, beta) -> Callable[[int], int]:
    """c_n = floor(n^((alpha - 1/beta + 1)/2)), exact, clamped at 1."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if beta <= 0:
        raise BoundsError("power cut schedule needs beta > 0")
    exponent = (alpha - 1 / beta + 1) / 2
    if exponent < 0:
        raise BoundsError("cut exponent is negative for these (alpha, beta)")
    return lambda n: max(1, floor_pow(n, exponent))


def loglog_cuts() -> Callable[[int], int]:
    """c_n = floor(n / (log log n)^2), clamped at 1."""

    def c(n: int) -> int:
        if n < 2:
            return 1
        ll = math.log(math.log(n))
        return max(1, math.floor(n / (ll * ll)))

    return c


@dataclass(frozen=True)
class GrowthGauge:
    """The height-growth gauge phi: log x, x^beta, or e^(x^beta)."""

    kind: str
    beta: float | None = None

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise BoundsError("gauge argument must be positive")
        if self.kind == "log":
            return math.log(x)
        try:
            power = x**self.beta
            return power if self.kind == "power" else math.exp(power)
        except OverflowError:
            return math.inf


def phi_log() -> GrowthGauge:
    return GrowthGauge(kind="log")


def phi_power(beta) -> GrowthGauge:
    b = as_float(beta, "beta")
    if b <= 0:
        raise BoundsError("power gauge needs beta > 0")
    return GrowthGauge(kind="power", beta=b)


def phi_exp_power(beta) -> GrowthGauge:
    b = as_float(beta, "beta")
    if b <= 0:
        raise BoundsError("exp-power gauge needs beta > 0")
    return GrowthGauge(kind="exp_power", beta=b)


# -- balancing diagnostics -------------------------------------------------------


def _log_binom(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def check_balancing_horizon(
    A: SamplingSequence, cuts: Callable[[int], int], horizon: int
) -> None:
    """Reject a horizon outside (n0, A.horizon], a cut count c_horizon
    whose row would leave the float range, and a sequence in the
    exponential regime: its maximal gap reaches half the term at horizon.

    Every schedule's c_n, and floor_pow's work for it, peaks at the
    horizon (loglog's bump c_3 = 339 aside), so every row of
    `balancing_rows` then stays in the float range.
    """
    if not A.n0 < horizon <= A.horizon:
        raise BoundsError(f"horizon: must lie in ({A.n0}, {A.horizon}]")
    c_H = cuts(horizon)
    as_float(c_H, f"cut count c_{horizon}")
    try:
        _log_binom(horizon + c_H, horizon)
    except OverflowError:
        raise ResourceGuard(
            f"log binom(n + c_n, n) at n = {horizon} is too large for a float"
        ) from None
    t_H = A.generate(horizon)
    if t_H >= 2 and max_gap(A, horizon) * 2 >= t_H:
        raise BoundsError(
            "sequence gaps grow like the terms themselves (exponential regime); "
            "the slice-count balancing condition cannot hold for any cut schedule"
        )


def balancing_rows(
    A: SamplingSequence,
    phi: GrowthGauge,
    cuts: Callable[[int], int],
    horizon: int,
    heights: Sequence[int] | None,
) -> Iterator[tuple]:
    """The rows (n, c_n, (c_n/n) log s_n, (1/n) phi(t_n / c_n), (1/n) log
    binom(n + c_n, n), tau) for n = n0+1 .. horizon, from one listing of
    t_n0 .. t_horizon; tau is `strict_tau`, None without heights.  The
    checks are `check_balancing_horizon`'s, made at load.  The terms
    strictly increase, so s_n >= 1 and t_n >= 1 on every row."""
    terms = A.terms(A.n0, horizon + 1)
    prev, s_n = next(terms), 0
    for n, t_n in enumerate(terms, A.n0 + 1):
        s_n, prev = max(s_n, t_n - prev), t_n
        c_n = cuts(n)
        try:
            diag_phi = phi(t_n / c_n) / n
        except OverflowError:  # t_n / c_n past the float range
            diag_phi = (math.log(t_n) - math.log(c_n) if phi.kind == "log" else math.inf) / n
        tau = None if heights is None else strict_tau(heights, t_n, c_n)
        yield n, c_n, (c_n / n) * math.log(s_n), diag_phi, _log_binom(n + c_n, n) / n, tau


def trend_toward_zero(ns: Sequence[int], values: Sequence[float]) -> bool:
    """Finite-horizon stand-in for "tends to zero".

    True when the endpoint value is below the value at 1% of the horizon
    and the running maximum over the last decade of n is below the minimum
    over the first decade.
    """
    if len(ns) != len(values) or len(ns) < 2:
        raise BoundsError("need matched, nontrivial series")
    horizon = ns[-1]
    early_n = max(ns[0], horizon // 100)
    early_value = next(v for n, v in zip(ns, values) if n >= early_n)
    first_decade = [v for n, v in zip(ns, values) if n < ns[0] * 10]
    last_decade = [v for n, v in zip(ns, values) if n > horizon // 10]
    if not first_decade or not last_decade:
        raise BoundsError("horizon too short for decade comparison")
    return values[-1] < early_value and max(last_decade) < min(first_decade)


# -- the critical-threshold tradeoff --------------------------------------------


def tradeoff_upper_value(kappa, beta, L: int) -> tuple[float, float]:
    """Minimize lam^-beta log kappa + lam log L over lam > 0.

    The closed-form minimizer lam* = (beta log kappa / log L)^(1/(1+beta))
    balances the two terms at ratio beta; the minimum equals
    (1+beta) * ((1/beta^beta) log kappa (log L)^beta)^(1/(1+beta)).
    """
    kappa = float(kappa)
    beta = float(beta)
    if kappa <= 1 or beta <= 0 or L < 2:
        raise BoundsError("need kappa > 1, beta > 0, L >= 2")
    log_L = math.log(L)
    lam = (beta * math.log(kappa) / log_L) ** (1.0 / (1.0 + beta))
    value = lam**-beta * math.log(kappa) + lam * log_L
    return lam, value


def bounded_spacer_word_bound(h_tau: int, L: int, lam: float, N: int) -> float:
    """(h_tau + 1) * L^(lam*N + 1): word count cap when spacers are in [0, L-1]."""
    if h_tau < 1 or L < 2 or lam <= 0 or N < 1:
        raise BoundsError("invalid bounded-spacer bound arguments")
    return (h_tau + 1) * L ** (lam * N + 1)

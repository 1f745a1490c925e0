"""Randomized search for high-complexity stackings.

A candidate stage is drawn from the uniform spacer process, the resulting
tower's coded-orbit words are counted exactly over the valid-level set,
and the stage is accepted when no word is carried by more than
2 * h_r^-(N - N0) * |K| levels for every reference r.  Counting reuses the
tower decoder; comparisons against the cap are exact rationals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from ..intarith import InvalidInput, ResourceGuard
from ..rng import SPACER_RNG_ID, SpacerProcess
from ..sequences import sampling_offsets
from ..tower import (
    SEEDED_STAGE_GUARD, CodingSpec, Stage, StackingData, exact_word_counts, valid_levels,
)


class GenericSearchError(InvalidInput):
    """Infeasible search configuration."""


def hoeffding_bound(n: int, m: int, t: float) -> float:
    """Tail bound exp(-2 * floor(n/m) * t^2) for m-dependent [0,1] variables."""
    if n < 1 or m < 1:
        raise GenericSearchError("n and m must be positive")
    if t <= 0:
        raise GenericSearchError("t must be positive")
    try:
        return math.exp(-2.0 * (n // m) * t * t)
    except OverflowError:  # floor(n/m) past the float range: the bound is 0
        return 0.0


def analytic_failure_bound(heights: Sequence[int], N: int) -> float:
    """(h_n + 1) * sum over r of (h_r + 1)^N exp(-2 h_r^N).

    `heights` are h_1..h_n of the base construction; the bound controls the
    probability that some reference word is carried by too many levels when
    the cut count meets the m * h^(3N) scale.
    """
    h_n = heights[-1]
    total = 0.0
    for h_r in heights:
        try:
            exponent = N * math.log(h_r + 1) - 2.0 * float(h_r) ** N
        except OverflowError:  # h_r^N past the float range: the term is 0
            continue
        total += math.exp(exponent) if exponent > -745.0 else 0.0
    return (h_n + 1) * total


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    accepted: bool
    valid_count: int
    worst_count: int
    worst_cap: float
    worst_ratio: float


@dataclass(frozen=True)
class GenericnessReport:
    """Outcome of a seeded genericness search.

    `accepted` is the accepted spacer sequence, or None when the trial cap
    was exhausted; near-miss statistics (the best worst-ratio seen) are in
    the trial records either way.
    """

    accepted: tuple[int, ...] | None
    accepted_trial: int | None
    trials_used: int
    failures: int
    analytic_bound: float
    rng: str = SPACER_RNG_ID
    records: tuple[TrialRecord, ...] = field(default=())

    @property
    def empirical_failure_rate(self) -> float:
        return self.failures / self.trials_used if self.trials_used else 0.0

    @property
    def best_ratio(self) -> float:
        return min((r.worst_ratio for r in self.records), default=math.inf)


def _word_caps(
    heights: Sequence[int], valid_count: int, N: int, N0: int
) -> dict[int, Fraction]:
    return {
        r + 1: 2 * Fraction(h_r) ** (N0 - N) * valid_count
        for r, h_r in enumerate(heights)
    }


def evaluate_candidate(
    base: StackingData,
    spacers: Sequence[int],
    q: int,
    offsets: Sequence[int],
    N0: int,
) -> TrialRecord:
    """The worst exact word count of one candidate stage against its cap,
    over every reference.

    The record's `trial` field is left at -1; the caller rewrites it.
    """
    N = len(offsets)
    candidate = base.extended(Stage(q=q, spacers=tuple(spacers)))
    top = candidate.num_towers
    t_max = offsets[-1]
    levels = valid_levels(candidate, top, t_max)
    if levels.count == 0:
        raise GenericSearchError("candidate tower leaves no valid levels")
    base_heights = base.heights()
    caps = _word_caps(base_heights, levels.count, N, N0)
    worst_ratio = Fraction(0)
    worst_count, worst_cap = 0, 1.0
    for r in range(1, base.num_towers + 1):
        spec = CodingSpec(reference=r, mode="base")
        count = max(exact_word_counts(levels, spec, offsets)[0].values())
        ratio = Fraction(count) / caps[r]
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_count, worst_cap = count, float(caps[r])
    return TrialRecord(
        trial=-1,
        accepted=worst_ratio <= 1,
        valid_count=levels.count,
        worst_count=worst_count,
        worst_cap=worst_cap,
        worst_ratio=float(worst_ratio) if worst_ratio <= sys.float_info.max else math.inf,
    )


def search_offsets(
    base: StackingData, A, N: int, N0: int, q: int, alphabet: int, trial_cap: int
) -> tuple[int, ...]:
    """Check a genericness search's arguments; the orbit offsets of its words."""
    if q < 2:
        raise GenericSearchError("candidate cut count q must be >= 2")
    if q - 1 > SEEDED_STAGE_GUARD:
        raise ResourceGuard(
            f"candidate cut count q={q} draws more spacers than the expansion "
            f"guard ({SEEDED_STAGE_GUARD})"
        )
    if trial_cap < 1:
        raise GenericSearchError("trial cap must be positive")
    if N < 1:
        raise GenericSearchError("word length must be positive")
    if not 0 <= N0 <= N:
        raise GenericSearchError(f"floor length {N0} must lie in [0, {N}] (the word length)")
    offsets = sampling_offsets(A, N)
    h_n = base.heights()[-1]
    if offsets[-1] >= q * h_n:
        raise GenericSearchError(
            f"orbit horizon t_N={offsets[-1]} does not fit the candidate tower "
            f"(q*h_n = {q * h_n})"
        )
    if base.spacer_cap is not None and alphabet > base.spacer_cap:
        raise GenericSearchError("alphabet exceeds the construction's spacer cap")
    return offsets


def genericness_search(
    base: StackingData,
    A,
    N: int,
    N0: int,
    q: int,
    alphabet: int,
    trial_cap: int,
    seed: int,
    evaluate_all: bool = False,
) -> GenericnessReport:
    """Sample spacer sequences until one meets the word-frequency cap.

    Stage candidates are drawn from SpacerProcess(alphabet, seed, stream=trial),
    so the accepted sequence is exactly reproducible from (seed, config).
    With `evaluate_all` the search does not stop at the first acceptance,
    which gives an unbiased empirical failure rate over the full trial cap.
    """
    offsets = search_offsets(base, A, N, N0, q, alphabet, trial_cap)
    bound = analytic_failure_bound(base.heights(), N)
    records: list[TrialRecord] = []
    accepted: tuple[int, ...] | None = None
    accepted_trial: int | None = None
    failures = 0
    trials_used = 0
    for trial in range(trial_cap):
        trials_used += 1
        spacers = SpacerProcess(alphabet, seed, stream=trial).chunk(0, q - 1)
        record = replace(evaluate_candidate(base, spacers, q, offsets, N0), trial=trial)
        records.append(record)
        if record.accepted:
            if accepted is None:
                accepted = spacers
                accepted_trial = trial
            if not evaluate_all:
                break
        else:
            failures += 1
    return GenericnessReport(
        accepted=accepted,
        accepted_trial=accepted_trial,
        trials_used=trials_used,
        failures=failures,
        analytic_bound=bound,
        records=tuple(records),
    )

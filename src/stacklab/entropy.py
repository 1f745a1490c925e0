"""Entropy of weighted partitions and empirical sequence entropy of coded orbits.

All entropies are in nats (natural log); CSV emitters add a bits column
for readability.  Empirical sequence entropy is conditioned on the
valid-level set K with uniform weight 1/|K| per level; the coverage
|K|/h_n is reported alongside so the conditioning loss is visible.  The
estimator is the plug-in (empirical-frequency) entropy, which is
negatively biased at small sample counts; no bias correction is applied.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .intarith import InvalidInput
from .sequences import sampling_offsets
from .tower import (
    CodingSpec,
    DistinctWords,
    StackingData,
    ValidLevels,
    WordCapExceeded,
    _coding,
    decode_words,
    exact_word_counts,
    symbol_width,
    valid_levels,
)

DEFAULT_WORD_CAP = 1 << 24


class EntropyError(InvalidInput):
    """Invalid partition data or empty conditioning set."""


def plogp(x: float) -> float:
    """-x log x with the continuous extension f(0) = 0."""
    return 0.0 if x <= 0.0 else -x * math.log(x)


def counts_entropy(counts: Collection[int], total: int) -> float:
    """The builtin sum of plogp(c / total) over `counts`, in their order,
    with each distinct count's term computed once."""
    table = {c: plogp(c / total) for c in set(counts)}
    return sum(map(table.__getitem__, counts))


@dataclass(frozen=True)
class WeightedPartition:
    """Nonnegative atom weights; total mass may be below 1."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for w in self.weights:
            if w < 0:
                raise EntropyError(f"negative weight {w}")
        if sum(self.weights) > 1.0 + 1e-9:
            raise EntropyError("partition mass exceeds 1")


def entropy(partition: WeightedPartition | Iterable[float]) -> float:
    """Shannon entropy sum of -w log w over the atom weights, in nats."""
    weights = partition.weights if isinstance(partition, WeightedPartition) else partition
    total = 0.0
    for w in weights:
        if w < 0:
            raise EntropyError(f"negative weight {w}")
        total += plogp(w)
    return total


def conditional_entropy(
    eta: Sequence,
    xi: Sequence,
    weights: Sequence[float] | None = None,
) -> float:
    """H(eta | xi) = H(eta v xi) - H(xi) over a common weighted index set.

    `eta` and `xi` are labelings of the same index set; `weights` defaults
    to uniform.
    """
    if len(eta) != len(xi):
        raise EntropyError("labelings disagree on the index set size")
    if weights is None:
        weights = [1.0 / len(eta)] * len(eta) if eta else []
    elif len(weights) != len(eta):
        raise EntropyError("weights disagree on the index set size")
    joint: dict = {}
    marginal: dict = {}
    for e, x, w in zip(eta, xi, weights):
        joint[(e, x)] = joint.get((e, x), 0.0) + w
        marginal[x] = marginal.get(x, 0.0) + w
    value = entropy(joint.values()) - entropy(marginal.values())
    return max(0.0, value)


# -- word histograms and empirical sequence entropy --------------------------


@dataclass(frozen=True)
class WordHistogram:
    """Measure-weighted word counts over the valid levels of one tower.

    `total` is |K| in exact mode and the draw count in sampled mode; the
    per-level weight is uniform, so frequencies are count/total.  `path` and
    `windows` are those of `tower.exact_plan`: "compressed" (lifted through
    the stacking grammar), "enumerate" (every valid level decoded),
    "distinct" (every level its own word, none decoded) or "sampled", and
    the orbit windows decoded.  Each key of `counts` is a word's symbols
    as `symbol_width`-byte little-endian integers (`tower.encode_word`);
    `words()` decodes them.  `counts` is a `Counter`, or on the distinct
    path a `tower.DistinctWords`, whose keys are decoded only when read:
    the checks below and `entropy_nats` read its length, key length and
    run of ones, and decode none.
    """

    counts: Mapping[bytes, int]
    total: int
    word_length: int
    coverage: float
    path: str
    windows: int
    symbol_width: int

    def __post_init__(self) -> None:
        if self.total != sum(self.counts.values()):
            raise EntropyError("histogram counts do not sum to the total")
        counts = self.counts
        lengths = {counts.key_bytes} if isinstance(counts, DistinctWords) else set(map(len, counts))
        if lengths - {self.key_bytes}:
            raise EntropyError("histogram key with wrong word length")

    @property
    def key_bytes(self) -> int:
        """Bytes in one key: word length times symbol width."""
        return self.word_length * self.symbol_width

    def words(self) -> Iterator[tuple[int, ...]]:
        """The words of `counts` as tuples of symbols, in its order."""
        return decode_words(self.counts, self.symbol_width)

    def entropy_nats(self) -> float:
        return counts_entropy(self.counts.values(), self.total)

    @property
    def distinct_words(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class EntropyResult:
    h_nats: float
    h_per_sample: float
    histogram: WordHistogram


def orbit_levels(
    sd: StackingData, spec: CodingSpec, n: int, A, length: int
) -> tuple[tuple, ValidLevels]:
    """The offsets of length-N orbit words and the valid-level set K of
    tower n at their horizon t_N, once spec is checked against tower n;
    an empty K is an error."""
    _coding(sd, spec, n)
    if length < 0:
        raise EntropyError("word length must be nonnegative")
    offsets = sampling_offsets(A, length)
    t_max = offsets[-1] if offsets else 0
    levels = valid_levels(sd, n, t_max)
    if levels.count == 0:
        raise EntropyError(f"empty valid-level set for tower {n} at horizon t_N={t_max}")
    return offsets, levels


def empirical_sequence_entropy(
    sd: StackingData,
    spec: CodingSpec,
    n: int,
    A,
    length: int,
    method: str = "exact",
    sample_count: int | None = None,
    seed: int = 0,
    word_cap: int | None = DEFAULT_WORD_CAP,
    workers: int = 1,
) -> EntropyResult:
    """Empirical (1/N) H of the length-N coded-orbit histogram over the
    valid levels K of tower n, by `levels_entropy` on `orbit_levels`."""
    offsets, levels = orbit_levels(sd, spec, n, A, length)
    return levels_entropy(spec, offsets, levels, method, sample_count, seed, word_cap, workers)


def levels_entropy(
    spec: CodingSpec, offsets: tuple, levels: ValidLevels, method: str = "exact",
    sample_count: int | None = None, seed: int = 0,
    word_cap: int | None = DEFAULT_WORD_CAP, workers: int = 1,
) -> EntropyResult:
    """Empirical (1/N) H of the coded-orbit words at `offsets` over the
    checked levels K of `orbit_levels`.

    Exact mode counts every level of K, sampled mode `sample_count` levels
    drawn uniformly from K with the counter RNG, both through
    `exact_word_counts` on the path of `exact_plan`.  Both are
    bit-identical for any worker count.
    """
    if method == "exact":
        count = None
    elif method == "sampled":
        if not sample_count or sample_count < 1:
            raise EntropyError("sampled mode needs a positive sample_count")
        count = sample_count
    else:
        raise EntropyError(f"unknown method {method!r}")
    counts, path, windows = exact_word_counts(
        levels, spec, offsets, word_cap, workers, count=count, seed=seed)
    length = len(offsets)
    hist = WordHistogram(
        counts=counts,
        total=levels.count if count is None else count,
        word_length=length,
        coverage=levels.coverage,
        path=path,
        windows=windows,
        symbol_width=symbol_width(levels.sd, spec),
    )
    h = hist.entropy_nats()
    per = h / length if length > 0 else 0.0
    return EntropyResult(h_nats=h, h_per_sample=per, histogram=hist)


# -- closed-form entropy bounds ----------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    value: float
    bound: float

    def holds(self, slack: float = 0.0) -> bool:
        return self.value >= self.bound - slack


@dataclass(frozen=True)
class UpperBoundCheck:
    value: float
    bound: float

    def holds(self, slack: float = 0.0) -> bool:
        return self.value <= self.bound + slack


def disjoint_entropy_lower_bound(
    masses: Sequence[float], eps: float, space_mass: float = 1.0
) -> float:
    """Concavity lower bound -mu(E) log(eps*mu(X)) for pieces of mass
    at most eps*mu(X) each; the precondition is enforced.
    """
    cap = eps * space_mass
    for m in masses:
        if m < 0:
            raise EntropyError(f"negative mass {m}")
        if m > cap + 1e-15:
            raise EntropyError(f"piece mass {m} exceeds eps*mu(X) = {cap}")
    union = sum(masses)
    if union == 0.0:
        return 0.0
    return -union * math.log(cap)


def check_disjoint_lower_bound(
    masses: Sequence[float], eps: float, space_mass: float = 1.0
) -> BoundCheck:
    lhs = sum(plogp(m) for m in masses)
    return BoundCheck(value=lhs, bound=disjoint_entropy_lower_bound(masses, eps, space_mass))


def jensen_entropy_upper_bound(
    masses: Sequence[float], space_mass: float = 1.0, use_union_mass: bool = False
) -> float:
    """Jensen upper bound on sum -mu(E_i) log mu(E_i) for m disjoint pieces
    inside a space of mass mu(X): -mu(X) log mu(X) + mu(X) log m.

    The ambient-mass form is exact Jensen when the pieces partition the
    space; for strict sub-unions it can fail and the union-mass variant
    (`use_union_mass=True`, substituting mu(E) for mu(X)) is the
    unconditionally valid bound.
    """
    m = len(masses)
    union = sum(masses)
    if union > space_mass + 1e-12:
        raise EntropyError("pieces exceed the ambient mass")
    if m == 0:
        return 0.0
    base = union if use_union_mass else space_mass
    return plogp(base) + base * math.log(m)


def check_jensen_upper_bound(
    masses: Sequence[float], space_mass: float = 1.0, use_union_mass: bool = False
) -> UpperBoundCheck:
    lhs = sum(plogp(m) for m in masses)
    return UpperBoundCheck(
        value=lhs, bound=jensen_entropy_upper_bound(masses, space_mass, use_union_mass)
    )


# -- schedule profiles and join comparisons -----------------------------------


@dataclass(frozen=True)
class ProfilePoint:
    """The length, reference stage, entropy and histogram scalars (named
    as on `WordHistogram`) of a profile point or an entropy op, without
    the word counts."""

    length: int
    stage: int
    h_nats: float
    h_per_sample: float
    distinct_words: int
    key_bytes: int
    coverage: float
    path: str
    windows: int


def profile_points(
    sd: StackingData, A, tau: Callable[[int], int], lengths: Sequence[int], mode: str = "base"
) -> list[tuple[int, CodingSpec, tuple, ValidLevels]]:
    """(N, coding at reference tau(N), offsets, valid levels K) per profile
    point, checked before any work: tau must be non-decreasing over the
    lengths and every point's K nonempty.  K is taken on tower tau(N)
    itself, except that the degenerate schedule tau = 1 is evaluated on
    tower 2 (the first tower with a valid-level set), still coding against
    reference 1."""
    points: list[tuple[int, CodingSpec, tuple, ValidLevels]] = []
    for N in lengths:
        spec = CodingSpec(reference=tau(N), mode=mode)
        if points and spec.reference < points[-1][1].reference:
            raise EntropyError("tau must be non-decreasing over the profile range")
        points.append((N, spec, *orbit_levels(sd, spec, max(spec.reference, 2), A, N)))
    return points


def histogram_point(N: int, stage: int, res: EntropyResult) -> ProfilePoint:
    hist = res.histogram
    return ProfilePoint(N, stage, res.h_nats, res.h_per_sample, hist.distinct_words,
                        hist.key_bytes, hist.coverage, hist.path, hist.windows)


def points_entropy(
    points: Iterable[tuple[int, CodingSpec, tuple, ValidLevels]], word_cap: int, workers: int
) -> list[ProfilePoint]:
    """The exact (1/N) H of each point of `profile_points`; one point's
    word counts are held at a time."""
    return [
        histogram_point(N, spec.reference, levels_entropy(
            spec, offsets, K, "exact", word_cap=word_cap, workers=workers))
        for N, spec, offsets, K in points
    ]


def seq_entropy_upper_profile(
    sd: StackingData, A, tau: Callable[[int], int], lengths: Sequence[int]
) -> list[ProfilePoint]:
    """Per-N values of (1/N) H at reference stage tau(N), in base coding,
    on the points of `profile_points`.

    The limsup of this profile is what upper-bounds the sequence entropy,
    so downward trends here are the finite-horizon stand-in for vanishing
    entropy.
    """
    return points_entropy(profile_points(sd, A, tau, lengths), DEFAULT_WORD_CAP, 1)


@dataclass(frozen=True)
class SubsequenceCheck:
    full_nats: float
    restricted_nats: float
    density: float

    def monotone(self, slack: float = 0.0) -> bool:
        return self.full_nats >= self.restricted_nats - slack


def subsequence_entropy_check(
    sd: StackingData,
    spec: CodingSpec,
    n: int,
    A,
    J: Iterable[int],
    length: int,
    workers: int = 1,
) -> SubsequenceCheck:
    """Full join entropy vs the join restricted to sample indices J.

    Both sides are conditioned on the same valid-level set (the one for
    the full horizon t_N), so join monotonicity holds exactly: the
    restricted histogram is the full one projected onto J.
    """
    picks = sorted(set(J))
    if any(j < 1 or j > length for j in picks):
        raise EntropyError("J must be a subset of [1, N]")
    hist = empirical_sequence_entropy(
        sd, spec, n, A, length, word_cap=None, workers=workers
    ).histogram
    w = hist.symbol_width
    restricted: Counter = Counter()
    for word, c in hist.counts.items():
        restricted[b"".join([word[(j - 1) * w : j * w] for j in picks])] += c
    return SubsequenceCheck(
        full_nats=hist.entropy_nats(),
        restricted_nats=counts_entropy(restricted.values(), hist.total),
        density=len(picks) / length if length else 0.0,
    )


@dataclass(frozen=True)
class JoinBoundCheck:
    """Comparison (1/n) H(coarse join) <= (1/n) H(fine join) + H(coarse|fine)."""

    lhs: float
    join_term: float
    conditional_term: float

    def holds(self, slack: float = 0.0) -> bool:
        return self.lhs <= self.join_term + self.conditional_term + slack


def conditional_join_bound(
    word: Sequence[int],
    coarse: Mapping[int, object],
    fine: Mapping[int, object],
    offsets: Sequence[int],
) -> JoinBoundCheck:
    """Join-entropy comparison for two labelings pulled back along shifts.

    The index space is the positions of `word` with uniform measure and
    cyclic shifts (which are measure-preserving), so the conditional-entropy
    upper bound holds exactly: the join of the coarse labeling's pullbacks
    has entropy rate at most that of the fine labeling's plus H(coarse|fine).
    """
    M = len(word)
    if M == 0 or not offsets:
        raise EntropyError("need a nonempty word and offsets")
    n = len(offsets)
    coarse_words: Counter = Counter()
    fine_words: Counter = Counter()
    for k in range(M):
        coarse_words[tuple(coarse[word[(k + t) % M]] for t in offsets)] += 1
        fine_words[tuple(fine[word[(k + t) % M]] for t in offsets)] += 1
    lhs = counts_entropy(coarse_words.values(), M) / n
    join_term = counts_entropy(fine_words.values(), M) / n
    cond = conditional_entropy(
        [coarse[s] for s in word], [fine[s] for s in word]
    )
    return JoinBoundCheck(lhs=lhs, join_term=join_term, conditional_term=cond)

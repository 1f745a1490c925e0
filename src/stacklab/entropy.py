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
from typing import Callable, Iterable, Mapping, Sequence

from .sequences import sampling_offsets
from .tower import (
    CodingSpec,
    StackingData,
    WordCapExceeded,
    blocked_word_counts,
    exact_word_counts,
    valid_levels,
)

DEFAULT_WORD_CAP = 1 << 24


class EntropyError(ValueError):
    """Invalid partition data or empty conditioning set."""


def plogp(x: float) -> float:
    """-x log x with the continuous extension f(0) = 0."""
    return 0.0 if x <= 0.0 else -x * math.log(x)


@dataclass(frozen=True)
class WeightedPartition:
    """Atom labels with nonnegative weights; total mass may be below 1."""

    weights: tuple[float, ...]
    labels: tuple | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for w in self.weights:
            if w < 0:
                raise EntropyError(f"negative weight {w}")
        if sum(self.weights) > 1.0 + 1e-9:
            raise EntropyError("partition mass exceeds 1")
        if self.labels is not None and len(self.labels) != len(self.weights):
            raise EntropyError("labels/weights length mismatch")

    @property
    def total_mass(self) -> float:
        return sum(self.weights)


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
    per-level weight is uniform, so frequencies are count/total.  `path` is
    how the counts were built: "compressed" (lifted through the stacking
    grammar), "enumerate" (every valid level decoded) or "sampled", and
    `windows` the orbit windows it decoded.
    """

    counts: Mapping[tuple[int, ...], int]
    total: int
    stage: int
    reference: int
    coding_mode: str
    word_length: int
    offsets: tuple[int, ...]
    method: str  # "exact" | "sampled"
    seed: int | None
    valid_count: int
    coverage: float
    path: str
    windows: int

    def __post_init__(self) -> None:
        if self.total != sum(self.counts.values()):
            raise EntropyError("histogram counts do not sum to the total")
        for w in self.counts:
            if len(w) != self.word_length:
                raise EntropyError("histogram key with wrong word length")

    def entropy_nats(self) -> float:
        return sum(plogp(c / self.total) for c in self.counts.values())

    @property
    def distinct_words(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class EntropyResult:
    h_nats: float
    h_per_sample: float
    histogram: WordHistogram


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
    """Empirical (1/N) H of the length-N coded-orbit histogram over K.

    Exact mode counts every level of K through `exact_word_counts`.
    Sampled mode draws `sample_count` levels uniformly from K with the
    counter RNG.  Both are bit-identical for any worker count.
    """
    if length < 0:
        raise EntropyError("word length must be nonnegative")
    offsets = sampling_offsets(A, length)
    t_max = offsets[-1] if offsets else 0
    levels = valid_levels(sd, n, t_max)
    if levels.count == 0:
        raise EntropyError(
            f"empty valid-level set for tower {n} at horizon t_N={t_max}"
        )
    if method == "exact":
        total = levels.count
        counts, path, windows = exact_word_counts(levels, spec, offsets, word_cap, workers)
    elif method == "sampled":
        if not sample_count or sample_count < 1:
            raise EntropyError("sampled mode needs a positive sample_count")
        total, path, windows = sample_count, "sampled", sample_count
        counts = blocked_word_counts(spec, levels, total, offsets, word_cap, workers, seed)
    else:
        raise EntropyError(f"unknown method {method!r}")
    hist = WordHistogram(
        counts=dict(counts),
        total=total,
        stage=n,
        reference=spec.reference,
        coding_mode=spec.mode,
        word_length=length,
        offsets=offsets,
        method=method,
        seed=seed if method == "sampled" else None,
        valid_count=levels.count,
        coverage=levels.coverage,
        path=path,
        windows=windows,
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
    length: int
    stage: int
    h_nats: float
    h_per_sample: float
    distinct_words: int
    coverage: float
    path: str
    windows: int


def seq_entropy_upper_profile(
    sd: StackingData,
    A,
    tau: Callable[[int], int],
    lengths: Sequence[int],
    coding_mode: str = "base",
    workers: int = 1,
    word_cap: int = DEFAULT_WORD_CAP,
) -> list[ProfilePoint]:
    """Per-N values of (1/N) H at reference stage tau(N).

    tau must be non-decreasing over the given lengths; the limsup of this
    profile is what upper-bounds the sequence entropy, so downward trends
    here are the finite-horizon stand-in for vanishing entropy.  The
    evaluation tower is tau(N) itself, except that the degenerate schedule
    tau = 1 is evaluated on tower 2 (the first tower with a valid-level
    set), still coding against reference 1.
    """
    stages = [tau(N) for N in lengths]
    for a, b in zip(stages, stages[1:]):
        if b < a:
            raise EntropyError("tau must be non-decreasing over the profile range")
    out = []
    for N, stage in zip(lengths, stages):
        spec = CodingSpec(reference=stage, mode=coding_mode)
        res = empirical_sequence_entropy(
            sd, spec, max(stage, 2), A, N, method="exact", workers=workers, word_cap=word_cap
        )
        out.append(
            ProfilePoint(
                length=N,
                stage=stage,
                h_nats=res.h_nats,
                h_per_sample=res.h_per_sample,
                distinct_words=res.histogram.distinct_words,
                coverage=res.histogram.coverage,
                path=res.histogram.path,
                windows=res.histogram.windows,
            )
        )
    return out


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
    restricted: Counter = Counter()
    for word, c in hist.counts.items():
        restricted[tuple(word[j - 1] for j in picks)] += c
    return SubsequenceCheck(
        full_nats=hist.entropy_nats(),
        restricted_nats=sum(plogp(c / hist.total) for c in restricted.values()),
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
    lhs = sum(plogp(c / M) for c in coarse_words.values()) / n
    join_term = sum(plogp(c / M) for c in fine_words.values()) / n
    cond = conditional_entropy(
        [coarse[s] for s in word], [fine[s] for s in word]
    )
    return JoinBoundCheck(lhs=lhs, join_term=join_term, conditional_term=cond)

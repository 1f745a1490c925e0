from __future__ import annotations

import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from stacklab.entropy import (
    EntropyError,
    WeightedPartition,
    WordCapExceeded,
    WordHistogram,
    check_disjoint_lower_bound,
    check_jensen_upper_bound,
    conditional_entropy,
    conditional_join_bound,
    counts_entropy,
    disjoint_entropy_lower_bound,
    empirical_sequence_entropy,
    entropy,
    plogp,
    seq_entropy_upper_profile,
    subsequence_entropy_check,
)
from stacklab.parallel import BLOCK_SIZE, index_blocks
from stacklab.sequences import SamplingSequence
from stacklab.tower import CodingSpec, Stage, StackingData

from .conftest import decoded, random_stacking
from .oracles import materialize_word, plogp_sum

LOG2 = math.log(2)


def test_entropy_examples():
    assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy(WeightedPartition((1.0,))) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(LOG2, abs=1e-12)
    with pytest.raises(EntropyError):
        entropy([-0.1, 0.5])


def test_weighted_partition_validation():
    with pytest.raises(EntropyError):
        WeightedPartition((0.5, 0.7))
    with pytest.raises(EntropyError):
        WeightedPartition((-0.1,))
    p = WeightedPartition((0.25, 0.25))
    assert sum(p.weights) == 0.5


def test_conditional_entropy_examples():
    xs = [0, 0, 1, 1]
    assert conditional_entropy(xs, xs) == 0.0
    # independent uniform binary split of every atom
    eta = [0, 1, 0, 1]
    assert conditional_entropy(eta, xs) == pytest.approx(LOG2, abs=1e-12)
    coarse = [0, 0, 0, 0]
    assert conditional_entropy(coarse, xs) == 0.0
    with pytest.raises(EntropyError):
        conditional_entropy([0, 1], [0, 1, 2])


def test_conditional_entropy_weighted():
    # H(eta | xi) = sum_x p(x) H(eta | xi = x), computed by hand:
    # xi atom 0 has mass 0.6 split 1:2, atom 1 has mass 0.4 unsplit.
    eta = ["a", "b", "c"]
    xi = [0, 0, 1]
    weights = [0.2, 0.4, 0.4]
    expected = 0.6 * entropy([1 / 3, 2 / 3])
    assert conditional_entropy(eta, xi, weights) == pytest.approx(expected, abs=1e-12)


def test_empirical_entropy_tiny(tiny_tower):
    res = empirical_sequence_entropy(
        tiny_tower, CodingSpec(1), 2, (1, 2), 2, method="exact"
    )
    assert res.h_per_sample == pytest.approx(LOG2 / 2, abs=1e-12)
    assert res.histogram.distinct_words == 2
    assert res.histogram.coverage == pytest.approx(0.4)
    assert set(res.histogram.words()) == {(2, 0), (0, 1)}


def test_empirical_entropy_single_sample_uniform():
    sd = StackingData(2, (Stage(2, (0,)),))  # spacer-free, h_2 = 4
    res = empirical_sequence_entropy(
        sd, CodingSpec(2), 2, (0,), 1, method="exact"
    )
    assert res.h_nats == pytest.approx(math.log(4), abs=1e-12)


def test_empirical_entropy_empty_K(tiny_tower):
    with pytest.raises(EntropyError, match="empty valid-level"):
        empirical_sequence_entropy(tiny_tower, CodingSpec(1), 2, (5, 6), 2)


def test_sampled_agrees_with_exact(tiny_tower):
    exact = empirical_sequence_entropy(tiny_tower, CodingSpec(1), 2, (1, 2), 2)
    K = 2
    sampled = empirical_sequence_entropy(
        tiny_tower,
        CodingSpec(1),
        2,
        (1, 2),
        2,
        method="sampled",
        sample_count=K * 50,
        seed=5,
    )
    assert abs(sampled.h_per_sample - exact.h_per_sample) < 0.02


def test_sampled_error_shrinks_with_count():
    sd = StackingData(3, (Stage(4, (1, 0, 2)), Stage(3, (2, 1))), spacer_cap=3)
    spec = CodingSpec(1)
    A = (1, 3, 7)
    exact = empirical_sequence_entropy(sd, spec, 3, A, 3).h_per_sample
    medians = []
    for count in (100, 1000, 10_000):
        errs = []
        for seed in range(50):
            est = empirical_sequence_entropy(
                sd, spec, 3, A, 3, method="sampled", sample_count=count, seed=seed
            ).h_per_sample
            errs.append(abs(est - exact))
        errs.sort()
        medians.append(errs[25])
    assert medians[0] > medians[1] > medians[2]


def test_exact_mode_worker_invariance(tiny_tower):
    one = empirical_sequence_entropy(tiny_tower, CodingSpec(1), 2, (1, 2), 2, workers=1)
    two = empirical_sequence_entropy(tiny_tower, CodingSpec(1), 2, (1, 2), 2, workers=2)
    assert one.h_nats == two.h_nats
    assert one.histogram.counts == two.histogram.counts


def test_pool_path_worker_invariance():
    # Tower 3 of this seeded construction has about 45 000 valid levels, so
    # the sampled method splits into several blocks and workers=2 runs a pool.
    sd = StackingData(
        2,
        (Stage(q=3, spacers=(1, 2)), Stage(q=5000, seed=7)),
        spacer_cap=3,
    )
    A = (1, 3, 6, 10)
    # Reference 3 is the tower itself, so in the exact case every level of K
    # is its own word, counted without blocks.
    spec = CodingSpec(3, "refined")
    for kwargs in (
        {"method": "exact"},
        {"method": "sampled", "sample_count": 3 * BLOCK_SIZE + 5, "seed": 4},
    ):
        one = empirical_sequence_entropy(sd, spec, 3, A, 4, workers=1, **kwargs)
        two = empirical_sequence_entropy(sd, spec, 3, A, 4, workers=2, **kwargs)
        assert len(index_blocks(one.histogram.total)) > 1
        assert one.histogram.path == two.histogram.path == (
            "distinct" if kwargs["method"] == "exact" else "sampled"
        )
        assert list(one.histogram.counts.items()) == list(two.histogram.counts.items())
        assert one.h_nats == two.h_nats
    # The subsequence check enumerates the same K in the same blocks.
    one, two = (subsequence_entropy_check(sd, spec, 3, A, (1, 3), 4, workers=w) for w in (1, 2))
    assert one == two


def test_word_cap_guard(tiny_tower):
    with pytest.raises(WordCapExceeded):
        empirical_sequence_entropy(
            tiny_tower, CodingSpec(1), 2, (1, 2), 2, word_cap=1
        )


@given(st.lists(st.one_of(st.integers(1, 4), st.integers(0, 1 << 80)), min_size=1, max_size=60))
def test_counts_entropy_matches_termwise_sum(counts):
    total = sum(counts) or 1
    assert counts_entropy(counts, total).hex() == plogp_sum(counts, total).hex()


def test_uniform_counts_entropy_is_the_builtin_sum():
    # 65 024 words of count 1, exact-squaring's reference-5 histogram.  The
    # builtin sum adds naively before Python 3.12, landing 4929 ulp below
    # log 65024, and compensates from 3.12 on; a correctly rounded sum such
    # as math.fsum would give log 65024 on every version.
    counts = [1] * 65024
    value = counts_entropy(counts, 65024)
    assert value.hex() == plogp_sum(counts, 65024).hex()
    if sys.version_info < (3, 12):
        assert value.hex() == "0x1.62a3ef99cc477p+3"
        assert (math.log(65024) - value) / math.ulp(value) == 4929
    else:
        assert value == math.log(65024)


def test_disjoint_lower_bound_examples():
    bound = disjoint_entropy_lower_bound([0.125] * 4, 0.125)
    assert bound == pytest.approx(0.5 * math.log(8), abs=1e-12)
    chk = check_disjoint_lower_bound([0.125] * 4, 0.125)
    assert chk.value == pytest.approx(chk.bound, abs=1e-12)
    assert disjoint_entropy_lower_bound([], 0.5) == 0.0
    chk = check_disjoint_lower_bound([0.25, 0.125], 0.25)
    assert chk.bound == pytest.approx(0.375 * math.log(4), abs=1e-12)
    # direct evaluation: f(1/4) + f(1/8) = (1/4) log 4 + (1/8) log 8
    assert chk.value == pytest.approx(0.25 * math.log(4) + 0.125 * math.log(8), abs=1e-12)
    assert chk.holds()
    with pytest.raises(EntropyError, match="exceeds"):
        disjoint_entropy_lower_bound([0.5], 0.25)


def test_jensen_upper_bound_examples():
    chk = check_jensen_upper_bound([0.25] * 4)
    assert chk.value == pytest.approx(chk.bound, abs=1e-12)
    chk = check_jensen_upper_bound([1.0])
    assert chk.value == 0.0 and chk.bound == 0.0
    chk = check_jensen_upper_bound([0.5, 0.25])
    assert chk.bound == pytest.approx(LOG2, abs=1e-12)
    assert chk.holds(1e-12)


def test_jensen_union_mass_variant_is_unconditional():
    # Two pieces of mass 0.37 each: the ambient-mass form of the bound
    # fails (2*f(0.37) > log 2), while the union-mass form still holds;
    # the printed form is only universal when the pieces exhaust the space.
    masses = [0.37, 0.37]
    assert not check_jensen_upper_bound(masses).holds(1e-12)
    assert check_jensen_upper_bound(masses, use_union_mass=True).holds(1e-12)


def test_disjoint_lower_bound_randomized():
    rng = random.Random(101)
    for _ in range(1000):
        eps = rng.uniform(0.01, 0.9)
        space = rng.uniform(0.2, 1.0)
        cap = eps * space
        m = rng.randint(1, 64)
        masses = []
        budget = space
        for _ in range(m):
            w = rng.uniform(0, min(cap, budget))
            masses.append(w)
            budget -= w
            if budget <= 0:
                break
        chk = check_disjoint_lower_bound(masses, eps, space)
        assert chk.holds(1e-12)


def test_jensen_upper_bound_randomized():
    # Pieces partition the space (the regime the bound is used in).
    rng = random.Random(202)
    for _ in range(1000):
        space = rng.uniform(0.1, 1.0)
        m = rng.randint(1, 64)
        raw = [rng.random() + 1e-9 for _ in range(m)]
        scale = space / sum(raw)
        masses = [x * scale for x in raw]
        chk = check_jensen_upper_bound(masses, space)
        assert chk.holds(1e-12)


def test_conditional_join_bound_randomized():
    rng = random.Random(303)
    violations = 0
    for _ in range(1000):
        sd = random_stacking(rng, max_stages=3, max_q=4, height_limit=200)
        n = sd.num_towers
        r = rng.randint(1, n)
        word = materialize_word(sd, r, n)
        alphabet = sorted(set(word))
        fine = {s: rng.randint(0, 5) for s in alphabet}
        coarse = {s: rng.randint(0, 3) for s in alphabet}
        k = rng.randint(1, min(6, len(word)))
        offsets = sorted(rng.sample(range(0, len(word)), k))
        chk = conditional_join_bound(word, coarse, fine, offsets)
        if not chk.holds(1e-12):
            violations += 1
    assert violations == 0


def test_exact_histograms_match_materialized_slicing():
    from .oracles import oracle_word_counts

    rng = random.Random(505)
    for _ in range(20):
        sd = random_stacking(rng, max_stages=3, max_q=4, height_limit=600)
        n = sd.num_towers
        if n < 2:
            continue
        h_n = sd.heights()[-1]
        N = rng.randint(1, 4)
        offsets = tuple(sorted(rng.sample(range(0, max(2, h_n // 2)), min(N, max(1, h_n // 2)))))
        if not offsets or offsets[-1] >= h_n:
            continue
        from stacklab.tower import valid_levels

        if valid_levels(sd, n, offsets[-1]).count == 0:
            continue
        r = rng.randint(1, n)
        for mode in ("base", "refined"):
            res = empirical_sequence_entropy(
                sd, CodingSpec(r, mode), n, offsets, len(offsets)
            )
            expected = oracle_word_counts(sd, r, n, offsets, mode)
            assert decoded(res.histogram.counts, res.histogram.symbol_width) == expected


def test_exact_entropy_enumeration_order_invariant(tiny_tower):
    res = empirical_sequence_entropy(tiny_tower, CodingSpec(1), 2, (1, 2), 2)
    counts = Counter(res.histogram.counts)
    h_rev = sum(plogp(c / res.histogram.total) for c in reversed(list(counts.values())))
    assert h_rev == pytest.approx(res.h_nats, abs=1e-15)


def test_subsequence_check_examples(tiny_tower):
    spec = CodingSpec(1)
    chk = subsequence_entropy_check(tiny_tower, spec, 2, (1, 2), [1, 2], 2)
    assert chk.full_nats == pytest.approx(chk.restricted_nats, abs=1e-12)
    assert chk.density == 1.0
    chk = subsequence_entropy_check(tiny_tower, spec, 2, (1, 2), [1], 2)
    assert chk.monotone(1e-12)
    chk = subsequence_entropy_check(tiny_tower, spec, 2, (1, 2), [2], 2)
    assert chk.restricted_nats <= chk.full_nats + 1e-12
    assert chk.density == 0.5


def test_subsequence_check_randomized():
    rng = random.Random(404)
    for _ in range(100):
        sd = random_stacking(rng, max_stages=3, max_q=4, height_limit=500)
        n = sd.num_towers
        if n < 2:
            continue
        h_n = sd.heights()[-1]
        pool = range(0, max(2, h_n // 2))
        N = rng.randint(1, min(5, len(pool)))
        offsets = sorted(rng.sample(pool, N))
        if offsets[-1] >= h_n:
            continue
        from stacklab.tower import valid_levels

        if valid_levels(sd, n, offsets[-1]).count == 0:
            continue
        J = sorted(rng.sample(range(1, N + 1), rng.randint(1, N)))
        spec = CodingSpec(rng.randint(1, n))
        chk = subsequence_entropy_check(sd, spec, n, offsets, J, N)
        assert chk.monotone(1e-12)


def test_profile_constant_schedule(tiny_tower):
    pts = seq_entropy_upper_profile(
        tiny_tower, SamplingSequence.explicit([1, 2]), lambda N: 2, [1, 2]
    )
    assert [p.length for p in pts] == [1, 2]
    assert pts[0].stage == 2
    # the N=1 entry is the single-offset histogram entropy over 1
    direct = empirical_sequence_entropy(tiny_tower, CodingSpec(2), 2, (1,), 1)
    assert pts[0].h_nats == pytest.approx(direct.h_nats, abs=1e-15)
    assert pts[0].h_per_sample == pytest.approx(direct.h_nats, abs=1e-15)
    # A point keeps its histogram's scalars, not the histogram: a profile
    # holds one point's word counts at a time.
    hist = direct.histogram
    assert (pts[0].distinct_words, pts[0].key_bytes, pts[0].coverage, pts[0].path,
            pts[0].windows) == (hist.distinct_words, hist.key_bytes, hist.coverage,
                                hist.path, hist.windows)
    assert not any(isinstance(v, WordHistogram) for v in vars(pts[0]).values())
    with pytest.raises(EntropyError, match="non-decreasing"):
        seq_entropy_upper_profile(
            tiny_tower, SamplingSequence.explicit([1, 2]), lambda N: 3 - N, [1, 2]
        )


def test_profile_degenerate_schedule(tiny_tower):
    # tau = 1 evaluates on tower 2 against reference 1: the plain profile.
    pts = seq_entropy_upper_profile(
        tiny_tower, SamplingSequence.explicit([1, 2]), lambda N: 1, [2]
    )
    direct = empirical_sequence_entropy(tiny_tower, CodingSpec(1), 2, (1, 2), 2)
    assert pts[0].h_per_sample == pytest.approx(direct.h_per_sample, abs=1e-15)
    assert pts[0].stage == 1

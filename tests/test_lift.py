"""The exact word histogram, lifted (grammar-compressed) or enumerated,
against enumeration and against the string-recursion oracle."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stacklab.entropy import WordCapExceeded, empirical_sequence_entropy
from stacklab.parallel import index_blocks
from stacklab.sequences import SamplingSequence, sampling_offsets
from stacklab.tower import (
    CodingSpec,
    Stage,
    StackingData,
    count_words,
    exact_word_counts,
    lift_base_stage,
    valid_levels,
)

from .oracles import oracle_word_counts


@st.composite
def cases(draw):
    """Stacking data with explicit and seeded stages, a tower, a coding spec
    and nondecreasing offsets that need not start at 0."""
    cap = draw(st.integers(1, 4))
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(2, 5))
        if cap > 1 and draw(st.booleans()):
            stages.append(Stage(q=q, seed=draw(st.integers(0, 1 << 16)), distribution="uniform"))
        else:
            spacers = draw(st.lists(st.integers(0, cap - 1), min_size=q - 1, max_size=q - 1))
            stages.append(Stage(q=q, spacers=tuple(spacers)))
    sd = StackingData(draw(st.integers(1, 5)), tuple(stages), spacer_cap=cap)
    n = draw(st.integers(2, sd.num_towers))
    spec = CodingSpec(draw(st.integers(1, n)), draw(st.sampled_from(("base", "refined"))))
    offsets = [draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 4))):
        offsets.append(offsets[-1] + draw(st.integers(0, 4)))
    return sd, n, spec, tuple(offsets)


@given(cases())
def test_exact_counts_match_enumeration_and_oracle(case):
    sd, n, spec, offsets = case
    levels = valid_levels(sd, n, offsets[-1])
    counts, path = exact_word_counts(levels, spec, offsets)
    m0 = lift_base_stage(levels, spec, offsets)
    assert path == ("enumerate" if m0 is None else "compressed")
    enumerated = count_words(sd, spec, n, levels, offsets)
    assert list(counts.items()) == list(enumerated.items())
    if levels.count == 0:
        assert path == "enumerate"
        return
    if path == "compressed":
        assert dict(counts) == oracle_word_counts(sd, spec.reference, n, offsets, spec.mode)
    distinct = len(enumerated)
    with pytest.raises(WordCapExceeded):
        exact_word_counts(levels, spec, offsets, word_cap=distinct - 1)
    with pytest.raises(WordCapExceeded):
        empirical_sequence_entropy(sd, spec, n, offsets, len(offsets), word_cap=distinct - 1)
    res = empirical_sequence_entropy(sd, spec, n, offsets, len(offsets), word_cap=distinct)
    assert res.histogram.path == path
    assert list(res.histogram.counts.items()) == list(enumerated.items())


@pytest.mark.parametrize("reference, path", [(1, "compressed"), (3, "enumerate")])
def test_word_cap_on_both_paths(reference, path):
    # Heights 3, 7, 22 and t_N = 4 < h_2; reference 3 = n leaves no stage to lift from.
    sd = StackingData(3, (Stage(q=2, spacers=(1,)), Stage(q=3, spacers=(0, 1))), spacer_cap=2)
    spec, offsets = CodingSpec(reference), (1, 2, 4)
    res = empirical_sequence_entropy(sd, spec, 3, offsets, 3)
    assert res.histogram.path == path
    distinct = res.histogram.distinct_words
    assert distinct > 1
    with pytest.raises(WordCapExceeded):
        empirical_sequence_entropy(sd, spec, 3, offsets, 3, word_cap=distinct - 1)
    levels = valid_levels(sd, 3, offsets[-1])
    with pytest.raises(WordCapExceeded):
        exact_word_counts(levels, spec, offsets, word_cap=distinct - 1)
    assert exact_word_counts(levels, spec, offsets, word_cap=distinct)[1] == path


def test_compressed_base_worker_invariance():
    # h_1 = 9000 > t_N = 10, so the base step decodes the 8990 windows inside
    # tower 1 in two blocks, then lifts stages 1 and 2.
    sd = StackingData(9000, (Stage(q=3, spacers=(1, 0)), Stage(q=2, spacers=(1,))), spacer_cap=2)
    spec, A = CodingSpec(1, "refined"), (1, 3, 6, 10)
    assert len(index_blocks(9000 - 10)) > 1
    one = empirical_sequence_entropy(sd, spec, 3, A, 4, workers=1)
    two = empirical_sequence_entropy(sd, spec, 3, A, 4, workers=2)
    assert one.histogram.path == two.histogram.path == "compressed"
    assert list(one.histogram.counts.items()) == list(two.histogram.counts.items())
    assert one.h_nats == two.h_nats


def _squaring_tower() -> StackingData:
    """Heights 2, 4, 16, 256, 65536, 2**32 with every spacer 0."""
    stages, h = [], 2
    while h < 1 << 32:
        stages.append(Stage(q=h, spacers=(0,) * (h - 1)))
        h *= h
    return StackingData(2, tuple(stages), spacer_cap=1)


@pytest.mark.parametrize("reference, length", [(1, 16), (2, 32)])
def test_closed_form_on_the_2_pow_32_level_tower(reference, length):
    start = time.perf_counter()
    sd = _squaring_tower()
    assert sd.heights()[-1] == 1 << 32
    A = SamplingSequence.power(Fraction(3, 2), horizon=160)
    res = empirical_sequence_entropy(sd, CodingSpec(reference), 6, A, length)
    elapsed = time.perf_counter() - start
    hist = res.histogram
    assert hist.path == "compressed"
    # With no spacers, W_6 is (1, ..., h_r) repeated, so the word at level k
    # depends only on k mod h_r.
    h_r = sd.heights()[reference - 1]
    offsets = sampling_offsets(A, length)
    size = (1 << 32) - offsets[-1]
    assert hist.total == size
    expected = {
        tuple((c + o) % h_r + 1 for o in offsets): (size - 1 - c) // h_r + 1
        for c in range(h_r)
    }
    assert list(hist.counts.items()) == list(expected.items())
    assert elapsed < 1.0

"""The exact word histogram, lifted (grammar-compressed) or enumerated,
against enumeration and against the string-recursion oracle."""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stacklab import parallel, tower
from stacklab.entropy import (
    DEFAULT_WORD_CAP,
    WordCapExceeded,
    counts_entropy,
    empirical_sequence_entropy,
)
from stacklab.intarith import ResourceGuard
from stacklab.parallel import BLOCK_SIZE, run_blocks
from stacklab.sequences import SamplingSequence, sampling_offsets
from stacklab.tower import (
    CodingSpec,
    Stage,
    StackingData,
    decode_symbol,
    encode_word,
    exact_plan,
    exact_word_counts,
    level_dtype,
    symbol_width,
    valid_levels,
)

from .conftest import decoded
from .oracles import count_words, oracle_word_counts, plogp_sum


@st.composite
def cases(draw):
    """Stacking data with explicit and seeded stages, a tower, a coding spec
    and nondecreasing offsets that need not start at 0, with gaps large
    enough that t_N often reaches past the heights of the lifted stages."""
    cap = draw(st.integers(1, 4))
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(2, 5))
        if cap > 1 and draw(st.booleans()):
            stages.append(Stage(q=q, seed=draw(st.integers(0, 1 << 16))))
        else:
            spacers = draw(st.lists(st.integers(0, cap - 1), min_size=q - 1, max_size=q - 1))
            stages.append(Stage(q=q, spacers=tuple(spacers)))
    sd = StackingData(draw(st.integers(1, 5)), tuple(stages), spacer_cap=cap)
    n = draw(st.integers(2, sd.num_towers))
    spec = CodingSpec(draw(st.integers(1, n)), draw(st.sampled_from(("base", "refined"))))
    offsets = [draw(st.integers(0, 3))]
    gap = st.one_of(st.integers(0, 4), st.integers(5, 40))
    for _ in range(draw(st.integers(0, 4))):
        offsets.append(offsets[-1] + draw(gap))
    return sd, n, spec, tuple(offsets)


def _lift_cost(sd, n, r, t):
    """Spacers read, distinct keys and windows decoded by a lift from
    reference r, counted start by start: a start of tower m+1 is decoded if
    its window does not fit in its copy of tower m, lies in tower m+1 (and
    in K when m = n-1), and its region is the first with its key."""
    heights, reads, keys = sd.heights(), 0, 0
    windows = max(0, heights[r - 1] - t)
    for m in range(r, n):
        h, spacers, starts = heights[m - 1], sd.stage_spacers(m), sd.slice_starts(m).tolist()
        width = t // h + 2
        reads += sum(len(spacers[i : i + width]) for i in range(len(spacers)))
        seen = set()
        for i in range(len(spacers)):
            key = spacers[i : i + width]
            if key in seen:
                continue
            seen.add(key)
            keys += 1
            end = starts[i] + h if m == n - 1 else starts[i + 1]
            windows += sum(
                1 for s in range(starts[i], end) if s - starts[i] + t >= h and s + t < heights[m]
            )
    return reads, keys, windows


# Most draws with t_N >= h_m have nearly every key distinct and enumerate,
# so more examples keep the lift with t_N >= h_m well covered.
@settings(max_examples=1000)
@given(cases())
def test_exact_counts_match_enumeration_and_oracle(case):
    sd, n, spec, offsets = case
    levels = valid_levels(sd, n, offsets[-1])
    counts, path, windows = exact_word_counts(levels, spec, offsets)
    planned, plan, planned_windows = exact_plan(levels, spec, offsets)
    assert (path, windows) == (planned, planned_windows)
    # The plan's positions are the windows decoded, except that the distinct
    # path counts K without decoding it.
    assert plan.count == (levels.count if path == "distinct" else windows)
    # Offsets lie in [0, t_N] here and N >= 1, so r = n with K nonempty
    # counts distinct words, and only the spacers read or the windows plus
    # keys can force enumeration.
    r = spec.reference
    reads, keys, lifted = _lift_cost(sd, n, r, offsets[-1])
    if r == n and levels.count:
        assert (path, windows) == ("distinct", 0)
    elif r < n and reads <= levels.count and lifted + keys <= levels.count:
        assert path == "compressed" and windows == lifted
    else:
        assert path == "enumerate" and windows == levels.count
    # A lift never decodes more windows than K has levels.
    assert r == n or lifted <= levels.count
    enumerated = count_words(sd, spec, n, levels, offsets)
    assert list(counts.items()) == list(enumerated.items())
    if levels.count == 0:
        assert path == "enumerate"
        return
    if path == "compressed":
        expected = oracle_word_counts(sd, spec.reference, n, offsets, spec.mode)
        assert decoded(counts, symbol_width(sd, spec)) == expected
    distinct = len(enumerated)
    with pytest.raises(WordCapExceeded):
        exact_word_counts(levels, spec, offsets, word_cap=distinct - 1)
    with pytest.raises(WordCapExceeded):
        empirical_sequence_entropy(sd, spec, n, offsets, len(offsets), word_cap=distinct - 1)
    res = empirical_sequence_entropy(sd, spec, n, offsets, len(offsets), word_cap=distinct)
    assert res.histogram.path == path
    assert list(res.histogram.counts.items()) == list(enumerated.items())


@given(cases())
def test_exact_counts_in_python_ints_match_int64(case):
    # Above 2^63 levels the plan's arrays, positions and levels hold Python
    # ints and decode in object arrays.  Forced on a small tower (a fresh
    # copy, so no int64 array is cached), both paths must give the int64
    # histogram.
    sd, n, spec, offsets = case
    expected = exact_word_counts(valid_levels(sd, n, offsets[-1]), spec, offsets)
    big = StackingData(sd.initial_height, sd.stages, sd.spacer_cap)
    with mock.patch.object(tower, "level_dtype", lambda sd, n: object):
        counts, path, windows = exact_word_counts(valid_levels(big, n, offsets[-1]), spec, offsets)
    assert (path, windows) == expected[1:]
    assert list(counts.items()) == list(expected[0].items())


@pytest.mark.parametrize("reference, path", [(1, "compressed"), (3, "distinct")])
def test_word_cap_on_both_paths(reference, path):
    # Heights 3, 7, 22 and t_N = 4 < h_2; at reference 3 = n every level is its own word.
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


def test_compressed_base_worker_invariance(monkeypatch):
    # h_1 = 9000 > t_N = 10, so the lift starts from the 8990 windows inside
    # tower 1, then lifts stages 1 and 2: more than one block of windows,
    # which run on a pool at workers=2.
    sd = StackingData(9000, (Stage(q=3, spacers=(1, 0)), Stage(q=2, spacers=(1,))), spacer_cap=2)
    spec, A = CodingSpec(1, "refined"), (1, 3, 6, 10)
    calls = []

    def spy(fn, blocks, workers=1):
        calls.append((fn.__name__, len(blocks) > 1, workers))
        return run_blocks(fn, blocks, workers=workers)

    monkeypatch.setattr(tower, "run_blocks", spy)
    one = empirical_sequence_entropy(sd, spec, 3, A, 4, workers=1)
    two = empirical_sequence_entropy(sd, spec, 3, A, 4, workers=2)
    assert calls == [("_count_block", True, 1), ("_count_block", True, 2)]
    assert one.histogram.path == two.histogram.path == "compressed"
    assert list(one.histogram.counts.items()) == list(two.histogram.counts.items())
    enumerated = count_words(sd, spec, 3, valid_levels(sd, 3, A[-1]), A)
    assert list(one.histogram.counts.items()) == list(enumerated.items())
    assert one.h_nats == two.h_nats


def test_pool_starts_no_more_processes_than_blocks():
    # Each block reports the process that ran it: min(workers, blocks)
    # distinct forked children, or this process for a single block.
    for workers, count in ((1000, 3), (2, 5), (1000, 1)):
        blocks = range(-count, 0)
        out = list(run_blocks(lambda b: (abs(b), os.getpid()), blocks, workers))
        assert [r for r, _ in out] == [abs(b) for b in blocks]
        pids = {pid for _, pid in out}
        assert len(pids) == min(workers, count)
        assert (os.getpid() in pids) == (count == 1)


def _squaring_tower() -> StackingData:
    """Heights 2, 4, 16, 256, 65536, 2**32 with every spacer 0."""
    stages, h = [], 2
    while h < 1 << 32:
        stages.append(Stage(q=h, spacers=(0,) * (h - 1)))
        h *= h
    return StackingData(2, tuple(stages), spacer_cap=1)


@pytest.mark.parametrize("reference, length", [(1, 16), (2, 32), (3, 64), (4, 128)])
def test_closed_form_on_the_2_pow_32_level_tower(reference, length):
    # From reference 3 on, t_N (512, then 1448) reaches past h_r (16, 256).
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
    assert list(decoded(hist.counts, hist.symbol_width).items()) == list(expected.items())
    # Each of the h_r words covers 1/h_r of the levels, up to the clipped top.
    assert math.isclose(res.h_nats, math.log(h_r), rel_tol=1e-9)
    assert elapsed < (1.0 if reference < 3 else 2.0)


def test_guard_enumerates_random_spacers_far_below_the_horizon():
    # t_N = 45 spans up to 23 copies of tower 1 (h_1 = 2) and the random
    # spacers between them, so the keys would read more spacers than K has
    # levels.
    sd = StackingData(2, (Stage(q=200, seed=11),), spacer_cap=3)
    spec, offsets = CodingSpec(1, "refined"), (0, 1, 3, 6, 10, 15, 21, 28, 36, 45)
    levels = valid_levels(sd, 2, offsets[-1])
    assert exact_plan(levels, spec, offsets) == ("enumerate", levels, levels.count)
    counts, path, windows = exact_word_counts(levels, spec, offsets)
    assert (path, windows) == ("enumerate", levels.count)
    assert list(counts.items()) == list(count_words(sd, spec, 2, levels, offsets).items())


def test_guard_enumerates_when_the_lift_saves_no_windows():
    # With 64 spacer values and keys of 4 spacers nearly every key is
    # distinct, so the lift would decode nearly all of K and build as many
    # keys besides; the keys read no more spacers than K has levels.
    sd = StackingData(4, (Stage(q=2000, seed=3),), spacer_cap=64)
    spec, offsets = CodingSpec(1), (0, 2, 5, 8)
    levels = valid_levels(sd, 2, offsets[-1])
    reads, keys, lifted = _lift_cost(sd, 2, 1, offsets[-1])
    assert reads <= levels.count < lifted + keys
    counts, path, windows = exact_word_counts(levels, spec, offsets)
    assert (path, windows) == ("enumerate", levels.count)
    assert list(counts.items()) == list(count_words(sd, spec, 2, levels, offsets).items())


@given(cases())
def test_lower_reference_histogram_is_the_symbol_projection(case):
    # In base mode, level j of tower r codes to j + 1 at reference r and to
    # its own code at reference r - 1, and a spacer codes to 0 at both.
    sd, n, _, offsets = case
    if valid_levels(sd, n, offsets[-1]).count == 0:
        return
    results = [
        empirical_sequence_entropy(sd, CodingSpec(r), n, offsets, len(offsets))
        for r in range(1, n + 1)
    ]
    for r in range(2, n + 1):
        lower, upper = results[r - 2], results[r - 1]
        project = [0] + [decode_symbol(sd, CodingSpec(r - 1), r, j) for j in range(sd.height(r))]
        projected: Counter = Counter()
        for word, count in zip(upper.histogram.words(), upper.histogram.counts.values()):
            projected[tuple(project[x] for x in word)] += count
        lower_words = decoded(lower.histogram.counts, lower.histogram.symbol_width)
        assert list(projected.items()) == list(lower_words.items())
        assert lower.h_nats <= upper.h_nats + 1e-12


class _BlockSpy:
    """A block function that appends each block's first rank to a file
    before running it, so blocks run on pool workers are seen too."""

    def __init__(self, fn, path):
        self.fn, self.path = fn, path

    def __call__(self, block):
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(f"{block[-2]}\n")
        return self.fn(block)


def _ranks_run(path) -> list[int]:
    return sorted(map(int, path.read_text(encoding="utf-8").split())) if path.exists() else []


def _squaring_entropy_blocks(tmp_path, monkeypatch, workers, word_cap=DEFAULT_WORD_CAP):
    """The exact histogram at stage 5, reference 5, N = 64 of the squaring
    tower (every one of its 65 024 levels a distinct word, in 8 blocks),
    counted by the block kernel with each block recorded; the ranks of the
    blocks that ran and the error that stopped them.  The entropy op on the
    same K, which at r = n counts no block, must raise the same error and
    run no block."""
    path = tmp_path / f"blocks{workers}"
    monkeypatch.setattr(tower, "_count_block", _BlockSpy(tower._count_block, path))
    A = SamplingSequence.power(Fraction(3, 2), horizon=160)
    sd, spec, offsets = _squaring_tower(), CodingSpec(5), sampling_offsets(A, 64)
    levels = valid_levels(sd, 5, offsets[-1])
    with pytest.raises((WordCapExceeded, ResourceGuard)) as exc:
        tower.blocked_word_counts(spec, levels, levels.count, offsets, word_cap, workers)
    ranks = _ranks_run(path)
    with pytest.raises((WordCapExceeded, ResourceGuard)) as op:
        empirical_sequence_entropy(sd, spec, 5, A, 64, word_cap=word_cap, workers=workers)
    assert type(op.value) is type(exc.value) and str(op.value) == str(exc.value)
    assert _ranks_run(path) == ranks
    return ranks, exc.value


@pytest.mark.parametrize("workers", [1, 2])
def test_tripped_word_cap_stops_the_blocks(tmp_path, monkeypatch, workers):
    # Block 0 alone holds 8192 distinct words.  On a pool, a child runs
    # ahead only until its pipe fills, which one block's 2 MiB of keys
    # does, so at most two blocks per worker run.
    ranks, error = _squaring_entropy_blocks(tmp_path, monkeypatch, workers, word_cap=10)
    assert isinstance(error, WordCapExceeded)
    assert ranks[0] == 0 and ranks == [r for r in ranks if r < 2 * workers * BLOCK_SIZE]
    if workers == 1:
        assert ranks == [0]


@pytest.mark.parametrize("workers", [1, 2])
def test_key_bytes_guard_stops_at_the_first_block_past_it(tmp_path, monkeypatch, workers):
    # Each block adds 8192 keys of 64 symbols x 4 bytes, 2 MiB: a 3 MiB
    # bound holds block 0 and trips on block 1.
    monkeypatch.setattr(tower, "MAX_KEY_BYTES", 3 << 20)
    ranks, error = _squaring_entropy_blocks(tmp_path, monkeypatch, workers)
    assert isinstance(error, ResourceGuard)
    assert f"{2 * 8192} distinct keys of 256 bytes" in str(error)
    assert "MAX_KEY_BYTES" in str(error)
    assert ranks[:2] == [0, BLOCK_SIZE]
    assert ranks == [r for r in ranks if r < (1 + 2 * workers) * BLOCK_SIZE]
    if workers == 1:
        assert ranks == [0, BLOCK_SIZE]


def _guard_error(fn):
    """The class and message of the error `fn()` raises, or its result."""
    try:
        return fn()
    except (WordCapExceeded, ResourceGuard, tower.TowerError) as e:
        return type(e), str(e)


# Stage 5 of the squaring tower at reference 5 and N = 8: 65 508 levels of
# K, each its own word of 8 symbols x 4 bytes, in 8 blocks of 8192.  A key
# bound of 32 * c bytes trips once more than c keys are held.
@pytest.mark.parametrize("word_cap, key_cap, block_items, level_cap", [
    (None, None, None, None),        # no guard trips
    (0, None, None, None),           # word cap at block 0
    (10, 8191, None, None),          # both at block 0: the word cap is checked first
    (20000, 16384, None, None),      # both at block 2
    (20000, 8191, None, None),       # key bytes at block 0, 8192 keys held
    (65507, None, None, None),       # word cap at the last, short block
    (65508, 65508, None, None),      # at the bounds: nothing trips
    (None, 65507, None, None),       # key bytes at the last block, 65 508 keys held
    (10, 10, 65507, None),           # the block-list guard before either
    (10, 10, 65507, 65507),          # the level cap before all
])
def test_distinct_words_trip_the_guards_of_enumeration(
    monkeypatch, word_cap, key_cap, block_items, level_cap
):
    sd, spec, offsets = _squaring_tower(), CodingSpec(5), (0, 1, 3, 6, 10, 15, 21, 28)
    levels = valid_levels(sd, 5, offsets[-1])
    assert levels.count == 65508 and symbol_width(sd, spec) * len(offsets) == 32
    if key_cap is not None:
        monkeypatch.setattr(tower, "MAX_KEY_BYTES", 32 * key_cap)
    if block_items is not None:
        monkeypatch.setattr(parallel, "MAX_BLOCK_ITEMS", block_items)
    calls, kernel = [], tower._count_block
    monkeypatch.setattr(tower, "_count_block", lambda block: calls.append(block) or kernel(block))
    fast = _guard_error(lambda: exact_word_counts(levels, spec, offsets, word_cap,
                                                  level_cap=level_cap))
    assert calls == []

    def enumerated():
        if level_cap is not None and levels.count > level_cap:
            return exact_word_counts(levels, spec, offsets, level_cap=level_cap)
        return tower.blocked_word_counts(spec, levels, levels.count, offsets, word_cap)

    oracle = _guard_error(enumerated)
    if isinstance(oracle, tuple):
        assert fast == oracle
    else:
        counts, path, windows = fast
        assert (path, windows) == ("distinct", 0)
        assert isinstance(counts, tower.DistinctWords)
        assert list(counts.items()) == list(oracle.items())


def test_distinct_words_raise_the_coding_error_of_the_blocks():
    # Refined mode needs a finite spacer cap; the first block's decode says
    # so, and at r = n the same check runs before any block would.
    sd = StackingData(3, (Stage(q=3, spacers=(0, 5)), Stage(q=2, spacers=(1,))))
    spec, offsets = CodingSpec(3, "refined"), (0, 2, 4)
    levels = valid_levels(sd, 3, offsets[-1])
    fast = _guard_error(lambda: exact_word_counts(levels, spec, offsets))
    blocks = _guard_error(lambda: tower.blocked_word_counts(spec, levels, levels.count, offsets))
    assert fast == blocks == (tower.TowerError, "refined mode requires a finite spacer_cap")


@st.composite
def identity_cases(draw):
    """Tower n of random stacking data coded against itself (r = n) in
    either mode, with 1 to 6 nondecreasing offsets in [0, t_N] and t_N
    below h_n.  With `big`, the initial height is raised past 2^63, so
    tower n decodes in Python ints (16-byte symbols), and t_N is drawn
    within 40 levels of h_n, so K stays small."""
    cap = draw(st.integers(1, 4))
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(2, 5))
        if cap > 1 and draw(st.booleans()):
            stages.append(Stage(q=q, seed=draw(st.integers(0, 1 << 16))))
        else:
            spacers = draw(st.lists(st.integers(0, cap - 1), min_size=q - 1, max_size=q - 1))
            stages.append(Stage(q=q, spacers=tuple(spacers)))
    big = draw(st.booleans())
    h1 = draw(st.integers(1, 5)) + (big << 63)
    sd = StackingData(h1, tuple(stages), spacer_cap=cap)
    n = draw(st.integers(2, sd.num_towers))
    spec = CodingSpec(n, draw(st.sampled_from(("base", "refined"))))
    h_n = sd.height(n)
    t = h_n - draw(st.integers(1, 40)) if big else draw(st.integers(0, min(h_n - 1, 60)))
    inner = draw(st.lists(st.integers(0, t), min_size=0, max_size=5))
    return sd, n, spec, (*sorted(inner), t), big


@given(identity_cases())
def test_distinct_words_match_enumeration_without_decoding(case):
    sd, n, spec, offsets, big = case
    assert (level_dtype(sd, n) is object) == big
    levels = valid_levels(sd, n, offsets[-1])
    spy = mock.patch.object(tower, "code_orbits", wraps=tower.code_orbits)
    with spy as code_orbits:
        res = empirical_sequence_entropy(sd, spec, n, offsets, len(offsets))
        hist = res.histogram
        h = hist.entropy_nats()
        assert code_orbits.call_count == 0
    counts = hist.counts
    assert isinstance(counts, tower.DistinctWords)
    assert (hist.path, hist.windows, hist.total) == ("distinct", 0, levels.count)
    oracle = count_words(sd, spec, n, levels, offsets)
    forced = tower.blocked_word_counts(spec, levels, levels.count, offsets)
    assert list(counts) == list(oracle) == list(forced)
    assert list(counts.items()) == list(oracle.items()) == list(forced.items())
    assert len(counts) == len(oracle) == levels.count
    assert len(counts.values()) == levels.count and list(counts.values()) == list(counts.values())
    assert all(key in counts and counts[key] == 1 for key in oracle)
    assert counts == oracle and oracle == counts and counts == forced
    # Keys that code no level of K: the level just above K, and (N >= 2) a
    # valid first symbol followed by 0, which no in-tower level codes to.
    width = symbol_width(sd, spec)
    above = sd.height(n) - offsets[-1]
    strangers = [encode_word([above + o + 1 for o in offsets], width), b"", b"\x00" * 3]
    if len(offsets) > 1:
        strangers.append(encode_word([offsets[0] + 1] + [0] * (len(offsets) - 1), width))
    for key in strangers:
        assert key not in counts and counts.get(key) is None
        with pytest.raises(KeyError):
            counts[key]
    assert h == res.h_nats == counts_entropy(forced.values(), levels.count)
    assert h == plogp_sum(oracle.values(), levels.count)

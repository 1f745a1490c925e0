from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stacklab import tower
from stacklab.parallel import BLOCK_SIZE, index_blocks
from stacklab.rng import BATCH_MIN, LANES, SpacerProcess, uniform_int
from stacklab.tower import (
    CodingSpec,
    OrbitEscape,
    Stage,
    StackingData,
    TowerError,
    code_orbit,
    code_orbits,
    decode_symbol,
    decode_words,
    encode_word,
    symbol_width,
    valid_levels,
)

from .conftest import decoded
from .oracles import (
    brute_valid_levels,
    count_words,
    locate_level,
    materialize_word,
    merged_blocks,
    recompose_level,
    stacking_doc,
    zero_symbol_count,
)


def test_heights_examples():
    assert StackingData(2, (Stage(3, (1, 0)),)).heights() == (2, 7)
    assert StackingData(2, (Stage(2, (0,)), Stage(2, (0,)))).heights() == (2, 4, 8)
    assert StackingData(3, (Stage(4, (1, 1, 1)),)).heights() == (3, 15)


def test_compute_heights_tables(tiny_tower):
    assert tiny_tower.heights() == (2, 5)
    assert sum(tiny_tower.stage_spacers(1)) == 1
    assert tiny_tower.slice_starts(1).tolist() == [0, 3]  # slice 2 starts past slice 1 plus one spacer


def test_slice_starts_is_one_array_per_stage():
    # Towers 2^62, 2^63 and 3 * 2^63 + 6 straddle 2^63: stage 1's starts are
    # int64, those of the stages above hold Python ints.
    sd = StackingData(1 << 61, (Stage(2, (0,)), Stage(2, (0,)), Stage(3, (1, 5))))
    heights = sd.heights()
    for m, stage in enumerate(sd.stages, start=1):
        starts = sd.slice_starts(m)
        assert tower.level_dtype(sd, m + 1) is (np.int64 if m == 1 else object)
        assert starts.dtype == (np.int64 if m == 1 else object)
        assert starts.tolist() == [
            i * heights[m - 1] + sum(stage.spacers[:i]) for i in range(stage.q)
        ]
        assert sd.slice_starts(m) is starts
    # Readers in Python-int arithmetic see ints on both sides of 2^63.
    for n, r in ((2, 1), (4, 3)):
        levels = valid_levels(sd, n, 10)
        assert type(levels.count) is int
        ks = [levels.select(u) for u in (0, heights[n - 2], levels.count - 1)]
        assert all(type(k) is int for k in ks)
        for k in ks:
            assert all(type(x) is int for x in code_orbit(sd, CodingSpec(1), n, k, (0, 5, 10)))
        path, plan, windows = tower.exact_plan(levels, CodingSpec(r), (0, 5, 10))
        assert path == "compressed" and type(plan.count) is int and windows == plan.count


def test_heights_strictly_increasing():
    rng = random.Random(11)
    from .conftest import random_stacking

    for _ in range(30):
        sd = random_stacking(rng)
        hs = sd.heights()
        assert all(a < b for a, b in zip(hs, hs[1:]))


def test_malformed_stage_reports_index():
    with pytest.raises(TowerError, match="stage 1"):
        StackingData(2, (Stage(3, (1,)),))
    with pytest.raises(TowerError, match="stage 2"):
        StackingData(2, (Stage(2, (1,)), Stage(2, (5,))), spacer_cap=3)
    with pytest.raises(TowerError, match="q must be an integer >= 2"):
        StackingData(2, (Stage(1, ()),))
    with pytest.raises(TowerError, match="q must be an integer >= 2, got '2'"):
        StackingData(2, (Stage("2", (0,)),))
    # A uniform spacer stream needs at least two values to draw from.
    with pytest.raises(TowerError, match="spacer_cap of at least 2"):
        StackingData(2, (Stage(3, seed=4),), spacer_cap=1)
    # A seeded stage's document may name its distribution, which must be uniform.
    seeded = {"q": 3, "seed": 4, "distribution": "uniform"}
    doc = {"initial_height": 2, "spacer_cap": 3, "stages": [{"q": 2, "spacers": [0]}, seeded]}
    assert StackingData.from_dict(doc) == StackingData(
        2, (Stage(2, (0,)), Stage(3, seed=4)), spacer_cap=3)
    doc["stages"][1] = dict(seeded, distribution="normal")
    with pytest.raises(TowerError) as excinfo:
        StackingData.from_dict(doc)
    assert str(excinfo.value) == "stage 2: unknown spacer distribution 'normal' (only 'uniform')"


def test_locate_level_examples(tiny_tower):
    loc = locate_level(tiny_tower, 2, 3)
    assert loc.chain[-1].kind == "slice"
    assert loc.chain[-1].index == 2 and loc.chain[-1].offset == 0
    loc = locate_level(tiny_tower, 2, 2)
    assert loc.is_spacer
    assert loc.chain[-1].index == 1 and loc.chain[-1].offset == 0
    loc = locate_level(tiny_tower, 2, 4)
    assert loc.chain[-1].index == 2 and loc.chain[-1].offset == 1
    with pytest.raises(TowerError):
        locate_level(tiny_tower, 2, 5)


def test_locate_recompose_roundtrip():
    rng = random.Random(23)
    from .conftest import random_stacking

    for _ in range(20):
        sd = random_stacking(rng, height_limit=2000)
        n = sd.num_towers
        for k in range(sd.heights()[-1]):
            loc = locate_level(sd, n, k)
            assert recompose_level(sd, loc) == k


def test_decode_examples(tiny_tower):
    base = CodingSpec(1, "base")
    assert decode_symbol(tiny_tower, base, 2, 2) == 0
    assert decode_symbol(tiny_tower, base, 2, 4) == 2
    refined = CodingSpec(1, "refined")
    assert decode_symbol(tiny_tower, refined, 2, 2) == 3  # h_1 + 1


def test_decode_refined_requires_cap():
    sd = StackingData(2, (Stage(2, (1,)),))  # unbounded spacers
    with pytest.raises(TowerError, match="spacer_cap"):
        decode_symbol(sd, CodingSpec(1, "refined"), 2, 2)


def test_decode_matches_materialized_words():
    rng = random.Random(7)
    from .conftest import random_stacking

    for _ in range(15):
        sd = random_stacking(rng, height_limit=3000)
        for n in range(1, sd.num_towers + 1):
            for r in range(1, n + 1):
                for mode in ("base", "refined"):
                    spec = CodingSpec(r, mode)
                    word = materialize_word(sd, r, n, mode)
                    got = [decode_symbol(sd, spec, n, k) for k in range(len(word))]
                    assert got == word, (sd, n, r, mode)


def test_word_structure_blocks_and_gaps():
    # Reference-r words are copies of (1, ..., h_r) separated by spacer
    # runs; with spacers capped at L-1 every gap is a single stage's block,
    # so no run exceeds L-1.
    rng = random.Random(97)
    from .conftest import random_stacking
    from .oracles import materialize_word

    for _ in range(15):
        sd = random_stacking(rng, max_stages=4, max_q=4, spacer_cap=3, height_limit=2000)
        n = sd.num_towers
        for r in range(1, n + 1):
            word = materialize_word(sd, r, n)
            v = list(range(1, sd.heights()[r - 1] + 1))
            runs: list[list[int]] = [[]]
            for s in word:
                if s == 0:
                    runs.append([])
                else:
                    runs[-1].append(s)
            nonzero = [run for run in runs if run]
            # zero-length blocks concatenate copies, so runs are v repeated
            assert all(
                len(run) % len(v) == 0 and run == v * (len(run) // len(v))
                for run in nonzero
            )
            from itertools import groupby

            zero_runs = [
                sum(1 for _ in grp) for is_zero, grp in groupby(word, key=lambda s: s == 0) if is_zero
            ]
            assert all(z <= sd.spacer_cap - 1 for z in zero_runs)


def test_zero_symbol_count_identity():
    rng = random.Random(31)
    from .conftest import random_stacking

    for _ in range(15):
        sd = random_stacking(rng, height_limit=3000)
        n = sd.num_towers
        word = materialize_word(sd, 1, n, "base")
        assert word.count(0) == zero_symbol_count(sd, n)


def test_valid_levels_examples(tiny_tower):
    assert list(valid_levels(tiny_tower, 2, 2)) == [0, 1]
    assert list(valid_levels(tiny_tower, 2, 0)) == [0, 1, 3, 4]
    assert len(valid_levels(tiny_tower, 2, 5)) == 0


def test_valid_levels_against_brute_force():
    rng = random.Random(41)
    from .conftest import random_stacking

    for _ in range(20):
        sd = random_stacking(rng, height_limit=2000)
        n = sd.num_towers
        if n < 2:
            continue
        h_n = sd.heights()[-1]
        for t_max in (0, 1, h_n // 3, h_n - 1, h_n, h_n + 5):
            K = valid_levels(sd, n, t_max)
            expected = brute_valid_levels(sd, n, t_max)
            assert list(K) == expected
            assert len(K) == len(expected)
            for u in range(len(K)):
                assert K.select(u) == expected[u]


def test_valid_levels_needs_previous_stage(tiny_tower):
    with pytest.raises(TowerError, match="n >= 2"):
        valid_levels(tiny_tower, 1, 0)


def test_code_orbit_rejects_high_reference_and_negative_level(tiny_tower):
    with pytest.raises(TowerError, match="exceeds tower index"):
        code_orbit(tiny_tower, CodingSpec(2), 1, 0, ())
    with pytest.raises(TowerError, match="out of range"):
        code_orbit(tiny_tower, CodingSpec(1), 2, 1, (-2,))


def test_count_words_first_seen_order(tiny_tower):
    spec = CodingSpec(1)
    # The reference-1 word of tower 2 is 1 2 0 1 2.
    counts = count_words(tiny_tower, spec, 2, [1, 0, 2, 3, 1], (0, 1))
    assert list(counts.items()) == [(b"\x02\x00", 2), (b"\x01\x02", 2), (b"\x00\x01", 1)]
    assert list(decoded(counts, 1).items()) == [((2, 0), 2), ((1, 2), 2), ((0, 1), 1)]


def test_code_orbit_examples(tiny_tower):
    spec = CodingSpec(1, "base")
    assert code_orbit(tiny_tower, spec, 2, 0, (1, 2)) == (2, 0)
    assert code_orbit(tiny_tower, spec, 2, 1, (1, 2)) == (0, 1)
    with pytest.raises(OrbitEscape) as exc:
        code_orbit(tiny_tower, spec, 2, 3, (1, 2))
    assert exc.value.index == 2


@st.composite
def orbit_batches(draw):
    """Explicit and seeded stages (unbounded spacers included), any tower
    and reference up to it, and unsorted levels with repeats; one draw in
    four may put a level or orbit sample outside the tower.  One draw in
    four inserts a stage of q = 2 whose spacer block of 2^63 or more sits
    over an int64 tower: the levels above it hold Python ints that descend
    through int64 slice starts, some with excesses above 2^63, and refined
    symbols under a spacer cap of 2^64 take 16 bytes.  Where tower n holds
    that block, some levels and offsets lie within 3 of its ends, since
    uniform draws almost never reach the excesses above 2^63 at its top."""
    big = draw(st.integers(0, 3)) == 0
    cap = draw(st.sampled_from((None, 1 << 64) if big else (None, 1, 2, 3, 4)))
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(2, 5))
        if cap is not None and 1 < cap <= 4 and draw(st.booleans()):
            stages.append(Stage(q=q, seed=draw(st.integers(0, 1 << 16))))
        else:
            top = 3 if cap is None else min(cap - 1, 3)
            spacers = draw(st.lists(st.integers(0, top), min_size=q - 1, max_size=q - 1))
            stages.append(Stage(q=q, spacers=tuple(spacers)))
    if big:
        spacer = draw(st.integers(1 << 63, (1 << 63) + 40))
        at = draw(st.integers(0, len(stages)))
        stages.insert(at, Stage(q=2, spacers=(spacer,)))
    sd = StackingData(draw(st.integers(1, 5)), tuple(stages), spacer_cap=cap)
    n = sd.num_towers - draw(st.integers(0, sd.num_towers - 1))  # mostly the top tower
    spec = CodingSpec(draw(st.integers(1, n)), draw(st.sampled_from(("base", "refined"))))
    h = sd.height(n)
    near_ends = st.nothing()
    if big and n >= at + 2:  # the block is [h_m, h_m + spacer) of tower m + 1 = at + 2
        h_m = sd.height(at + 1)
        near_ends = st.sampled_from((h_m, h_m + spacer)).flatmap(
            lambda e: st.integers(max(e - 3, 0), min(e + 3, h - 1)))
    if draw(st.integers(0, 3)):
        offsets = draw(st.lists(st.integers(0, h - 1) | near_ends, min_size=1, max_size=6))
        last = h - 1 - max(offsets)
        levels = st.integers(0, last) | near_ends.map(lambda k: min(k, last))
    else:
        offsets = draw(st.lists(st.integers(-2, h + 2) | near_ends, max_size=6))
        levels = st.integers(-2, h + 2) | near_ends
    ks = draw(st.lists(levels, min_size=1, max_size=12))
    return sd, n, spec, ks + ks[: draw(st.integers(0, 3))], offsets


def _outcome(decode):
    try:
        return decode()
    except (OrbitEscape, TowerError) as e:
        return type(e), str(e)


# Heights 3, 10, 20 and 2^63 + 40: stage 3's spacer block is [20, 2^63 + 20).
_CROSSING = StackingData(3, (Stage(3, (1, 0)), Stage(2, (0,)), Stage(2, (1 << 63,))),
                         spacer_cap=1 << 64)
_CROSSING_KS = [0, 19, 20, 21, (1 << 63) + 5, (1 << 63) + 19, 3]


# About a third of the draws code at the tower itself or leave it, so more
# examples keep the descent through the stage tables well covered.
@settings(max_examples=1000)
@example((_CROSSING, 4, CodingSpec(1, "refined"), _CROSSING_KS, [0, 1, 20]))
@example((_CROSSING, 4, CodingSpec(2), _CROSSING_KS, [0, 1, 20]))
@example((_CROSSING, 4, CodingSpec(3, "refined"), _CROSSING_KS, [20, 1, 0]))
@given(orbit_batches())
def test_code_orbits_matches_code_orbit(case):
    sd, n, spec, ks, offsets = case
    one_by_one = _outcome(lambda: [code_orbit(sd, spec, n, k, offsets) for k in ks])
    keys = _outcome(lambda: code_orbits(sd, spec, n, ks, offsets))
    if not isinstance(one_by_one, list):
        assert keys == one_by_one
        return
    width = symbol_width(sd, spec)
    assert keys == [encode_word(word, width) for word in one_by_one]
    assert list(decode_words(keys, width)) == one_by_one
    # Blocks pass levels as int64 arrays, or as object arrays above int64.
    assert code_orbits(sd, spec, n, np.array(ks, dtype=object), offsets) == keys
    if sd.height(n) < 1 << 63:
        assert code_orbits(sd, spec, n, np.array(ks, dtype=np.int64), offsets) == keys
    expected = Counter(one_by_one)
    assert list(decoded(count_words(sd, spec, n, ks, offsets), width).items()) == list(
        expected.items()
    )


@st.composite
def wide_codings(draw):
    """A tower n and reference-1 coding whose top symbol needs `width`
    bytes, on a tower below 2^63 levels (1 to 3 stages) or above it (63
    stages of q = 2), with offsets that reach the top symbol h_1 and the
    spacer block of stage 1."""
    width = draw(st.sampled_from((1, 2, 4, 8, 16)))
    top = draw(st.integers(1 if width == 1 else 1 << 4 * width, (1 << 8 * width) - 1))
    mode = draw(st.sampled_from(("base", "refined")))
    h1 = top if mode == "base" else draw(st.integers(1, min(top, 5)))
    cap = None if mode == "base" else top - h1 + 1
    spacer = st.integers(0, 3 if cap is None else min(cap - 1, 3))
    count = 63 if draw(st.booleans()) else draw(st.integers(1, 3))
    sd = StackingData(h1, tuple(Stage(2, (draw(spacer),)) for _ in range(count)), spacer_cap=cap)
    h = sd.height(sd.num_towers)
    picks = sorted({o for o in (0, 1, h1 - 1, h1, h1 + 1, h1 + 2) if o < h})
    offsets = draw(st.lists(st.sampled_from(picks), min_size=1, max_size=4))
    ks = [0] + draw(st.lists(st.integers(0, h - 1 - max(offsets)), max_size=5))
    return sd, CodingSpec(1, mode), width, ks, offsets


@given(wide_codings())
def test_code_orbits_keys_at_every_width(case):
    sd, spec, width, ks, offsets = case
    n = sd.num_towers
    assert symbol_width(sd, spec) == width
    keys = code_orbits(sd, spec, n, ks, offsets)
    assert all(len(key) == width * len(offsets) for key in keys)
    assert list(decode_words(keys, width)) == [code_orbit(sd, spec, n, k, offsets) for k in ks]


def test_code_orbits_checks_each_level_before_its_samples(tiny_tower):
    # Every orbit sample lies in tower 2 (heights 2, 5), but a level does not.
    spec = CodingSpec(1)
    for ks, offsets in (([0, -1], (1, 2)), ([4, 5], (-1,)), ([2, 7], ())):
        with pytest.raises(TowerError) as single:
            [code_orbit(tiny_tower, spec, 2, k, offsets) for k in ks]
        with pytest.raises(TowerError) as batch:
            code_orbits(tiny_tower, spec, 2, ks, offsets)
        assert str(batch.value) == str(single.value)


def test_code_orbits_decodes_above_int64_without_code_orbit():
    # The 79-bit tower of h_1 = 2 and 7 stages of q = 2048: in-range levels
    # of every height decode by the array descent alone.
    sd = StackingData(2, tuple(Stage(2048, (0,) * 2047) for _ in range(7)), spacer_cap=2)
    h, offsets, rng = sd.height(8), (0, 1, 5, 2049), random.Random(8)
    ks = [0, 7, (1 << 70) + 3, h - 2050] + [rng.randrange(h - 2049) for _ in range(20)]
    for spec in (CodingSpec(1), CodingSpec(1, "refined"), CodingSpec(5), CodingSpec(8)):
        expected = [encode_word(code_orbit(sd, spec, 8, k, offsets), symbol_width(sd, spec))
                    for k in ks]
        with mock.patch.object(tower, "code_orbit", side_effect=AssertionError("code_orbit")):
            assert code_orbits(sd, spec, 8, ks, offsets) == expected
            assert code_orbits(sd, spec, 8, np.array(ks, dtype=object), offsets) == expected


def test_count_words_across_decode_batches():
    # More levels than one batch, in decreasing order, so every batch
    # boundary falls inside the first-seen order.
    sd = StackingData(3, (Stage(q=700, seed=2),), spacer_cap=4)
    spec, offsets = CodingSpec(1, "refined"), (0, 1, 3, 6)
    ks = list(range(sd.height(2) - 7, -1, -1))
    assert len(ks) > 2 * tower.DECODE_BATCH
    expected = Counter(code_orbit(sd, spec, 2, k, offsets) for k in ks)
    counts = count_words(sd, spec, 2, ks, offsets)
    assert list(decoded(counts, symbol_width(sd, spec)).items()) == list(expected.items())


@st.composite
def rank_blocks(draw):
    """A block of the word-count kernel over K: a tower whose first height
    is small, just below 2^62 (tower 2 or 3 passes 2^63) or above 2^64,
    any tower n >= 2 and reference, offsets in [0, t_N], and positions
    [lo, hi) that are ranks of K or, with a seed, indices of level draws;
    a block may span more than one decode batch."""
    cap = draw(st.integers(1, 4))
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(2, 5))
        if cap > 1 and draw(st.booleans()):
            stages.append(Stage(q=q, seed=draw(st.integers(0, 1 << 16))))
        else:
            spacers = draw(st.lists(st.integers(0, cap - 1), min_size=q - 1, max_size=q - 1))
            stages.append(Stage(q=q, spacers=tuple(spacers)))
    first = draw(st.sampled_from((0, (1 << 62) - 8, 1 << 64)))
    sd = StackingData(first + draw(st.integers(1, 5)), tuple(stages), spacer_cap=cap)
    n = draw(st.integers(2, sd.num_towers))
    spec = CodingSpec(draw(st.integers(1, n)), draw(st.sampled_from(("base", "refined"))))
    offsets = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)))
    levels = valid_levels(sd, n, offsets[-1])
    assume(levels.count > 0)
    size = st.one_of(st.integers(1, 40), st.integers(tower.DECODE_BATCH - 5, 2 * tower.DECODE_BATCH + 5))
    if draw(st.booleans()):
        seed, lo = draw(st.integers(0, 1 << 32)), draw(st.integers(0, 1 << 40))
        hi = lo + draw(size)
    else:
        seed, lo = None, draw(st.integers(0, levels.count - 1))
        hi = min(levels.count, lo + draw(size))
    return spec, levels, tuple(offsets), seed, lo, hi


@settings(max_examples=150, deadline=None)
@given(rank_blocks())
def test_count_block_on_K_matches_select(block):
    spec, levels, offsets, seed, lo, hi = block
    ranks = range(lo, hi)
    if seed is not None:
        ranks = [uniform_int(seed, tower._STREAM_LEVEL_SAMPLE, s, levels.count) for s in ranks]
    expected = count_words(levels.sd, spec, levels.n, map(levels.select, ranks), offsets)
    assert list(tower._count_block(block).items()) == list(expected.items())


# Block parts as `_count_block` returns them: Counters over keys of one
# length, drawn from a small pool so blocks share keys, with weighted counts
# up to 2^80 as the lift's ranges give.
_parts = st.lists(
    st.dictionaries(st.sampled_from([bytes((i, i)) for i in range(8)]),
                    st.integers(1, 1 << 80), max_size=8).map(Counter),
    max_size=6,
)


@given(_parts)
def test_blocked_merge_matches_counter_update(parts):
    snapshot = [list(part.items()) for part in parts]
    with mock.patch.object(tower, "run_blocks", lambda fn, blocks, workers: iter(parts)):
        counts = tower.blocked_word_counts(CodingSpec(1), None, 1, (0,))
    assert list(counts.items()) == list(merged_blocks(parts).items())
    assert [list(part.items()) for part in parts] == snapshot


@settings(max_examples=12, deadline=None)
@given(rank_blocks(), st.integers(0, 1 << 32), st.integers(BLOCK_SIZE + 1, 3 * BLOCK_SIZE))
def test_blocked_word_counts_workers_agree(block, seed, draws):
    spec, levels, offsets = block[:3]
    runs = [tower.blocked_word_counts(spec, levels, draws, offsets, workers=w, seed=seed)
            for w in (1, 2)]
    blocks = [(spec, levels, offsets, seed, lo, hi) for lo, hi in index_blocks(draws)]
    expected = merged_blocks(map(tower._count_block, blocks))
    assert list(runs[0].items()) == list(runs[1].items()) == list(expected.items())


def test_count_words_above_int64_matches_code_orbit():
    # h_1 = 2 and 7 stages of q = 2048: h_8 is about 2^78, so tower 8 (and
    # tower 7, about 2^67) decodes in Python ints while tower 6 fits int64.
    sd = StackingData(
        2, tuple(Stage(q=2048, spacers=tuple(j % 2 for j in range(2047))) for _ in range(7)),
        spacer_cap=2,
    )
    h = sd.height(8)
    assert 1 << 77 < h < 1 << 79
    assert [tower.level_dtype(sd, m) for m in (6, 7, 8)] == [np.int64, object, object]
    rng = random.Random(5)
    offsets = (0, 1, 3, 7, 12)
    ks = [0, 1, h - 13, (1 << 70) + 5] + [rng.randrange(h - 12) for _ in range(40)]
    for spec in (CodingSpec(1), CodingSpec(1, "refined"), CodingSpec(7), CodingSpec(8)):
        expected = Counter(code_orbit(sd, spec, 8, k, offsets) for k in ks + ks[:3])
        counts = count_words(sd, spec, 8, ks + ks[:3], offsets)
        assert list(decoded(counts, symbol_width(sd, spec)).items()) == list(expected.items())
    with pytest.raises(OrbitEscape, match=f"level {h} >= height {h}"):
        count_words(sd, CodingSpec(1), 8, [5, h - 12], offsets)


def test_big_integer_towers():
    # 40 stages push heights past 2^64; descent arithmetic must stay exact.
    rng = random.Random(59)
    stages = []
    for _ in range(40):
        q = rng.randint(2, 6)
        stages.append(Stage(q=q, spacers=tuple(rng.randrange(3) for _ in range(q - 1))))
    sd = StackingData(2, tuple(stages), spacer_cap=3)
    M = sd.num_towers
    h_M = sd.heights()[-1]
    assert h_M > 2**64
    spec = CodingSpec(1, "base")
    assert decode_symbol(sd, spec, M, 0) == 1
    assert decode_symbol(sd, spec, M, h_M - 1) == 2  # word ends with the top of a copy
    for _ in range(50):
        k = rng.randrange(h_M)
        loc = locate_level(sd, M, k)
        assert recompose_level(sd, loc) == k
        sym = decode_symbol(sd, spec, M, k)
        if loc.is_spacer:
            assert sym == 0
        else:
            assert sym == loc.terminal_offset + 1
    # first spacer block of the last stage, when present, decodes to 0
    last = sd.stage_spacers(M - 1)
    if last[0] > 0:
        h_prev = sd.heights()[-2]
        assert decode_symbol(sd, spec, M, h_prev) == 0


def test_seeded_stage_chunk_equals_singletons():
    sd = StackingData(
        2,
        (Stage(2, (1,)), Stage(q=9, seed=5)),
        spacer_cap=3,
    )
    proc = SpacerProcess(3, 5)
    assert sd.stage_spacers(2) == tuple(proc.value(i) for i in range(8))
    assert all(0 <= a <= 2 for a in sd.stage_spacers(2))


@pytest.mark.parametrize("spacers", [LANES + 1, LANES + BATCH_MIN])
def test_seeded_stage_across_lane_chunks_equals_singletons(spacers):
    # One full chunk of batched draws, then one index alone or one more batch.
    sd = StackingData(2, (Stage(q=spacers + 1, seed=11),), spacer_cap=3)
    proc = SpacerProcess(3, 11)
    assert sd.stage_spacers(1) == tuple(proc.value(i) for i in range(spacers))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("big", [False, True], ids=["int64", "bigint"])
def test_sampled_blocks_match_per_index_draws(big, workers):
    # Full blocks draw their levels in one batch.  The bigint tower has
    # h_2 = 2^63 + 2, so it decodes in Python ints while |K| < 2^63 keeps
    # the batched draws.
    if big:
        sd = StackingData((1 << 62) + 1, (Stage(2, (0,)),), spacer_cap=1)
        n, spec = 2, CodingSpec(1)
    else:
        sd = StackingData(
            3, (Stage(3, (1, 2)), Stage(5, (0, 2, 1, 1)), Stage(q=1001, seed=4)),
            spacer_cap=3,
        )
        n, spec = 4, CodingSpec(2, "refined")
    offsets, seed, total = (0, 1, 3, 6), 17, 2 * BLOCK_SIZE
    levels = valid_levels(sd, n, offsets[-1])
    assert (tower.level_dtype(sd, n) is object) == big and BATCH_MIN <= BLOCK_SIZE and levels.count < 1 << 63
    draws = [uniform_int(seed, tower._STREAM_LEVEL_SAMPLE, s, levels.count) for s in range(total)]
    block = tower._count_block((spec, levels, offsets, seed, 0, BLOCK_SIZE))
    expected = count_words(sd, spec, n, map(levels.select, draws[:BLOCK_SIZE]), offsets)
    assert list(block.items()) == list(expected.items())
    counts = tower.blocked_word_counts(spec, levels, total, offsets, workers=workers, seed=seed)
    expected = count_words(sd, spec, n, map(levels.select, draws), offsets)
    assert list(counts.items()) == list(expected.items())


def test_fixture_document_loads(tiny_tower):
    import json
    from pathlib import Path

    doc = json.loads(
        (Path(__file__).resolve().parent.parent / "fixtures" / "tiny_tower.json").read_text()
    )
    sd = StackingData.from_dict(doc)
    assert sd == tiny_tower
    assert sd.heights() == (2, 5)


def test_serialization_roundtrip(tiny_tower):
    doc = stacking_doc(tiny_tower)
    assert doc["initial_height"] == 2
    assert doc["stages"][0] == {"q": 2, "spacers": [1]}
    assert StackingData.from_dict(doc) == tiny_tower
    seeded = StackingData(
        2, (Stage(q=4, seed=3),), spacer_cap=2
    )
    doc = stacking_doc(seeded)
    assert doc["stages"][0]["seed"] == 3
    assert StackingData.from_dict(doc).stage_spacers(1) == seeded.stage_spacers(1)

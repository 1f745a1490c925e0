from __future__ import annotations

import random

import pytest

from stacklab.tower import (
    CodingSpec,
    OrbitEscape,
    Stage,
    StackingData,
    TowerError,
    code_orbit,
    count_words,
    decode_symbol,
    locate_level,
    recompose_level,
    valid_levels,
)

from .oracles import brute_valid_levels, materialize_word, zero_symbol_count


def test_heights_examples():
    assert StackingData(2, (Stage(3, (1, 0)),)).heights() == (2, 7)
    assert StackingData(2, (Stage(2, (0,)), Stage(2, (0,)))).heights() == (2, 4, 8)
    assert StackingData(3, (Stage(4, (1, 1, 1)),)).heights() == (3, 15)


def test_compute_heights_tables(tiny_tower):
    from stacklab.tower import compute_heights

    heights, totals, tables = compute_heights(tiny_tower)
    assert heights == (2, 5)
    assert totals == (1,)
    assert tables == [[0, 3]]  # slice 2 starts past slice 1 plus one spacer


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
    # A uniform spacer stream needs at least two values to draw from.
    with pytest.raises(TowerError, match="spacer_cap of at least 2"):
        StackingData(2, (Stage(3, seed=4, distribution="uniform"),), spacer_cap=1)


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
    assert list(counts.items()) == [((2, 0), 2), ((1, 2), 2), ((0, 1), 1)]


def test_code_orbit_examples(tiny_tower):
    spec = CodingSpec(1, "base")
    assert code_orbit(tiny_tower, spec, 2, 0, (1, 2)) == (2, 0)
    assert code_orbit(tiny_tower, spec, 2, 1, (1, 2)) == (0, 1)
    with pytest.raises(OrbitEscape) as exc:
        code_orbit(tiny_tower, spec, 2, 3, (1, 2))
    assert exc.value.index == 2


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
        (Stage(2, (1,)), Stage(q=9, seed=5, distribution="uniform")),
        spacer_cap=3,
    )
    from stacklab.rng import SpacerProcess

    proc = SpacerProcess(3, 5)
    assert sd.stage_spacers(2) == tuple(proc.value(i) for i in range(8))
    assert all(0 <= a <= 2 for a in sd.stage_spacers(2))


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
    doc = tiny_tower.to_dict()
    assert doc["initial_height"] == 2
    assert doc["stages"][0] == {"q": 2, "spacers": [1]}
    assert StackingData.from_dict(doc) == tiny_tower
    seeded = StackingData(
        2, (Stage(q=4, seed=3, distribution="uniform"),), spacer_cap=2
    )
    doc = seeded.to_dict()
    assert doc["stages"][0]["seed"] == 3
    assert StackingData.from_dict(doc).stage_spacers(1) == seeded.stage_spacers(1)

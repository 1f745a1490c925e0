from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stacklab.intarith import ResourceGuard
from stacklab.rng import (
    BATCH_MIN, LANES, SpacerProcess, _digest64, _digest64_lanes, bulk_generator, philox_bits,
    uniform_int, uniform_ints,
)
from stacklab.randomstacks import (
    analytic_failure_bound,
    build_markov_matrix,
    conditional_limit_chain,
    conditional_limits_mc,
    flexibility_bounds,
    genericness_search,
    hoeffding_bound,
    pattern_word,
    recipe_params,
    stationary_distribution,
    stationary_distribution_exact,
)
from stacklab.randomstacks.generic import evaluate_candidate
from stacklab.randomstacks import markov
from stacklab.randomstacks.markov import (
    _MC_BLOCK, MarkovError, MarkovModel, _chunk_rows, _default_position, _mc_block, _symbol_at,
    _window_bits_needed,
)
from stacklab.randomstacks.recipes import RecipeError
from stacklab.sequences import SamplingSequence
from stacklab.tower import StackingData

from .oracles import (
    exhaustive_generic_acceptors, is_irreducible_aperiodic, mc_block_oracle, symbol_density_limit,
)


# -- spacer process -------------------------------------------------------------


def test_spacer_process_regeneration():
    proc = SpacerProcess(3, seed=42, stream=7)
    chunk = proc.chunk(5, 50)
    assert chunk == tuple(proc.value(i) for i in range(5, 50))
    assert all(0 <= x < 3 for x in chunk)


def test_spacer_process_streams_differ():
    a = SpacerProcess(2, seed=1, stream=0).chunk(0, 64)
    b = SpacerProcess(2, seed=1, stream=1).chunk(0, 64)
    assert a != b


def test_uniform_int_is_unbiased_enough():
    counts = [0, 0, 0]
    for i in range(3000):
        counts[uniform_int(9, 0, i, 3)] += 1
    assert min(counts) > 800


def test_uniform_int_reads_one_digest_per_attempt_up_to_64_bits():
    assert [uniform_int(5, 1, i, 1 << 64) for i in range(16)] == [
        _digest64(5, 1, i, 0) for i in range(16)
    ]
    assert [uniform_int(5, 1, i, 1) for i in range(4)] == [0] * 4
    # A bound of 3 rejects only the digest 2**64 - 1.
    assert [uniform_int(5, 1, i, 3) for i in range(16)] == [
        _digest64(5, 1, i, 0) % 3 for i in range(16)
    ]


def test_uniform_int_above_64_bits():
    for bound in (1 << 79, 3 << 70, (1 << 64) + 1):
        draws = [uniform_int(5, 1, i, bound) for i in range(64)]
        assert all(0 <= x < bound for x in draws)
        assert draws == [uniform_int(5, 1, i, bound) for i in range(64)]
        assert len(set(draws)) == 64
    assert max(uniform_int(5, 1, i, 1 << 79) for i in range(64)) >= 1 << 64


# Bounds that reject about a third of the 64-bit draws, so that some draws
# need a third attempt or more: 2^64 // 3 + 1 is batched, while
# 2^64 // 3 * 2 + 1 lies above 2^63 and is drawn one index at a time.
_HEAVY_BOUND = (1 << 64) // 3 + 1
_HEAVY_WIDE_BOUND = (1 << 64) // 3 * 2 + 1
_SEEDS = st.one_of(
    st.integers(-(1 << 70), -1), st.integers(0, (1 << 64) - 1), st.integers(1 << 64, 1 << 70)
)


@st.composite
def draw_ranges(draw):
    """(start, stop) of a draw range: empty, one index, around BATCH_MIN or a
    lane chunk, or spanning chunks; placed at 0, across 2^32 (the index's
    high word changes inside a chunk), anywhere, at the top of [0, 2^64),
    past it, or below 0."""
    length = draw(st.one_of(
        st.sampled_from((0, 1, BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1, LANES - 1, LANES, LANES + 1)),
        st.integers(BATCH_MIN, 2 * LANES + 3),
    ))
    start = draw(st.one_of(
        st.just(0),
        st.integers((1 << 32) - max(1, length - 1), (1 << 32) - 1),
        st.integers(0, (1 << 64) - length),
        st.just((1 << 64) - length),
        st.integers((1 << 64) - length + 1, 1 << 65),
        st.integers(-(1 << 40), -1),
    ))
    return start, start + length


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    _SEEDS,
    st.integers(-(1 << 66), 1 << 66),
    draw_ranges(),
    st.one_of(
        st.sampled_from((1, 2, 3, (1 << 63) - 1, 1 << 63, _HEAVY_BOUND, _HEAVY_WIDE_BOUND,
                         (1 << 63) + 1, (1 << 64) + 1)),
        st.integers(1, 1 << 64),
    ),
)
# Batched: across 2^32 and a chunk edge, at BATCH_MIN and LANES +- 1, with
# lanes rejected several times in a row.
@example(-5, 3, ((1 << 32) - 100, (1 << 32) + LANES + 1), _HEAVY_BOUND)
@example(1 << 64, -1, (7, 7 + 2 * LANES + 3), _HEAVY_BOUND)
@example(9, 0, (0, BATCH_MIN), _HEAVY_BOUND)
@example(0, 0, (0, BATCH_MIN + 1), 3)
@example(2, 1, (5, 5 + LANES - 1), 2)
@example(3, 2, ((1 << 64) - LANES, 1 << 64), (1 << 63) - 1)
@example(4, 3, (1 << 40, (1 << 40) + LANES), 1)
# One index at a time: below BATCH_MIN, bounds above 2^63 and 2^64, indices
# past 2^64 or below 0.
@example(0, 0, (0, 0), 3)
@example(0, 0, (1 << 32, (1 << 32) + 1), 3)
@example(6, 0, (0, BATCH_MIN - 1), 3)
@example(7, 0, (0, BATCH_MIN), (1 << 63) + 1)
@example(7, 1, ((1 << 32) - 9, (1 << 32) + LANES), _HEAVY_WIDE_BOUND)
@example(8, 0, (0, BATCH_MIN), 3 << 70)
@example(9, 0, ((1 << 64) - BATCH_MIN + 1, (1 << 64) + 1), 3)
@example(10, 0, (-1, BATCH_MIN - 1), 3)
def test_uniform_ints_matches_uniform_int(seed, stream, span, bound):
    start, stop = span
    draws = uniform_ints(seed, stream, start, stop, bound)
    assert draws.dtype == (np.int64 if bound <= 1 << 63 else object)
    assert draws.tolist() == [uniform_int(seed, stream, i, bound) for i in range(start, stop)]


def test_uniform_ints_rejects_a_bound_below_one():
    for bound in (0, -1, -(1 << 64)):
        with pytest.raises(ValueError, match="bound must be positive"):
            uniform_int(1, 0, 0, bound)
        with pytest.raises(ValueError, match="bound must be positive"):
            uniform_ints(1, 0, 0, LANES, bound)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    _SEEDS,
    st.integers(-(1 << 66), 1 << 66),
    st.lists(st.one_of(st.integers(0, (1 << 64) - 1), st.sampled_from((0, (1 << 32) - 1, 1 << 32,
                                                                        (1 << 64) - 1))),
             min_size=1, max_size=40),
    st.one_of(st.integers(0, 3), st.integers(0, 1 << 70)),
)
def test_digest_lanes_match_hashlib(seed, stream, indices, attempt):
    index = np.array(indices, dtype=np.uint64)
    digests = _digest64_lanes(seed, stream, index, attempt)
    assert digests.dtype == np.uint64
    assert digests.tolist() == [_digest64(seed, stream, i, attempt) for i in indices]


# -- companion chain ------------------------------------------------------------


def test_matrix_shape_H2():
    m = build_markov_matrix(2)
    assert m.rows == (
        (0, Fraction(1, 2), Fraction(1, 2)),
        (1, 0, 0),
        (0, 1, 0),
    )


def test_matrix_rows_sum_and_mixing():
    for H in range(2, 11):
        m = build_markov_matrix(H)
        assert all(sum(row) == 1 for row in m.rows)
        assert is_irreducible_aperiodic(m.as_array())


def test_stationary_examples():
    exact = stationary_distribution_exact(build_markov_matrix(3))
    assert exact == (Fraction(2, 7), Fraction(2, 7), Fraction(2, 7), Fraction(1, 7))
    exact = stationary_distribution_exact(build_markov_matrix(2))
    assert exact == (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    for H in range(2, 65):
        c = Fraction(1, 2 * H + 1)
        assert stationary_distribution_exact(build_markov_matrix(H)) == (2 * c,) * H + (c,)


def _model(rows) -> MarkovModel:
    return MarkovModel(
        period=len(rows) - 1, rows=tuple(tuple(Fraction(x) for x in row) for row in rows)
    )


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, "1/2", "1/3"], [1, 0, 0], [0, 1, 0]], "row 1 does not sum to 1"),
        ([[0, "1/2", "1/2"], [2, -1, 0], [0, 1, 0]], "row 2 has a negative entry"),
        ([[0, 1], [1, 0], [1, 0]], "shape disagrees with the period"),
    ],
)
def test_markov_model_rejects_at_construction(rows, message):
    with pytest.raises(MarkovError, match=message):
        _model(rows)


def test_stationary_exact_general_chain():
    # Irreducible, aperiodic (cycles of length 2 and 3), not reversible and
    # not a companion matrix; pi = pi P solved by hand.
    model = _model([[0, "1/2", "1/2"], ["1/3", 0, "2/3"], [1, 0, 0]])
    exact = stationary_distribution_exact(model)
    assert exact == (Fraction(3, 7), Fraction(3, 14), Fraction(5, 14))
    assert np.max(np.abs(stationary_distribution(model) - [float(x) for x in exact])) < 1e-12


def test_stationary_exact_rejects_two_closed_classes():
    # States 1 and 3 are absorbing, so every mix of them is stationary.
    model = _model([[1, 0, 0], ["1/2", 0, "1/2"], [0, 0, 1]])
    with pytest.raises(MarkovError, match="closed set"):
        stationary_distribution_exact(model)


def test_stationary_power_vs_solve_agreement():
    for H in range(2, 41):
        model = build_markov_matrix(H)
        pi = stationary_distribution(model)
        exact = stationary_distribution_exact(model)
        assert np.max(np.abs(pi - np.array([float(x) for x in exact]))) < 1e-10
        residual = np.max(np.abs(pi @ model.as_array() - pi))
        assert residual < 1e-12
        assert np.all(pi > 0)


# -- conditional limits -----------------------------------------------------------


def test_pattern_word():
    assert pattern_word(2, ()) == (1, 2)
    assert pattern_word(2, (0,)) == (1, 2, 1, 2)
    assert pattern_word(2, (1,)) == (1, 2, 0, 1, 2)
    assert pattern_word(3, (1, 0)) == (1, 2, 3, 0, 1, 2, 3, 1, 2, 3)


def test_chain_limit_matches_renewal_closed_form():
    cases = [
        (2, (0,)),  # H=4, b=0
        (2, (1,)),  # H=5, b=1
        (2, (1, 0, 1)),  # g=4
        (3, (0, 1)),
        (4, (1,)),
    ]
    for h, pattern in cases:
        for l0 in range(0, h + 1):
            for l1 in range(0, h + 1):
                try:
                    got = conditional_limit_chain(h, pattern, l0, l1)
                except MarkovError:
                    continue  # l0 unobservable near the stream start
                assert got == symbol_density_limit(h, pattern, l1), (h, pattern, l0, l1)


def test_chain_limit_b0_special_case():
    # h=2, g=2, H=4: spacer-symbol limit is 1/(2H+1) = 1/9; the often-quoted
    # closed form 1/(2H-1) = 1/7 does not normalize against the in-alphabet
    # limits (2/9 + 4/9 + 4/9 = 1 requires 1/9).
    assert conditional_limit_chain(2, (0,), 1, 0) == Fraction(1, 9)
    assert conditional_limit_chain(2, (0,), 1, 1) == Fraction(4, 9)
    assert sum(conditional_limit_chain(2, (0,), 1, l1) for l1 in range(3)) == 1


def test_chain_limits_shared_and_below_threshold():
    for h, pattern in [(2, (0,)), (2, (1,)), (3, (1, 1)), (4, (0, 1))]:
        report = {l1: conditional_limit_chain(h, pattern, 1, l1) for l1 in range(h + 1)}
        in_alphabet = {report[l1] for l1 in range(1, h + 1)}
        assert len(in_alphabet) == 1  # shift identity: one shared limit
        assert all(v < Fraction(1, h) for v in in_alphabet)
        assert sum(report.values()) == 1


def test_chain_limit_position_independent():
    for h, pattern in [(2, (0,)), (3, (1, 0))]:
        word = pattern_word(h, pattern)
        H = len(word)
        expected = {l1: symbol_density_limit(h, pattern, l1) for l1 in range(h + 1)}
        for position in range(H + 1, 3 * H):
            for l0 in (1, h):
                for l1 in range(h + 1):
                    try:
                        got = conditional_limit_chain(h, pattern, l0, l1, position)
                    except MarkovError:
                        continue
                    assert got == expected[l1], (h, pattern, position, l0, l1)


def test_evaluate_candidate_counts_match_materialized_slicing():
    from stacklab.tower import Stage

    from .oracles import oracle_word_counts

    base = StackingData(2, (), spacer_cap=2)
    offsets = (1, 3, 6)
    for spacers in ((0, 0, 1, 0, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0)):
        record = evaluate_candidate(base, spacers, 6, offsets, 1)
        candidate = base.extended(Stage(q=6, spacers=spacers))
        counts = oracle_word_counts(candidate, 1, 2, offsets)
        assert record.valid_count == sum(counts.values())
        assert record.worst_count == max(counts.values())


def test_mc_matches_chain_limit():
    limits = conditional_limits_mc(2, (0,), l0=1, separation=400, samples=120_000, seed=21)
    for l1 in (0, 1, 2):
        target = float(symbol_density_limit(2, (0,), l1))
        z = abs(limits[l1].estimate - target) / limits[l1].std_error
        assert z < 4.0, (l1, limits[l1].estimate, target)


def test_mc_h2_H5_in_alphabet_below_half():
    limits = conditional_limits_mc(2, (1,), l0=2, separation=400, samples=120_000, seed=9)
    for l1 in (1, 2):
        assert limits[l1].estimate + 3 * limits[l1].std_error < 0.5


def test_mc_worker_invariance():
    # Four blocks, the last one partial, each of several chunks: every
    # estimate must print the same at any worker count.
    samples = 3 * _MC_BLOCK + 1000
    kwargs = dict(h=2, pattern=(0,), l0=1, separation=100, samples=samples, seed=4)
    runs = [sorted(conditional_limits_mc(**kwargs, workers=w).items()) for w in (1, 2, 3)]
    reprs = [[repr(est) for _, est in run] for run in runs]
    assert len(reprs[0]) == 3
    assert reprs[1] == reprs[0] and reprs[2] == reprs[0]
    # The hits are the sum of the four blocks' (position 5 at H = 4).
    counts = [min(_MC_BLOCK, samples - lo) for lo in range(0, samples, _MC_BLOCK)]
    hits = sum(_mc_block(2, (0,), 1, 5, 100, 4, _span(b, n))[0] for b, n in enumerate(counts))
    assert runs[0][0][1].conditioning_hits == hits


# Every estimate of two seeded runs, as printed by the kernel that compared
# all segment ends with p; a changed draw, band or count shows here.
PINNED_MC = [
    (
        dict(h=2, pattern=(0,), l0=1, separation=100, samples=70_000, seed=4),
        [
            "McEstimate(estimate=0.11250071059064294, std_error=0.0016846177706969108, "
            "conditioning_hits=35182, samples=70000, position=5, separation=100, "
            "rng='philox4x64/numpy')",
            "McEstimate(estimate=0.4444886589733386, std_error=0.002649210971488985, "
            "conditioning_hits=35182, samples=70000, position=5, separation=100, "
            "rng='philox4x64/numpy')",
            "McEstimate(estimate=0.4430106304360184, std_error=0.002648318808600324, "
            "conditioning_hits=35182, samples=70000, position=5, separation=100, "
            "rng='philox4x64/numpy')",
        ],
    ),
    (
        dict(h=2, pattern=(1,), l0=2, separation=400, samples=120_000, seed=9),
        [
            "McEstimate(estimate=0.2724869044649538, std_error=0.0018156392705937691, "
            "conditioning_hits=60135, samples=120000, position=7, separation=400, "
            "rng='philox4x64/numpy')",
            "McEstimate(estimate=0.3632493556165295, std_error=0.001961207137822055, "
            "conditioning_hits=60135, samples=120000, position=7, separation=400, "
            "rng='philox4x64/numpy')",
            "McEstimate(estimate=0.3642637399185167, std_error=0.00196237862540471, "
            "conditioning_hits=60135, samples=120000, position=7, separation=400, "
            "rng='philox4x64/numpy')",
        ],
    ),
]


@pytest.mark.parametrize("kwargs, reprs", PINNED_MC)
def test_mc_output_is_pinned(kwargs, reprs):
    limits = conditional_limits_mc(**kwargs)
    assert [repr(limits[l1]) for l1 in sorted(limits)] == reprs


def test_int32_draw_equals_int64_draw():
    # The oracle draws its bits as int64, the block reads numpy's int32
    # draw (`philox_bits`); numpy takes the same 32-bit path for both here,
    # so the oracle's int64 draw is the stream the block counts.
    for seed in (0, 29):
        wide = bulk_generator(seed, 1).integers(0, 2, size=(_MC_BLOCK, 153), dtype=np.int64)
        narrow = bulk_generator(seed, 1).integers(0, 2, size=(_MC_BLOCK, 153), dtype=np.int32)
        assert np.array_equal(wide, narrow)


@pytest.mark.parametrize("seed", [0, 29])
def test_philox_bits_chunks_equal_the_int32_draw(seed):
    # The block's bit contract, which rests on numpy internals: chunks of
    # an even number of rows, then an odd remainder, read exactly what one
    # int32 draw of the whole block reads.
    m = 153
    rows = _chunk_rows(m)
    count = 2 * rows + 5
    gen = bulk_generator(seed, 3)
    chunks = [philox_bits(gen, min(rows, count - lo) * m) for lo in range(0, count, rows)]
    assert len(chunks) == 3 and all(c.dtype == np.uint8 for c in chunks)
    want = bulk_generator(seed, 3).integers(0, 2, size=(count, m), dtype=np.int32)
    assert np.array_equal(np.concatenate(chunks).reshape(count, m), want)


def _span(block: int, count: int) -> tuple[int, int]:
    """The span of `count` rows that starts block `block` of a run."""
    return block * _MC_BLOCK, block * _MC_BLOCK + count


@st.composite
def mc_blocks(draw):
    # Every l0 in 0..h occurs near the start of these streams, so
    # _default_position rejects none of them.
    h = draw(st.integers(2, 5))
    pattern = tuple(draw(st.lists(st.integers(0, 1), max_size=3)))
    l0 = draw(st.integers(0, h))
    word = pattern_word(h, pattern)
    position = _default_position(word, l0)
    # Up to 3H + 2 past the position, far crosses several band edges
    # lo = (p-1) // (H+1) and hi = (p-1) // H.
    separation = draw(st.integers(0, 3 * len(word) + 2))
    seed = draw(st.integers(0, 2**64 - 1))
    block = draw(st.integers(0, 1 << 20))
    # Small blocks, and blocks of up to three chunks of rows.
    rows = _chunk_rows(_window_bits_needed(len(word), position + separation))
    count = draw(st.integers(1, 300) | st.integers(1, 2 * rows + 2))
    return (h, pattern, l0, position, separation, seed, _span(block, count))


# h = 2, pattern (0,): H = 4, position 5; separation 8 takes 5 bits a row,
# an odd number, so a block's last chunk may end inside a raw word.
_ODD_ROWS = _chunk_rows(5)


@given(mc_blocks())
@example((2, (0,), 1, 5, 8, 11, _span(7, _ODD_ROWS - 1)))
@example((2, (0,), 1, 5, 8, 12, _span(8, _ODD_ROWS + 1)))
@example((2, (0,), 0, 5, 8, 13, _span(9, 2 * _ODD_ROWS + 1)))
def test_mc_block_matches_full_array_oracle(args):
    assert _mc_block(*args) == mc_block_oracle(*args)


@pytest.mark.parametrize("seed", [0, 29])
def test_mc_block_matches_oracle_at_full_block(seed):
    # The search-chain block: H = 4, far = 605, 153 columns.
    args = (2, (0,), 1, 5, 600, seed, _span(3, _MC_BLOCK))
    assert _mc_block(*args) == mc_block_oracle(*args)


def test_mc_block_rows_match_symbol_at():
    # One-row blocks: the block's counts give that row's symbol at the
    # position (which l0 hits) and at far (where the joint count lands).
    h, pattern = 3, (1, 0)
    word = pattern_word(h, pattern)
    position, separation = 9, 23
    m = _window_bits_needed(len(word), position + separation)
    for block in range(12):
        bits = tuple(bulk_generator(7, block).integers(0, 2, size=m, dtype=np.int64).tolist())
        near = _symbol_at(word, bits, position)
        far = _symbol_at(word, bits, position + separation)
        for l0 in range(h + 1):
            hits, joint = _mc_block(h, pattern, l0, position, separation, 7, _span(block, 1))
            assert hits == (l0 == near)
            assert joint == tuple(int(hits and l1 == far) for l1 in range(h + 1))


@pytest.mark.parametrize(
    "separation, samples",
    [(-5, 1000), (-100, 1000), (True, 1000), (2.0, 1000), ("3", 1000),
     (10, 0), (10, -1), (10, True), (10, 1000.0)],
)
def test_mc_rejects_bad_arguments(separation, samples):
    with pytest.raises(MarkovError, match="separation|samples"):
        conditional_limits_mc(2, (0,), 1, separation=separation, samples=samples, seed=0)


@pytest.mark.parametrize(
    "l0, seed",
    [(True, 0), (1.0, 0), ("1", 0), (-1, 0), (3, 0), (1, True), (1, 1.0), (1, "0"), (1, None)],
)
def test_mc_rejects_bad_l0_and_seed(l0, seed):
    # The same checks as test_mc_rejects_bad_arguments, for the conditioning
    # symbol (0..h, h = 2 here) and the seed.
    with pytest.raises(MarkovError, match="l0|seed"):
        conditional_limits_mc(2, (0,), l0, separation=10, samples=1000, seed=seed)


@pytest.mark.parametrize(
    "h, separation, samples",
    [(2, 10**9, 1000), (32, 2**30, 1)],  # a draw past 2^28 bytes; a position past 2^30
)
def test_mc_draw_guard_trips_before_drawing(monkeypatch, h, separation, samples):
    def no_draw(seed, stream):
        raise AssertionError("drew before the guard")

    monkeypatch.setattr(markov, "bulk_generator", no_draw)
    with pytest.raises(ResourceGuard, match="separation"):
        conditional_limits_mc(h, (), 1, separation=separation, samples=samples, seed=0)


# -- dependent-variable tail bound -------------------------------------------------


def test_hoeffding_examples():
    assert hoeffding_bound(100, 10, 0.5) == pytest.approx(math.exp(-5), abs=1e-12)
    assert hoeffding_bound(100, 10, 1e-9) == pytest.approx(1.0)
    assert hoeffding_bound(50, 1, 0.1) == pytest.approx(math.exp(-1), abs=1e-12)
    # floor(n/m) past the float range: exp underflows to 0.
    assert hoeffding_bound(10**400, 1, 0.5) == 0.0
    assert hoeffding_bound(10**400, 10**90, 1e-9) == 0.0
    assert hoeffding_bound(10**400, 10**399, 0.5) == math.exp(-5)


# -- genericness search -------------------------------------------------------------


def tiny_base() -> StackingData:
    return StackingData(2, (), spacer_cap=2)


def test_generic_vacuous_cap_accepts_first():
    # N0 = N makes the cap 2|K| >= any count.
    A = SamplingSequence.explicit([1, 3, 6])
    rep = genericness_search(tiny_base(), A, N=3, N0=3, q=6, alphabet=2, trial_cap=10, seed=0)
    assert rep.accepted_trial == 0
    assert rep.trials_used == 1


def test_generic_search_matches_exhaustive_oracle():
    A = SamplingSequence.explicit([1, 3, 6])
    acceptors = exhaustive_generic_acceptors(tiny_base(), A.prefix(3), N0=1, q=6, alphabet=2)
    for seed in range(5):
        rep = genericness_search(
            tiny_base(), A, N=3, N0=1, q=6, alphabet=2, trial_cap=400, seed=seed
        )
        if acceptors:
            assert rep.accepted is not None
            assert rep.accepted in acceptors
            recount = evaluate_candidate(tiny_base(), rep.accepted, 6, A.prefix(3), 1)
            assert recount.accepted
        else:
            assert rep.accepted is None


def test_generic_search_reproducible():
    A = SamplingSequence.explicit([1, 3, 6])
    r1 = genericness_search(tiny_base(), A, N=3, N0=1, q=6, alphabet=2, trial_cap=50, seed=3)
    r2 = genericness_search(tiny_base(), A, N=3, N0=1, q=6, alphabet=2, trial_cap=50, seed=3)
    assert r1.accepted == r2.accepted
    assert r1.accepted_trial == r2.accepted_trial
    assert [r.worst_ratio for r in r1.records] == [r.worst_ratio for r in r2.records]


def test_generic_search_orbit_must_fit():
    A = SamplingSequence.explicit([1, 3, 30])
    with pytest.raises(Exception, match="fit"):
        genericness_search(tiny_base(), A, N=3, N0=1, q=6, alphabet=2, trial_cap=5, seed=0)


def test_generic_failure_rate_below_analytic_bound():
    # The proof-scale instance: q = m(h^(3N)+1) with m = floor(t_N/h)+2,
    # where the analytic failure bound applies.
    A = SamplingSequence.explicit([1, 3, 6])
    h = 2
    N = 3
    m = A.generate(N) // h + 2
    q = m * (h ** (3 * N) + 1)
    trials = 200
    rep = genericness_search(
        tiny_base(), A, N=N, N0=1, q=q, alphabet=2, trial_cap=trials, seed=12,
        evaluate_all=True,
    )
    bound = rep.analytic_bound
    assert bound == pytest.approx(analytic_failure_bound((2,), 3) * 1.0)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert rep.empirical_failure_rate <= bound + 3 * sigma


# -- recipes and flexibility constants ------------------------------------------------


def test_recipe_poly_example():
    b = recipe_params("poly", h=4, beta=1, alpha=Fraction(2), gamma=Fraction(3, 2))
    assert b.floor_length == 5
    assert b.cuts == 32
    assert b.word_length == 8  # ceil(7.5), rounding recorded in notes
    assert any("ceil" in note for note in b.notes)


def test_recipe_poly_range_check():
    with pytest.raises(RecipeError, match="alpha >= 1 \\+ 1/beta"):
        recipe_params("poly", h=4, beta=1, alpha=Fraction(3, 2))


def test_recipe_nlog_floor():
    b = recipe_params("nlog", h=2, beta=1, alpha=Fraction(2))
    assert b.floor_length == math.floor(math.exp(3.0)) + 1
    assert b.cuts == 2**b.floor_length
    with pytest.raises(RecipeError, match="1/beta"):
        recipe_params("nlog", h=2, beta=2, alpha=Fraction(1, 4))


def test_recipe_flex_examples():
    b = recipe_params("flex", h=10, beta=1, kappa=2, L=3)
    assert b.cuts == 1025
    assert b.word_length == 3  # floor(8/2) - 1
    b = recipe_params("flex", h=2, beta=1, kappa=2, L=3)
    assert b.cuts == 5
    with pytest.raises(RecipeError, match="alpha = 1 \\+ 1/beta"):
        recipe_params("flex", h=10, beta=1, kappa=2, L=3, alpha=Fraction(3))
    with pytest.raises(RecipeError, match="kappa > 1"):
        recipe_params("flex", h=10, beta=1, kappa=0, L=3)  # kappa^(-h^beta) in delta
    for h in (0, -1):
        with pytest.raises(RecipeError, match="h must be a positive integer"):
            recipe_params("poly", h=h, beta=1, alpha=2)


def test_recipe_flex_with_sequence_diagnostics():
    A = SamplingSequence.power(2, horizon=64)
    b = recipe_params("flex", h=12, beta=1, kappa=2, L=3, A=A)
    assert b.horizon_term == A.generate(b.word_length)
    assert b.dependence_range == b.horizon_term // 12 + 2
    assert b.p_fail_range_floor is not None


def test_recipe_p_fail_past_the_float_range():
    # q = 2^2001 and N = 3002: q // t_N and q // m are past the float range,
    # and 2 (q // m) delta^2 is about 2^2000 * 2^-1400, so p_fail is 0.0.
    A = SamplingSequence.power(Fraction(3, 2), horizon=4000)
    b = recipe_params("poly", h=2000, beta=1, alpha=2, A=A)
    assert (b.cuts, b.word_length) == (2**2001, 3002)
    assert b.p_fail_horizon_floor == b.p_fail_range_floor == 0.0
    # Below the float range the float formula is kept as it was.
    b = recipe_params("flex", h=12, beta=1, kappa=2, L=3, A=A)
    exponent = b.word_length * math.log(15) - 2.0 * (b.cuts // b.dependence_range) * b.deviation**2
    assert repr(b.p_fail_range_floor) == repr(math.exp(exponent))


@pytest.mark.parametrize("name, kwargs, top", [
    ("poly", {"alpha": 2}, "1/3"), ("nlog", {"alpha": 2}, "1/3"),
    ("poly", {"alpha": 2, "gamma": 2}, "1/4"), ("flex", {"kappa": 2, "L": 3}, "1/2")])
def test_recipe_eps_range(name, kwargs, top):
    # At the top of the range the deviation delta would reach 1.
    top_f = Fraction(top)
    for eps in (0, -1, top_f, top_f + 1, Fraction(10**400)):
        with pytest.raises(RecipeError, match=f"eps must lie in \\(0, {top}\\)"):
            recipe_params(name, h=4, beta=1, eps=eps, **kwargs)
    assert recipe_params(name, h=4, beta=1, eps=top_f / 2, **kwargs).deviation < 1


def test_flexibility_constants_examples():
    fb = flexibility_bounds(2, 1, 2**0.5)
    assert fb.lower == pytest.approx(0.5 * math.log(2), abs=1e-12)
    assert fb.upper == pytest.approx(math.sqrt(2) * math.log(2), abs=1e-12)


def test_flexibility_lower_leq_upper_grid():
    for L in (2, 3, 4, 8):
        for beta in (0.5, 1.0, 2.0, 3.0):
            for kappa in (1.01, 1.5, 2.0, 10.0):
                fb = flexibility_bounds(L, beta, kappa)
                assert fb.lower <= fb.upper + 1e-12

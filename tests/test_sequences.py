from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from stacklab.intarith import POW_WORK_BOUND, InvalidInput, ResourceGuard, floor_pow, iroot
from stacklab.sequences import (
    SamplingSequence,
    SequenceError,
    dilation_diagnostic,
    krug_K_estimate,
    lower_density_estimate,
    max_gap,
)

from .oracles import EagerSequence


def test_iroot_exact():
    for x in list(range(200)) + [10**12, 10**18 + 7, 2**130 + 5]:
        for k in (1, 2, 3, 5, 7):
            r = iroot(x, k)
            assert r**k <= x < (r + 1) ** k
    # A root order at or above the radicand's bit length once hung in Newton's
    # first step, which builds guess^(k-1).
    assert iroot(3, 10**40) == 1


def test_floor_pow_and_rational_pow():
    assert floor_pow(8, Fraction(4, 3)) == 16
    assert floor_pow(10, Fraction(3, 2)) == 31
    assert floor_pow(Fraction(8, 2), Fraction(1)) == 4
    assert floor_pow(Fraction(7, 2), Fraction(2)) == 12  # (3.5)^2 = 12.25
    assert floor_pow(Fraction(7, 2), Fraction(1, 10**40)) == 1
    assert floor_pow(Fraction(1, 2), Fraction(1, 10**40)) == 0


def test_power_work_guard():
    # floor(n^(p/q)) builds n^p: up to POW_WORK_BOUND bits it does, past
    # that it refuses before building anything.
    half = POW_WORK_BOUND // 2  # 2 is a 2-bit base
    assert floor_pow(2, Fraction(half)) == 2**half
    with pytest.raises(ResourceGuard, match="exponent 8193"):
        floor_pow(2, Fraction(half + 1))
    with pytest.raises(ResourceGuard, match="exponent 314159/100000"):
        floor_pow(8, Fraction(314159, 100000))
    with pytest.raises(ResourceGuard, match="exponent 3333333/10000000"):
        floor_pow(Fraction(8, 5), Fraction(3333333, 10**7))


def test_generate_examples():
    sq = SamplingSequence.power(2, horizon=10)
    assert sq.prefix(4) == (1, 4, 9, 16)
    nl = SamplingSequence.nlog(1.0, 1.0, horizon=10)
    assert nl.generate(3) == 3
    lin = SamplingSequence.linear(2, 0, horizon=10)
    assert lin.generate(5) == 10


def test_power_sequence_bit_exact():
    seq = SamplingSequence.power(Fraction(3, 2), horizon=4000)
    for i in (1, 7, 100, 999, 4000):
        t = seq.generate(i)
        assert t**2 <= i**3 < (t + 1) ** 2


def test_out_of_range_index():
    seq = SamplingSequence.power(2, horizon=5)
    with pytest.raises(SequenceError):
        seq.generate(6)
    with pytest.raises(SequenceError):
        seq.generate(0)


def test_non_monotone_rejected():
    with pytest.raises(SequenceError, match="strictly increasing"):
        SamplingSequence.power(Fraction(1, 2), horizon=10)
    with pytest.raises(SequenceError, match="strictly increasing"):
        SamplingSequence.explicit([1, 3, 3])


def test_nlog_small_index_bump():
    # floor(n (log n)^2): t_1 = 0, t_2 = 0 collide, so n0 moves to 2.
    seq = SamplingSequence.nlog(1.0, 2.0, horizon=50)
    assert seq.n0 == 2
    assert seq.requested_n0 == 1
    with pytest.raises(SequenceError):
        seq.generate(1)


def test_max_gap_examples():
    assert max_gap(SamplingSequence.explicit([1, 4, 9, 16]), 4) == 7
    assert max_gap(SamplingSequence.linear(2, 0, horizon=50), 17) == 2
    assert max_gap(SamplingSequence.explicit([0, 1, 10]), 3) == 9


def test_dilation_diagnostic_examples():
    rep = dilation_diagnostic(SamplingSequence.power(2, horizon=100))
    assert rep.dilating
    rep = dilation_diagnostic(SamplingSequence.linear(2, 0, horizon=100))
    assert not rep.dilating
    rep = dilation_diagnostic(SamplingSequence.explicit([1, 2, 4, 8, 9]))
    assert not rep.dilating
    assert rep.gaps == (1, 2, 4, 1)


def test_power_tail_gaps_eventually_large():
    # alpha = 3/2: gaps pass any fixed bound within a long horizon.
    seq = SamplingSequence.power(Fraction(3, 2), horizon=100_000)
    bound = 100
    gap_hit = any(
        seq.generate(i + 1) - seq.generate(i) > bound
        for i in range(90_000, 100_000)
    )
    assert gap_hit
    rep = dilation_diagnostic(seq, 100_000)
    assert rep.gaps[-1] > bound


def test_krug_examples():
    assert krug_K_estimate(SamplingSequence.linear(2, 0, horizon=20), 1, 10) == Fraction(21, 10)
    assert krug_K_estimate(SamplingSequence.linear(1, 0, horizon=20), 2, 10) == Fraction(14, 10)
    assert krug_K_estimate(SamplingSequence.power(2, horizon=10), 0, 5) == 1


def test_krug_linear_closed_form():
    # Union of n windows of width 2r+1 spaced a apart:
    # n(2r+1) - (n-1)*max(0, 2r+1-a), derived independently.
    for a in range(1, 6):
        for r in range(0, 6):
            for n in (1, 2, 10, 100):
                seq = SamplingSequence.linear(a, 3, horizon=n + 1)
                expected = n * (2 * r + 1) - (n - 1) * max(0, 2 * r + 1 - a)
                assert krug_K_estimate(seq, r, n) == Fraction(expected, n)


@given(
    kind=st.sampled_from(["power", "linear", "nlog", "explicit"]),
    p=st.integers(1, 6),
    q=st.integers(1, 4),
    gaps=st.lists(st.integers(1, 30), min_size=1, max_size=40),
    r=st.integers(0, 40),
    pick=st.integers(0, 10**6),
)
def test_krug_matches_the_set_of_window_points(kind, p, q, gaps, r, pick):
    if kind == "power":
        seq = SamplingSequence.power(1 + Fraction(p, q), horizon=40)
    elif kind == "linear":
        seq = SamplingSequence.linear(p, q, horizon=40)
    elif kind == "nlog":
        seq = SamplingSequence.nlog(p / q, q / 2, horizon=40)
    else:
        seq = SamplingSequence.explicit(list(accumulate(gaps)))
    n = seq.n0 + pick % (seq.horizon - seq.n0 + 1)
    points: set[int] = set()
    for i in range(seq.n0, n + 1):
        t = seq.generate(i)
        points.update(range(t - r, t + r + 1))
    assert krug_K_estimate(seq, r, n) == Fraction(len(points), n - seq.n0 + 1)


def _built(cls, kind, n0, horizon, p, q, b, values):
    """The sequence of `kind` that `cls` builds, or its error's type and text."""
    try:
        if kind == "power":
            return cls.power(Fraction(p, q), horizon=horizon, n0=n0)
        if kind == "linear":
            return cls.linear(p, b - p * n0, horizon=horizon, n0=n0)
        if kind == "nlog":
            return cls.nlog(p / (16 * q), q / 2, horizon=horizon, n0=max(n0, 1))
        return cls.explicit(values, n0=n0)
    except (InvalidInput, ResourceGuard) as e:
        return type(e), str(e)


@given(
    kind=st.sampled_from(["power", "linear", "nlog", "explicit"]),
    n0=st.integers(0, 6),
    span=st.integers(0, 3) | st.integers(0, 2000),
    p=st.integers(1, 12),
    q=st.integers(1, 12),
    b=st.integers(-30, 30),
    values=st.lists(st.integers(-5, 60), min_size=1, max_size=12),
    picks=st.lists(st.integers(0, 10**6), max_size=8),
)
def test_on_demand_terms_match_the_eager_construction(kind, n0, span, p, q, b, values, picks):
    # power draws alpha = p/q on both sides of 1, where alpha < 1 with n0 >= 2
    # increases strictly over short ranges; linear draws the offset b - p * n0,
    # mostly negative, with t_n0 = b on both sides of 0; nlog draws C down to
    # 1/192.
    args = (kind, n0, n0 + span, p, q, b, values)
    eager, lazy = _built(EagerSequence, *args), _built(SamplingSequence, *args)
    if isinstance(eager, tuple):
        assert lazy == eager
        return
    assert (lazy.n0, lazy.requested_n0, lazy.describe()) == (
        eager.n0, eager.requested_n0, eager.describe())
    length = lazy.horizon - lazy.n0 + 1
    assert lazy.prefix(length) == eager.prefix(length)
    assert lazy.prefix(length // 2) == eager.prefix(length // 2)
    for i in [lazy.n0, lazy.horizon] + [lazy.n0 + pick % length for pick in picks]:
        assert lazy.generate(i) == eager.generate(i)
    for bad in (lambda s: s.generate(s.n0 - 1), lambda s: s.generate(s.horizon + 1),
                lambda s: s.prefix(length + 1)):
        with pytest.raises(SequenceError) as lazy_error:
            bad(lazy)
        with pytest.raises(SequenceError) as eager_error:
            bad(eager)
        assert str(lazy_error.value) == str(eager_error.value)


def test_lower_density_examples():
    assert lower_density_estimate(range(2, 11, 2), 10) == Fraction(1, 2)
    assert lower_density_estimate(range(1, 11), 10) == 1
    assert lower_density_estimate({1}, 10) == Fraction(1, 10)


def test_strict_increase_check_stops_at_the_first_repeat(monkeypatch):
    # floor(sqrt(2)) = floor(sqrt(1)): the check once listed all 2^20 terms first.
    calls = []
    raw_term = SamplingSequence._raw_term
    monkeypatch.setattr(SamplingSequence, "_raw_term",
                        lambda seq, i: calls.append(i) or raw_term(seq, i))
    with pytest.raises(SequenceError, match="^sequence not strictly increasing at index 2$"):
        SamplingSequence.power(Fraction(1, 2), horizon=1 << 20)
    assert len(calls) <= 3

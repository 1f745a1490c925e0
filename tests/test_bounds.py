from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from stacklab.bounds import (
    BoundsError,
    balancing_profile,
    bounded_spacer_word_bound,
    brute_force_words,
    constant_cuts,
    loglog_cuts,
    phi_exp_power,
    phi_log,
    phi_power,
    power_cuts,
    select_tau,
    tradeoff_upper_value,
    trend_toward_zero,
    word_count_bound,
)
from stacklab.sequences import SamplingSequence, max_gap
from stacklab.tower import ResourceGuard, Stage, StackingData, valid_levels

from .conftest import random_stacking


def test_word_count_bound_examples():
    assert word_count_bound(3, 1, 2, 2) == 36
    assert word_count_bound(3, 0, 2, 5) == 3
    assert word_count_bound(5, 2, 7, 3) == 2688


def test_brute_force_words_tiny(tiny_tower):
    words = brute_force_words(tiny_tower, 1, 2, (1, 2), 2)
    assert words == {(2, 0), (0, 1)}
    assert brute_force_words(tiny_tower, 1, 2, (1, 2), 0) == {()}
    assert len(words) <= word_count_bound(2, 2, 2, 1)


def test_brute_force_level_cap_guards_only_enumeration():
    # Heights 3, 7, 22 and t_N = 4: reference 1 lifts from h_2 = 7 > 4, while
    # reference 3 = n must decode every level of K.
    sd = StackingData(3, (Stage(q=2, spacers=(1,)), Stage(q=3, spacers=(0, 1))), spacer_cap=2)
    size = valid_levels(sd, 3, 4).count
    assert brute_force_words(sd, 1, 3, (1, 2, 4), 3, level_cap=1)
    assert brute_force_words(sd, 3, 3, (1, 2, 4), 3, level_cap=size)
    with pytest.raises(ResourceGuard):
        brute_force_words(sd, 3, 3, (1, 2, 4), 3, level_cap=size - 1)


def test_select_tau_examples():
    heights = (2, 7, 31)
    A = SamplingSequence.power(2, horizon=10)
    assert select_tau(heights, A, constant_cuts(1), 3) == 3
    assert select_tau(heights, A, constant_cuts(100), 3) == 1
    lam_seq = SamplingSequence.explicit([30])
    assert select_tau(heights, lam_seq, None, 1, rule="lambda", lam=10) == 2
    with pytest.raises(BoundsError, match="no stage qualifies"):
        select_tau((2, 3), SamplingSequence.explicit([50]), constant_cuts(1), 1)


def test_select_tau_monotone_in_N():
    heights = tuple(2 ** (k + 1) for k in range(14))
    A = SamplingSequence.power(Fraction(3, 2), horizon=300)
    cuts = constant_cuts(1)
    taus = [select_tau(heights, A, cuts, N) for N in range(2, 300)]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_cut_schedules():
    assert power_cuts(2, 3)(8) == 16  # exponent (2 - 1/3 + 1)/2 = 4/3
    assert loglog_cuts()(100) == 42
    assert loglog_cuts()(1) == 1
    assert constant_cuts(3)(999) == 3
    with pytest.raises(BoundsError, match="beta > 0"):
        power_cuts(2, 0)  # 1/beta in the exponent


def test_word_count_vs_brute_force_randomized():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        sd = random_stacking(rng, max_stages=4, max_q=5, height_limit=4000)
        heights = sd.heights()
        M = sd.num_towers
        if M < 2:
            continue
        N = rng.randint(2, 5)
        kind = rng.choice(("power", "linear"))
        if kind == "power":
            A = SamplingSequence.power(Fraction(3, 2), horizon=N + 1)
        else:
            A = SamplingSequence.linear(rng.randint(1, 3), rng.randint(0, 2), horizon=N + 1)
        t_N = A.generate(N)
        if t_N >= heights[-1]:
            continue
        c = rng.randint(1, 4)
        try:
            tau = select_tau(heights, A, constant_cuts(c), N)
        except BoundsError:
            continue
        from stacklab.tower import valid_levels

        if valid_levels(sd, M, t_N).count == 0:
            continue
        words = brute_force_words(sd, tau, M, A, N)
        s_N = max_gap(A, N) if N >= 2 else 0
        bound = word_count_bound(N, c, heights[tau - 1], s_N)
        assert t_N < c * heights[tau - 1]  # the bound's hypothesis
        assert len(words) <= bound
        checked += 1


def test_bounded_spacer_word_form():
    rng = random.Random(88)
    for _ in range(40):
        sd = random_stacking(rng, max_stages=4, max_q=5, spacer_cap=3, height_limit=3000)
        heights = sd.heights()
        M = sd.num_towers
        if M < 2:
            continue
        N = rng.randint(2, 5)
        A = SamplingSequence.linear(rng.randint(1, 3), 0, horizon=N + 1)
        t_N = A.generate(N)
        if t_N >= heights[-1]:
            continue
        lam = Fraction(rng.randint(1, 4), 2)
        try:
            tau = select_tau(heights, A, None, N, rule="lambda", lam=lam)
        except BoundsError:
            continue
        from stacklab.tower import valid_levels

        if valid_levels(sd, M, t_N).count == 0:
            continue
        words = brute_force_words(sd, tau, M, A, N)
        bound = bounded_spacer_word_bound(heights[tau - 1], 3, float(lam), N)
        assert len(words) <= bound


def test_balancing_profile_case_i_trend():
    A = SamplingSequence.power(Fraction(3, 2), horizon=10_000)
    profile = balancing_profile(A, phi_log(), constant_cuts(1), 10_000)
    ns = [r.n for r in profile]
    by_n = {r.n: r for r in profile}
    # endpoint values sit below the values at 1% of the horizon
    for fieldname in ("diag_balance", "diag_phi", "diag_binom"):
        assert getattr(by_n[10_000], fieldname) < getattr(by_n[100], fieldname)
    # the strict decade-trend holds for the gauge and binomial diagnostics
    # (the balance diagnostic starts at log(1) = 0, so its first-decade
    # minimum is degenerate)
    for fieldname in ("diag_phi", "diag_binom"):
        assert trend_toward_zero(ns, [getattr(r, fieldname) for r in profile]), fieldname


def test_balancing_profile_case_iii_values():
    A = SamplingSequence.nlog(1.0, 1.0, horizon=200)
    profile = balancing_profile(A, phi_exp_power(Fraction(1, 2)), loglog_cuts(), 200)
    row = next(r for r in profile if r.n == 100)
    assert row.c_n == 42


def test_balancing_rejects_exponential():
    doubling = SamplingSequence.explicit([2**k for k in range(1, 18)])
    with pytest.raises(BoundsError, match="balancing condition cannot hold"):
        balancing_profile(doubling, phi_log(), constant_cuts(1), 17)


def test_balancing_diagnostics_nonnegative():
    A = SamplingSequence.power(2, horizon=500)
    profile = balancing_profile(A, phi_power(Fraction(1, 2)), power_cuts(2, 3), 500)
    for r in profile:
        assert r.c_n >= 1
        assert r.diag_balance >= 0 and r.diag_phi >= 0 and r.diag_binom >= 0


def test_tradeoff_examples():
    lam, value = tradeoff_upper_value(math.e, 1.0, math.e)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(2.0, abs=1e-12)
    lam, value = tradeoff_upper_value(2**0.5, 1.0, 2)
    assert value == pytest.approx(math.sqrt(2) * math.log(2), abs=1e-12)
    with pytest.raises(BoundsError):
        tradeoff_upper_value(1.0, 1.0, 2)


def test_tradeoff_closed_form_grid():
    for beta in (0.5, 1.0, 2.0):
        for kappa in (1.5, 2.0, math.e, 10.0):
            for L in (2, 4, 8):
                lam, value = tradeoff_upper_value(kappa, beta, L)
                closed = (1 + beta) * (
                    (1 / beta**beta) * math.log(kappa) * math.log(L) ** beta
                ) ** (1 / (1 + beta))
                assert value == pytest.approx(closed, rel=1e-12)
                # first-order balance: lam^-beta log kappa = (1/beta) lam log L
                assert lam**-beta * math.log(kappa) == pytest.approx(
                    lam * math.log(L) / beta, rel=1e-12
                )
                # the minimizer beats nearby lambdas
                for shift in (0.9, 1.1):
                    other = (lam * shift) ** -beta * math.log(kappa) + (
                        lam * shift
                    ) * math.log(L)
                    assert value <= other + 1e-12


def test_trend_helper_rejects_flat():
    ns = list(range(1, 1001))
    flat = [1.0] * 1000
    assert not trend_toward_zero(ns, flat)
    falling = [1.0 / n for n in ns]
    assert trend_toward_zero(ns, falling)


@pytest.mark.parametrize("alpha, message", [
    # c_200 = 200^140 is past the float range, though floor_pow's work is 1120 bits.
    (279, "cut count c_200 is too large for a float"),
    # c_200 = floor(200^133.5), about 1.6e307, is a float, but lgamma(c_200) is not.
    (267, "log binom"),
])
def test_balancing_rejects_a_cut_count_past_the_float_range(alpha, message):
    A = SamplingSequence.power(Fraction(3, 2), horizon=200)
    with pytest.raises(ResourceGuard, match=message):
        balancing_profile(A, phi_log(), power_cuts(alpha, 1), 200)

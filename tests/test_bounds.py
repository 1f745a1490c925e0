from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from stacklab.bounds import (
    BoundsError,
    balancing_rows,
    bounded_spacer_word_bound,
    brute_force_words,
    check_balancing_horizon,
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


# The columns of a `balancing_rows` row.
N, C_N, BALANCE, PHI, BINOM, TAU = range(6)


def _profile(A, phi, cuts, horizon, heights=None) -> list[tuple]:
    """The rows of a bounds op: load's check, then the one listing."""
    check_balancing_horizon(A, cuts, horizon)
    return list(balancing_rows(A, phi, cuts, horizon, heights))


def test_balancing_profile_case_i_trend():
    A = SamplingSequence.power(Fraction(3, 2), horizon=10_000)
    profile = _profile(A, phi_log(), constant_cuts(1), 10_000)
    ns = [r[N] for r in profile]
    by_n = {r[N]: r for r in profile}
    # endpoint values sit below the values at 1% of the horizon
    for column in (BALANCE, PHI, BINOM):
        assert by_n[10_000][column] < by_n[100][column]
    # the strict decade-trend holds for the gauge and binomial diagnostics
    # (the balance diagnostic starts at log(1) = 0, so its first-decade
    # minimum is degenerate)
    for column in (PHI, BINOM):
        assert trend_toward_zero(ns, [r[column] for r in profile]), column


def test_balancing_profile_case_iii_values():
    A = SamplingSequence.nlog(1.0, 1.0, horizon=200)
    profile = _profile(A, phi_exp_power(Fraction(1, 2)), loglog_cuts(), 200)
    row = next(r for r in profile if r[N] == 100)
    assert row[C_N] == 42


def test_balancing_rejects_exponential():
    doubling = SamplingSequence.explicit([2**k for k in range(1, 18)])
    with pytest.raises(BoundsError, match="balancing condition cannot hold"):
        check_balancing_horizon(doubling, constant_cuts(1), 17)


def test_balancing_diagnostics_nonnegative():
    A = SamplingSequence.power(2, horizon=500)
    profile = _profile(A, phi_power(Fraction(1, 2)), power_cuts(2, 3), 500)
    for r in profile:
        assert r[C_N] >= 1
        assert r[BALANCE] >= 0 and r[PHI] >= 0 and r[BINOM] >= 0
        assert r[TAU] is None


def test_balancing_rows_tau_matches_select_tau_randomized():
    # Each row's tau is select_tau's at its n, and blank where that raises;
    # the oracle is the exact-rational scan h > t_n / c_n.
    rng = random.Random(2027)
    checked = 0
    for _ in range(60):
        sd = random_stacking(rng, max_stages=5, max_q=6, height_limit=10**6)
        heights = sd.heights()
        if rng.random() < 0.5:
            A = SamplingSequence.power(Fraction(rng.randint(3, 8), rng.randint(2, 3)), horizon=400)
        else:
            A = SamplingSequence.nlog(rng.choice((0.5, 1.0, 3.0)), 1.0, horizon=400)
        cuts = rng.choice((
            constant_cuts(rng.randint(1, 40)),
            power_cuts(Fraction(rng.randint(1, 4), 2), Fraction(rng.randint(2, 4), 2)),
            loglog_cuts(),
        ))
        for row in _profile(A, phi_log(), cuts, A.horizon, heights):
            n, c_n, tau = row[N], row[C_N], row[TAU]
            t_n = A.generate(n)
            assert c_n == cuts(n)
            scan = next((i for i, h in enumerate(heights, 1) if h > Fraction(t_n, c_n)), None)
            assert tau == scan
            try:
                assert tau == select_tau(heights, A, cuts, n)
            except BoundsError:
                assert tau is None
            checked += tau is not None
    assert checked > 1000


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
        check_balancing_horizon(A, power_cuts(alpha, 1), 200)

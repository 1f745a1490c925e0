"""Parameter recipes for the randomized constructions, and the flexibility
constants for bounded-spacer systems.

Three recipes are provided, named for the sampling regime they target:

* "poly":  A = floor(n^alpha) with alpha >= 1 + 1/beta; the mixing floor
  is N0 = floor(h^beta) + 1 and the cut count q = 2^N0.
* "nlog":  A = floor(n (log n)^alpha) with alpha >= 1/beta; the floor is
  N0 = floor(e^(h^beta + 1)) + 1 and q = 2^N0.
* "flex":  bounded spacers in [0, L-1] at the critical alpha = 1 + 1/beta;
  q = floor(kappa^(h^beta)) + 1 and the word length is
  N = floor(((h-2)/alpha)^beta) - 1.  q is exact when h^beta is an
  integer; otherwise it is computed from floats, and only below 2^53,
  where a double still holds every integer.

All integer outputs are exact; failure-probability diagnostics are floats
and come in two variants that differ in the denominator of the Hoeffding
floor (the orbit horizon t_N itself versus the dependence range
m = floor(t_N/h) + 2), reported side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..intarith import ResourceGuard, as_fraction, floor_pow, is_int

# The most decimal digits a cut count q may have: Python's default limit for
# turning an int into a string, which every report of q does.
_MAX_CUT_DIGITS = 4300

# A cut count computed from floats is exact only below 2^53: above it a
# double no longer holds every integer.
_FLOAT_EXACT = 1 << 53


class RecipeError(ValueError):
    """Parameters outside a recipe's stated range."""


@dataclass(frozen=True)
class RecipeBundle:
    name: str
    floor_length: int | None  # N0
    word_length: int | None  # N (None when the length rule degenerates)
    cuts: int  # q
    dependence_range: int | None  # m
    deviation: float | None  # delta
    horizon_term: int | None  # t_N
    p_fail_horizon_floor: float | None  # floor denominator t_N
    p_fail_range_floor: float | None  # floor denominator m
    notes: tuple[str, ...] = ()


def _float(value, name: str) -> float:
    """`value` as a float; past the float range, ResourceGuard naming `name`."""
    try:
        return float(value)
    except OverflowError:
        raise ResourceGuard(f"{name} is too large for a float") from None


def _check_cut_digits(log_exponent: float, base: float, form: str) -> None:
    """Raise ResourceGuard before a cut count q = base^e of more than
    _MAX_CUT_DIGITS decimal digits is built.  The exponent comes as ln e,
    capped where e leaves the float range: past the cap, q is over the
    bound for every float base above 1."""
    if math.exp(min(log_exponent, 709.0)) * math.log10(base) >= _MAX_CUT_DIGITS:
        raise ResourceGuard(
            f"exponent too large: the cut count q = {form} would have more "
            f"than {_MAX_CUT_DIGITS} decimal digits"
        )


def _p_fail(alphabet: int, N: int, q: int, denom: int, delta: float) -> float | None:
    if denom < 1:
        return None
    exponent = N * math.log(alphabet) - 2.0 * (q // denom) * delta * delta
    if exponent > 700.0:
        return math.inf
    return math.exp(exponent)


def recipe_params(
    name: str,
    *,
    h: int,
    beta,
    alpha=None,
    gamma=Fraction(3, 2),
    eps=Fraction(1, 10),
    kappa=None,
    L: int | None = None,
    A=None,
) -> RecipeBundle:
    """Exact parameter bundle (N0, N, q, m, delta) for one construction step.

    `A` (a sampling sequence) is needed to evaluate t_N for the dependence
    range and failure diagnostics; without it those fields are None.
    """
    if not is_int(h) or h < 1:
        raise RecipeError(f"h must be a positive integer, got {h!r}")
    beta = as_fraction(beta, "beta", RecipeError)
    if beta <= 0:
        raise RecipeError("beta must be positive")
    notes: list[str] = []
    if name in ("poly", "nlog"):
        if alpha is None:
            raise RecipeError(f"recipe {name!r} needs alpha")
        alpha = as_fraction(alpha, "alpha", RecipeError)
        if name == "poly" and alpha < 1 + 1 / beta:
            raise RecipeError(
                f"recipe 'poly' requires alpha >= 1 + 1/beta "
                f"(= {1 + 1 / beta}), got {alpha}"
            )
        if name == "nlog" and alpha < 1 / beta:
            raise RecipeError(
                f"recipe 'nlog' requires alpha >= 1/beta (= {1 / beta}), got {alpha}"
            )
        gamma = as_fraction(gamma, "gamma", RecipeError)
        if gamma <= 1:
            raise RecipeError("gamma must exceed 1")
        eps = as_fraction(eps, "eps", RecipeError)
        if name == "poly":
            N0 = floor_pow(h, beta) + 1
        else:
            # ln N0 is about h^beta + 1 = e^(beta ln h) + 1: check it before
            # e^(h^beta + 1) can leave the float range.
            beta_f = _float(beta, "beta")
            _check_cut_digits(math.exp(min(beta_f * math.log(h), 709.0)) + 1.0, 2, "2^N0")
            N0 = math.floor(math.exp(_float(h, "h") ** beta_f + 1.0)) + 1
        _check_cut_digits(math.log(N0), 2, "2^N0")
        q = 2**N0
        N = math.ceil(gamma * N0)
        notes.append("word length rounds up: N = ceil(gamma * N0)")
        exp_delta = -float((Fraction(1, 2) / gamma - eps) * N)
        delta = 2.0**exp_delta
        alphabet = h + 1
    elif name == "flex":
        if kappa is None or kappa <= 1:
            raise RecipeError("recipe 'flex' needs kappa > 1")
        if alpha is None:
            alpha = 1 + 1 / beta
        alpha = as_fraction(alpha, "alpha", RecipeError)
        if alpha != 1 + 1 / beta:
            raise RecipeError(
                f"recipe 'flex' requires alpha = 1 + 1/beta (= {1 + 1 / beta}), "
                f"got {alpha}"
            )
        if L is None or L < 2:
            raise RecipeError("recipe 'flex' needs an integer spacer range L >= 2")
        if h <= L:
            notes.append("initial height at or below L; the construction wants h > L")
        eps = as_fraction(eps, "eps", RecipeError)
        beta_f, kappa_f = _float(beta, "beta"), _float(kappa, "kappa")
        _check_cut_digits(beta_f * math.log(h), kappa_f, "floor(kappa^(h^beta)) + 1")
        hb_exact = _exact_power(h, beta)
        hb_f = _float(h, "h") ** beta_f
        if hb_exact is not None and isinstance(kappa, (int, Fraction)):
            q = math.floor(Fraction(kappa) ** hb_exact) + 1
        else:
            # Past 2^64 by logs q is over the bound, and the power may overflow.
            small = hb_f * math.log2(kappa_f) < 64.0
            q = math.floor(kappa_f**hb_f) + 1 if small else _FLOAT_EXACT
            if q >= _FLOAT_EXACT:
                raise ResourceGuard(
                    "q = floor(kappa^(h^beta)) + 1 reaches 2^53 with h^beta not an "
                    "integer, and a double no longer holds every integer there"
                )
        if h > 2:
            N = floor_pow(Fraction(h - 2) / alpha, beta) - 1
        else:
            N = 0
        if N < 1:
            N = None
            notes.append("word-length rule gives N < 1 at this height")
        N0 = None
        delta = kappa_f ** (-(0.5 - float(eps)) * hb_f)
        alphabet = h + L
    else:
        raise RecipeError(f"unknown recipe {name!r}")

    t_N = None
    m = None
    p_horizon = None
    p_range = None
    if (
        A is not None
        and N is not None
        and N >= getattr(A, "n0", 1)
        and N <= getattr(A, "horizon", 0)
    ):
        t_N = A.generate(N)
        m = t_N // h + 2
        p_horizon = _p_fail(alphabet, N, q, t_N, delta) if t_N >= 1 else None
        p_range = _p_fail(alphabet, N, q, m, delta)
    return RecipeBundle(
        name=name,
        floor_length=N0,
        word_length=N,
        cuts=q,
        dependence_range=m,
        deviation=delta,
        horizon_term=t_N,
        p_fail_horizon_floor=p_horizon,
        p_fail_range_floor=p_range,
        notes=tuple(notes),
    )


def _exact_power(h: int, beta: Fraction) -> int | None:
    """h^beta as an exact integer when it is one, else None."""
    r = floor_pow(h, beta)
    return r if r**beta.denominator == h**beta.numerator else None


@dataclass(frozen=True)
class FlexibilityBounds:
    lower: float
    upper: float
    c1: float
    c2: float
    c1_log_L: float
    c2_log_L: float


def flexibility_bounds(L: int, beta, kappa) -> FlexibilityBounds:
    """Two-sided bracket for the achievable entropy at the critical exponent.

    lower = alpha^beta * log min(L^(alpha^(-1-beta)), kappa^(1/2)) and
    upper = (1+beta) * ((1/beta^beta) log kappa (log L)^beta)^(1/(1+beta))
    with alpha = 1 + 1/beta.  At kappa = L^(2 alpha^(-1-beta)) these collapse
    to C1 log L and C2 log L with C1 = beta/(1+beta), C2 = (2 beta)^(1/(1+beta)).
    """
    if L < 2:
        raise RecipeError("L must be an integer >= 2")
    beta_f = float(as_fraction(beta, "beta", RecipeError))
    kappa_f = float(kappa)
    if beta_f <= 0 or kappa_f <= 1:
        raise RecipeError("need beta > 0 and kappa > 1")
    alpha = 1.0 + 1.0 / beta_f
    log_L = math.log(L)
    scale = alpha ** (-1.0 - beta_f)
    lower = alpha**beta_f * min(scale * log_L, 0.5 * math.log(kappa_f))
    upper = (1.0 + beta_f) * (
        (1.0 / beta_f**beta_f) * math.log(kappa_f) * log_L**beta_f
    ) ** (1.0 / (1.0 + beta_f))
    c1 = beta_f / (1.0 + beta_f)
    c2 = (2.0 * beta_f) ** (1.0 / (1.0 + beta_f))
    return FlexibilityBounds(
        lower=lower,
        upper=upper,
        c1=c1,
        c2=c2,
        c1_log_L=c1 * log_L,
        c2_log_L=c2 * log_L,
    )

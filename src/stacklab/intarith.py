"""Exact big-integer arithmetic: k-th root floors and rational powers.

Heights and orbit offsets routinely exceed 64 bits, so every quantity
entering a comparison is kept as a Python integer or Fraction and powers
like floor(n^(p/q)) are evaluated with exact integer root extraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The most bits that floor_pow and floor_rational_pow let a power n^p of
# the exponent's numerator take (p * bit_length(n)).  Root extraction slows
# sharply with p: at this bound it takes up to about 60 ms, at p near 10^6 it
# runs for minutes.  Tests and benchmark workloads reach 51 bits.
POW_WORK_BOUND = 1 << 14


class ResourceGuard(RuntimeError):
    """A configured memory/size guard tripped before any allocation."""


def is_int(value) -> bool:
    """Whether `value` is an integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_fraction(value, name: str, error: type[Exception]) -> Fraction:
    """`value` as an exact Fraction: a Fraction, an int, a rational string
    ("3/2", "0.25") or a float, taken as the nearest fraction with a
    denominator of at most 10^12.  Anything else, a bool included, raises
    `error` naming `name`."""
    try:
        if isinstance(value, (Fraction, str)) or is_int(value):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise error(f"{name}: expected a number or 'p/q' rational, got {value!r}")


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for integers x >= 0, k >= 1, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        return math.isqrt(x)
    # Newton iteration on integers; the initial guess 2^ceil(bits/k) is >= root.
    guess = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * guess + x // guess ** (k - 1)) // k
        if nxt >= guess:
            break
        guess = nxt
    while guess**k > x:
        guess -= 1
    while (guess + 1) ** k <= x:
        guess += 1
    return guess


def _check_work(exponent: Fraction, *bases: int) -> None:
    """Raise ResourceGuard before a power base^p above POW_WORK_BOUND bits."""
    work = exponent.numerator * max(b.bit_length() for b in bases)
    if work > POW_WORK_BOUND:
        raise ResourceGuard(
            f"exponent {exponent} needs a power of {work} bits, above the "
            f"bound of {POW_WORK_BOUND}"
        )


def floor_pow(n: int, exponent: Fraction) -> int:
    """floor(n ** exponent) for integer n >= 0 and rational exponent >= 0."""
    p, q = exponent.numerator, exponent.denominator
    if n < 0 or p < 0:
        raise ValueError("floor_pow requires nonnegative base and exponent")
    _check_work(exponent, n)
    return iroot(n**p, q)


def floor_rational_pow(base: Fraction, exponent: Fraction) -> int:
    """floor(base ** exponent) for rational base >= 0, rational exponent >= 0.

    The result m is the largest integer with m^q * den^p <= num^p where
    base = num/den and exponent = p/q; comparisons are exact.
    """
    num, den = base.numerator, base.denominator
    p, q = exponent.numerator, exponent.denominator
    if num < 0 or p < 0:
        raise ValueError("floor_rational_pow requires nonnegative arguments")
    _check_work(exponent, num, den)
    target_num = num**p
    target_den = den**p
    m = iroot(target_num // target_den, q)
    while (m + 1) ** q * target_den <= target_num:
        m += 1
    while m > 0 and m**q * target_den > target_num:
        m -= 1
    return m
